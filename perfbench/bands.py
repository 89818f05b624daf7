"""O(n) banded input builder and verifier for the benchmark.

`oracle.generate(known_solution=True)` forms y through `densify`, which
needs n*n cells, and its random [-9, 9] systems hit exact or float zero
pivots at a few percent of seeds. The family built here stays O(n) and
never needs pivoting: every row of A is strictly diagonally dominant, so
the row-reversed matrix A1 (whose diagonal is d reversed) is too.
"""

from __future__ import annotations

from backpenta.oracle import SplitMix64
from backpenta.systems import new_system

OFF_RANGE = 9  # off-diagonal entries are drawn from [-9, 9]
X_RANGE = 3  # the known solution x* is drawn from [-3, 3]


def _byte_stream(seed: int):
    # Eight draws per splitmix64 output keep the builder cheap at n=10^5.
    rng = SplitMix64(seed)
    while True:
        u = rng.next_u64()
        for shift in range(0, 64, 8):
            yield (u >> shift) & 0xFF


def _row_terms(system, r):
    """(coefficient, 0-based column) pairs of row r (1-based) of A."""
    n = system.n
    col = n - r  # column of d_r
    terms = [(system.d[r - 1], col)]
    if r <= n - 1:
        terms.append((system.a[r - 1], col - 1))
    if r <= n - 2:
        terms.append((system.a_tilde[r - 1], col - 2))
    if r >= 2:
        terms.append((system.b[r - 2], col + 1))
    if r >= 3:
        terms.append((system.b_tilde[r - 3], col + 2))
    return terms


def band_product(system, x) -> list:
    """A x for the backward pentadiagonal A of `system`, in O(n)."""
    return [sum(c * x[j] for c, j in _row_terms(system, r))
            for r in range(1, system.n + 1)]


def dominant_system(seed: int, n: int):
    """A row diagonally dominant system and its known solution x*.

    Off-diagonal entries are integers in [-9, 9]; each d_r has a random
    sign and exceeds the absolute row sum of its off-diagonals by 1 to 9.
    y = A x* is formed with the banded product. Returns (system, x*).
    """
    draw = _byte_stream(seed)
    off = lambda k: [next(draw) % (2 * OFF_RANGE + 1) - OFF_RANGE
                     for _ in range(k)]
    a_tilde, a, b, b_tilde = off(n - 2), off(n - 1), off(n - 1), off(n - 2)
    probe = new_system(a_tilde, a, [1] * n, b, b_tilde, [0] * n)
    d = []
    for r in range(1, n + 1):
        row_sum = sum(abs(c) for c, _ in _row_terms(probe, r)[1:])
        m = next(draw)
        d.append((row_sum + 1 + m % 9) * (1 if m & 0x80 else -1))
    x_star = tuple(next(draw) % (2 * X_RANGE + 1) - X_RANGE for _ in range(n))
    probe = new_system(a_tilde, a, d, b, b_tilde, [0] * n)
    return (new_system(a_tilde, a, d, b, b_tilde, band_product(probe, x_star)),
            x_star)


def backward_error(system, x) -> float:
    """Normwise backward error eta = |y - Ax|_inf / (|A|_inf |x|_inf + |y|_inf)
    (Rigal-Gaches), evaluated in float arithmetic with a banded residual."""
    x = [float(v) for v in x]
    res = norm_a = 0.0
    for r in range(1, system.n + 1):
        terms = _row_terms(system, r)
        ax = sum(float(c) * x[j] for c, j in terms)
        res = max(res, abs(float(system.y[r - 1]) - ax))
        norm_a = max(norm_a, sum(abs(float(c)) for c, _ in terms))
    norm_x = max(abs(v) for v in x)
    norm_y = max(abs(float(v)) for v in system.y)
    return res / (norm_a * norm_x + norm_y)
