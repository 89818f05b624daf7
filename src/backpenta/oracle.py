"""Independent dense verification path and seedable system generator.

The dense solver is deliberately unrelated to the banded recurrences: it
clears denominators row by row and runs fraction-free (Bareiss) elimination
with partial pivoting over plain integers, finishing with an exact
back substitution. O(n^3) is accepted; it only ever sees test-sized n.

The generator's PRNG is splitmix64, fixed so the same seed produces the
same system on every platform. Entries in [-m, m] are drawn as
``next_u64() % (2m+1) - m`` (modulo bias is negligible for the tiny
ranges used here and keeps the mapping trivially portable).

force_interior_zero_pivot builds systems whose pivot beta_i is exactly
zero, from the leading minors of solver._band_minors: integer arithmetic
over the first i rows, with no rational-function arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .solver import _a1_rows, _band_minors, _lift, _unpack
from .systems import BANDS, BackwardPentaSystem, new_system

_MASK64 = (1 << 64) - 1


class Singular(ArithmeticError):
    """The dense matrix has no pivot in some column: no unique solution."""


class SplitMix64:
    """splitmix64 stream (Steele/Lea/Flood finalizer), 64-bit state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_int(self, m: int) -> int:
        """Uniform draw from [-m, m]."""
        return self.next_u64() % (2 * m + 1) - m


def _integer_rows(matrix, rhs=None):
    # Clear denominators per row; returns integer rows (augmented when rhs
    # is given) and the product of the row scale factors.
    n = len(matrix)
    rows = []
    scale = 1
    for i in range(n):
        row = [Fraction(v) for v in matrix[i]]
        if rhs is not None:
            row.append(Fraction(rhs[i]))
        mult = math.lcm(*(v.denominator for v in row))
        rows.append([int(v * mult) for v in row])
        scale *= mult
    return rows, scale


def _bareiss(rows, width):
    # Fraction-free elimination with partial pivoting on |entry|.
    # Returns (rows upper-triangular in the first n columns, sign) or
    # None in place of sign when a column has no pivot.
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(rows[r][k]))
        if rows[piv][k] == 0:
            return rows, None
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            ri, rk = rows[i], rows[k]
            head = ri[k]
            for j in range(k + 1, width):
                ri[j] = (pivot * ri[j] - head * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return rows, sign


def dense_solve(matrix, rhs) -> tuple:
    """Exact solution of a dense square system; raises Singular."""
    n = len(matrix)
    if len(rhs) != n:
        raise ValueError("rhs length must match matrix size")
    rows, _ = _integer_rows(matrix, rhs)
    rows, sign = _bareiss(rows, n + 1)
    if sign is None:
        raise Singular("no pivot available; matrix is singular")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rows[i][n])
        for j in range(i + 1, n):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return tuple(x)


def dense_det(matrix) -> Fraction:
    """Exact determinant (0 for singular matrices)."""
    n = len(matrix)
    rows, scale = _integer_rows(matrix)
    rows, sign = _bareiss(rows, n)
    if sign is None:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1], scale)


_BAND_NAMES = dict(zip(("aa", "a", "d", "b", "bb"), BANDS))


def _band_slot(pos: str, n: int):
    """Parse a band position like 'd_n', 'd_3' or 'bb_4' to (field, index).

    Band names: aa (a_tilde), a, d, b, bb (b_tilde); the index is the
    conventional 1-based subscript in ASCII digits or the letter n.
    """
    try:
        band, idx = pos.rsplit("_", 1)
        field, k = _BAND_NAMES[band]
    except (ValueError, KeyError):
        raise ValueError(f"bad band position {pos!r}") from None
    if idx != "n" and not (idx.isascii() and idx.isdigit()):
        raise ValueError(f"bad band position {pos!r}")
    first = 1 + max(k, 0)
    i = n if idx == "n" else int(idx)
    if not first <= i < first + n - abs(k):
        raise ValueError(f"band position {pos!r} out of range for n={n}")
    return field, i - first


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic random-system recipe.

    force_zero_pivots lists band positions (see _band_slot) zeroed after
    generation, e.g. ("d_n",) to knock out the leading pivot. With
    known_solution the rhs is built as A times a small integer vector, so
    the expected solution is known in advance.
    """

    seed: int
    n: int
    entry_range: int = 9
    force_zero_pivots: tuple = ()
    known_solution: bool = True

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("n must be >= 5")
        if self.entry_range < 1:
            raise ValueError("entry_range must be >= 1")


def generate(config: GeneratorConfig) -> BackwardPentaSystem:
    """Produce the system determined by the config (same seed, same system)."""
    rng = SplitMix64(config.seed)
    n, m = config.n, config.entry_range
    draw = lambda count: [rng.uniform_int(m) for _ in range(count)]
    bands = {field: draw(n - abs(k)) for field, k in BANDS}
    for pos in config.force_zero_pivots:
        field, idx = _band_slot(pos, n)
        bands[field][idx] = 0
    if config.known_solution:
        sol = [rng.uniform_int(3) for _ in range(n)]
        y = [0] * n
        # y = A sol in O(n): entry j of a band sits at (row0 + j, col0 - j)
        for field, k in BANDS:
            row0 = max(k, 0)
            col0 = n - 1 - row0 + k
            for j, v in enumerate(bands[field]):
                y[row0 + j] += v * sol[col0 - j]
    else:
        y = draw(n)
    return new_system(**bands, y=y)


def force_interior_zero_pivot(system: BackwardPentaSystem, i: int):
    """Adjust one anti-diagonal entry so pivot beta_i becomes exactly zero.

    beta_i depends on d_(n-i+1) only through an additive term, and the
    pivots before i do not read that entry, so shifting it by -beta_i
    zeroes the pivot without disturbing beta_1..beta_(i-1). Returns the
    modified system, with Fraction entries, or None when beta_i is not a
    constant (an earlier pivot was already zero, so the system already
    exercises the rescue path). Raises ValueError, naming the entry, for
    one that is NaN or infinite as a float.

    beta_i is D_i / D_(i-1), a ratio of leading minors of the rescued A1 +
    xE (see solve_symbolic), and reads only rows 1..i of A1; the minors
    come from the division-free recurrence of solver._band_minors.
    """
    n = system.n
    if not 2 <= i <= n:
        raise ValueError("interior pivot index must be in 2..n")
    p = _lift(system, "exact")  # all of it: a NaN anywhere is named
    rows, scales = _a1_rows(p, i)
    bits, _, minors = _band_minors(rows, scales)
    # rows are scaled, so beta_i = D_i / (scales[i-1] D_(i-1)): a constant
    # exactly when D_i is a constant multiple of D_(i-1)
    di, dp = _unpack(minors[i - 1], bits), _unpack(minors[i - 2], bits)
    if len(di) != len(dp) or any(u * dp[-1] != v * di[-1]
                                 for u, v in zip(di, dp)):
        return None
    d = list(p.d)
    d[n - i] -= Fraction(di[-1], dp[-1] * scales[i - 1])  # d_(n-i+1)
    return new_system(p.a_tilde, p.a, d, p.b, p.b_tilde, p.y1[::-1])
