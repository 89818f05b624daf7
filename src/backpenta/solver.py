"""Linear-time LU solve of backward pentadiagonal systems.

The recurrences are written once over whatever scalar type the system
carries: factor fails fast on a zero pivot beta_i; factor_symbolic
replaces every identically-zero pivot by a placeholder symbol x, over
Q(x). That Q(x) recurrence is the rescue's reference and the source of a
symbolic report's factors; solve_symbolic runs the kernel below.

factor, forward_sweep and back_substitute are the indexed form: each
row reads its band entries of A1 X = Y1, a PentaSystem, and earlier
results by index. They derive a report's factors and z, the one place A1
is built, and are the reference for float solve, which runs
the same operations in the same order fused into one pass that lifts each
entry as it reads it (_streamed_solve).

Exact answers come from one division-free kernel, _band_minors: a transfer
recurrence over Z[x] giving the Bareiss rows of [A1 + xE | Y1], which
_a1_rows reads in place from the backward system. Exact solve stops at
its first zero pivot; solve_symbolic replaces each by x, and evaluates
the finished solution and determinant at placeholder = 0.
force_interior_zero_pivot reads the same leading minors to zero a chosen
pivot in test systems; no other module decodes the packed minors.

All pivot/band indices in errors and reports are 1-based, matching the
conventional subscripts (beta_1 .. beta_n).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .ratfunc import PoleAtZero, Polynomial, RationalFunction
from .systems import VECTORS, BackwardPentaSystem, PentaSystem, reverse_rows


class ZeroPivot(ArithmeticError):
    """A pivot beta_i is zero: the factorization cannot continue.

    In float/exact mode the caller may retry with solve_symbolic.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero pivot beta[{index}]")


class IdenticallySingular(PoleAtZero):
    """The last pivot beta_n is identically zero and the placeholder
    substitution yields no finite solution: the system is singular."""


@dataclass(frozen=True)
class LUFactors:
    """Vectors of the factorization A1 = L U.

    alpha[i-1] = alpha_i (i = 1..n-1): first superdiagonal of U.
    beta[i-1]  = beta_i  (i = 1..n):   diagonal of U (the pivots).
    gamma[i-2] = gamma_i (i = 2..n):   first subdiagonal of L.
    The second superdiagonal of U is the b_tilde band and the second
    subdiagonal of L is a_tilde_(n-i+1)/beta_(i-2); neither needs storage.
    """

    n: int
    alpha: tuple
    beta: tuple
    gamma: tuple

    replacements: tuple = ()  # 1-based pivot indices replaced by the symbol


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: x_1..x_n in original order plus diagnostics;
    factors and z are derived on first read from the solved system it
    holds (not a copy), then cached; equality ignores them."""

    x: tuple
    det: object
    mode: str
    pivot_replacements: tuple = ()
    x_presub: Optional[tuple] = None  # symbolic mode: pre-substitution solution
    _system: Optional[BackwardPentaSystem] = field(
        default=None, repr=False, compare=False)

    @functools.cached_property
    def _a1(self) -> PentaSystem:  # lifted again: the solve's lift succeeded
        return reverse_rows(_lift(self._system, self.mode))

    @functools.cached_property
    def factors(self) -> LUFactors:  # without tol: no pivot fell below it
        fn = factor_symbolic if self.mode == "symbolic" else factor
        return fn(self._a1)

    @functools.cached_property
    def z(self) -> tuple:  # the forward sweep L z = Y1
        return forward_sweep(self._a1, self.factors)


def factor(system: PentaSystem, tol=None) -> LUFactors:
    """LU-factor A1; raises ZeroPivot(i) at the first zero pivot.

    With tol set (float mode), pivots smaller than tol in magnitude also
    count as zero. No row exchanges are ever performed.
    """
    return _factor(system, tol, None)


def factor_symbolic(system: PentaSystem) -> LUFactors:
    """Factor over the rational-function field, substituting the
    placeholder symbol for each identically zero pivot as it appears."""
    return _factor(system, None, RationalFunction.x())


def _factor(sys: PentaSystem, tol, sym) -> LUFactors:
    n = sys.n
    at, a, d, b, bt = sys.a_tilde, sys.a, sys.d, sys.b, sys.b_tilde
    alpha = [None] * (n - 1)
    beta = [None] * n
    gamma = [None] * (n - 1)  # gamma[i-2] = gamma_i
    hits = []

    def checked(i, s):
        if not s or (tol is not None and abs(s) < tol):
            if sym is None:
                raise ZeroPivot(i)
            hits.append(i)
            return sym
        return s

    beta[0] = checked(1, d[n - 1])
    gamma[0] = a[n - 2] / beta[0]
    alpha[0] = b[n - 2]
    beta[1] = checked(2, d[n - 2] - alpha[0] * gamma[0])
    alpha[1] = b[n - 3] - gamma[0] * bt[n - 3]
    for i in range(3, n):
        mult = at[n - i] / beta[i - 3]  # a~_(n-i+1) / beta_(i-2)
        g = (a[n - i] - mult * alpha[i - 3]) / beta[i - 2]
        gamma[i - 2] = g
        alpha[i - 1] = b[n - i - 1] - g * bt[n - i - 1]
        beta[i - 1] = checked(i, d[n - i] - mult * bt[n - i] - alpha[i - 2] * g)
    mult = at[0] / beta[n - 3]
    gamma[n - 2] = (a[0] - mult * alpha[n - 3]) / beta[n - 2]
    beta[n - 1] = checked(n, d[0] - mult * bt[0] - alpha[n - 2] * gamma[n - 2])

    return LUFactors(n, tuple(alpha), tuple(beta), tuple(gamma), tuple(hits))


def forward_sweep(system: PentaSystem, lu: LUFactors) -> tuple:
    """Solve L z = Y1 (unit lower-triangular sweep)."""
    n, y1 = system.n, system.y1
    at, beta, gamma = system.a_tilde, lu.beta, lu.gamma
    z = [None] * n
    z[0] = y1[0]
    z[1] = y1[1] - gamma[0] * z[0]
    for i in range(3, n + 1):
        z[i - 1] = (y1[i - 1] - (at[n - i] / beta[i - 3]) * z[i - 3]
                    - gamma[i - 2] * z[i - 2])
    return tuple(z)


def back_substitute(system: PentaSystem, lu: LUFactors, z) -> tuple:
    """Solve U x = z; the result is already in original order x_1..x_n."""
    n = system.n
    bt, alpha, beta = system.b_tilde, lu.alpha, lu.beta
    x = [None] * n
    x[n - 1] = z[n - 1] / beta[n - 1]
    x[n - 2] = (z[n - 2] - alpha[n - 2] * x[n - 1]) / beta[n - 2]
    for i in range(n - 2, 0, -1):
        x[i - 1] = (z[i - 1] - alpha[i - 1] * x[i]
                    - bt[n - i - 2] * x[i + 1]) / beta[i - 1]
    return tuple(x)


def determinant(lu: LUFactors):
    """det(A1) as the product of the pivots; in symbolic mode the product
    is evaluated at placeholder = 0 before reporting."""
    det = math.prod(lu.beta[1:], start=lu.beta[0])
    if isinstance(det, RationalFunction):
        det = det.eval_at_zero()
    return det


def det_original(lu: LUFactors):
    """det(A) = (-1)^floor(n/2) det(A1): parity of the row reversal."""
    det = determinant(lu)
    return -det if (lu.n // 2) % 2 else det


def solve(system: BackwardPentaSystem, mode: str = "exact",
          tol: Optional[float] = None) -> SolveReport:
    """Solve AX=Y by LU factorization of the row-reversed system.

    mode "exact" gives Fraction values; mode "float" float values.
    Raises ZeroPivot(i) when a pivot is zero (with tol, in float mode,
    also when |beta_i| < tol); the symbolic solver handles those cases.
    Raises ValueError for tol in exact mode, for a tol that is NaN or
    negative, and for an entry that is NaN or infinite as a float; in float
    mode OverflowError, naming the entry, for one beyond the float range.
    An entry's error comes before any ZeroPivot, whichever is met first.

    Float mode fuses factor, forward_sweep, back_substitute and determinant
    into one pass, _streamed_solve, lifting each entry as it reads it; it
    checks the entries only when the pass raises or gives a non-finite pivot
    or x_k. Exact mode runs _band_minors with no pivot replaced: ZeroPivot(k)
    at the first zero minor D_k = D_(k-1) beta_k, else x_k = N_k / D_n.
    """
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}; use solve_symbolic for symbolic")
    if mode == "exact" and tol is not None:
        raise ValueError("tol applies to float mode only")
    if tol is not None and not tol >= 0:  # |beta| < nan is never true
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if mode == "exact":
        _, minors, scales = _band_minors(_a1_rows(system))
        det = minors[-1][0]
        return SolveReport(
            tuple(Fraction(v, det) for v in _numerators(minors)),
            Fraction(det, math.prod(scales)), mode, _system=system)
    _require_backward(system)
    try:
        x, beta = _streamed_solve(system, tol)
    except (ArithmeticError, ValueError, TypeError):  # lift or ZeroPivot
        _lift(system, "float")
        raise
    # one sum finds any NaN or inf; finite values may still sum to inf,
    # and then the lift names nothing
    if not math.isfinite(sum(beta) + sum(x)):
        _lift(system, "float")
    return SolveReport(x=x, det=math.prod(beta), mode=mode, _system=system)


def _streamed_solve(system: BackwardPentaSystem, tol):
    """x and the pivots beta_1..beta_n of A1 X = Y1, from the unlifted
    system in one pass over its bands: float solve's pass.

    Each entry is lifted as it is read. Row i computes alpha_i, beta_i and
    z_i together, the elimination of the augmented [A1 | Y1]: z_i reuses
    the multiplier a~_(n-i+1)/beta_(i-2) and gamma_i of the factor step,
    and gamma is not kept. The back sweep then reads b~ again. Every
    operation is the one _factor, forward_sweep or back_substitute makes,
    in the same order, so the values are theirs bit for bit.
    """
    n = system.n
    at, a, d, b, bt, y = (system.a_tilde, system.a, system.d, system.b,
                          system.b_tilde, system.y)

    def checked(i, s):
        if not s or (tol is not None and abs(s) < tol):
            raise ZeroPivot(i)
        return s

    beta2 = checked(1, float(d[n - 1]))
    g = float(a[n - 2]) / beta2
    alpha2 = float(b[n - 2])
    beta1 = checked(2, float(d[n - 2]) - alpha2 * g)
    bti = float(bt[n - 3])
    alpha1 = float(b[n - 3]) - g * bti
    z2 = float(y[n - 1])
    z1 = float(y[n - 2]) - g * z2
    alpha, beta, z = [alpha2, alpha1], [beta2, beta1], [z2, z1]
    # Row i = 3..n-1 reads a~, a, d and y at band index n-i and b and b~ at
    # n-i-1, each slice running backwards; bti carries b~ at n-i, read by
    # the row before as its b~ at n-i-1.
    for ati, ai, di, bi, bti1, yi in zip(
            map(float, at[n - 3:0:-1]), map(float, a[n - 3:0:-1]),
            map(float, d[n - 3:0:-1]), map(float, b[n - 4::-1]),
            map(float, bt[n - 4::-1]), map(float, y[n - 3:0:-1])):
        mult = ati / beta2  # a~_(n-i+1) / beta_(i-2)
        g = (ai - mult * alpha2) / beta1
        al = bi - g * bti1
        s = di - mult * bti - alpha1 * g
        if not s or (tol is not None and abs(s) < tol):
            raise ZeroPivot(len(beta) + 1)
        z2, z1 = z1, yi - mult * z2 - g * z1
        alpha2, alpha1, beta2, beta1, bti = alpha1, al, beta1, s, bti1
        alpha.append(al)
        beta.append(s)
        z.append(z1)
    mult = float(at[0]) / beta2
    g = (float(a[0]) - mult * alpha2) / beta1
    beta.append(checked(n, float(d[0]) - mult * bti - alpha1 * g))
    z.append(float(y[0]) - mult * z2 - g * z1)

    x2 = z[n - 1] / beta[n - 1]
    x1 = (z[n - 2] - alpha[n - 2] * x2) / beta[n - 2]
    x = [x2, x1]
    for zi, al, bti, s in zip(z[n - 3::-1], alpha[n - 3::-1],
                              map(float, bt), beta[n - 3::-1]):
        x2, x1 = x1, (zi - al * x1 - bti * x2) / s
        x.append(x1)
    x.reverse()
    return tuple(x), beta


def _require_backward(system) -> None:
    """Reject a reversed system (A1): it would be solved as if it were A."""
    if not isinstance(system, BackwardPentaSystem):
        raise AttributeError(f"solve takes a BackwardPentaSystem, not "
                             f"{type(system).__name__}")


def _lift(system: BackwardPentaSystem,
          mode: str = "exact") -> BackwardPentaSystem:
    """The system over float in float mode and over Fraction otherwise, the
    one lift of every mode; its rows stay in the order of A. Names the
    first faulty entry in BANDS order then y: in float mode OverflowError
    for one beyond the float range, then ValueError for a NaN or inf;
    otherwise ValueError for a NaN or inf."""
    if mode == "float":
        try:
            lifted = system.map_scalars(float)
        except OverflowError:
            _name_entry(system, OverflowError, _beyond_float_range)
            raise
        # one sum per vector finds any NaN or inf; finite values may still
        # sum to inf, and then no entry is named
        if not all(math.isfinite(sum(getattr(lifted, field)))
                   for field, _ in VECTORS):
            _name_entry(lifted, ValueError, _not_finite)
    else:
        try:
            lifted = system.map_scalars(Fraction)
        except (ValueError, OverflowError):  # Fraction of a float NaN or inf
            _name_entry(system, ValueError, _not_finite)
            raise
    return lifted


def _not_finite(v) -> Optional[str]:
    # compares, never converts: an int beyond the float range is finite
    try:
        return f"is {v}, not finite" if v != v or abs(v) == math.inf else None
    except TypeError:  # no abs (a str): the lift's own error stands
        return None


def _beyond_float_range(v) -> Optional[str]:
    try:
        float(v)
    except OverflowError:
        return "is beyond the float range"
    return None


def _name_entry(system: BackwardPentaSystem, error, fault) -> None:
    """Raise error naming the first entry v, in BANDS order then y, for
    which fault(v) gives a text; return if there is none."""
    for field, k in VECTORS:
        for j, v in enumerate(getattr(system, field)):
            text = fault(v)
            if text:
                raise error(f"vector {field}: entry {field}_"
                            f"{j + 1 + max(k, 0)} {text}") from None


def solve_symbolic(system: BackwardPentaSystem) -> SolveReport:
    """Solve AX=Y over the rational-function field, rescuing zero pivots.

    Each identically-zero pivot becomes the placeholder symbol; the
    solution components and the determinant are then evaluated at
    placeholder = 0. Raises PoleAtZero when that substitution hits a pole
    (IdenticallySingular when beta_n itself was replaced).

    The values equal those of factor_symbolic, forward_sweep and
    back_substitute over Q(x), but come from _band_minors: replacing
    beta_i by x adds x to A1[i][i], so every quantity is a ratio of minors
    of [A1 + xE | Y1], integer polynomials computed with no division.
    Canonical rational functions are built only for x_presub, once per
    component of _numerators, and x is their eval_at_zero. Raises
    ValueError, naming the entry, for one that is NaN or infinite as a
    float.
    """
    n = system.n
    rows = list(_a1_rows(system))
    bits = _slot_bits(rows)
    replaced, minors, scales = _band_minors(rows, bits)
    det = _unpack(minors[-1][0], bits)
    det_poly = Polynomial(det)
    x_presub = tuple(RationalFunction(Polynomial(_unpack(v, bits)), det_poly)
                     for v in _numerators(minors))
    try:
        x = tuple(f.eval_at_zero() for f in x_presub)
    except PoleAtZero:
        if n in replaced:
            raise IdenticallySingular(f"beta[{n}] is identically "
                                      "zero; no finite solution") from None
        raise
    return SolveReport(x=x, det=Fraction(det[0], math.prod(scales)),
                       mode="symbolic", pivot_replacements=replaced,
                       x_presub=x_presub, _system=system)


def _a1_rows(system: BackwardPentaSystem):
    """Rows i of [A1 | Y1] in order, each scaled by the lcm of its
    denominators: pairs (row, scale) of the integer list [A1[i][i-2],
    A1[i][i-1], A1[i][i], A1[i][i+1], A1[i][i+2], Y1[i]] (0-based, zeros
    off the band) and the scale, each built only when it is read. Row i
    is entry n - 1 - i of each band and of y of the backward system.

    First rejects a system that is not backward, then reads int and
    Fraction entries as they are, else _lift's, which names a NaN or inf
    entry before any row: this scan keeps every ZeroPivot after it."""
    _require_backward(system)
    if not all(set(map(type, getattr(system, field))) <= {int, Fraction}
               for field, _ in VECTORS):
        system = _lift(system)
    n = system.n
    at, a, d, b, bt, y = (system.a_tilde, system.a, system.d, system.b,
                          system.b_tilde, system.y)
    for i in range(n):
        j = n - 1 - i  # band index of A1 row i
        row = [at[j] if i >= 2 else 0, a[j] if i >= 1 else 0, d[j],
               b[j - 1] if j >= 1 else 0, bt[j - 2] if j >= 2 else 0, y[j]]
        scale = math.lcm(*(v.denominator for v in row))
        yield [v.numerator * (scale // v.denominator) for v in row], scale


def _slot_bits(rows: list) -> int:
    """Slot width for the packed minors of the (row, scale) pairs: one more
    than the bit length of the product of their absolute row sums plus
    scales."""
    return math.prod(sum(map(abs, row)) + scale
                     for row, scale in rows).bit_length() + 1


def _band_minors(rows, bits: Optional[int] = None):
    """Bareiss values of the scaled [A1 + xE | Y1], with no division.

    rows are _a1_rows' (row, scale) pairs, read one at a time. With bits None
    a zero pivot k raises ZeroPivot(k + 1); otherwise it gets scale * x added
    to its diagonal entry: x itself in the unscaled system. Polynomials in
    Z[x] are packed into ints by Kronecker substitution: p is stored as p(X)
    for X = 2**bits, so ring operations and exact division in Z[x] are plain
    int operations. Every value is a minor of the scaled augmented matrix, and
    bits = _slot_bits(rows) bounds every coefficient of such a minor: the
    packing is injective, and _unpack recovers it.

    A ten-state transfer recurrence (the banded case of Molinari, Linear
    Algebra Appl. 429 (2008); Sogabe, Appl. Math. Comput. 196 (2008)),
    with the y column added: after rows 0..k-1, the state s_PQ is
    det(rows 0..k-1; columns 0..k-3, P, Q) for P < Q in {k-2, k-1, k, k+1,
    y}, named m2, m1, z, p and y. Two virtual identity rows in front start
    it at m2m1 = 1. A Laplace expansion along row k gives the next ten
    states in 22 products of a state by a band entry. The new m2m1, m2z,
    m2p and m2y are row k's Bareiss values (D_k, u1, u2, c_k): the minors
    of rows 0..k on columns 0..k-1 and one more column, k, k+1, k+2 or y.
    D_k is the leading (k+1)-minor. Returns the 1-based replaced pivots,
    each row's packed (D_k, u1, u2, c_k) and the scales it read.
    """
    m2z = m2p = m2y = m1z = m1p = m1y = zp = zy = py = 0
    m2m1 = 1
    replaced, minors, scales = [], [], []
    for k, ((r0, r1, r2, r3, r4, ry), scale) in enumerate(rows):
        d = r0 * m1z - r1 * m2z + r2 * m2m1
        if not d:  # redo the step with scale * x added to the diagonal
            if bits is None:
                raise ZeroPivot(k + 1)
            replaced.append(k + 1)
            r2 += scale << bits
            d = (scale << bits) * m2m1
        m2m1, m2z, m2p, m2y, m1z, m1p, m1y, zp, zy, py = (
            d, r0 * m1p - r1 * m2p + r3 * m2m1, r4 * m2m1,
            r0 * m1y - r1 * m2y + ry * m2m1,
            r0 * zp - r2 * m2p + r3 * m2z, r4 * m2z,
            r0 * zy - r2 * m2y + ry * m2z, r4 * m2p,
            r0 * py - r3 * m2y + ry * m2p, -r4 * m2y)
        minors.append((m2m1, m2z, m2p, m2y))
        scales.append(scale)
    return tuple(replaced), minors, scales


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
    xE (see solve_symbolic), and reads only rows 1..i of A1: the D_k of
    _band_minors on the first i rows that _a1_rows yields, so only those
    i rows are built. Their y column goes unread; no Q(x) arithmetic runs.
    """
    n = system.n
    if not 2 <= i <= n:
        raise ValueError("interior pivot index must be in 2..n")
    p = _lift(system, "exact")  # all of it: a NaN anywhere is named
    rows = list(itertools.islice(_a1_rows(p), i))
    bits = _slot_bits(rows)
    _, minors, scales = _band_minors(rows, bits)
    # rows are scaled, so beta_i = D_i / (scales[i-1] D_(i-1)): a constant
    # exactly when D_i is a constant multiple of D_(i-1)
    di = _unpack(minors[i - 1][0], bits)
    dp = _unpack(minors[i - 2][0], bits)
    if len(di) != len(dp) or any(u * dp[-1] != v * di[-1]
                                 for u, v in zip(di, dp)):
        return None
    d = list(p.d)
    d[n - i] -= Fraction(di[-1], dp[-1] * scales[i - 1])  # d_(n-i+1)
    return replace(p, d=d)


def _numerators(minors: list) -> list:
    """Cramer numerators N_k = D_n x_k of _band_minors' rows, by Bareiss's
    N_k = (c_k D_n - u1 N_(k+1) - u2 N_(k+2)) / D_k: one division a row."""
    det, numers = minors[-1][0], [0, 0]  # N_(n+2), N_(n+1), then N_n..N_1
    for dk, u1, u2, c in reversed(minors):
        numers.append((c * det - u1 * numers[-1] - u2 * numers[-2]) // dk)
    return numers[:1:-1]


def _unpack(v: int, bits: int) -> list:
    """Coefficients, ascending, of the polynomial packed as v (balanced
    base-2**bits digits)."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while v:
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> bits
    return out
