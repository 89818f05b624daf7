"""Linear-time LU solve of backward pentadiagonal systems.

The recurrences are written once over whatever scalar type the system
carries:

* numeric/exact: fails fast on a zero pivot beta_i;
* symbolic rescue (factor_symbolic): every identically-zero pivot is
  replaced by a single placeholder symbol and all downstream quantities
  become rational functions of it.

factor, forward_sweep and back_substitute are the indexed form: each
row reads its band entries and earlier results by index. They derive a
report's factors and z, and are the reference for float and exact solve,
which run the same operations in the same order fused into one pass that
lifts each entry as it reads it (_streamed_solve).

solve_symbolic computes the same rescue without rational-function
arithmetic, by fraction-free band elimination over Z[x], and evaluates
the finished solution and determinant at placeholder = 0.

All pivot/band indices in errors and reports are 1-based, matching the
conventional subscripts (beta_1 .. beta_n).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
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
        return _lift(self._system, self.mode)

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

    mode "exact" lifts all scalars to Fraction; mode "float" to float.
    Raises ZeroPivot(i) when a pivot is zero (with tol, in float mode,
    also when |beta_i| < tol); the symbolic solver handles those cases.
    Raises ValueError for tol in exact mode, for a tol that is NaN or
    negative, and for an entry that is NaN or infinite as a float; in float
    mode OverflowError, naming the entry, for one beyond the float range.
    An entry's error comes before any ZeroPivot, whichever is met first.

    The values are those of factor, forward_sweep, back_substitute and
    determinant on the lifted A1, computed by _streamed_solve in one pass
    that lifts each entry as it reads it. The entries are checked only
    when that pass raises or, in float mode, gives a pivot or a component
    of x that is not finite.
    """
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}; use solve_symbolic for symbolic")
    if mode == "exact" and tol is not None:
        raise ValueError("tol applies to float mode only")
    if tol is not None and not tol >= 0:  # |beta| < nan is never true
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if not isinstance(system, BackwardPentaSystem):
        # a PentaSystem (A1) is already reversed and has no map_scalars
        raise AttributeError(f"solve takes a BackwardPentaSystem, not "
                             f"{type(system).__name__}")
    try:
        x, beta = _streamed_solve(system, float if mode == "float"
                                  else Fraction, tol)
    except (ArithmeticError, ValueError, TypeError):  # lift or ZeroPivot
        _check_entries(system, mode)
        raise
    # one sum finds any NaN or inf; finite values may still sum to inf,
    # and then the check finds nothing
    if mode == "float" and not math.isfinite(sum(beta) + sum(x)):
        _check_entries(system, mode)
    return SolveReport(x=x, det=math.prod(beta[1:], start=beta[0]),
                       mode=mode, _system=system)


def _streamed_solve(system: BackwardPentaSystem, lift, tol):
    """x and the pivots beta_1..beta_n of A1 X = Y1, from the unlifted
    system in one pass over its bands.

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

    beta2 = checked(1, lift(d[n - 1]))
    g = lift(a[n - 2]) / beta2
    alpha2 = lift(b[n - 2])
    beta1 = checked(2, lift(d[n - 2]) - alpha2 * g)
    bti = lift(bt[n - 3])
    alpha1 = lift(b[n - 3]) - g * bti
    z2 = lift(y[n - 1])
    z1 = lift(y[n - 2]) - g * z2
    alpha, beta, z = [alpha2, alpha1], [beta2, beta1], [z2, z1]
    # Row i = 3..n-1 reads a~, a, d and y at band index n-i and b and b~ at
    # n-i-1, each slice running backwards; bti carries b~ at n-i, read by
    # the row before as its b~ at n-i-1.
    for ati, ai, di, bi, bti1, yi in zip(
            map(lift, at[n - 3:0:-1]), map(lift, a[n - 3:0:-1]),
            map(lift, d[n - 3:0:-1]), map(lift, b[n - 4::-1]),
            map(lift, bt[n - 4::-1]), map(lift, y[n - 3:0:-1])):
        mult = ati / beta2  # a~_(n-i+1) / beta_(i-2)
        g = (ai - mult * alpha2) / beta1
        al = bi - g * bti1
        s = di - mult * bti - alpha1 * g
        if not s or (tol is not None and abs(s) < tol):
            checked(len(beta) + 1, s)
        z2, z1 = z1, yi - mult * z2 - g * z1
        alpha2, alpha1, beta2, beta1, bti = alpha1, al, beta1, s, bti1
        alpha.append(al)
        beta.append(s)
        z.append(z1)
    mult = lift(at[0]) / beta2
    g = (lift(a[0]) - mult * alpha2) / beta1
    beta.append(checked(n, lift(d[0]) - mult * bti - alpha1 * g))
    z.append(lift(y[0]) - mult * z2 - g * z1)

    x2 = z[n - 1] / beta[n - 1]
    x1 = (z[n - 2] - alpha[n - 2] * x2) / beta[n - 2]
    x = [x2, x1]
    for zi, al, bti, s in zip(z[n - 3::-1], alpha[n - 3::-1],
                              map(lift, bt), beta[n - 3::-1]):
        x2, x1 = x1, (zi - al * x1 - bti * x2) / s
        x.append(x1)
    x.reverse()
    return tuple(x), beta


def _check_entries(system: BackwardPentaSystem, mode: str) -> None:
    """Raise what _lift(system, mode) raises; return if the lift succeeds."""
    # Fraction takes every int and Fraction: only other types can fail
    if mode == "exact" and set(map(type, itertools.chain(
            *(getattr(system, field) for field, _ in VECTORS)))
            ) <= {int, Fraction}:
        return
    _lift(system, mode)


def _lift(system: BackwardPentaSystem, mode: str = "exact") -> PentaSystem:
    """A1 X = Y1 over float in float mode and over Fraction otherwise, the
    one lift of every mode. Names the first faulty entry in BANDS order
    then y: in float mode OverflowError for one beyond the float range,
    then ValueError for a NaN or inf; otherwise ValueError for a NaN or
    inf."""
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
    return reverse_rows(lifted)


def _not_finite(v) -> Optional[str]:
    # compares, never converts: an int beyond the float range is finite
    return f"is {v}, not finite" if v != v or abs(v) == math.inf else None


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
    back_substitute over Q(x), but come from _band_bareiss: replacing
    beta_i by x adds x to A1[i][i], so every quantity is a ratio of minors
    of A1 + xE, integer polynomials computed without a gcd. Canonical
    rational functions are built only for x_presub, once per component,
    and x is their eval_at_zero. Raises ValueError, naming the entry, for
    one that is NaN or infinite as a float.
    """
    rows, scales = _a1_rows(_lift(system, "exact"))
    bits, replaced, det, numers = _band_bareiss(rows, scales)
    det = _unpack(det, bits)
    numers = [_unpack(v, bits) for v in numers]
    det_poly = Polynomial(det)
    x_presub = tuple(RationalFunction(Polynomial(num), det_poly)
                     for num in numers)
    try:
        x = tuple(f.eval_at_zero() for f in x_presub)
    except PoleAtZero:
        if system.n in replaced:
            raise IdenticallySingular(f"beta[{system.n}] is identically "
                                      "zero; no finite solution") from None
        raise
    return SolveReport(x=x, det=Fraction(det[0], math.prod(scales)),
                       mode="symbolic", pivot_replacements=replaced,
                       x_presub=x_presub, _system=system)


def _a1_rows(system: PentaSystem, m: Optional[int] = None):
    """Rows i of [A1 | Y1], each scaled by the lcm of its denominators,
    as integer lists [A1[i][i-2], A1[i][i-1], A1[i][i], A1[i][i+1],
    A1[i][i+2], Y1[i]] (0-based, zeros off the band); and the scales.
    Only the leading m rows when m is given."""
    n = system.n
    at, a, d, b, bt, y1 = (system.a_tilde, system.a, system.d, system.b,
                           system.b_tilde, system.y1)
    rows, scales = [], []
    for i in range(n if m is None else m):
        j = n - 1 - i  # band index of A1 row i
        row = [at[j] if i >= 2 else 0, a[j] if i >= 1 else 0, d[j],
               b[j - 1] if j >= 1 else 0, bt[j - 2] if j >= 2 else 0, y1[i]]
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
        scales.append(scale)
    return rows, scales


def _band_bareiss(rows: list, scales: list):
    """Fraction-free band elimination of [A1 + xE | Y1] without pivoting.

    rows and scales come from _a1_rows; a zero pivot k gets scales[k] * x
    added, which in the unscaled system is the placeholder x itself.
    Polynomials in Z[x] are packed into ints by Kronecker substitution:
    p is stored as p(X) for X = 2**bits, so that ring operations and exact
    division in Z[x] are plain int operations. Every stored value is a
    minor of the scaled augmented matrix, and bits exceeds the bit length
    of the product of its absolute row sums (each counting the x
    coefficient), which bounds every coefficient of such a minor; so the
    packing is injective and _unpack recovers it.

    Rows are reduced in place to the Bareiss upper-triangular form: row k
    ends as [., ., D_k, u, u, c_k] where D_k is the leading (k+1)-minor.
    A row is untouched until it enters the band at step k, two steps
    before its pivot. Bareiss would by then have scaled it by D_(k-1);
    that factor cancels the step's division by D_(k-1), so the entering
    row is updated from its original entries with no division. Returns
    bits, the 1-based replaced pivots, the determinant D_(n-1) and the
    Cramer numerators N_k = D_(n-1) x_k, all packed.
    """
    n = len(rows)
    bits = _slot_bits(rows, scales)
    replaced = []
    prev = 1
    for k in range(n):
        piv = rows[k]
        p = piv[2]
        if not p:
            replaced.append(k + 1)
            p = piv[2] = (scales[k] << bits) * prev
        u1, u2, c = piv[3], piv[4], piv[5]
        if k + 1 < n:
            r = rows[k + 1]
            h = r[1]
            r[2] = (p * r[2] - h * u1) // prev
            r[3] = (p * r[3] - h * u2) // prev
            r[4] = p * r[4] // prev
            r[5] = (p * r[5] - h * c) // prev
        if k + 2 < n:  # row entering the band: still its original entries
            r = rows[k + 2]
            h = r[0]
            r[1] = p * r[1] - h * u1
            r[2] = p * r[2] - h * u2
            r[3] = p * r[3]
            r[4] = p * r[4]
            r[5] = p * r[5] - h * c
        prev = p
    numers = [0] * (n + 2)
    for k in range(n - 1, -1, -1):
        _, _, dk, u1, u2, c = rows[k]
        numers[k] = (c * prev - u1 * numers[k + 1] - u2 * numers[k + 2]) // dk
    return bits, tuple(replaced), prev, numers[:n]


def _slot_bits(rows: list, scales: list) -> int:
    """Slot width for the packed minors of the rows: one more than the bit
    length of the product of their absolute row sums plus scales. The
    product runs over a pairwise tree, O(n log n) bit work where a
    left-to-right product costs O(n^2)."""
    terms = [sum(map(abs, row)) + scale for row, scale in zip(rows, scales)]
    while len(terms) > 1:
        terms = [a * b for a, b in zip(terms[::2], terms[1::2])] + (
            terms[-1:] if len(terms) % 2 else [])
    return math.prod(terms).bit_length() + 1


def _band_minors(rows: list, scales: list):
    """Leading minors D_1..D_m of the scaled A1 + xE, with no division.

    rows and scales come from _a1_rows (only the five band entries of a
    row are read); x, E, the packing and bits are those of _band_bareiss,
    which gives the same D_k and replaces the same pivots. A six-state
    transfer recurrence (the banded case of Molinari, Linear Algebra Appl.
    429 (2008); Sogabe, Appl. Math. Comput. 196 (2008)): after rows
    0..k-1, f_ab is det(rows 0..k-1; columns 0..k+1 but k+a and k+b) for
    -2 <= a < b <= 1 (fm2m1 is f_(-2)(-1)). A Laplace expansion along row
    k gives the next six in 12 products, and D_(k+1) is the new f_01.
    Returns bits, the 1-based replaced pivots and the packed D_1..D_m.
    """
    bits = _slot_bits(rows, scales)
    fm2m1 = fm20 = fm21 = fm10 = fm11 = 0
    f01 = 1
    replaced, minors = [], []
    for k, (row, scale) in enumerate(zip(rows, scales)):
        r0, r1, r2, r3, r4 = row[:5]
        d = r0 * fm21 - r1 * fm11 + r2 * f01
        if not d:  # redo the step with scale * x added to the diagonal
            replaced.append(k + 1)
            r2 += scale << bits
            d = (scale << bits) * f01
        fm2m1, fm20, fm21, fm10, fm11, f01 = (
            r4 * fm10, r4 * fm11, r0 * fm2m1 - r2 * fm10 + r3 * fm11,
            r4 * f01, r0 * fm20 - r1 * fm10 + r3 * f01, d)
        minors.append(d)
    return bits, tuple(replaced), minors


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
