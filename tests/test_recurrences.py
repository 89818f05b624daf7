"""Differential fuzz test of the streamed LU recurrences.

factor, factor_symbolic, forward_sweep and back_substitute loop over
reversed band slices and carry the last two values in locals. The
reference below is the indexed form they replaced, kept verbatim: each
row reads its band entries and earlier results by index. Both must give
equal factors, replacements, z and x over Fraction and over Q(x), the
same bits in float, and the same ZeroPivot index, with and without tol.

Float and exact solve run their own single pass over the unlifted bands;
they in turn must give what factor, forward_sweep, back_substitute and
determinant give on the lifted system: the same bits in float, equal
values in exact mode and the same ZeroPivot index.
"""

import math
from array import array
from fractions import Fraction

import pytest

from backpenta import (GeneratorConfig, LUFactors, RationalFunction,
                       ZeroPivot, back_substitute, determinant, factor,
                       factor_symbolic, force_interior_zero_pivot,
                       forward_sweep, generate, new_system, reverse_rows,
                       solve)

SIZES = range(5, 13)
SEEDS_PER_SIZE = 6
KINDS = {"1", "2", "interior", "n-1", "n"}  # where a zero pivot is forced


def ref_factor(sys, tol=None, sym=None):
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


def ref_forward(system, lu):
    n, y1 = system.n, system.y1
    at, beta, gamma = system.a_tilde, lu.beta, lu.gamma
    z = [None] * n
    z[0] = y1[0]
    z[1] = y1[1] - gamma[0] * z[0]
    for i in range(3, n + 1):
        z[i - 1] = (y1[i - 1] - (at[n - i] / beta[i - 3]) * z[i - 3]
                    - gamma[i - 2] * z[i - 2])
    return tuple(z)


def ref_back(system, lu, z):
    n = system.n
    bt, alpha, beta = system.b_tilde, lu.alpha, lu.beta
    x = [None] * n
    x[n - 1] = z[n - 1] / beta[n - 1]
    x[n - 2] = (z[n - 2] - alpha[n - 2] * x[n - 1]) / beta[n - 2]
    for i in range(n - 2, 0, -1):
        x[i - 1] = (z[i - 1] - alpha[i - 1] * x[i]
                    - bt[n - i - 2] * x[i + 1]) / beta[i - 1]
    return tuple(x)


def _run(factor_fn, forward_fn, back_fn, p, **kwargs):
    """(alpha, beta, gamma, replacements, z, x), or the ZeroPivot index."""
    try:
        lu = factor_fn(p, **kwargs)
    except ZeroPivot as exc:
        return exc.index
    z = forward_fn(p, lu)
    return lu.alpha, lu.beta, lu.gamma, lu.replacements, z, back_fn(p, lu, z)


def _streamed(p, **kwargs):
    return _run(factor, forward_sweep, back_substitute, p, **kwargs)


def _reference(p, **kwargs):
    return _run(ref_factor, ref_forward, ref_back, p, **kwargs)


def _float_bits(result):
    if isinstance(result, int):
        return result
    alpha, beta, gamma, replacements, z, x = result
    return ([array("d", v).tobytes() for v in (alpha, beta, gamma, z, x)],
            replacements)


def _with_pivot(base, i, value):
    """base, whose pivots are all nonzero, with beta_i set to value
    (through d_(n-i+1), which only beta_i of beta_1..beta_i reads)."""
    zeroed = force_interior_zero_pivot(base, i) if i > 1 else base
    n = zeroed.n
    d = list(zeroed.d)
    d[n - i] = (0 if i == 1 else d[n - i]) + value
    return new_system(zeroed.a_tilde, zeroed.a, d, zeroed.b,
                      zeroed.b_tilde, zeroed.y)


def _cases(sizes=SIZES, seeds_per_size=SEEDS_PER_SIZE):
    """(n, target pivot or None, system) for seeded systems of each size,
    unchanged and with beta_1, beta_2, an interior pivot, beta_(n-1) and
    beta_n forced to zero."""
    for n in sizes:
        for k in range(seeds_per_size):
            base = generate(GeneratorConfig(seed=900 + 10 * n + k, n=n,
                                            entry_range=1 + k % 9,
                                            known_solution=k % 2 == 0))
            yield n, None, base
            if isinstance(_reference(_exact(base)), int):
                continue  # already stops at a zero pivot
            for i in (1, 2, 2 + k % (n - 3), n - 1, n):
                yield n, i, _with_pivot(base, i, 0)


def _kind(n, i):
    return {1: "1", 2: "2", n - 1: "n-1", n: "n"}.get(i, "interior")


def _exact(system):
    return reverse_rows(system.map_scalars(Fraction))


def _float(system):
    return reverse_rows(system.map_scalars(float))


def test_fraction_recurrences_match_the_indexed_form():
    stops = set()
    for n, target, system in _cases():
        p = _exact(system)
        got = _streamed(p)
        assert got == _reference(p), (n, target)
        if target is not None:
            assert got == target  # an exact zero stops exactly there
            stops.add(_kind(n, target))
    assert stops == KINDS


def test_symbolic_recurrences_match_the_indexed_form():
    sym = RationalFunction.x()
    replaced = set()
    for n, target, system in _cases():
        p = reverse_rows(system.map_scalars(
            lambda v: RationalFunction.constant(Fraction(v))))
        got = _run(factor_symbolic, forward_sweep, back_substitute, p)
        assert got == _reference(p, sym=sym), (n, target)
        if target is not None:
            assert got[3][0] == target
            replaced.add(_kind(n, target))
    assert replaced == KINDS


def test_float_recurrences_are_bit_identical():
    outcomes = set()
    for n, target, system in _cases():
        p = _float(system)
        got = _float_bits(_streamed(p))
        assert got == _float_bits(_reference(p)), (n, target)
        outcomes.add("stop" if isinstance(got, int) else "solved")
    assert outcomes == {"stop", "solved"}


@pytest.mark.parametrize("where", sorted(KINDS))
def test_tol_stops_at_the_same_pivot(where):
    # beta_i set to 1e-9: tol = 1e-6 must stop the float factor there
    stops = 0
    for n in SIZES:
        i = {"1": 1, "2": 2, "interior": n // 2, "n-1": n - 1, "n": n}[where]
        for k in range(SEEDS_PER_SIZE):
            base = generate(GeneratorConfig(seed=900 + 10 * n + k, n=n))
            if isinstance(_reference(_float(base), tol=1e-6), int):
                continue  # a pivot of base is already below tol
            # beta_1..beta_(i-1) stay as in base
            p = _float(_with_pivot(base, i, Fraction(1, 10 ** 9)))
            assert _streamed(p, tol=1e-6) == _reference(p, tol=1e-6) == i
            stops += 1
            assert (_float_bits(_streamed(p, tol=1e-12))
                    == _float_bits(_reference(p, tol=1e-12)))
    assert stops >= 2 * len(SIZES)


def test_large_float_system_is_bit_identical():
    base = generate(GeneratorConfig(seed=2000, n=2000, known_solution=False))
    # entries lie in [-9, 9]; adding 50 to the diagonal of A1 makes it
    # diagonally dominant, so no pivot is near zero and the solve runs
    system = new_system(base.a_tilde, base.a, [v + 50 for v in base.d],
                        base.b, base.b_tilde, base.y)
    p = reverse_rows(system.map_scalars(lambda v: v / 7))
    got = _float_bits(_streamed(p))
    assert not isinstance(got, int)
    assert got == _float_bits(_reference(p))


def _values(mode, x, det):
    if mode == "float":
        return array("d", x).tobytes(), repr(det)
    return x, det


def _pipeline(system, mode, tol=None):
    """(x, det) from the public LU functions, or the ZeroPivot index."""
    p = _float(system) if mode == "float" else _exact(system)
    try:
        lu = factor(p, tol=tol)
    except ZeroPivot as exc:
        return exc.index
    return _values(mode, back_substitute(p, lu, forward_sweep(p, lu)),
                   determinant(lu))


def _solved(system, mode, tol=None):
    try:
        report = solve(system, mode=mode, tol=tol)
    except ZeroPivot as exc:
        return exc.index
    return _values(mode, report.x, report.det)


def test_solve_matches_the_lu_functions():
    # n = 5..40, each system also with every entry divided by 7 (Fraction
    # entries that are not integers; a zero pivot stays zero); in float
    # mode with tol None, 0 and the median |beta|, which trips midway
    outcomes = set()
    for n, target, system in _cases(range(5, 41), 3):
        for s in (system, system.map_scalars(lambda v: Fraction(v) / 7)):
            got = _solved(s, "exact")
            assert got == _pipeline(s, "exact"), (n, target)
            if target is not None:
                assert got == target
                outcomes.add(_kind(n, target))
            tols = [None, 0.0]
            lu = _run(factor, forward_sweep, back_substitute, _float(s))
            if not isinstance(lu, int):
                tols.append(sorted(map(abs, lu[1]))[n // 2])
            for tol in tols:
                got = _solved(s, "float", tol)
                assert got == _pipeline(s, "float", tol), (n, target, tol)
                if tol and isinstance(got, int):
                    outcomes.add("tol")
    assert outcomes == KINDS | {"tol"}


def test_float_solve_that_overflows_returns_as_the_lu_functions_do():
    # finite entries whose float x is beyond the range: inf and NaN
    # components, no error
    ex31 = new_system([3, 2, 3], [-1, -2, 1, 4], [1, 2, 2, -2, -1],
                      [4, 1, 2, 1], [1, 2, 1], [10, 26, 20, 14, 4])
    bands = [[v * 1e-200 for v in getattr(ex31, f)]
             for f in ("a_tilde", "a", "d", "b", "b_tilde")]
    system = new_system(*bands, [v * 1e200 for v in ex31.y])
    report = solve(system, mode="float")
    assert not all(map(math.isfinite, report.x))
    assert _solved(system, "float") == _pipeline(system, "float")
