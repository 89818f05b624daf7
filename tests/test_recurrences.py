"""The LU recurrences at forced pivots, and the streamed solve against them.

factor, factor_symbolic, forward_sweep and back_substitute are the
indexed form of the recurrences: each row reads its band entries and
earlier results by index. factor_symbolic must replace a pivot forced to
zero first, wherever it is, and factor with tol must stop at a pivot
forced below it.

Float solve runs its own single pass over the unlifted bands, and exact
solve the Z[x] band kernel; each must give what factor, forward_sweep,
back_substitute and determinant give on the lifted system: the same bits
in float, equal values in exact mode and the same ZeroPivot index.
"""

import math
from array import array
from dataclasses import replace
from fractions import Fraction

import pytest

from backpenta import (GeneratorConfig, RationalFunction, ZeroPivot,
                       back_substitute, determinant, factor, factor_symbolic,
                       force_interior_zero_pivot, forward_sweep, generate,
                       new_system, reverse_rows, solve)

SIZES = range(5, 13)
SEEDS_PER_SIZE = 6
KINDS = {"1", "2", "interior", "n-1", "n"}  # where a zero pivot is forced


def _run(factor_fn, forward_fn, back_fn, p, **kwargs):
    """(alpha, beta, gamma, replacements, z, x), or the ZeroPivot index."""
    try:
        lu = factor_fn(p, **kwargs)
    except ZeroPivot as exc:
        return exc.index
    z = forward_fn(p, lu)
    return lu.alpha, lu.beta, lu.gamma, lu.replacements, z, back_fn(p, lu, z)


def _add_to_pivot(system, i, value):
    """system with value added to beta_i, through d_(n-i+1), which only
    beta_i of beta_1..beta_i reads."""
    d = list(system.d)
    d[system.n - i] += value
    return replace(system, d=d)


def _zeroed(base, i):
    """base, whose pivots are all nonzero, with beta_i set to zero."""
    if i == 1:  # beta_1 is d_n
        return _add_to_pivot(base, 1, -base.d[-1])
    return force_interior_zero_pivot(base, i)


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
            if isinstance(_run(factor, forward_sweep, back_substitute,
                               _exact(base)), int):
                continue  # already stops at a zero pivot
            for i in (1, 2, 2 + k % (n - 3), n - 1, n):
                yield n, i, _zeroed(base, i)


def _kind(n, i):
    return {1: "1", 2: "2", n - 1: "n-1", n: "n"}.get(i, "interior")


def _exact(system):
    return reverse_rows(system.map_scalars(Fraction))


def _float(system):
    return reverse_rows(system.map_scalars(float))


def test_factor_symbolic_replaces_the_forced_pivot_first():
    replaced = set()
    for n, target, system in _cases():
        if target is None:
            continue
        p = reverse_rows(system.map_scalars(
            lambda v: RationalFunction.constant(Fraction(v))))
        assert factor_symbolic(p).replacements[0] == target, (n, target)
        replaced.add(_kind(n, target))
    assert replaced == KINDS


@pytest.mark.parametrize("where", sorted(KINDS))
def test_tol_stops_at_a_tiny_pivot(where):
    # the forced zero pivot beta_i set to 1e-9: tol = 1e-6 must stop the
    # float factor there
    stops = 0
    for n, i, system in _cases():
        if i is None or _kind(n, i) != where:
            continue
        if _run(factor, forward_sweep, back_substitute, _float(system),
                tol=1e-6) < i:
            continue  # a pivot before beta_i is already below tol
        p = _float(_add_to_pivot(system, i, Fraction(1, 10 ** 9)))
        assert _run(factor, forward_sweep, back_substitute, p,
                    tol=1e-6) == i, (n, i)
        stops += 1
    assert stops >= len(SIZES)


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
