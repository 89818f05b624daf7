"""The LU recurrences at forced pivots, and the streamed solve against them.

factor, factor_symbolic, forward_sweep and back_substitute are the
indexed form of the recurrences: each row reads its band entries and
earlier results by index. factor_symbolic must replace a pivot forced to
zero first, wherever it is, and factor with tol must stop at a pivot
forced below it.

Float solve runs its own single pass over the unlifted bands, and exact
solve the Z[x] band kernel; each must give answers.reference, the
recurrences' answer on the lifted system: the same bits in float, equal
values in exact mode and the same ZeroPivot. A tol equal to |beta_i| must
not stop the float pass at beta_i: the test is strict.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from answers import lifted, reference, solved
from backpenta import (GeneratorConfig, ZeroPivot, factor, factor_symbolic,
                       force_interior_zero_pivot, generate, new_system, solve)

SIZES = range(5, 13)
SEEDS_PER_SIZE = 6
KINDS = {"1", "2", "interior", "n-1", "n"}  # where a zero pivot is forced


def _pivots(system, mode="float", tol=None):
    """factor's pivots beta_1..beta_n, or the index where it raises
    ZeroPivot."""
    try:
        return factor(lifted(system, mode), tol=tol).beta
    except ZeroPivot as exc:
        return exc.index


def _stop(i):
    return ZeroPivot, str(ZeroPivot(i))


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
            if isinstance(_pivots(base, "exact"), int):
                continue  # already stops at a zero pivot
            for i in (1, 2, 2 + k % (n - 3), n - 1, n):
                yield n, i, _zeroed(base, i)


def _kind(n, i):
    return {1: "1", 2: "2", n - 1: "n-1", n: "n"}.get(i, "interior")


def test_factor_symbolic_replaces_the_forced_pivot_first():
    replaced = set()
    for n, target, system in _cases():
        if target is None:
            continue
        p = lifted(system, "symbolic")
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
        if _pivots(system, tol=1e-6) < i:
            continue  # a pivot before beta_i is already below tol
        tiny = _add_to_pivot(system, i, Fraction(1, 10 ** 9))
        assert _pivots(tiny, tol=1e-6) == i, (n, i)
        stops += 1
    assert stops >= len(SIZES)


def _record_low(beta):
    """(i, |beta_i|) for the first interior pivot (3 <= i <= n-1) below
    every earlier one in magnitude, or None: tol = |beta_i| reaches the
    float pass's in-loop test at beta_i, and must not stop there."""
    mags = list(map(abs, beta))
    return next(((i, mags[i - 1]) for i in range(3, len(beta))
                 if mags[i - 1] < min(mags[:i - 1])), None)


def test_solve_matches_the_lu_functions():
    # n = 5..40, each system also with every entry divided by 7 (Fraction
    # entries that are not integers; a zero pivot stays zero); in float
    # mode with tol None, 0, the median |beta|, which trips midway, and
    # _record_low's |beta_i|, which must not trip at beta_i
    sizes = range(5, 41)
    outcomes, strict = set(), 0
    for n, target, system in _cases(sizes, 3):
        for s in (system, system.map_scalars(lambda v: Fraction(v) / 7)):
            got = solved(s, "exact")
            assert got == reference(s, "exact"), (n, target)
            if target is not None:
                assert got == _stop(target)
                outcomes.add(_kind(n, target))
            tols, record = [None, 0.0], None
            beta = _pivots(s)
            if not isinstance(beta, int):
                tols.append(sorted(map(abs, beta))[n // 2])
                record = _record_low(beta)
                if record:
                    tols.append(record[1])
                    strict += 1
            for tol in tols:
                got = solved(s, "float", tol)
                assert got == reference(s, "float", tol), (n, target, tol)
                if tol and got[0] is ZeroPivot:
                    outcomes.add("tol")
                if record and tol == record[1]:
                    assert got != _stop(record[0]), (n, target, tol)
    assert outcomes == KINDS | {"tol"}
    assert strict >= len(sizes)


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
    assert solved(system, "float") == reference(system, "float")
