"""Exact solve against the paper's recurrences, and the lazy factors.

Exact solve runs _band_minors, the division-free Z[x] kernel that
solve_symbolic also runs. factor, forward_sweep, back_substitute and
determinant over Fraction are an independent elimination: they must give
the same x and det, and factor must raise ZeroPivot at the index where
exact solve does. An early zero pivot must stop the kernel after the rows
it needs. Every report, in every mode, derives its factors and z on first
read from the solved system, and they must equal factor (or
factor_symbolic) and forward_sweep run on that system.
"""

import dataclasses
from array import array
from fractions import Fraction

import pytest

from backpenta import (GeneratorConfig, ZeroPivot, back_substitute,
                       determinant, factor, factor_symbolic,
                       force_interior_zero_pivot, forward_sweep, generate,
                       reverse_rows, solve, solve_symbolic)
from backpenta import solver

SIZES = range(5, 45)
ZEROS = ((), ("d_n",), ("d_3",))  # entries zeroed by generate


def _exact(system):
    """(x, det) from exact solve, or the ZeroPivot index; the report's
    factors and z must be the recurrences' own."""
    try:
        report = solve(system, mode="exact")
    except ZeroPivot as exc:
        return exc.index
    p = reverse_rows(system.map_scalars(Fraction))
    lu = factor(p)
    assert report.factors == lu and report.z == forward_sweep(p, lu)
    return report.x, report.det


def _recurrences(system):
    """(x, det) from the recurrences over Fraction, or the index at which
    factor raises ZeroPivot."""
    p = reverse_rows(system.map_scalars(Fraction))
    try:
        lu = factor(p)
    except ZeroPivot as exc:
        return exc.index
    return back_substitute(p, lu, forward_sweep(p, lu)), determinant(lu)


def _systems():
    """(label, system): seeded systems of every size, both solution
    families, with entries zeroed and with an interior pivot forced to 0."""
    for n in SIZES:
        for known in (True, False):
            for zeros in ZEROS:
                yield "generate", generate(GeneratorConfig(
                    seed=400 + n, n=n, entry_range=1 + n % 9,
                    force_zero_pivots=zeros, known_solution=known))
            forced = force_interior_zero_pivot(
                generate(GeneratorConfig(seed=500 + n, n=n,
                                         known_solution=known)),
                2 + n % (n - 2))
            if forced is not None:
                yield "interior", forced


def test_exact_solve_matches_the_recurrences():
    stops, solved = set(), 0
    for label, system in _systems():
        want = _exact(system)
        assert _recurrences(system) == want, (label, system.n)
        if isinstance(want, int):
            stops.add("leading" if want == 1 else label)
        else:
            solved += 1
    assert stops == {"leading", "generate", "interior"}
    assert solved >= len(SIZES)


def test_large_exact_solve_matches_the_recurrences():
    system = generate(GeneratorConfig(seed=4, n=1000))
    want = _exact(system)
    assert not isinstance(want, int)
    assert _recurrences(system) == want


def test_early_zero_pivot_reads_at_most_two_rows(monkeypatch):
    read, a1_rows = [], solver._a1_rows

    def counted(system):
        for pair in a1_rows(system):
            read.append(pair)
            yield pair

    monkeypatch.setattr(solver, "_a1_rows", counted)
    system = generate(GeneratorConfig(seed=4, n=20000,
                                      force_zero_pivots=("d_n",)))
    with pytest.raises(ZeroPivot) as exc:
        solve(system, mode="exact")
    assert exc.value.index == 1
    assert 0 < len(read) <= 2
    # a NaN anywhere is named before any pivot is tried
    nan_y1 = dataclasses.replace(system, y=(float("nan"),) + system.y[1:])
    with pytest.raises(ValueError,
                       match=r"^vector y: entry y_1 is nan, not finite$"):
        solve(nan_y1, mode="exact")


def _float_bytes(lu, z):
    return [array("d", v).tobytes()
            for v in (lu.alpha, lu.beta, lu.gamma, z)]


@pytest.mark.parametrize("tol", [None, 1e-9])
def test_float_report_factors_are_bit_identical(ex31, app1, tol):
    for system in (ex31, app1):
        report = solve(system, mode="float", tol=tol)
        p = reverse_rows(system.map_scalars(float))
        lu = factor(p)
        assert (_float_bytes(report.factors, report.z)
                == _float_bytes(lu, forward_sweep(p, lu)))


def test_symbolic_report_factors_match_the_recurrences(ex31, ex32, app2):
    for system in (ex31, ex32, app2):
        report = solve_symbolic(system)
        p = reverse_rows(system.map_scalars(Fraction))
        lu = factor_symbolic(p)
        assert report.factors == lu
        assert report.z == forward_sweep(p, lu)
        assert report.factors.replacements == report.pivot_replacements


def test_factors_are_cached_and_outside_equality(ex32):
    report, again = solve_symbolic(ex32), solve_symbolic(ex32)
    assert report.factors is report.factors
    assert report.z is report.z
    assert report == again and hash(report) == hash(again)
    assert "_system" not in repr(report)
