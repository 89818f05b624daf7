"""Exact solve against the band Bareiss kernel, and the lazy factors.

Exact solve runs the Fraction recurrences in one streamed pass
(_streamed_solve); solve_symbolic runs _band_bareiss. Without a zero
pivot the kernel must give the same x and det, and it must replace first
the pivot at which the pass raises ZeroPivot. Every report, in every
mode, derives its factors and z on first read from the solved system,
and they must equal factor (or factor_symbolic) and forward_sweep run on
that system.
"""

import math
from array import array
from fractions import Fraction

import pytest

from backpenta import (GeneratorConfig, ZeroPivot, factor, factor_symbolic,
                       force_interior_zero_pivot, forward_sweep, generate,
                       reverse_rows, solve, solve_symbolic)
from backpenta.solver import _a1_rows, _band_bareiss

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


def _kernel(system):
    """(x, det) from _band_bareiss, or the first replaced pivot."""
    rows, scales = _a1_rows(reverse_rows(system.map_scalars(Fraction)))
    _, replaced, det, numers = _band_bareiss(rows, scales)
    if replaced:
        return replaced[0]
    # nothing replaced: every packed value is a plain int
    return (tuple(Fraction(v, det) for v in numers),
            Fraction(det, math.prod(scales)))


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


def test_exact_solve_matches_the_band_kernel():
    stops, solved = set(), 0
    for label, system in _systems():
        want = _exact(system)
        assert _kernel(system) == want, (label, system.n)
        if isinstance(want, int):
            stops.add("leading" if want == 1 else label)
        else:
            solved += 1
    assert stops == {"leading", "generate", "interior"}
    assert solved >= len(SIZES)


def test_large_exact_solve_matches_the_band_kernel():
    system = generate(GeneratorConfig(seed=4, n=1000))
    want = _exact(system)
    assert not isinstance(want, int)
    assert _kernel(system) == want


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
