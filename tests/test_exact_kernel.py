"""Exact solve against the paper's recurrences, and the lazy factors.

Exact solve runs _band_minors, the division-free Z[x] kernel that
solve_symbolic also runs. answers.reference, the recurrences over
Fraction, is an independent elimination: exact solve must give its x and
det, and raise the ZeroPivot that factor raises. An early zero pivot must
stop the kernel after the rows it needs. Every report, in every mode,
derives its factors and z on first read from the solved system, and they
must equal factor (or factor_symbolic) and forward_sweep run on that
system.
"""

import dataclasses
from array import array
from fractions import Fraction

import pytest

from answers import lifted, reference, solved
from backpenta import (BackwardPentaSystem, GeneratorConfig, ZeroPivot,
                       factor, factor_symbolic, force_interior_zero_pivot,
                       forward_sweep, generate, solve, solve_symbolic)
from backpenta import solver

SIZES = range(5, 45)
ZEROS = ((), ("d_n",), ("d_3",))  # entries zeroed by generate


def _check_factors(system):
    """The exact report's factors and z are the recurrences' own."""
    report, p = solve(system, mode="exact"), lifted(system, "exact")
    lu = factor(p)
    assert report.factors == lu and report.z == forward_sweep(p, lu)


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
    stops, solved_count = set(), 0
    for label, system in _systems():
        want = reference(system, "exact")
        assert solved(system, "exact") == want, (label, system.n)
        if want[0] is ZeroPivot:
            stops.add("leading" if want == (ZeroPivot, str(ZeroPivot(1)))
                      else label)
        else:
            _check_factors(system)
            solved_count += 1
    assert stops == {"leading", "generate", "interior"}
    assert solved_count >= len(SIZES)


def test_large_exact_solve_matches_the_recurrences():
    system = generate(GeneratorConfig(seed=4, n=1000))
    want = reference(system, "exact")
    assert want[0] is not ZeroPivot
    assert solved(system, "exact") == want
    _check_factors(system)


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


@pytest.mark.parametrize("scalar, lifts", [(int, 0), (Fraction, 0),
                                           (float, 1)])
@pytest.mark.parametrize("run", [lambda s: solve(s, mode="exact"),
                                 solve_symbolic],
                         ids=["exact solve", "solve_symbolic"])
def test_lifts_only_a_system_it_cannot_read(run, scalar, lifts, monkeypatch):
    # int and Fraction entries go to the kernel as they are (the rescue's
    # exact attempt and its symbolic solve read int systems); any other
    # system is lifted to Fraction once
    system = generate(GeneratorConfig(seed=21, n=9)).map_scalars(scalar)
    want = run(system)
    calls = []
    map_scalars = BackwardPentaSystem.map_scalars
    monkeypatch.setattr(
        BackwardPentaSystem, "map_scalars",
        lambda s, fn: calls.append(fn) or map_scalars(s, fn))
    assert run(system) == want
    assert calls == [Fraction] * lifts


def _float_bytes(lu, z):
    return [array("d", v).tobytes()
            for v in (lu.alpha, lu.beta, lu.gamma, z)]


@pytest.mark.parametrize("tol", [None, 1e-9])
def test_float_report_factors_are_bit_identical(ex31, app1, tol):
    for system in (ex31, app1):
        report = solve(system, mode="float", tol=tol)
        p = lifted(system, "float")
        lu = factor(p)
        assert (_float_bytes(report.factors, report.z)
                == _float_bytes(lu, forward_sweep(p, lu)))


def test_symbolic_report_factors_match_the_recurrences(ex31, ex32, app2):
    for system in (ex31, ex32, app2):
        report = solve_symbolic(system)
        p = lifted(system, "exact")
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
