"""Differential fuzz test of solve_symbolic's division-free Z[x] kernel.

solve_symbolic must agree exactly with the generic recurrences over Q(x)
(factor_symbolic -> forward_sweep -> back_substitute, then eval_at_zero
and determinant), including the exception it raises. Independently of
both, its pre-substitution solution x_presub(t) must agree with the dense
oracle on the system whose replaced pivots get t added to their diagonal
entries.
"""

from fractions import Fraction

import backpenta.solver as solver
from backpenta import (GeneratorConfig, IdenticallySingular, PoleAtZero,
                       RationalFunction, Singular, SplitMix64,
                       back_substitute, dense_solve, densify, determinant,
                       factor_symbolic, force_interior_zero_pivot,
                       forward_sweep, generate, new_system, reverse_rows,
                       solve_symbolic)

SYSTEMS_PER_FAMILY = 75
SAMPLE_POINTS = (1, 2, -3)
FAMILIES = ("range1", "d_n", "interior", "fractions")


def _with_fractions(system, seed):
    # Divide every entry by a small random integer, so rows need a common
    # multiplier > 1 to become integer.
    rng = SplitMix64(seed)
    return new_system(*([Fraction(v, 1 + rng.next_u64() % 4) for v in band]
                        for band in (system.a_tilde, system.a, system.d,
                                     system.b, system.b_tilde, system.y)))


def _system(family, k):
    seed = 7000 + k
    n = 5 + k % 8
    if family == "range1":
        # entries in [-1, 1]: several zero pivots; half with a random rhs,
        # so that inconsistent singular systems (poles) occur too
        return generate(GeneratorConfig(seed=seed, n=n, entry_range=1,
                                        known_solution=k % 2 == 0))
    if family == "d_n":
        return generate(GeneratorConfig(seed=seed, n=n, entry_range=1 + k % 2,
                                        force_zero_pivots=("d_n",),
                                        known_solution=k % 3 != 0))
    if family == "interior":
        base = generate(GeneratorConfig(seed=seed, n=n, entry_range=2))
        forced = force_interior_zero_pivot(base, 2 + k % (n - 1))
        return base if forced is None else forced
    zeros = ("d_n",) if k % 2 else ()
    base = generate(GeneratorConfig(seed=seed, n=n, entry_range=1,
                                    force_zero_pivots=zeros,
                                    known_solution=k % 3 != 0))
    return _with_fractions(base, seed)


def _outcome(fn, system):
    try:
        return fn(system)
    except PoleAtZero as exc:  # IdenticallySingular included
        return type(exc)


def _reference(system):
    lifted = system.map_scalars(
        lambda v: RationalFunction.constant(Fraction(v)))
    p = reverse_rows(lifted)
    lu = factor_symbolic(p)
    x_presub = back_substitute(p, lu, forward_sweep(p, lu))
    try:
        x = tuple(v.eval_at_zero() for v in x_presub)
    except PoleAtZero:
        if system.n in lu.replacements:
            raise IdenticallySingular() from None
        raise
    return x, determinant(lu), lu.replacements, x_presub


def _fields(report):
    return (report.x, report.det, report.pivot_replacements,
            report.x_presub)


def _check_against_oracle(system, report):
    n = system.n
    for t in SAMPLE_POINTS:
        d = list(system.d)
        for k in report.pivot_replacements:
            d[n - k] += t  # beta_k's diagonal entry A1[k][k] is d_(n-k+1)
        shifted = new_system(system.a_tilde, system.a, d, system.b,
                             system.b_tilde, system.y)
        try:
            want = dense_solve(densify(shifted), shifted.y)
        except Singular:
            want = None
        try:
            got = tuple(f.evaluate(t) for f in report.x_presub)
        except ZeroDivisionError:
            assert want is None, f"pole at t={t} but the oracle solved it"
            continue
        if want is None:
            # singular but consistent at t: x(t) must still solve it
            assert all(sum(c * v for c, v in zip(row, got)) == yi
                       for row, yi in zip(densify(shifted), shifted.y))
        else:
            assert got == want, f"x_presub({t}) differs from the oracle"


def test_kernel_matches_generic_path_and_oracle():
    outcomes = {family: set() for family in FAMILIES}
    for family in FAMILIES:
        for k in range(SYSTEMS_PER_FAMILY):
            system = _system(family, k)
            got = _outcome(solve_symbolic, system)
            want = _outcome(_reference, system)
            if isinstance(got, type):
                assert got is want, f"{family} case {k}"
                outcomes[family].add(got.__name__)
                continue
            assert _fields(got) == want, f"{family} case {k}"
            outcomes[family].add(f"{len(got.pivot_replacements)} replaced")
            _check_against_oracle(system, got)
    # every family exercises the rescue, and the fuzz reaches both poles
    assert all(kinds - {"0 replaced"} for kinds in outcomes.values())
    seen = set().union(*outcomes.values())
    assert {"PoleAtZero", "IdenticallySingular"} <= seen
    assert {"1 replaced", "2 replaced", "3 replaced"} <= seen


def test_kernel_uses_no_rational_function_arithmetic(ex32, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("generic symbolic path used")

    for name in ("factor_symbolic", "forward_sweep", "back_substitute",
                 "determinant"):
        monkeypatch.setattr(solver, name, forbidden)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(RationalFunction, op, forbidden)
    report = solve_symbolic(ex32)
    assert report.x == (1, 2, 3, 4, 5)
    assert report.det == 88
