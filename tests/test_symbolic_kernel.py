"""Differential fuzz test of solve_symbolic's division-free Z[x] kernel.

solve_symbolic must agree exactly with answers.reference, the generic
recurrences over Q(x) (factor_symbolic -> forward_sweep ->
back_substitute, then eval_at_zero and determinant), including the
exception it raises and its message. Independently of both, its
pre-substitution solution x_presub(t) must agree with the dense oracle on
the system whose replaced pivots get t added to their diagonal entries;
where that system is singular but consistent, A x(t) = y is checked with
the banded product.
"""

import backpenta.solver as solver
from answers import divided, reference, solved
from backpenta import (GeneratorConfig, RationalFunction, Singular,
                       dense_solve, densify, force_interior_zero_pivot,
                       generate, new_system, solve_symbolic)
from backpenta.systems import band_product

SYSTEMS_PER_FAMILY = 75
SAMPLE_POINTS = (1, 2, -3)
FAMILIES = ("range1", "d_n", "interior", "fractions")


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
    return divided(base, seed, 4)


def _check_against_oracle(system, replaced, x_presub):
    n = system.n
    for t in SAMPLE_POINTS:
        d = list(system.d)
        for k in replaced:
            d[n - k] += t  # beta_k's diagonal entry A1[k][k] is d_(n-k+1)
        shifted = new_system(system.a_tilde, system.a, d, system.b,
                             system.b_tilde, system.y)
        try:
            want = dense_solve(densify(shifted), shifted.y)
        except Singular:
            want = None
        try:
            got = tuple(f.evaluate(t) for f in x_presub)
        except ZeroDivisionError:
            assert want is None, f"pole at t={t} but the oracle solved it"
            continue
        if want is None:
            # singular but consistent at t: x(t) must still solve it
            assert band_product(shifted, got) == shifted.y
        else:
            assert got == want, f"x_presub({t}) differs from the oracle"


def test_kernel_matches_generic_path_and_oracle():
    outcomes = {family: set() for family in FAMILIES}
    for family in FAMILIES:
        for k in range(SYSTEMS_PER_FAMILY):
            system = _system(family, k)
            got = solved(system, "symbolic")
            assert got == reference(system, "symbolic"), f"{family} case {k}"
            if isinstance(got[0], type):
                outcomes[family].add(got[0].__name__)
                continue
            _, _, replaced, x_presub = got
            outcomes[family].add(f"{len(replaced)} replaced")
            _check_against_oracle(system, replaced, x_presub)
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
