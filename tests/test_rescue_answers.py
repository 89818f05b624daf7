"""Checks of the symbolic rescue's answers that share no code with it.

x_presub is compared with a computer-algebra solve of (A1 + xE) X = Y1
over Q(x), with E on the replaced pivots (sympy, when it is installed);
and a rescue at n = 400, where the packed slots are wide, is pinned by
its exact residual A x - y, from the banded product.
"""

from fractions import Fraction

import pytest

from backpenta import (GeneratorConfig, PoleAtZero, densify,
                       force_interior_zero_pivot, generate, reverse_rows,
                       solve_symbolic)
from backpenta.systems import band_product


def _rescued(count):
    # seeded systems n = 5..10, entry ranges 1 and 2, both right-hand-side
    # families, with d_n zeroed or (every third) an interior pivot forced
    # to zero; the few that hit a pole at x = 0 are left out
    for seed in range(count):
        n = 5 + seed % 6
        interior = seed % 3 == 2
        s = generate(GeneratorConfig(
            seed=seed, n=n, entry_range=1 + seed % 2,
            force_zero_pivots=() if interior else ("d_n",),
            known_solution=bool(seed % 2)))
        if interior:
            s = force_interior_zero_pivot(s, 2 + seed % (n - 1))
            if s is None:
                continue
        try:
            yield s, solve_symbolic(s)
        except PoleAtZero:
            pass


def test_x_presub_matches_a_cas_solve():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.frac_field(sympy.Symbol("x"))
    x = field.gens[0]

    def lift(v):
        v = Fraction(v)
        return field.convert(sympy.Rational(v.numerator, v.denominator))

    def lift_poly(p):
        return sum((lift(c) * x**i for i, c in enumerate(p.coeffs)),
                   field.zero)

    checked = replaced = 0
    for s, report in _rescued(60):
        n = s.n
        rows = [[lift(v) for v in row] for row in densify(reverse_rows(s))]
        for i in report.pivot_replacements:
            rows[i - 1][i - 1] += x
        a = DomainMatrix(rows, (n, n), field)
        y1 = DomainMatrix([[lift(v)] for v in reverse_rows(s).y1], (n, 1),
                          field)
        sol = a.lu_solve(y1)
        want = [lift_poly(f.num) / lift_poly(f.den) for f in report.x_presub]
        assert [sol[i, 0].element for i in range(n)] == want, s
        checked += 1
        replaced += len(report.pivot_replacements)
    assert checked >= 40 and replaced > checked


def test_large_rescue_has_zero_residual():
    s = generate(GeneratorConfig(seed=21, n=400, force_zero_pivots=("d_n",)))
    report = solve_symbolic(s)
    assert report.pivot_replacements == (1, 63)
    assert report.det != 0
    assert band_product(s, report.x) == s.y
