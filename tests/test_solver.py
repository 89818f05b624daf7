import math
from dataclasses import replace
from fractions import Fraction

import pytest

from backpenta import (GeneratorConfig, IdenticallySingular, PoleAtZero,
                       RationalFunction, ZeroPivot, back_substitute, densify,
                       dense_det, dense_solve, det_original, determinant,
                       factor, factor_symbolic, force_interior_zero_pivot,
                       forward_sweep, generate, new_system, reverse_rows,
                       solve, solve_symbolic)
from backpenta.instrument import CountingScalar, OpCounter

F = Fraction


def exact_factor(system):
    return factor(reverse_rows(system.map_scalars(Fraction)))


def lu_dense(system, lu):
    """Dense L and U implied by the factor vectors (for reconstruction)."""
    n, at, bt = system.n, system.a_tilde, system.b_tilde
    L = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    U = [[F(0)] * n for _ in range(n)]
    for i in range(2, n + 1):
        L[i - 1][i - 2] = lu.gamma[i - 2]
    for i in range(3, n + 1):
        L[i - 1][i - 3] = F(at[n - i]) / lu.beta[i - 3]
    for i in range(1, n + 1):
        U[i - 1][i - 1] = lu.beta[i - 1]
    for i in range(1, n):
        U[i - 1][i] = lu.alpha[i - 1]
    for i in range(1, n - 1):
        U[i - 1][i + 1] = F(bt[n - i - 2])
    return L, U


def matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


class TestGoldenFactorization:
    def test_factor_values(self, ex31):
        lu = exact_factor(ex31)
        assert lu.beta == (-1, 2, -7, F(24, 7), F(10, 3))
        assert lu.gamma == (-4, 2, F(8, 7), F(-2, 3))
        assert lu.alpha == (1, 6, -3, F(20, 7))
        assert lu.replacements == ()

    def test_sweep_and_solution(self, ex31):
        report = solve(ex31, mode="exact")
        assert report.z == (4, 30, -28, 28, F(50, 3))
        assert report.x == (1, 2, 3, 4, 5)
        assert report.det == 160

    def test_zero_pivot_on_leading_d(self, ex32):
        with pytest.raises(ZeroPivot) as exc:
            solve(ex32, mode="exact")
        assert exc.value.index == 1

    def test_six_by_six(self, app1):
        report = solve(app1, mode="exact")
        assert report.x == (1,) * 6
        assert report.det == -8597


class TestSymbolic:
    def test_rescued_solution(self, ex32):
        report = solve_symbolic(ex32)
        assert report.x == (1, 2, 3, 4, 5)
        assert report.det == 88
        assert report.pivot_replacements == (1,)

    def test_presubstitution_expressions(self, ex32):
        # printed forms: -11/(9x-11), 22(x-1)/(9x-11), (34x-33)/(9x-11),
        # (51x-44)/(9x-11), (39x-55)/(9x-11)
        def rf(num, den=(-11, 9)):
            from backpenta import Polynomial
            return RationalFunction(Polynomial(num), Polynomial(den))

        expected = (rf((-11,)), rf((-22, 22)), rf((-33, 34)),
                    rf((-44, 51)), rf((-55, 39)))
        assert solve_symbolic(ex32).x_presub == expected

    def test_six_by_six_rescue(self, app2):
        report = solve_symbolic(app2)
        assert report.x == (1,) * 6
        assert report.det == 1777
        assert report.pivot_replacements == (1,)

    def test_no_zero_pivots_matches_exact(self, ex31):
        sym = solve_symbolic(ex31)
        exact = solve(ex31, mode="exact")
        assert sym.x == exact.x
        assert sym.det == exact.det
        assert sym.pivot_replacements == ()
        assert all(f.num.degree <= 0 and f.den.degree == 0
                   for f in sym.x_presub)

    def test_interior_zero_pivot_rescued(self):
        base = generate(GeneratorConfig(seed=11, n=9))
        forced = force_interior_zero_pivot(base, 4)
        assert forced is not None
        lu = factor_symbolic(reverse_rows(forced))
        assert lu.replacements == (4,)
        report = solve_symbolic(forced)
        assert report.x == dense_solve(densify(forced), forced.y)

    def test_identically_singular_last_pivot(self):
        # diagonal-only with d_1 = 0: beta_n is identically zero and the
        # rhs forces z_n/x, which has no finite value at 0
        s = new_system([0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 1, 1],
                       [0, 0, 0, 0], [0, 0, 0], [1, 1, 1, 1, 1])
        with pytest.raises(IdenticallySingular):
            solve_symbolic(s)

    def test_inconsistent_system_hits_pole(self):
        # rows 1 and 2 are both (0,0,1,1,1) but with different rhs
        from backpenta import PoleAtZero
        s = new_system([1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1, 0],
                       [1, 1, 1, 1], [1, 1, 1], [1, 2, 1, 1, 1])
        with pytest.raises(PoleAtZero):
            solve_symbolic(s)


    def test_pole_type_does_not_depend_on_coefficient_size(self):
        # beta_5 replaced and still identically zero; a 5001-digit rhs
        # entry must not turn the IdenticallySingular into another error
        s = generate(GeneratorConfig(seed=1, n=5, entry_range=1,
                                     force_zero_pivots=("d_n",),
                                     known_solution=False))
        big = new_system(s.a_tilde, s.a, s.d, s.b, s.b_tilde,
                         (10 ** 5000, *s.y[1:]))
        with pytest.raises(IdenticallySingular,
                           match=r"^beta\[5\] is identically zero; "):
            solve_symbolic(big)

    def test_pole_text(self):
        s = generate(GeneratorConfig(seed=3, n=6, entry_range=1,
                                     known_solution=False))
        with pytest.raises(PoleAtZero) as info:
            solve_symbolic(s)
        assert type(info.value) is PoleAtZero
        assert str(info.value) == "pole at 0 in 1/(x)"

    def test_exact_and_symbolic_agree(self):
        # check and the documented rescue (exact, then solve_symbolic on
        # ZeroPivot) rely on this: where exact succeeds, symbolic gives
        # the same answer with no replacement; where exact stops at
        # ZeroPivot(i), symbolic replaces beta_i first
        seen = set()
        for n in range(5, 45):
            for entry_range in (1, 2, 9):
                for known in (True, False):
                    s = generate(GeneratorConfig(
                        seed=100 * n + 10 * entry_range + known, n=n,
                        entry_range=entry_range, known_solution=known))
                    try:
                        exact = solve(s, mode="exact")
                    except ZeroPivot as exc:
                        exact = exc
                    try:
                        symbolic = solve_symbolic(s)
                    except PoleAtZero:
                        seen.add("pole")
                        continue
                    if isinstance(exact, ZeroPivot):
                        seen.add("rescued")
                        assert symbolic.pivot_replacements[0] == exact.index
                    else:
                        seen.add("exact")
                        assert (symbolic.x, symbolic.det) == (exact.x,
                                                              exact.det)
                        assert symbolic.pivot_replacements == ()
        assert seen == {"exact", "rescued", "pole"}


class TestDiagonalOnly:
    def _system(self, d, y):
        n = len(d)
        z = [0] * n
        return new_system(z[:n - 2], z[:n - 1], d, z[:n - 1], z[:n - 2], y)

    def test_factor_collapses(self):
        d = [2, 3, 4, 5, 6]
        lu = exact_factor(self._system(d, [1] * 5))
        assert lu.beta == tuple(reversed(d))
        assert lu.alpha == (0,) * 4
        assert lu.gamma == (0,) * 4

    def test_solution_is_permuted_scaling(self):
        # d=ones means A is the row-reversal permutation: x = reversed(y)
        s = self._system([1] * 5, [7, 8, 9, 10, 11])
        report = solve(s, mode="exact")
        assert report.x == (11, 10, 9, 8, 7)
        assert report.x == dense_solve(densify(s), s.y)
        sym = self._system([1] * 5, [7, 8, 9, 8, 7])
        assert solve(sym, mode="exact").x == sym.y


class TestDeterminant:
    def test_det_original_even_swaps(self, ex31):
        lu = exact_factor(ex31)
        assert determinant(lu) == 160
        assert det_original(lu) == 160  # n=5: 2 swaps
        assert det_original(lu) == dense_det(densify(ex31))

    def test_det_original_odd_swaps(self, app1):
        lu = exact_factor(app1)
        assert determinant(lu) == -8597
        assert det_original(lu) == 8597  # n=6: 3 swaps
        assert det_original(lu) == dense_det(densify(app1))

    def test_diagonal_ones_parity(self):
        s = new_system([0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1, 1],
                       [0, 0, 0, 0], [0, 0, 0], [1, 1, 1, 1, 1])
        assert det_original(exact_factor(s)) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_det_parity_random(self, seed):
        s = generate(GeneratorConfig(seed=seed, n=5 + seed))
        try:
            lu = exact_factor(s)
        except ZeroPivot:
            return
        assert det_original(lu) == dense_det(densify(s))


class TestProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_exact_residual_is_zero(self, seed):
        s = generate(GeneratorConfig(seed=100 + seed, n=5 + seed % 20))
        exact = s.map_scalars(Fraction)
        try:
            x = solve(exact, mode="exact").x
        except ZeroPivot:
            return
        for row, yi in zip(densify(exact), exact.y):
            assert sum(c * v for c, v in zip(row, x)) == yi

    @pytest.mark.parametrize("seed", range(10))
    def test_lu_reconstruction(self, seed):
        s = generate(GeneratorConfig(seed=200 + seed, n=5 + seed % 8))
        exact = s.map_scalars(Fraction)
        p = reverse_rows(exact)
        try:
            lu = factor(p)
        except ZeroPivot:
            return
        L, U = lu_dense(p, lu)
        assert matmul(L, U) == densify(p)

    def test_beta_n_zero_reported_as_zero_pivot(self):
        base = generate(GeneratorConfig(seed=5, n=7))
        forced = force_interior_zero_pivot(base, 7)
        assert forced is not None
        with pytest.raises(ZeroPivot) as exc:
            solve(forced, mode="exact")
        assert exc.value.index == 7

    def test_float_mode_residual(self, ex31):
        report = solve(ex31, mode="float")
        for row, yi in zip(densify(ex31), ex31.y):
            resid = abs(sum(c * v for c, v in zip(row, report.x)) - yi)
            assert resid <= 1e-10

    def test_float_tolerance_flag(self, ex31):
        with pytest.raises(ZeroPivot):
            solve(ex31, mode="float", tol=10.0)

    def test_float_tolerance_is_strict(self, ex31):
        # |beta_1| = 1: a pivot counts as zero only when |beta_i| < tol
        assert solve(ex31, mode="float", tol=1.0).x == solve(ex31, mode="float").x
        with pytest.raises(ZeroPivot) as exc:
            solve(ex31, mode="float", tol=1.000001)
        assert exc.value.index == 1

    def test_operation_count(self):
        # the exact count at one n; acceptance criterion 7 checks only that
        # the count grows linearly
        counter = OpCounter()
        s = generate(GeneratorConfig(seed=7, n=100))
        p = reverse_rows(s.map_scalars(lambda v: CountingScalar(float(v), counter)))
        lu = factor(p)
        back_substitute(p, lu, forward_sweep(p, lu))
        determinant(lu)
        assert counter.count == 2068

    def test_counting_scalar_defines_only_the_recurrence_operators(self):
        counter = OpCounter()
        c = CountingScalar(2.0, counter)
        for op in (lambda: c + 1, lambda: 1 - c, lambda: 3 * c,
                   lambda: 1 / c, lambda: -c, lambda: abs(c)):
            with pytest.raises(TypeError):
                op()
        assert counter.count == 0
        assert ((c - 1) * c / 4).value == 0.5 and counter.count == 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, name", [  # entry 1 of each vector
        ("a_tilde", "a_tilde_2"), ("a", "a_2"), ("d", "d_2"), ("b", "b_3"),
        ("b_tilde", "b_tilde_4"), ("y", "y_2")])
    def test_float_mode_rejects_non_finite_entries(self, ex31, field, name,
                                                   value):
        vec = list(getattr(ex31, field))
        vec[1] = value
        with pytest.raises(ValueError, match=(
                f"^vector {field}: entry {name} is {value}, not finite$")):
            solve(replace(ex31, **{field: vec}), mode="float")

    def test_float_mode_accepts_finite_entries_summing_to_inf(self, ex31):
        report = solve(replace(ex31, y=[1e308] * 5), mode="float")
        assert report.det == 160.0

    def test_tolerance_rejected_in_exact_mode(self, ex31):
        with pytest.raises(ValueError):
            solve(ex31, mode="exact", tol=5.0)

    def test_unknown_mode(self, ex31):
        with pytest.raises(ValueError):
            solve(ex31, mode="symbolic")
