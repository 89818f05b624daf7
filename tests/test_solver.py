import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from backpenta import (GeneratorConfig, IdenticallySingular, PoleAtZero,
                       RationalFunction, ZeroPivot, back_substitute, densify,
                       dense_det, dense_solve, det_original, determinant,
                       factor, factor_symbolic, force_interior_zero_pivot,
                       forward_sweep, generate, new_system, reverse_rows,
                       solve, solve_symbolic)
from backpenta.instrument import CountingScalar, OpCounter
from backpenta.solver import _streamed_solve
from backpenta.systems import BANDS

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


@st.composite
def _small_systems(draw):
    # n = 5..9, entries k/q with k in [-9, 9] and q in 1..4
    n = draw(st.integers(5, 9))
    entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    vector = lambda size: draw(st.lists(entries, min_size=size,
                                        max_size=size))
    return new_system(vector(n - 2), vector(n - 1), vector(n), vector(n - 1),
                      vector(n - 2), vector(n))


class TestDeterminantProperties:
    """Both determinants against the dense oracle, on systems with no zero
    pivot (a zero pivot ends exact mode before any det)."""

    @settings(deadline=None)
    @given(_small_systems())
    def test_exact_solve_det_is_dense_det_of_a1(self, s):
        try:
            report = solve(s)
        except ZeroPivot:
            assume(False)
        assert report.det == dense_det(densify(reverse_rows(s)))

    @settings(deadline=None)
    @given(_small_systems())
    def test_det_original_is_dense_det(self, s):
        try:
            lu = factor(reverse_rows(s))
        except ZeroPivot:
            assume(False)
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
        # the exact count of each stage, 20n - 31 for factor and sweeps;
        # acceptance criterion 7 checks only that the count grows linearly,
        # so this is what catches one added or lost operation
        for n in (5, 6, 100, 1000):
            counter = OpCounter()
            s = generate(GeneratorConfig(seed=7, n=n))
            p = reverse_rows(s.map_scalars(
                lambda v: CountingScalar(float(v), counter)))
            counts = [0]
            lu = factor(p)
            counts.append(counter.count)
            z = forward_sweep(p, lu)
            counts.append(counter.count)
            back_substitute(p, lu, z)
            counts.append(counter.count)
            determinant(lu)
            counts.append(counter.count)
            assert counts[3] == 20 * n - 31
            assert [b - a for a, b in zip(counts, counts[1:])] == [
                10 * n - 17, 5 * n - 8, 5 * n - 6, n - 1]
            # solve's fused pass makes the factor's and sweeps' operations
            # but reuses the factor's multiplier a~/beta in the forward
            # sweep: n - 2 divisions fewer (solve takes det itself)
            counter = OpCounter()
            _streamed_solve(s, lambda v: CountingScalar(float(v), counter),
                            None)
            assert counter.count == 19 * n - 29

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
        # exact and symbolic mode name the entry the same way, also past
        # d_1 = 10**400, an int beyond the float range but finite
        vec = list(getattr(ex31, field))
        vec[1] = value
        system = replace(ex31, **{field: vec})
        huge = replace(system, d=[10 ** 400, *system.d[1:]])
        for run, s in ((lambda s: solve(s, mode="float"), system),
                       (lambda s: solve(s, mode="exact"), huge),
                       (solve_symbolic, huge)):
            with pytest.raises(ValueError, match=(
                    f"^vector {field}: entry {name} is {value}, not finite$")):
                run(s)

    @pytest.mark.parametrize("value", [10 ** 400, F(-(10 ** 400), 3)],
                             ids=["int", "fraction"])
    @pytest.mark.parametrize("field, name", [  # entry 2 of three vectors
        ("a_tilde", "a_tilde_3"), ("b", "b_4"), ("y", "y_3")])
    def test_float_mode_names_an_entry_beyond_the_float_range(
            self, ex31, field, name, value):
        vec = list(getattr(ex31, field))
        vec[2] = value
        system = replace(ex31, **{field: vec})
        with pytest.raises(OverflowError, match=(
                f"^vector {field}: entry {name} is beyond the float range$")):
            solve(system, mode="float")
        assert solve(system, mode="exact").x  # Fraction holds it

    def test_float_mode_accepts_finite_entries_summing_to_inf(self, ex31):
        report = solve(replace(ex31, y=[1e308] * 5), mode="float")
        assert report.det == 160.0

    def test_tolerance_rejected_in_exact_mode(self, ex31):
        with pytest.raises(ValueError):
            solve(ex31, mode="exact", tol=5.0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tolerance_rejected(self, ex31, tol):
        # |beta_i| < nan and |beta_i| < -1 are never true: such a tol
        # would be silently ignored
        with pytest.raises(ValueError,
                           match=rf"^tol must be >= 0, got {tol!r}$"):
            solve(ex31, mode="float", tol=tol)
        assert solve(ex31, mode="float", tol=0.0).x == solve(
            ex31, mode="float").x

    def test_unknown_mode(self, ex31):
        with pytest.raises(ValueError):
            solve(ex31, mode="symbolic")


def _solve_banded(system):
    """x from LAPACK's banded solver (partial pivoting) on A1 X = Y1."""
    np = pytest.importorskip("numpy")
    linalg = pytest.importorskip("scipy.linalg")
    n = system.n
    ab = np.zeros((5, n))  # ab[2 + i - j, j] = A1[i, j]
    for field, k in BANDS:
        # entry j sits in row r of A, so in row n - 1 - r of A1, column + k
        for j, v in enumerate(getattr(system, field)):
            ab[2 - k, n - 1 - j - max(k, 0) + k] = v
    return linalg.solve_banded((2, 2), ab,
                               np.array(reverse_rows(system).y1, dtype=float))


def _assert_close(x, ref):
    # normwise relative error: known solutions have zero entries
    assert max(abs(a - b) for a, b in zip(x, ref)) <= 1e-9 * max(map(abs, ref))


class TestFloatAgainstScipy:
    """Float solve (no pivoting) against scipy.linalg.solve_banded on
    systems with no zero pivot."""

    def test_generated_systems(self):
        checked = 0
        for seed in range(112):
            s = generate(GeneratorConfig(seed=seed, n=5 + seed % 56,
                                         known_solution=seed % 2 == 0))
            try:
                solve(s, mode="exact")
            except ZeroPivot:
                continue
            _assert_close(solve(s, mode="float").x, _solve_banded(s))
            checked += 1
        assert checked >= 90

    def test_diagonally_dominant_system_at_scale(self):
        rng = random.Random(11)
        n = 5000

        def band(m):
            return [rng.uniform(-2, 2) for _ in range(m)]
        s = new_system(band(n - 2), band(n - 1),
                       [rng.choice((-1, 1)) * rng.uniform(9, 10)
                        for _ in range(n)],
                       band(n - 1), band(n - 2), band(n))
        _assert_close(solve(s, mode="float").x, _solve_banded(s))
