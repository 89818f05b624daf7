import math
import re
from fractions import Fraction

import pytest

from answers import divided
from backpenta import (BackwardPentaSystem, GeneratorConfig,
                       RationalFunction, Singular, SplitMix64, densify,
                       dense_det, dense_solve, force_interior_zero_pivot,
                       generate, new_system, reverse_rows, solve)
from backpenta import oracle, solver
from backpenta.oracle import _band_slot
from backpenta.solver import factor_symbolic


class TestSplitMix64:
    def test_reference_stream(self):
        # published reference outputs for seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_uniform_range(self):
        rng = SplitMix64(42)
        draws = [rng.uniform_int(9) for _ in range(500)]
        assert all(-9 <= v <= 9 for v in draws)
        assert len(set(draws)) == 19


class TestDenseSolve:
    def test_identity(self):
        ident = [[int(i == j) for j in range(5)] for i in range(5)]
        rhs = [3, -1, Fraction(2, 7), 0, 9]
        assert dense_solve(ident, rhs) == tuple(Fraction(v) for v in rhs)

    def test_known_system(self, ex31):
        assert dense_solve(densify(ex31), ex31.y) == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("size", [4, 6])
    def test_rhs_of_the_wrong_length_rejected(self, size):
        ident = [[int(i == j) for j in range(5)] for i in range(5)]
        with pytest.raises(ValueError,
                           match="^rhs length must match matrix size$"):
            dense_solve(ident, [1] * size)

    def test_equal_rows_singular(self):
        m = [[1, 2, 3], [1, 2, 3], [0, 1, 1]]
        with pytest.raises(Singular):
            dense_solve(m, [1, 1, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_solve_multiply_round_trip(self, seed):
        rng = SplitMix64(seed)
        n = 6 + seed
        m = [[Fraction(rng.uniform_int(9)) for _ in range(n)]
             for _ in range(n)]
        v = [Fraction(rng.uniform_int(4)) for _ in range(n)]
        rhs = [sum(row[j] * v[j] for j in range(n)) for row in m]
        try:
            assert dense_solve(m, rhs) == tuple(v)
        except Singular:
            assert dense_det(m) == 0


class TestDenseDet:
    def test_identity(self):
        assert dense_det([[int(i == j) for j in range(4)]
                          for i in range(4)]) == 1

    def test_known_systems(self, ex31, ex32):
        assert dense_det(densify(reverse_rows(ex31))) == 160
        assert dense_det(densify(reverse_rows(ex32))) == 88

    def test_singular_gives_zero(self):
        assert dense_det([[1, 2], [2, 4]]) == 0

    def test_rational_entries(self):
        m = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
        assert dense_det(m) == Fraction(1, 6)


class TestGenerator:
    def test_determinism(self):
        cfg = GeneratorConfig(seed=7, n=10)
        assert generate(cfg) == generate(cfg)

    def test_forced_zero_band_positions(self):
        s = generate(GeneratorConfig(seed=3, n=8,
                                     force_zero_pivots=("d_n", "b_2", "aa_1")))
        assert s.d[-1] == 0
        assert s.b[0] == 0
        assert s.a_tilde[0] == 0

    def test_bad_band_position(self):
        with pytest.raises(ValueError):
            generate(GeneratorConfig(seed=0, n=8, force_zero_pivots=("q_1",)))
        with pytest.raises(ValueError):
            generate(GeneratorConfig(seed=0, n=8, force_zero_pivots=("bb_2",)))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, n=4)

    def test_rejects_empty_entry_range(self):
        with pytest.raises(ValueError, match="^entry_range must be >= 1$"):
            GeneratorConfig(seed=0, n=8, entry_range=0)

    def test_known_solution_solves(self):
        s = generate(GeneratorConfig(seed=9, n=12))
        x = dense_solve(densify(s), s.y)
        assert all(v.denominator == 1 and abs(v) <= 3 for v in x)

    @pytest.mark.parametrize("seed", range(5))
    def test_generator_agrees_with_banded_solver(self, seed):
        from backpenta import ZeroPivot
        s = generate(GeneratorConfig(seed=300 + seed, n=10))
        try:
            x = solve(s, mode="exact").x
        except ZeroPivot:
            return
        assert x == dense_solve(densify(s), s.y)


def _generate_dense(config):
    # generate() as first written: y = densify(A) * sol, O(n^2)
    rng = SplitMix64(config.seed)
    n, m = config.n, config.entry_range
    bands = [[rng.uniform_int(m) for _ in range(k)]
             for k in (n - 2, n - 1, n, n - 1, n - 2)]
    fields = ("a_tilde", "a", "d", "b", "b_tilde")
    for pos in config.force_zero_pivots:
        fld, idx = _band_slot(pos, n)
        bands[fields.index(fld)][idx] = 0
    sol = [rng.uniform_int(3) for _ in range(n)]
    dense = densify(new_system(*bands, [0] * n))
    return new_system(*bands, [sum(row[j] * sol[j] for j in range(n))
                               for row in dense])


_OLD_LENGTHS = {"aa": -2, "a": -1, "d": 0, "b": -1, "bb": -2}
_OLD_FIELDS = {"aa": "a_tilde", "a": "a", "d": "d", "b": "b", "bb": "b_tilde"}
_OLD_BASE = {"aa": 1, "a": 1, "d": 1, "b": 2, "bb": 3}


def _band_slot_dicts(pos, n):
    # _band_slot as first written, over three per-band dicts
    try:
        band, idx = pos.rsplit("_", 1)
        length = n + _OLD_LENGTHS[band]
    except (ValueError, KeyError):
        raise ValueError(pos) from None
    first = _OLD_BASE[band]
    i = n if idx == "n" else int(idx)
    if not first <= i <= first + length - 1:
        raise ValueError(pos)
    return _OLD_FIELDS[band], i - first


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_band_slot_matches_dicts(n):
    positions = [f"{band}_{idx}" for band in ("aa", "a", "d", "b", "bb")
                 for idx in [*range(n + 2), "n"]]
    positions += ["d", "c_1", "dd_2", "_1", "b_x"]
    for pos in positions:
        try:
            want = _band_slot_dicts(pos, n)
        except ValueError:
            with pytest.raises(ValueError):
                _band_slot(pos, n)
        else:
            assert _band_slot(pos, n) == want, pos


@pytest.mark.parametrize("pos", ["d_x", "d_", "d_ 3", "d_+3", "d_-1",
                                 "d_3 ", "d_N", "d_\u0663", "d_1.0"])
def test_band_slot_rejects_malformed_index(pos):
    with pytest.raises(ValueError, match="^bad band position "):
        _band_slot(pos, 6)


def _typed(system):
    # each entry with its type: == alone lets Fraction(1) pass for 1
    return system.map_scalars(lambda v: (type(v), v))


class TestGenerateMatchesDenseFormula:
    @pytest.mark.parametrize("n", [5, 6, 7, 11, 40])
    def test_identical_systems(self, n):
        zeros = ((), ("d_n",), ("d_1", "a_1"), ("aa_1", "b_2", "bb_n"))
        for seed in range(12):
            for m in (1, 2, 9, 1000):
                cfg = GeneratorConfig(seed=seed * 7919 + n, n=n,
                                      entry_range=m,
                                      force_zero_pivots=zeros[seed % 4])
                assert _typed(generate(cfg)) == _typed(_generate_dense(cfg))


class TestForcedInteriorPivot:
    @pytest.mark.parametrize("i", [3, 5, 8])
    def test_pivot_becomes_zero(self, i):
        base = generate(GeneratorConfig(seed=21, n=9))
        forced = force_interior_zero_pivot(base, i)
        if forced is None:
            pytest.skip("earlier pivot already zero for this seed")
        lu = factor_symbolic(reverse_rows(forced))
        assert i in lu.replacements

    def test_oracle_keeps_the_name(self):
        assert oracle.force_interior_zero_pivot is force_interior_zero_pivot

    @pytest.mark.parametrize("i", [1, 10, True])
    def test_rejects_index_outside_2_to_n(self, i):
        base = generate(GeneratorConfig(seed=21, n=9))
        with pytest.raises(ValueError, match=r"^interior pivot index must "
                           r"be in 2\.\.n$"):
            force_interior_zero_pivot(base, i)

    @pytest.mark.parametrize("i", [2.0, 3.5])
    def test_rejects_index_that_is_not_an_int(self, i):
        base = generate(GeneratorConfig(seed=21, n=9))
        with pytest.raises(TypeError, match="^'float' object cannot be "
                           "interpreted as an integer$"):
            force_interior_zero_pivot(base, i)

    @pytest.mark.parametrize("scalar", [int, float, Fraction])
    def test_lifts_the_system_once(self, scalar, monkeypatch):
        # a float-entry system is lifted before its rows are read, and d is
        # shifted on that lift; int and Fraction systems are read as they
        # are and lifted at the end: one map_scalars call either way
        base = generate(GeneratorConfig(seed=21, n=9))
        want = force_interior_zero_pivot(base, 5)
        system = base.map_scalars(scalar)
        calls = []
        map_scalars = BackwardPentaSystem.map_scalars
        monkeypatch.setattr(
            BackwardPentaSystem, "map_scalars",
            lambda s, fn: calls.append(fn) or map_scalars(s, fn))
        forced = force_interior_zero_pivot(system, 5)
        assert calls == [Fraction]
        assert _typed(forced) == _typed(want)
        assert {t for t, _ in _typed(forced).d} == {Fraction}


def _force_factor_symbolic(system):
    # force_interior_zero_pivot as it was before the band minors, for every
    # i = 2..n at once: beta_i from factor_symbolic over all n rows, with
    # Q(x) arithmetic after any zero pivot
    n = system.n
    exact = system.map_scalars(Fraction)
    forced = {}
    for i, beta_i in enumerate(factor_symbolic(reverse_rows(exact)).beta, 1):
        if isinstance(beta_i, RationalFunction):  # after an earlier replacement
            if beta_i.num.degree > 0 or beta_i.den.degree > 0:
                forced[i] = None
                continue
            beta_i = beta_i.eval_at_zero()
        d = list(exact.d)
        d[n - i] -= beta_i
        forced[i] = new_system(exact.a_tilde, exact.a, d, exact.b,
                               exact.b_tilde, exact.y)
    return forced


class TestForcedInteriorMatchesLiftedFormula:
    @pytest.mark.parametrize("n", [5, 6, 7, 9])
    def test_identical_systems(self, n):
        zeros = ((), ("d_n",), ("d_1",), ("a_1", "b_2"), ("d_n", "d_3"))
        nones = 0
        for seed in range(80):
            for m in (1, 2, 9):
                cfg = GeneratorConfig(seed=seed * 7919 + n, n=n, entry_range=m,
                                      force_zero_pivots=zeros[seed % 5])
                base = generate(cfg)
                if seed % 2:
                    base = divided(base, seed, 5)
                forced = _force_factor_symbolic(base)
                for i in range(2, n + 1):
                    assert force_interior_zero_pivot(base, i) == forced[i], (
                        cfg, i)
                    nones += forced[i] is None
        assert 0 < nones < 240 * (n - 1)

    def test_identical_systems_n40(self):
        for seed in range(20):
            for m in (1, 9):
                base = generate(GeneratorConfig(seed=seed, n=40, entry_range=m))
                forced = _force_factor_symbolic(base)
                for i in range(2, 41):
                    assert force_interior_zero_pivot(base, i) == forced[i]

    def test_no_rational_function_arithmetic(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("Q(x) arithmetic in the oracle")

        monkeypatch.setattr(solver, "factor_symbolic", fail)
        for name, attr in vars(RationalFunction).items():
            if callable(attr) and name not in ("__repr__", "__str__"):
                monkeypatch.setattr(RationalFunction, name, fail)
        forced = [force_interior_zero_pivot(
            generate(GeneratorConfig(seed=seed, n=12, entry_range=2,
                                     force_zero_pivots=("d_n", "d_3"))), i)
            for seed in range(4) for i in range(2, 13)]
        assert None in forced and any(forced)

    @pytest.mark.parametrize("y, text", [
        ([1.0, math.nan, 0, 0, 0, 0], "vector y: entry y_2 is nan, not finite"),
        ([1.0, 0, 0, 0, 0, -math.inf], "vector y: entry y_6 is -inf, not finite"),
    ])
    def test_names_non_finite_entry(self, stencil, y, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            force_interior_zero_pivot(stencil(y), 3)
