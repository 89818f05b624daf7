import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from backpenta import (BothZero, DivisionByZero, PoleAtZero, Polynomial,
                       RationalFunction, from_literal, poly_gcd, ratfunc,
                       solve_symbolic)

X = Polynomial.x()
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def P(*coeffs):
    """Polynomial from ascending coefficients."""
    return Polynomial(coeffs)


def reference_gcd(p, q):
    """The plain Euclidean loop: divide until the remainder is zero, then
    make the last divisor monic. poly_gcd stops earlier and must agree."""
    while not q.is_zero:
        p, q = q, p % q
    return p.monic()


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.lists(rationals, max_size=4).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfuncs = st.tuples(polys, nonzero_polys).map(lambda t: RationalFunction(*t))
big_ints = st.integers(-2 ** 60, 2 ** 60)
mixed_fractions = st.builds(Fraction, big_ints, st.integers(1, 2 ** 30))


def gcd_operands(coeffs):
    """(p, q, common): p and q of degree <= 6 (zero and constants among
    them) and a common factor of degree 1 to 3, coefficients from coeffs."""
    wide = st.lists(coeffs, max_size=7).map(Polynomial)
    factor = st.lists(coeffs, min_size=2, max_size=4).map(Polynomial)
    return st.tuples(wide, wide, factor.filter(lambda f: f.degree >= 1))


class TestFromLiteral:
    def test_integer_and_sign(self):
        assert from_literal("42") == 42
        assert from_literal("-7") == -7
        assert from_literal("+3") == 3

    def test_decimal_is_exact(self):
        assert from_literal("0.1") == Fraction(1, 10)
        assert from_literal("-2.5") == Fraction(-5, 2)

    def test_rational(self):
        assert from_literal("24/7") == Fraction(24, 7)
        assert from_literal("-11/9") == Fraction(-11, 9)

    @pytest.mark.parametrize("bad", ["x", "1/0", "", "2+3"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            from_literal(bad)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).is_zero

    def test_divmod(self):
        q, r = divmod(P(-1, 0, 1), P(-1, 1))  # (x^2-1)/(x-1)
        assert q == P(1, 1) and r.is_zero

    def test_eval(self):
        assert P(-11, 9).evaluate(Fraction(1, 3)) == -8

    def test_zero_polynomial(self):
        zero = Polynomial()
        with pytest.raises(ValueError, match="^zero polynomial has no "
                           "leading coefficient$"):
            zero.leading
        assert zero.monic() == zero
        assert not zero and P(0, 1)
        assert str(zero) == "0"
        with pytest.raises(DivisionByZero):
            divmod(P(1, 2), zero)


class TestCleared:
    def test_scales_by_the_lcm_of_the_denominators(self):
        values = [3, Fraction(-1, 6), 0, Fraction(5, 4), Fraction(7)]
        assert ratfunc._cleared(values) == ([36, -2, 0, 15, 84], 12)
        assert ratfunc._cleared([]) == ([], 1)

    def test_integers_give_their_numerators(self):
        ints, k = ratfunc._cleared([2 ** 70, Fraction(-3), 0])
        assert (ints, k) == ([2 ** 70, -3, 0], 1)
        assert {type(v) for v in ints} == {int}


class TestPolyGcd:
    def test_common_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_gcd_with_zero_is_monic(self):
        assert poly_gcd(P(2, 4), Polynomial()) == P(Fraction(1, 2), 1)

    def test_both_zero(self):
        with pytest.raises(BothZero):
            poly_gcd(Polynomial(), Polynomial())

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_factor_recovered(self, seed):
        from backpenta import SplitMix64
        rng = SplitMix64(seed)
        coeff = lambda: Fraction(rng.uniform_int(5))
        planted = Polynomial([coeff() for _ in range(2)] + [1])
        left = planted
        right = planted
        for _ in range(2):
            left = left * Polynomial([coeff(), 1])
            right = right * Polynomial([coeff(), 1])
        g = poly_gcd(left, right)
        # gcd contains the planted factor (it may pick up shared random ones)
        assert (g % planted.monic()).is_zero

    @given(polys, polys, polys)
    @example(Polynomial(), P(3), P(1))
    @example(P(5), Polynomial(), P(0, 1))
    @example(P(2), P(0, 1), P(1, 1))
    @example(P(0, 1), P(4), Polynomial())
    def test_matches_the_plain_euclidean_loop(self, p, q, common):
        # pairs as drawn (zero and constant ones included) and with a
        # planted common factor
        for a, b in ((p, q), (p * common, q * common)):
            if a.is_zero and b.is_zero:
                with pytest.raises(BothZero):
                    poly_gcd(a, b)
                continue
            g = reference_gcd(a, b)
            assert poly_gcd(a, b) == g
            if b.is_zero:
                continue
            f = RationalFunction(a, b)
            if a.is_zero:
                assert (f.num, f.den) == (Polynomial(), P(1))
                continue
            lead = (b // g).leading
            assert f.num == (a // g).scale(1 / lead)
            assert f.den == (b // g).scale(1 / lead)

    @given(st.one_of(gcd_operands(big_ints), gcd_operands(mixed_fractions)))
    @example((Polynomial(), P(2 ** 60), P(-1, 2 ** 59)))
    @example((P(Fraction(3, 2 ** 30)), Polynomial(), P(1, 1, 1, 1)))
    @example((Polynomial(), P(Fraction(1, 3), 5, 7), P(0, Fraction(1, 7))))
    @example((P(7), P(Fraction(-1, 2 ** 30), 2 ** 60), P(1, -1)))
    def test_matches_the_plain_euclidean_loop_on_wide_operands(
            self, operands):
        # integer coefficients up to 2**60 or fractions with mixed
        # denominators, as drawn and with the common factor planted
        p, q, common = operands
        for a, b in ((p, q), (p * common, q * common)):
            if a.is_zero and b.is_zero:
                with pytest.raises(BothZero):
                    poly_gcd(a, b)
                continue
            assert poly_gcd(a, b) == reference_gcd(a, b)

    def test_constant_remainder_ends_the_loop(self, monkeypatch):
        steps = []
        plain = ratfunc._prem

        def counted(a, b):
            steps.append((a, b))
            return plain(a, b)

        monkeypatch.setattr(ratfunc, "_prem", counted)
        # (2x + 1) prem (x + 3) = -5, a unit: the gcd is 1 after one step
        assert poly_gcd(P(1, 2), P(3, 1)) == P(1)
        assert steps == [([1, 2], [3, 1])]


class TestOperandRule:
    """The operators take a RationalFunction, int or Fraction on either
    side, an int or Fraction lifted to a constant, and no other type."""

    @pytest.mark.parametrize("op", BINARY, ids=lambda op: op.__name__)
    @pytest.mark.parametrize("other", [1.5, "1", None], ids=repr)
    def test_other_types_raise_type_error(self, op, other):
        f = RationalFunction(X)
        with pytest.raises(TypeError):
            op(f, other)
        with pytest.raises(TypeError):
            op(other, f)

    @pytest.mark.parametrize("other", [1.5, "1", None], ids=repr)
    @pytest.mark.parametrize("value", [RationalFunction(X), X],
                             ids=["RationalFunction", "Polynomial"])
    def test_other_types_compare_unequal(self, value, other):
        assert (value == other) is False and (other == value) is False
        assert (value != other) is True and (other != value) is True

    @pytest.mark.parametrize("op", BINARY, ids=lambda op: op.__name__)
    @pytest.mark.parametrize("c", [3, Fraction(-2, 5)], ids=repr)
    def test_numbers_lift_to_constants_on_either_side(self, op, c):
        k = RationalFunction.constant(c)
        for f in (RationalFunction(X), RationalFunction(P(1, 2), P(-3, 0, 1))):
            assert op(c, f) == op(k, f)
            assert op(f, c) == op(f, k)

    def test_division_by_zero_and_a_zero_numerator(self):
        f, zero = RationalFunction(X), RationalFunction.constant(0)
        for num, den in ((f, 0), (f, Fraction(0)), (f, zero), (1, zero)):
            with pytest.raises(DivisionByZero, match="^division by "
                               "identically zero rational function$"):
                num / den
        assert 0 / f == 0 and (0 / f).is_zero


class TestRationalFunction:
    def test_self_division_is_one(self):
        f = RationalFunction(X)
        assert f / f == RationalFunction.constant(1)

    def test_multiplicative_inverse(self):
        p = P(-11, 9)  # 9x - 11
        assert RationalFunction(p) * RationalFunction(P(1), p) == 1

    def test_known_sum(self):
        # 22(x-1)/(9x-11) + (-11)/(9x-11) = (22x-33)/(9x-11)
        a = RationalFunction(P(-22, 22), P(-11, 9))
        b = RationalFunction(P(-11), P(-11, 9))
        total = a + b
        assert total == RationalFunction(P(-33, 22), P(-11, 9))
        for t in (Fraction(1, 2), Fraction(-3), Fraction(7, 5)):
            assert total.evaluate(t) == a.evaluate(t) + b.evaluate(t)

    def test_division_by_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            RationalFunction(X) / RationalFunction.constant(0)
        with pytest.raises(DivisionByZero):
            RationalFunction(P(1), Polynomial())

    def test_eval_at_zero_paper_value(self):
        assert RationalFunction(P(-11), P(-11, 9)).eval_at_zero() == 1

    def test_eval_at_zero_constant(self):
        assert RationalFunction.constant(Fraction(7, 3)).eval_at_zero() == \
            Fraction(7, 3)

    def test_eval_at_zero_pole(self):
        with pytest.raises(PoleAtZero):
            RationalFunction(P(1), X).eval_at_zero()

    def test_is_zero_is_identically_zero(self):
        assert RationalFunction.constant(0).is_zero
        assert not RationalFunction(X, P(1, 1)).is_zero  # x/(x+1): 0 at 0 only
        assert RationalFunction(X - X, P(1, 1)).is_zero

    def test_canonical_form_is_fixpoint(self):
        f = RationalFunction(P(2, 4), P(6, 2))
        again = RationalFunction(f.num, f.den)
        assert f.num == again.num and f.den == again.den
        assert f.den.leading == 1

    def test_display_matches_primitive_integer_form(self):
        assert str(RationalFunction(P(-11), P(-11, 9))) == "-11/(9*x - 11)"
        assert str(RationalFunction(Polynomial())) == "0"
        assert str(RationalFunction.constant(Fraction(-3, 4))) == "-3/4"
        assert str(RationalFunction(P(0, Fraction(1, 2)))) == "(x)/2"

    def test_display_non_integer_denominator(self):
        f = RationalFunction(P(1, Fraction(1, 2)),
                             P(Fraction(1, 3), Fraction(2, 5), Fraction(7, 6), 1))
        assert str(f) == "(15*x + 30)/(30*x^3 + 35*x^2 + 12*x + 10)"
        g = RationalFunction(P(Fraction(-3, 4), 0, Fraction(-5, 2)),
                             P(Fraction(1, 7), Fraction(-2, 3), 1))
        assert str(g) == "(-210*x^2 - 63)/(84*x^2 - 56*x + 12)"

    @given(ratfuncs, ratfuncs)
    def test_arithmetic_commutes_with_evaluation(self, f, g):
        for t in (Fraction(2, 3), Fraction(-5)):
            try:
                fv, gv = f.evaluate(t), g.evaluate(t)
                sv = (f + g).evaluate(t)
                dv = (f - g).evaluate(t)
                pv = (f * g).evaluate(t)
                nv = (-f).evaluate(t)
            except ZeroDivisionError:
                continue
            assert nv == -fv
            assert sv == fv + gv
            assert dv == fv - gv
            assert pv == fv * gv
            if g and gv != 0:
                try:
                    assert (f / g).evaluate(t) == fv / gv
                except ZeroDivisionError:
                    pass

    @given(ratfuncs)
    def test_canonical_invariants(self, f):
        assert f.den.leading == 1
        if not f.is_zero:
            assert reference_gcd(f.num, f.den).degree == 0

    @pytest.mark.parametrize("c", [0, 2, -7, Fraction(3, 4), Fraction(-5, 2),
                                   Fraction(0), Fraction(6, 3)], ids=repr)
    def test_constant_hashes_as_its_value(self, c):
        f = RationalFunction.constant(c)
        assert f == c and hash(f) == hash(c)
        assert len({f, c}) == 1 and c in {f} and f in {c}

    def test_reports_stay_hashable_and_equal(self, ex31, ex32):
        for system in (ex31, ex32):
            report, again = solve_symbolic(system), solve_symbolic(system)
            assert report == again and len({report, again}) == 1
        # ex31 replaces no pivot: each x_presub component is the constant
        # x_k, so the two tuples are equal and must hash alike
        exact = solve_symbolic(ex31)
        assert exact.x_presub == exact.x
        assert hash(exact.x_presub) == hash(exact.x)

    @given(ratfuncs)
    def test_eval_at_zero_consistent(self, f):
        if f.den.evaluate(0) != 0:
            assert f.eval_at_zero() == f.num.evaluate(0) / f.den.evaluate(0)
        else:
            with pytest.raises(PoleAtZero):
                f.eval_at_zero()

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_fractions_agree_with_integers(self, a, b):
        assert Fraction(a) + Fraction(b) == a + b
        assert Fraction(a) * Fraction(b) == a * b
