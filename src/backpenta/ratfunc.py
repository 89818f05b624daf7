"""Exact arithmetic kernel: rationals, univariate polynomials, and
rational functions in one indeterminate.

The paper's symbolic algorithm replaces zero pivots by a placeholder ``x``
and runs the LU recurrences over Q(x), the rational functions with rational
coefficients; solve_symbolic runs the division-free Z[x] kernel instead.
Q(x) holds the reference recurrences, a symbolic report's factors and z,
and the canonical x_presub, in a canonical form (coprime numerator and
denominator, monic denominator) so equality is structural. poly_gcd
runs Euclid in ints to the first constant remainder; _cleared, the one
place src clears denominators, also builds the kernel's rows.

Plain rationals are ``fractions.Fraction`` throughout; it already provides
the reduced p/q invariant with a positive denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction


class DivisionByZero(ZeroDivisionError):
    """Division by an identically zero polynomial or rational function."""


class PoleAtZero(ZeroDivisionError):
    """Substituting the placeholder symbol = 0 hit a pole: the system is
    singular or the symbolic method is inapplicable to it. eval_at_zero
    passes the function, whose text is built only when printed.
    """

    def __str__(self):
        if self.args and isinstance(self.args[0], RationalFunction):
            return f"pole at 0 in {self.args[0]}"
        return super().__str__()


class BothZero(ValueError):
    """gcd of two identically zero polynomials is undefined."""


def from_literal(text: str) -> Fraction:
    """Parse a scalar literal: optional sign, integer, exact decimal, or p/q.

    Decimals convert exactly (``0.1`` becomes 1/10, not the nearest float).
    The placeholder symbol is never accepted here; it only arises
    internally in the solver's symbolic mode.
    """
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid scalar literal: {text!r}") from exc


class Polynomial:
    """Univariate polynomial over Fraction, coefficients in ascending degree.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading (last) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        return self if self.is_zero else self.scale(1 / self.leading)

    def evaluate(self, t) -> Fraction:
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, k) -> "Polynomial":
        k = Fraction(k)
        return Polynomial(c * k for c in self.coeffs)

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quo = [Fraction(0)] * (dq + 1)
        dlead = other.leading
        for k in range(dq, -1, -1):
            c = rem[len(other.coeffs) + k - 1] / dlead
            quo[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    rem[i + k] -= c * oc
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for p in range(self.degree, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            if p == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" if p == 1 else f"{mag}x^{p}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _cleared(values) -> tuple:
    """(ints, k): k the lcm of the denominators of int or Fraction values,
    ints the integers k * v. The one place src clears denominators."""
    k = math.lcm(*[v.denominator for v in values])
    if k == 1:  # int rows, solve_symbolic's numerators and D(x)
        return [v.numerator for v in values], 1
    return [v.numerator * (k // v.denominator) for v in values], k


def _primitive(coeffs) -> list:
    """The primitive integer multiple of int or Fraction coefficients:
    the ints of _cleared, src's one denominator clearing, over their
    content (gcd). Empty for no coefficients."""
    ints = _cleared(coeffs)[0]
    content = math.gcd(*ints)
    return ints if content == 1 else [c // content for c in ints]


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b over Z, ascending int coefficients with
    b's last nonzero: k * (a mod b) for a nonzero integer k, with no
    trailing zeros. The remainder is scaled by b's leading coefficient
    only at the steps that cancel a nonzero term."""
    r = list(a)
    lead, m = b[-1], len(b) - 1
    while len(r) > m:
        c = r.pop()
        if c:
            k = len(r) - m
            r = [v * lead for v in r]
            for i, bc in enumerate(b[:m]):
                r[k + i] -= c * bc
    while r and not r[-1]:
        r.pop()
    return r


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd by the primitive polynomial remainder sequence.

    Euclid runs on primitive integer multiples of p and q, in ints: each
    step takes the pseudo-remainder over Z and divides out its content.
    Every remainder is a nonzero rational multiple of the one Euclid over
    Q gives, so the monic result is the same. The loop stops at the first
    nonzero constant remainder: a constant is a unit of Q[x], so the gcd
    is 1 without one more step.
    """
    if p.is_zero and q.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    a, b = _primitive(p.coeffs), _primitive(q.coeffs)
    while b:
        if len(b) == 1:
            return Polynomial.constant(1)
        a, b = b, _primitive(_prem(a, b))
    return Polynomial(a).monic()


def _operators(op):
    """The forward and reflected operator of op(a, b) on two rational
    functions, as the fractions module builds its own: an int or Fraction
    operand is lifted to a constant, any other type gives NotImplemented."""
    def forward(a, b):
        b = RationalFunction._coerce(b)
        return b if b is NotImplemented else op(a, b)

    def reflected(b, a):
        a = RationalFunction._coerce(a)
        return a if a is NotImplemented else op(a, b)

    return forward, reflected


class RationalFunction:
    """Quotient of two polynomials in canonical form.

    Canonical means: numerator and denominator coprime, denominator monic.
    With that, ``__eq__`` is structural and canonicalization is a fixpoint.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.constant(1)
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            self.num = Polynomial()
            self.den = Polynomial.constant(1)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.leading
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Polynomial.constant(c))

    @classmethod
    def x(cls) -> "RationalFunction":
        """The placeholder symbol itself."""
        return cls(Polynomial.x())

    @property
    def is_zero(self) -> bool:
        """Identically zero, not merely zero at the point 0."""
        return self.num.is_zero

    def __bool__(self):
        return not self.is_zero

    @staticmethod
    def _coerce(other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other)
        return NotImplemented

    def _add(a, b):
        return RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)

    def _sub(a, b):
        return RationalFunction(a.num * b.den - b.num * a.den, a.den * b.den)

    def _mul(a, b):
        return RationalFunction(a.num * b.num, a.den * b.den)

    def _truediv(a, b):
        if b.is_zero:
            raise DivisionByZero("division by identically zero rational function")
        return RationalFunction(a.num * b.den, a.den * b.num)

    __add__, __radd__ = _operators(_add)
    __sub__, __rsub__ = _operators(_sub)
    __mul__, __rmul__ = _operators(_mul)
    __truediv__, __rtruediv__ = _operators(_truediv)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def eval_at_zero(self) -> Fraction:
        """Value at the placeholder = 0; the symbolic algorithm's final step."""
        num, den = self.num.coeffs, self.den.coeffs
        if not den[0]:
            raise PoleAtZero(self)
        return num[0] / den[0] if num else Fraction(0)

    def evaluate(self, t) -> Fraction:
        d = self.den.evaluate(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at {t}")
        return self.num.evaluate(t) / d

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant hashes as the int or Fraction it equals
        if self.num.degree < 1 and self.den.degree == 0:
            return hash(self.num.coeffs[0] if self.num.coeffs else 0)
        return hash((self.num, self.den))

    def __str__(self):
        k = len(self.num.coeffs)
        ints = _primitive(self.num.coeffs + self.den.coeffs)
        num, den = Polynomial(ints[:k]), Polynomial(ints[k:])
        if den == Polynomial.constant(1):
            return str(num)
        nrep = str(num) if num.degree < 1 else f"({num})"
        drep = str(den) if den.degree < 1 else f"({den})"
        return f"{nrep}/{drep}"

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"
