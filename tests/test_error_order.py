"""Which outcome float and exact solve give for a bad entry anywhere.

Every position of every band and of y gets NaN, +-inf, an int beyond the
float range or 1e300, on systems with and without an earlier zero pivot,
in exact mode and in float mode with and without tol. solve must give
what the rule below gives, result or exception (type and message):

1. float mode: the first entry, in band order (a~, a, d, b, b~) then y,
   that float() rejects decides: OverflowError (it cannot hold the entry)
   is raised naming it, any other error of float() stands as it is;
   exact mode: if the first entry that Fraction() rejects raises a
   TypeError, that error stands;
2. the first entry that is a NaN or infinite float raises ValueError
   naming it;
3. exact mode: the error of the first entry that Fraction() rejects;
4. otherwise the answer is answers.reference: the whole system is lifted
   and factor, forward_sweep, back_substitute and determinant run on it.
   A zero pivot (or one below tol) raises ZeroPivot, and a finite system
   whose float solve overflows returns its inf or NaN components without
   an error.
"""

import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from answers import lifted, reference, solved
from backpenta import (GeneratorConfig, ZeroPivot, factor,
                       force_interior_zero_pivot, generate, new_system, solve,
                       solve_symbolic)

# (field, 1-based subscript of its first entry)
VECTORS = (("a_tilde", 1), ("a", 1), ("d", 1), ("b", 2), ("b_tilde", 3),
           ("y", 1))
BAD = (math.nan, math.inf, -math.inf, 10 ** 400, 1e300)


def _named(system):
    for field, first in VECTORS:
        for j, v in enumerate(getattr(system, field)):
            yield f"vector {field}: entry {field}_{j + first}", v


def _by_the_rule(system, mode, tol):
    name, exc = _first_rejected(system, float if mode == "float" else Fraction)
    if mode == "float" and isinstance(exc, OverflowError):
        return OverflowError, f"{name} is beyond the float range"
    if exc and (mode == "float" or isinstance(exc, TypeError)):
        return type(exc), str(exc)
    for name, v in _named(system):
        if isinstance(v, float) and not math.isfinite(v):
            return ValueError, f"{name} is {v}, not finite"
    if exc:
        return type(exc), str(exc)
    return reference(system, mode, tol)


def _first_rejected(system, scalar):
    """(name, error) of the first entry scalar() rejects, else (None, None)."""
    for name, v in _named(system):
        try:
            scalar(v)
        except (ArithmeticError, TypeError, ValueError) as exc:
            return name, exc
    return None, None


def _bases():
    """(label, system, float-mode tols): small systems with no zero pivot,
    one of them with non-integer Fraction entries, each also with d_n = 0
    (so beta_1 = 0). The tols are none, 0 and one that trips at the
    smallest pivot of the system without the zero."""
    ex31 = new_system([3, 2, 3], [-1, -2, 1, 4], [1, 2, 2, -2, -1],
                      [4, 1, 2, 1], [1, 2, 1], [10, 26, 20, 14, 4])
    app1 = new_system([3, -1, 7, -2], [2, 5, 2, 3, -5], [1, 3, 3, 5, 6, 14],
                      [2, 1, 2, 2, 1], [-5, -7, 3, -10], [6, 9, 8, 1, 6, 5])
    gen = generate(GeneratorConfig(seed=5, n=8))
    thirds = gen.map_scalars(lambda v: Fraction(v, 3) + Fraction(1, 7))
    for label, s in (("ex31", ex31), ("app1", app1), ("thirds", thirds)):
        lu = factor(lifted(s, "float"))
        tols = (None, 0.0, min(map(abs, lu.beta)) * 1.5)
        yield label, s, tols
        yield label + " d_n=0", _with(s, "d", s.d[:-1] + (0,)), tols


def _with(system, field, vec):
    vectors = {f: getattr(system, f) for f, _ in VECTORS}
    vectors[field] = vec
    return new_system(**vectors)


BASES = list(_bases())


@pytest.mark.parametrize("label, base, tols", BASES,
                         ids=[label for label, _, _ in BASES])
def test_bad_entry_anywhere_gives_the_outcome_of_the_rule(label, base, tols):
    runs = [("exact", None)] + [("float", tol) for tol in tols]
    kinds = set()
    for field, _ in VECTORS:
        for j in range(len(getattr(base, field))):
            for value in BAD:
                vec = list(getattr(base, field))
                vec[j] = value
                system = _with(base, field, vec)
                for mode, tol in runs:
                    got = solved(system, mode, tol)
                    assert got == _by_the_rule(system, mode, tol), (
                        field, j, value, mode, tol)
                    kinds.add(got[0] if isinstance(got[0], type)
                              else "solved")
    assert {OverflowError, ValueError, ZeroPivot, "solved"} <= kinds


@pytest.mark.parametrize("run, message", [
    (lambda s: solve(s, mode="exact"), "Invalid literal for Fraction: 'abc'"),
    (solve_symbolic, "Invalid literal for Fraction: 'abc'"),
    (lambda s: force_interior_zero_pivot(s, 3),
     "Invalid literal for Fraction: 'abc'"),
    (lambda s: solve(s, mode="float"), "could not convert string to float: "
     "'abc'"),
], ids=["exact solve", "solve_symbolic", "force_interior_zero_pivot",
        "float solve"])
def test_a_non_number_entry_raises_its_own_lift_error(run, message):
    # a str is neither named nor compared: the lift's ValueError stands
    _, ex31, _ = BASES[0]
    system = _with(ex31, "y", ex31.y[:4] + ("abc",))  # y_5
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(system)


@pytest.mark.parametrize("run, message, message_after_nan", [
    (lambda s: solve(s, mode="exact"), "cannot convert NaN to integer ratio",
     "vector y: entry y_1 is nan, not finite"),
    (solve_symbolic, "cannot convert NaN to integer ratio",
     "vector y: entry y_1 is nan, not finite"),
    (lambda s: force_interior_zero_pivot(s, 3),
     "cannot convert NaN to integer ratio",
     "vector y: entry y_1 is nan, not finite"),
    (lambda s: solve(s, mode="float"),
     "cannot convert signaling NaN to float",
     "cannot convert signaling NaN to float"),
], ids=["exact solve", "solve_symbolic", "force_interior_zero_pivot",
        "float solve"])
def test_a_signaling_decimal_nan_raises_its_own_lift_error(
        run, message, message_after_nan):
    # a signaling Decimal NaN does not compare, so it is not named: the
    # lift's own ValueError stands, but a float NaN after it in band order
    # then y is still named first in the exact modes
    _, ex31, _ = BASES[0]
    system = _with(ex31, "d", ex31.d[:4] + (Decimal("sNaN"),))  # d_5
    nan_y1 = _with(system, "y", (math.nan,) + ex31.y[1:])
    for s, want in ((system, message), (nan_y1, message_after_nan)):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            run(s)


@pytest.mark.parametrize("run", [
    lambda s: solve(s, mode="exact"), solve_symbolic,
    lambda s: force_interior_zero_pivot(s, 3),
    lambda s: solve(s, mode="float"),
], ids=["exact solve", "solve_symbolic", "force_interior_zero_pivot",
        "float solve"])
@pytest.mark.parametrize("value, text", [
    (Decimal("Infinity"), "inf"), (Decimal("-Infinity"), "-inf"),
    (Decimal("NaN"), "nan"),
], ids=["Infinity", "-Infinity", "NaN"])
def test_a_decimal_nan_or_inf_is_named_as_float_names_it(run, value, text):
    # every mode prints the entry as float() prints it, not as str() does
    _, ex31, _ = BASES[0]
    system = _with(ex31, "y", ex31.y[:3] + (value,) + ex31.y[4:])  # y_4
    want = f"vector y: entry y_4 is {text}, not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        run(system)


TWO_BAD = {"nan": math.nan, "10**400": 10 ** 400, "'abc'": "abc",
           "None": None}


@pytest.mark.parametrize("base", [0, 1], ids=[BASES[0][0], BASES[1][0]])
@pytest.mark.parametrize("first, second",
                         itertools.product(TWO_BAD.values(), repeat=2),
                         ids=[f"{u}-{v}" for u, v
                              in itertools.product(TWO_BAD, repeat=2)])
def test_two_bad_entries_give_the_outcome_of_the_rule(first, second, base):
    # a~_1 and y_5: the first and last entries in band order then y, which
    # float solve's pass reads last and first
    _, system, _ = BASES[base]
    system = _with(system, "a_tilde", (first,) + system.a_tilde[1:])
    system = _with(system, "y", system.y[:4] + (second,))
    for mode in ("float", "exact"):
        try:
            got = solved(system, mode)
        except TypeError as exc:  # not an answer in answers.solved
            got = TypeError, str(exc)
        assert got == _by_the_rule(system, mode, None), mode
