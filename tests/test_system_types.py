"""The two system types: the backward system AX=Y and its row reversal
A1 X = Y1. They share their fields and validation but stay distinct."""

import dataclasses

import pytest

from backpenta import (BackwardPentaSystem, LengthMismatch, PentaSystem,
                       force_interior_zero_pivot, new_system, reverse_rows,
                       solve, solve_symbolic)

BANDS = ([3, 2, 3], [-1, -2, 1, 4], [1, 2, 2, -2, -1], [4, 1, 2, 1],
         [1, 2, 1])


def test_reversed_system_is_a_distinct_type():
    p = reverse_rows(new_system(*BANDS, [10, 26, 20, 14, 4]))
    same_vectors = BackwardPentaSystem(p.a_tilde, p.a, p.d, p.b, p.b_tilde,
                                       p.y1)
    assert not isinstance(p, BackwardPentaSystem)
    assert not isinstance(same_vectors, PentaSystem)
    assert p != same_vectors and same_vectors != p


def test_solve_rejects_a_reversed_system():
    with pytest.raises(AttributeError):
        solve(reverse_rows(new_system(*BANDS, [10, 26, 20, 14, 4])))


@pytest.mark.parametrize("run", [
    lambda s: solve(s, mode="exact"), lambda s: solve(s, mode="float"),
    solve_symbolic, lambda s: force_interior_zero_pivot(s, 3)],
    ids=["exact", "float", "symbolic", "force_pivot"])
def test_every_entry_point_names_a_reversed_system(run):
    # int entries skip the exact lift, so only the type check stops A1
    # from being solved as if it were A
    with pytest.raises(AttributeError, match="^solve takes a "
                       "BackwardPentaSystem, not PentaSystem$"):
        run(reverse_rows(new_system(*BANDS, [10, 26, 20, 14, 4])))


@pytest.mark.parametrize("cls", [BackwardPentaSystem, PentaSystem])
def test_both_types_validate_lengths(cls):
    with pytest.raises(LengthMismatch, match="vector b_tilde:"):
        cls(*BANDS[:4], [1, 2], [1, 1, 1, 1, 1])
    with pytest.raises(LengthMismatch, match="vector y"):
        cls(*BANDS, [1, 1, 1, 1])


@pytest.mark.parametrize("cls", [BackwardPentaSystem, PentaSystem])
def test_both_types_are_frozen(cls):
    s = cls(*BANDS, [1, 1, 1, 1, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.d = (0,) * 5


@pytest.mark.parametrize("cls", [BackwardPentaSystem, PentaSystem])
def test_equal_values_hash_equal(cls):
    s, t = cls(*BANDS, [1, 2, 3, 4, 5]), cls(*map(list, BANDS), range(1, 6))
    assert s == t and hash(s) == hash(t)
    assert len({s, t}) == 1


@pytest.mark.parametrize("cls", [BackwardPentaSystem, PentaSystem])
def test_reverse_rows_twice_is_the_same_system(cls):
    s = cls(*BANDS, [10, 26, 20, 14, 4])
    again = reverse_rows(reverse_rows(s))
    assert type(again) is cls and again == s


def test_y1_is_y_reversed():
    y = [10, 26, 20, 14, 4]
    assert reverse_rows(new_system(*BANDS, y)).y1 == tuple(reversed(y))


def test_new_system_is_the_backward_type():
    assert new_system is BackwardPentaSystem
