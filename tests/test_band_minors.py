"""Gate for solver._band_minors, the division-free Z[x] kernel: every
row's packed Bareiss values (D_k, u1, u2, c_k) of the scaled
[A1 + xE | Y1] are checked against the dense oracle, and so are the
leading minors of A1 itself, and _slot_bits against the product of its
row bounds.
"""

import math

import pytest

from answers import divided
from backpenta import (GeneratorConfig, SplitMix64, dense_det, densify,
                       force_interior_zero_pivot, generate, reverse_rows)
from backpenta.solver import (_a1_rows, _band_minors, _lift as _lift_exact,
                              _slot_bits, _unpack)

ZERO_SETS = ((), ("d_n",), ("d_1",), ("d_n", "d_3"), ("a_1", "b_2"))


def _systems(count):
    # seeded systems n = 5..12 over every zero set, half with non-integer
    # Fraction entries, and every fourth made singular by zeroing beta_n
    for seed in range(count):
        n = 5 + seed % 8
        s = generate(GeneratorConfig(seed=seed * 7919 + n, n=n,
                                     entry_range=(1, 2, 9)[seed % 3],
                                     force_zero_pivots=ZERO_SETS[seed % 5]))
        if seed % 4 == 3:
            s = force_interior_zero_pivot(s, n) or s
        if seed % 2:
            s = divided(s, seed, 5)
        yield s


def _leading(matrix, k):
    return [row[:k] for row in matrix[:k]]


def _row_minor(matrix, y, k, col):
    # rows 0..k, columns 0..k-1 and then column col, or y for col None
    if col is not None and col >= len(matrix):
        return 0
    return dense_det([row[:k] + [yi if col is None else row[col]]
                      for row, yi in zip(matrix[:k + 1], y)])


def test_leading_minors_match_dense_det():
    singular = 0
    for s in _systems(120):
        n = s.n
        pairs = list(_a1_rows(_lift_exact(s)))
        bits = _slot_bits(pairs)
        replaced, minors, scales = _band_minors(pairs, bits)
        rows = [row for row, _ in pairs]
        assert len(minors) == n
        a1 = densify(reverse_rows(s))
        # the scaled integer [A1 | Y1] with scale * 2**bits added on each
        # replaced diagonal: its minors are the packed values themselves
        bumped = [[0] * n for _ in range(n)]
        for i, (row, scale) in enumerate(zip(rows, scales)):
            for j in range(max(0, i - 2), min(n, i + 3)):
                bumped[i][j] = row[j - i + 2]
            if i + 1 in replaced:
                bumped[i][i] += scale << bits
        y = [row[5] for row in rows]
        for k in range(n):
            coeffs = _unpack(minors[k][0], bits)
            at_zero = coeffs[0] if coeffs else 0
            want = dense_det(_leading(a1, k + 1)) * math.prod(scales[:k + 1])
            assert at_zero == want, (s, k)
            row_minors = tuple(_row_minor(bumped, y, k, col)
                               for col in (k, k + 1, k + 2, None))
            assert minors[k] == row_minors, (s, k)
        singular += dense_det(a1) == 0
    assert singular >= 10


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 256, 2000])
def test_slot_bits_matches_sequential_product(n):
    rng = SplitMix64(n)
    for _ in range(3):
        rows = [[rng.uniform_int(1 << (rng.next_u64() % 70))
                 for _ in range(6)] for _ in range(n)]
        scales = [1 + rng.next_u64() % 60 for _ in range(n)]
        want = math.prod(sum(map(abs, row)) + scale
                         for row, scale in zip(rows, scales)).bit_length() + 1
        assert _slot_bits(list(zip(rows, scales))) == want
