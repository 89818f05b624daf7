"""Gate for solver._band_minors, the division-free leading minors of the
scaled A1 + xE: every D_k is checked against the dense oracle, and the
packed D_k, slot width and replaced pivots against _band_bareiss, which
computes the same minors by fraction-free elimination.
"""

import copy
import math
from fractions import Fraction

import pytest

from backpenta import (GeneratorConfig, SplitMix64, dense_det, densify,
                       force_interior_zero_pivot, generate, reverse_rows)
from backpenta.solver import (_a1_rows, _band_bareiss, _band_minors,
                              _lift as _lift_exact, _slot_bits, _unpack)

ZERO_SETS = ((), ("d_n",), ("d_1",), ("d_n", "d_3"), ("a_1", "b_2"))


def _with_denominators(system, seed):
    # the same zeros, with every entry divided by a seeded 1..5
    rng = SplitMix64(seed)
    return system.map_scalars(lambda v: Fraction(v, 1 + rng.next_u64() % 5))


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
            s = _with_denominators(s, seed)
        yield s


def _leading(matrix, k):
    return [row[:k] for row in matrix[:k]]


def test_leading_minors_match_dense_det():
    singular = 0
    for s in _systems(120):
        n = s.n
        rows, scales = _a1_rows(_lift_exact(s))
        bits, replaced, minors = _band_minors(rows, scales)
        assert len(minors) == n
        a1 = densify(reverse_rows(s))
        # the scaled integer A1 with scale * 2**bits added on each replaced
        # diagonal: its leading minors are the packed D_k themselves
        bumped = [[0] * n for _ in range(n)]
        for i, (row, scale) in enumerate(zip(rows, scales)):
            for j in range(max(0, i - 2), min(n, i + 3)):
                bumped[i][j] = row[j - i + 2]
            if i + 1 in replaced:
                bumped[i][i] += scale << bits
        for k in range(1, n + 1):
            coeffs = _unpack(minors[k - 1], bits)
            at_zero = coeffs[0] if coeffs else 0
            want = dense_det(_leading(a1, k)) * math.prod(scales[:k])
            assert at_zero == want, (s, k)
            assert minors[k - 1] == dense_det(_leading(bumped, k)), (s, k)
        singular += dense_det(a1) == 0
    assert singular >= 10


@pytest.mark.parametrize("zeros", ZERO_SETS[1:], ids="+".join)
def test_matches_band_bareiss(zeros):
    for seed in range(60):
        n = 5 + seed % 12
        s = generate(GeneratorConfig(seed=seed, n=n,
                                     entry_range=(1, 2, 9)[seed % 3],
                                     force_zero_pivots=zeros))
        if seed % 2:
            s = _with_denominators(s, seed)
        rows, scales = _a1_rows(_lift_exact(s))
        got = _band_minors(rows, scales)
        rows = copy.deepcopy(rows)  # _band_bareiss reduces rows in place
        bits, replaced, _, _ = _band_bareiss(rows, scales)
        assert got == (bits, replaced, [row[2] for row in rows])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 256, 2000])
def test_slot_bits_matches_sequential_product(n):
    rng = SplitMix64(n)
    for _ in range(3):
        rows = [[rng.uniform_int(1 << (rng.next_u64() % 70))
                 for _ in range(6)] for _ in range(n)]
        scales = [1 + rng.next_u64() % 60 for _ in range(n)]
        want = math.prod(sum(map(abs, row)) + scale
                         for row, scale in zip(rows, scales)).bit_length() + 1
        assert _slot_bits(rows, scales) == want
