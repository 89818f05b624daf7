from fractions import Fraction

import pytest

from backpenta import (GeneratorConfig, LengthMismatch, SizeTooSmall,
                       SplitMix64, densify, dense_solve, generate,
                       laplacian_system, new_system, reverse_rows, solve)
from backpenta.systems import band_product

EX31_MATRIX = [
    [0, 0, 3, -1, 1],
    [0, 2, -2, 2, 4],
    [3, 1, 2, 1, 1],
    [4, -2, 2, 2, 0],
    [-1, 1, 1, 0, 0],
]


def test_too_small_rejected():
    with pytest.raises(SizeTooSmall):
        new_system([1, 1], [1, 1, 1], [1, 1, 1, 1], [1, 1, 1], [1, 1],
                   [1, 1, 1, 1])


def test_wrong_band_length_rejected():
    # a one entry too long for n=5
    with pytest.raises(LengthMismatch, match="vector a:"):
        new_system([1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1],
                   [1, 1, 1, 1], [1, 1, 1], [1, 1, 1, 1, 1])


def test_storage_exactness():
    vals = [Fraction(1, 3), Fraction(-7, 2), 0.25]
    s = new_system(vals, [1, 2, 3, 4], [5, 6, 7, 8, 9], [1, 1, 1, 1],
                   [2, 2, 2], [0, 0, 0, 0, 0])
    assert s.a_tilde == tuple(vals)
    assert s.a_tilde[0] is vals[0]


def test_densify_matches_known_matrix(ex31):
    assert densify(ex31) == EX31_MATRIX


def test_reverse_rows_first_row_and_rhs(ex31):
    p = reverse_rows(ex31)
    m = densify(p)
    assert m[0] == [-1, 1, 1, 0, 0]
    assert p.y1 == (4, 14, 20, 26, 10)


def test_reverse_rows_commutes_with_densify(ex31):
    assert densify(reverse_rows(ex31)) == list(reversed(densify(ex31)))


def test_diagonal_only_reverses_to_diagonal():
    d = [2, 3, 4, 5, 6]
    s = new_system([0, 0, 0], [0, 0, 0, 0], d, [0, 0, 0, 0], [0, 0, 0],
                   [1, 1, 1, 1, 1])
    m = densify(reverse_rows(s))
    for i in range(5):
        for j in range(5):
            assert m[i][j] == (d[4 - i] if i == j else 0)


def test_all_zero_bands_densify_to_zero_matrix():
    s = new_system([0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0],
                   [0, 0, 0], [0, 0, 0, 0, 0])
    assert densify(s) == [[0] * 5 for _ in range(5)]


def test_laplacian_bands():
    s = laplacian_system(5, [1, 1, 1, 1, 1])
    assert s.d == (-4,) * 5
    assert s.a == s.b == (1,) * 4
    assert s.a_tilde == s.b_tilde == (1,) * 3
    nonzeros = sum(1 for row in densify(s) for v in row if v != 0)
    assert nonzeros == 5 * 5 - 6


def test_laplacian_rejects_small_n():
    with pytest.raises(SizeTooSmall):
        laplacian_system(4, [1, 1, 1, 1])


def test_laplacian_solve_matches_dense_oracle():
    s = laplacian_system(6, [1] * 6)
    x = solve(s, mode="exact").x
    assert x == dense_solve(densify(s), s.y)


@pytest.mark.parametrize("seed", range(8))
def test_densify_reverse_round_trip_random(seed):
    s = generate(GeneratorConfig(seed=seed, n=5 + seed % 9))
    assert densify(reverse_rows(s)) == list(reversed(densify(s)))
    nonzeros = sum(1 for row in densify(s) for v in row if v != 0)
    assert nonzeros <= 5 * s.n - 6


def _densify_chain(system):
    # densify as first written: a 1-based if-chain over the anti-diagonal
    n = system.n
    m = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        m[i - 1][n - i] = system.d[i - 1]
        if i <= n - 1:
            m[i - 1][n - i - 1] = system.a[i - 1]
        if i <= n - 2:
            m[i - 1][n - i - 2] = system.a_tilde[i - 1]
        if i >= 2:
            m[i - 1][n - i + 1] = system.b[i - 2]
        if i >= 3:
            m[i - 1][n - i + 2] = system.b_tilde[i - 3]
    return m


@pytest.mark.parametrize("n", range(5, 13))
def test_densify_matches_if_chain(n):
    # entry j of band number t (a_tilde = 1 .. b_tilde = 5) is 100*t + j + 1
    bands = [[100 * t + j + 1 for j in range(length)]
             for t, length in enumerate((n - 2, n - 1, n, n - 1, n - 2), 1)]
    s = new_system(*bands, range(n))
    want = _densify_chain(s)
    assert densify(s) == want
    assert densify(reverse_rows(s)) == want[::-1]
    assert sum(1 for row in want for v in row if v) == 5 * n - 6


@pytest.mark.parametrize("n", range(5, 13))
def test_band_product_matches_dense_row_sums(n):
    rng = SplitMix64(n)
    s = generate(GeneratorConfig(seed=n, n=n))
    for system in (s, s.map_scalars(lambda v: Fraction(v, 7)),
                   reverse_rows(s)):
        dense = densify(system)
        for v in ([rng.uniform_int(9) for _ in range(n)],
                  [Fraction(rng.uniform_int(9), 1 + rng.uniform_int(4) ** 2)
                   for _ in range(n)]):
            want = tuple(sum(c * vj for c, vj in zip(row, v)) for row in dense)
            got = band_product(system, v)
            assert got == want
            assert list(map(type, got)) == list(map(type, want))
