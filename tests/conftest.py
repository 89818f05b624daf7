import pytest

from backpenta import new_system


@pytest.fixture
def ex31():
    """5x5 system with solution (1,2,3,4,5) and det(A1)=160."""
    return new_system([3, 2, 3], [-1, -2, 1, 4], [1, 2, 2, -2, -1],
                      [4, 1, 2, 1], [1, 2, 1], [10, 26, 20, 14, 4])


@pytest.fixture
def ex32():
    """Same as ex31 but with a zero leading pivot (d_5 = 0); det(A1)=88."""
    return new_system([3, 2, 3], [-1, -2, 1, 4], [1, 2, 2, -2, 0],
                      [4, 1, 2, 1], [1, 2, 1], [10, 26, 20, 14, 5])


@pytest.fixture
def app1():
    """6x6 system with solution (1,...,1) and det(A1)=-8597."""
    return new_system([3, -1, 7, -2], [2, 5, 2, 3, -5], [1, 3, 3, 5, 6, 14],
                      [2, 1, 2, 2, 1], [-5, -7, 3, -10], [6, 9, 8, 1, 6, 5])


@pytest.fixture
def app2():
    """app1 with d_6 -> 0 and y_6 -> -9; needs the symbolic rescue."""
    return new_system([3, -1, 7, -2], [2, 5, 2, 3, -5], [1, 3, 3, 5, 6, 0],
                      [2, 1, 2, 2, 1], [-5, -7, 3, -10], [6, 9, 8, 1, 6, -9])


@pytest.fixture
def stencil():
    """Builds the system with the 5-point stencil's weights on its five
    bands, -4 on the anti-diagonal and 1 beside it, for a given y."""
    def build(y):
        n = len(y)
        return new_system(*([1 if k else -4] * (n - abs(k))
                            for k in (-2, -1, 0, 1, 2)), y)
    return build
