"""Backward pentadiagonal system representation and row-reversal.

A backward pentadiagonal matrix has its five nonzero bands along and
adjacent to the anti-diagonal. It is stored in five vectors (5n-6 scalars).
Internal indexing is 0-based; the correspondence to the conventional
1-based band symbols is:

    band        length   internal -> 1-based
    a_tilde     n-2      a_tilde[j]  = a~_(j+1),   j = 0..n-3
    a           n-1      a[j]        = a_(j+1),    j = 0..n-2
    d           n        d[j]        = d_(j+1),    j = 0..n-1
    b           n-1      b[j]        = b_(j+2),    j = 0..n-2
    b_tilde     n-2      b_tilde[j]  = b~_(j+3),   j = 0..n-3

so e.g. internal b[0] is b_2 and b_tilde[0] is b_3. Scalars are generic:
int, Fraction, float, or RationalFunction all work, as long as the usual
arithmetic operators are defined.
"""

from __future__ import annotations

from dataclasses import dataclass


class SizeTooSmall(ValueError):
    """System size n < 5 is rejected; smaller bandwidths are out of scope."""


class LengthMismatch(ValueError):
    """A band or right-hand-side vector has the wrong length for n."""


def _check_lengths(n, a_tilde, a, d, b, b_tilde, y):
    if n < 5:
        raise SizeTooSmall(f"system size must be >= 5, got n={n}")
    for name, vec, want in (("a_tilde", a_tilde, n - 2), ("a", a, n - 1),
                            ("d", d, n), ("b", b, n - 1),
                            ("b_tilde", b_tilde, n - 2), ("y", y, n)):
        if len(vec) != want:
            raise LengthMismatch(
                f"vector {name}: expected length {want} for n={n}, got {len(vec)}")


_FIELDS = ("a_tilde", "a", "d", "b", "b_tilde", "y")


@dataclass(frozen=True)
class BackwardPentaSystem:
    """The system AX=Y with A backward pentadiagonal, stored as five bands."""

    a_tilde: tuple
    a: tuple
    d: tuple
    b: tuple
    b_tilde: tuple
    y: tuple

    def __post_init__(self):
        for field in _FIELDS:
            object.__setattr__(self, field, tuple(getattr(self, field)))
        _check_lengths(len(self.d), self.a_tilde, self.a, self.d,
                       self.b, self.b_tilde, self.y)

    @property
    def n(self) -> int:
        return len(self.d)

    def map_scalars(self, fn) -> "BackwardPentaSystem":
        """Apply fn to every stored scalar (band entries and rhs)."""
        return BackwardPentaSystem(
            *(tuple(map(fn, getattr(self, f))) for f in _FIELDS))


@dataclass(frozen=True)
class PentaSystem:
    """The row-reversed system A1 X = Y1; A1 is ordinary pentadiagonal.

    The five band vectors are shared verbatim with the source backward
    system; only the row order (and hence the rhs) is reversed.
    """

    a_tilde: tuple
    a: tuple
    d: tuple
    b: tuple
    b_tilde: tuple
    y1: tuple

    def __post_init__(self):
        for field in ("a_tilde", "a", "d", "b", "b_tilde", "y1"):
            object.__setattr__(self, field, tuple(getattr(self, field)))
        _check_lengths(len(self.d), self.a_tilde, self.a, self.d,
                       self.b, self.b_tilde, self.y1)

    @property
    def n(self) -> int:
        return len(self.d)


def new_system(a_tilde, a, d, b, b_tilde, y) -> BackwardPentaSystem:
    """Validated constructor; scalars are stored exactly as given."""
    return BackwardPentaSystem(a_tilde, a, d, b, b_tilde, y)


def reverse_rows(system: BackwardPentaSystem) -> PentaSystem:
    """Reverse the equation order, turning AX=Y into pentadiagonal A1 X = Y1."""
    return PentaSystem(system.a_tilde, system.a, system.d, system.b,
                       system.b_tilde, tuple(reversed(system.y)))


def laplacian_system(n: int, y) -> BackwardPentaSystem:
    """Backward pentadiagonal form of the 2-D Laplacian stencil: -4 on the
    anti-diagonal, 1 on the four adjacent bands."""
    y = tuple(y)
    return BackwardPentaSystem((1,) * (n - 2), (1,) * (n - 1), (-4,) * n,
                               (1,) * (n - 1), (1,) * (n - 2), y)


def densify(system) -> list:
    """Expand to a dense n x n row-major matrix (zeros off the five bands)."""
    if isinstance(system, PentaSystem):
        back = BackwardPentaSystem(system.a_tilde, system.a, system.d,
                                   system.b, system.b_tilde, system.y1)
        return list(reversed(densify(back)))
    n = system.n
    m = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):  # 1-based row index, anti-diagonal layout
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
