"""Backward pentadiagonal system representation and row-reversal.

A backward pentadiagonal matrix has its five nonzero bands along and
adjacent to the anti-diagonal. It is stored in five vectors (5n-6 scalars)
laid out as BANDS states. Internal indexing is 0-based: entry j of band k
is the conventional 1-based symbol with subscript j + 1 + max(k, 0), so
e.g. internal a[0] is a_1, b[0] is b_2 and b_tilde[0] is b~_3. Scalars are
generic: int, Fraction, float, or RationalFunction all work, as long as
the usual arithmetic operators are defined.
"""

from __future__ import annotations

from dataclasses import dataclass


class SizeTooSmall(ValueError):
    """System size n < 5 is rejected; smaller bandwidths are out of scope."""


class LengthMismatch(ValueError):
    """A band or right-hand-side vector has the wrong length for n."""


# (field, k): band k lies k places right of the anti-diagonal and has
# n - |k| entries; entry j sits in 0-based row r = j + max(k, 0) and
# column n - 1 - r + k.
BANDS = (("a_tilde", -2), ("a", -1), ("d", 0), ("b", 1), ("b_tilde", 2))
VECTORS = (*BANDS, ("y", 0))  # the right-hand side has the length of d
_FIELDS = tuple(field for field, _ in VECTORS)


def _check_lengths(n, *vectors):
    if n < 5:
        raise SizeTooSmall(f"system size must be >= 5, got n={n}")
    for (name, k), vec in zip(VECTORS, vectors):
        if len(vec) != n - abs(k):
            raise LengthMismatch(f"vector {name}: expected length "
                                 f"{n - abs(k)} for n={n}, got {len(vec)}")


@dataclass(frozen=True)
class _BandedSystem:
    """Five band vectors and a right-hand side, checked against n = len(d)."""

    a_tilde: tuple
    a: tuple
    d: tuple
    b: tuple
    b_tilde: tuple
    y: tuple

    def __post_init__(self):
        for field in _FIELDS:
            object.__setattr__(self, field, tuple(getattr(self, field)))
        _check_lengths(len(self.d), *(getattr(self, f) for f in _FIELDS))

    @property
    def n(self) -> int:
        return len(self.d)


class BackwardPentaSystem(_BandedSystem):
    """The system AX=Y with A backward pentadiagonal, stored as five bands."""

    def map_scalars(self, fn) -> "BackwardPentaSystem":
        """Apply fn to every stored scalar (band entries and rhs)."""
        return BackwardPentaSystem(
            *(tuple(map(fn, getattr(self, f))) for f in _FIELDS))


class PentaSystem(_BandedSystem):
    """The row-reversed system A1 X = Y1; A1 is ordinary pentadiagonal.

    The five band vectors are shared verbatim with the source backward
    system; only the row order is reversed, so y holds Y1 (also read as y1).
    """

    @property
    def y1(self) -> tuple:
        return self.y


new_system = BackwardPentaSystem  # the validated constructor


def reverse_rows(system: _BandedSystem) -> _BandedSystem:
    """Reverse the equation order, turning AX=Y into pentadiagonal A1 X = Y1
    and A1 X = Y1 back into the AX=Y it came from."""
    cls = BackwardPentaSystem if isinstance(system, PentaSystem) else PentaSystem
    return cls(system.a_tilde, system.a, system.d, system.b, system.b_tilde,
               tuple(reversed(system.y)))


def laplacian_system(n: int, y) -> BackwardPentaSystem:
    """The 5-point stencil's weights on five adjacent bands: -4 on the
    anti-diagonal, 1 on the four beside it. It is not the 2-D Laplacian
    matrix, whose outer bands sit m apart on an m x m grid."""
    return BackwardPentaSystem(
        *((1 if k else -4,) * (n - abs(k)) for _, k in BANDS), y)


def band_product(system: _BandedSystem, v) -> tuple:
    """A v in O(n), exact over int and Fraction; A1 v, the rows reversed,
    for a PentaSystem."""
    n = system.n
    out = [0] * n
    for field, k in BANDS:  # entry j sits at (row0 + j, col0 - j)
        row0 = max(k, 0)
        col0 = n - 1 - row0 + k
        for j, c in enumerate(getattr(system, field)):
            out[row0 + j] += c * v[col0 - j]
    return tuple(out[::-1] if isinstance(system, PentaSystem) else out)


def densify(system) -> list:
    """Expand to a dense n x n row-major matrix (zeros off the five bands)."""
    n = system.n
    m = [[0] * n for _ in range(n)]
    for field, k in BANDS:
        for j, v in enumerate(getattr(system, field)):
            r = j + max(k, 0)
            m[r][n - 1 - r + k] = v
    return m[::-1] if isinstance(system, PentaSystem) else m
