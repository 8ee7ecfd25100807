"""Points of PG(k-1, q) in a fixed canonical order, and the bilinear pairing
x^t B y that drives polarity graphs.

A point is the unique representative of its projective class whose last
nonzero coordinate is 1.  The enumeration emits, for d = k down to 1, all
points whose last nonzero coordinate sits at position d, counting the d-1
free coordinates as a little-endian base-q counter over element reps.  This
particular order is what makes the generated pattern matrices reproducible
column for column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx
from .matfq import MatrixFq

Point = tuple[int, ...]


@dataclass(frozen=True)
class PointList:
    """All (q^k - 1)/(q - 1) points of PG(k-1, q), canonically ordered."""

    field: FieldCtx
    k: int
    points: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]


def point_count(q: int, k: int) -> int:
    return (q ** k - 1) // (q - 1)


def enumerate_points(field: FieldCtx, k: int) -> PointList:
    """Canonical ordered list of the points of PG(k-1, q)."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    q = field.q
    pts: list[Point] = []
    for d in range(k, 0, -1):
        for counter in range(q ** (d - 1)):
            coords = [0] * k
            x = counter
            for i in range(d - 1):
                coords[i] = x % q
                x //= q
            coords[d - 1] = 1
            pts.append(tuple(coords))
    return PointList(field, k, tuple(pts))


def canonicalize(field: FieldCtx, vec) -> Point:
    """Representative of the projective class of a nonzero vector."""
    coords = [int(c) % field.q for c in vec]
    last = -1
    for i, c in enumerate(coords):
        if c:
            last = i
    if last < 0:
        raise ValueError("the zero vector has no projective class")
    scale = field.inv(coords[last])
    return tuple(field.mul(scale, c) for c in coords)


def pairing(x: Point, y: Point, b: MatrixFq) -> int:
    """The scalar x^t B y."""
    k = b.rows
    if b.cols != k or len(x) != k or len(y) != k:
        raise ValueError("dimension mismatch in pairing")
    f = b.field
    xy = np.array([x, y], dtype=np.int64).reshape(2, k)
    return int(f.matmul(f.matmul(xy[:1], b.entries), xy[1:].T)[0, 0])


def _point_array(points: PointList) -> np.ndarray:
    return np.asarray(points.points, dtype=np.int64).reshape(len(points), points.k)


def pairing_matrix(points: PointList, b: MatrixFq) -> np.ndarray:
    """All pairwise pairings as an n x n int64 array."""
    f = b.field
    pts = _point_array(points)
    return f.matmul(f.matmul(pts, b.entries), pts.T)


def count_absolute(b: MatrixFq) -> int:
    """Number of points x with x^t B x = 0 (the absolute points)."""
    if not b.is_symmetric():
        raise ValueError("absolute point count requires a symmetric matrix")
    f = b.field
    pts = _point_array(enumerate_points(f, b.rows))
    xb = f.matmul(pts, b.entries)
    norms = np.zeros(len(pts), dtype=np.int64)
    for t in range(b.rows):
        norms = f.add(norms, f.mul(xb[:, t], pts[:, t]))
    return int(np.count_nonzero(norms == 0))
