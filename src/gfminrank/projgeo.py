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

import functools
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
        # the base-q digits of every counter below q^(d-1), then the unit
        coords = np.arange(q ** (d - 1))[:, None] // q ** np.arange(k) % q
        coords[:, d - 1] = 1
        pts.extend(map(tuple, coords.tolist()))
    return PointList(field, k, tuple(pts))


def canonicalize(field: FieldCtx, vecs) -> np.ndarray:
    """Representatives of the projective classes of nonzero vectors, given
    along the last axis: each is scaled so its last nonzero coordinate is 1."""
    vecs = np.asarray(vecs, dtype=np.int64) % field.q
    if not vecs.any(axis=-1).all():
        raise ValueError("the zero vector has no projective class")
    last = vecs.shape[-1] - 1 - np.argmax(vecs[..., ::-1] != 0, axis=-1)
    return field.mul(field.inv(np.take_along_axis(vecs, last[..., None], axis=-1)), vecs)


def point_index(field: FieldCtx, points: np.ndarray) -> np.ndarray:
    """Positions of canonical points (along the last axis) in the order of
    enumerate_points, which this inverts."""
    q, k = field.q, points.shape[-1]
    powers = q ** np.arange(k + 1, dtype=np.int64)
    # a point whose unit coordinate sits at position d reads q^(d-1) plus its
    # counter, and q^(k-1) + ... + q^d points come before it
    val = points @ powers[:k]
    d = np.searchsorted(powers, val, side="right")
    return (q ** k - powers[d]) // (q - 1) + val - powers[d - 1]


def pairing(x: Point, y: Point, b: MatrixFq) -> int:
    """The scalar x^t B y."""
    k = b.rows
    if b.cols != k or len(x) != k or len(y) != k:
        raise ValueError("dimension mismatch in pairing")
    f = b.field
    xy = np.array([x, y], dtype=np.int64).reshape(2, k)
    return int(f.matmul(f.matmul(xy[:1], b.entries), xy[1:].T)[0, 0])


def point_array(points: PointList) -> np.ndarray:
    """The points as the rows of an n x k int64 array."""
    return np.asarray(points.points, dtype=np.int64).reshape(len(points), points.k)


def pairing_matrix(points: PointList, b: MatrixFq) -> np.ndarray:
    """All pairwise pairings as an n x n int64 array."""
    f = b.field
    pts = point_array(points)
    return f.matmul(f.matmul(pts, b.entries), pts.T)


def norms(pts: np.ndarray, b: MatrixFq) -> np.ndarray:
    """x^t B x for each row x of pts."""
    f = b.field
    terms = f.mul(f.matmul(pts, b.entries), pts)
    return functools.reduce(f.add, terms.T, np.zeros(len(pts), dtype=np.int64))


def count_absolute(b: MatrixFq) -> int:
    """Number of points x with x^t B x = 0 (the absolute points)."""
    if not b.is_symmetric():
        raise ValueError("absolute point count requires a symmetric matrix")
    pts = point_array(enumerate_points(b.field, b.rows))
    return int(np.count_nonzero(norms(pts, b) == 0))
