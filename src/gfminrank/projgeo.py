"""Points of PG(k-1, q) in a fixed canonical order, and the bilinear pairing
x^t B y that drives polarity graphs.

A point is the unique representative of its projective class whose last
nonzero coordinate is 1; the points are the rows of one read-only n x k
int64 array, which every function here takes as it is.  The enumeration
emits, for d = k down to 1, all points whose last nonzero coordinate sits
at position d, counting the d-1 free coordinates as a little-endian base-q
counter over element reps.  This particular order is what makes the
generated pattern matrices reproducible column for column.
"""

from __future__ import annotations

import functools

import numpy as np

from .gf import FieldCtx
from .matfq import MatrixFq


def point_count(q: int, k: int) -> int:
    return (q ** k - 1) // (q - 1)


def enumerate_points(field: FieldCtx, k: int) -> np.ndarray:
    """The points of PG(k-1, q) in canonical order, as the rows of a
    read-only n x k int64 array."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    q = field.q
    blocks = [np.zeros((0, k), dtype=np.int64)]  # concatenate needs one, even at k = 0
    for d in range(k, 0, -1):
        # the base-q digits of every counter below q^(d-1), then the unit
        coords = np.arange(q ** (d - 1), dtype=np.int64)[:, None] // q ** np.arange(k) % q
        coords[:, d - 1] = 1
        blocks.append(coords)
    pts = np.concatenate(blocks)
    pts.flags.writeable = False
    return pts


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


def pairing(x, y, b: MatrixFq) -> int:
    """The scalar x^t B y."""
    k = b.rows
    if b.cols != k or len(x) != k or len(y) != k:
        raise ValueError("dimension mismatch in pairing")
    xy = np.array([x, y], dtype=np.int64).reshape(2, k)
    return int(pairing_matrix(xy, b)[0, 1])


def pairing_matrix(pts: np.ndarray, b: MatrixFq) -> np.ndarray:
    """All pairings x^t B y of the rows of pts as an n x n int64 array."""
    f = b.field
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
    return int(np.count_nonzero(norms(enumerate_points(b.field, b.rows), b) == 0))
