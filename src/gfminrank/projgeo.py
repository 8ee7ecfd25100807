"""Points of PG(k-1, q) in a fixed canonical order, and the bilinear pairing
x^t B y that drives polarity graphs.

A point is the unique representative of its projective class whose last
nonzero coordinate is 1; the points are the rows of one read-only n x k
int64 array, which every function here takes as it is.  The enumeration
emits, for d = k down to 1, all points whose last nonzero coordinate sits
at position d, counting the d-1 free coordinates as a little-endian base-q
counter over element reps.  This particular order is what makes the
generated pattern matrices reproducible column for column.

pairing_matrix computes the full n x n int64 matrix of pairings, for the
matrix U^t B U itself, and pairing_rows the same rows a block at a time.
The pattern graphs only need to know which pairings are nonzero, and
pairing_support gives that in row blocks of a few hundred points: k e
broadcast multiply-adds of base-p digits per block (FieldCtx.digits and
FieldCtx.mul_matrix), in the narrowest unsigned word that holds every
sum (sum_word), then a test for a nonzero residue mod p with no
division.  No n x n array is made: a block of a 10,000-point set holds
256 x 10,000 words (2.5 MB over GF(2), in bytes), not 800 MB.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

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
    """All pairings x^t B y of the rows of pts as an n x n int64 array (for
    the full matrix U^t B U; the pattern graphs read pairing_support)."""
    f = b.field
    return f.matmul(f.matmul(pts, b.entries), pts.T)


def pairing_rows(pts: np.ndarray, b: MatrixFq, step: int) -> Iterator[np.ndarray]:
    """The rows of pairing_matrix(pts, b), yielded as consecutive int64 row
    blocks of at most step rows each, so that no n x n array is held."""
    f = b.field
    left = f.matmul(pts, b.entries)
    for lo in range(0, len(pts), step):
        yield f.matmul(left[lo:lo + step], pts.T)


# points per block of pairing_support, times e: a block's sums fill this
# many times n words
_BLOCK_ROWS = 256


def sum_word(terms: int, p: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every sum of terms
    products of two digits mod p, each at most (p-1)^2; OverflowError if
    no type of 64 bits or fewer does."""
    bound = terms * (p - 1) ** 2
    if bound >= 1 << 64:
        raise OverflowError(f"{terms} products of digits mod {p} reach {bound}, "
                            f"past the 2^64 of the widest unsigned word")
    return np.min_scalar_type(bound)


def pairing_support(pts: np.ndarray, b: MatrixFq) -> Iterator[np.ndarray]:
    """The n x n bool array x^t B y != 0 over the rows x, y of pts, yielded
    as consecutive row blocks of at most _BLOCK_ROWS // e points each.

    Over GF(p^e), a product by a is a GF(p)-linear map on the e base-p
    digits of the reps, the e x e matrix f.mul_matrix(a).  So with
    left = pts B, digit i of x^t B y is the sum over t and j of entry
    (i, j) of mul_matrix(left[x, t]) times digit j of y[t] (f.digits):
    the e rows of point x hold the digit sums of its pairings, and a
    pairing is nonzero iff one of its e sums is nonzero mod p.  Over
    GF(p), e = 1 and this is left times pts^t.

    A block sums its k e terms (t, j): each is the outer product of the
    block's part of lhs row (t, j) and rhs row (t, j), multiplied into one
    reused array and added into the sums.  Everything is held in the
    narrowest unsigned word of w bits that holds k e (p-1)^2 (sum_word),
    so no sum wraps and every sum is exact; no BLAS call and no float is
    involved.

    For p = 2 the parity is the low bit.  For odd p, x < 2^w is a
    multiple of p iff x p^-1 mod 2^w <= (2^w - 1) / p (Granlund and
    Montgomery, "Division by invariant integers using multiplication",
    1994): multiplying by p^-1 maps the multiples m p onto
    0..(2^w - 1) / p and, being a bijection, the rest elsewhere.  So no
    remainder is taken over the n x n entries.
    """
    f = b.field
    p, e = f.p, f.e
    n, k = pts.shape
    word = sum_word(k * e, p)
    terms = max(k * e, 1)  # an empty sum is one product of zeros
    # entry (i, j) of the product matrix of left[x, t] at [(t, j), (x, i)],
    # digit j of y[t] at [(t, j), y]
    lhs, rhs = np.zeros((terms, n * e), dtype=word), np.zeros((terms, n), dtype=word)
    mats = f.mul_matrix(f.matmul(pts, b.entries))  # entry (i, j) at [x, t, i, j]
    lhs[:k * e] = mats.transpose(1, 3, 0, 2).reshape(k * e, n * e)
    rhs[:k * e] = f.digits(pts).reshape(n, k * e).T
    if p > 2:
        w = 8 * word.itemsize
        inverse, limit = word.type(pow(p, -1, 1 << w)), word.type(((1 << w) - 1) // p)
    step = max(1, _BLOCK_ROWS // e)
    products = np.empty((min(step, n) * e, n), dtype=word)
    for lo in range(0, n, step):
        rows = slice(lo * e, min(lo + step, n) * e)
        # a new array per block: the bool view below yields it to the caller
        sums = np.multiply.outer(lhs[0, rows], rhs[0])
        product = products[:len(sums)]
        for t in range(1, terms):
            np.multiply.outer(lhs[t, rows], rhs[t], out=product)
            sums += product
        if p == 2:
            sums &= 1
            nz = sums.view(bool) if word.itemsize == 1 else sums.astype(bool)
        else:
            sums *= inverse  # mod 2^w
            nz = sums > limit
        yield nz.reshape(-1, e, n).any(axis=1) if e > 1 else nz


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
