"""Points of PG(k-1, q) in a fixed canonical order, and the bilinear pairing
x^t B y that drives polarity graphs.

A point is the unique representative of its projective class whose last
nonzero coordinate is 1; enumerate_points returns the points as a tuple
of int tuples.  The enumeration emits, for d = k down to 1, all points
whose last nonzero coordinate sits at position d, counting the d-1 free
coordinates as a little-endian base-q counter over element reps.  This
particular order is what makes the generated pattern matrices
reproducible column for column.

pairing_matrix computes the n x n pairings of any points by plain sums.
The pattern graphs and the matrix text need every row x^t B (.) over the
canonical points, and pairing_support (which pairings are nonzero) and
pairing_rows (their values) make them one row at a time:

- For k >= 3 and q <= LANE_MAX_Q a row is a value vector over all n
  points, held bit-sliced (_Planes): one int per bit of each base-p
  digit, whose bit y belongs to point y.  Over p = 2 a sum is a XOR of
  the planes; over odd p two digits add by a ripple-carry adder over
  their planes and p is subtracted where the sum reaches it.  The walk
  (_Pairings.prefixes) starts from the value vectors B(e_t, .) and their
  multiples, and adds one vector per step of every counter digit but the
  fastest: the row of x is sum_t x_t B(e_t, .).  The planes only add:
  the products in those vectors are FieldCtx.mul tables applied to the
  points' coordinates as bytes, before the planes are made (_Pairings).
  A pairing is zero where that partial sum equals -x_0 B(e_0, .), so
  pairing_support reads a whole row from one XOR of the planes.
- For k <= 2, and for larger q (under the default vertex budget only
  k <= 2 anyway), the zero pairings of x are the points of the
  hyperplane (x B)^t y = 0, solved for directly (_zero_set), and
  pairing_rows sums each value.

norms walks the same counter with a few field operations per point.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator

from .gf import FieldCtx
from .matfq import MatrixFq, _product

# the largest field whose vectors are walked bit-sliced: a vector's
# elements go to and from one byte each (_Planes.reps, from_reps)
LANE_MAX_Q = 128

_DIGIT_BYTE = bytes.maketrans(b"01", b"\0\1")


def point_count(q: int, k: int) -> int:
    return (q ** k - 1) // (q - 1)


def _counter(q: int, digits: int) -> Iterator[tuple[int, ...]]:
    """The little-endian base-q counter over the given number of digits."""
    return (c[::-1] for c in itertools.product(range(q), repeat=digits))


def enumerate_points(field: FieldCtx, k: int) -> tuple[tuple[int, ...], ...]:
    """The points of PG(k-1, q) in canonical order."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    return tuple(c + (1,) + (0,) * (k - d)
                 for d in range(k, 0, -1) for c in _counter(field.q, d - 1))


def canonicalize(field: FieldCtx, vec) -> tuple[int, ...]:
    """The representative of the projective class of a nonzero vector: it
    is scaled so its last nonzero coordinate is 1."""
    vec = [x % field.q for x in vec]
    last = next((i for i in reversed(range(len(vec))) if vec[i]), None)
    if last is None:
        raise ValueError("the zero vector has no projective class")
    scale = field.inv(vec[last])
    return tuple(field.mul(scale, x) for x in vec)


def point_index(field: FieldCtx, point) -> int:
    """The position of a canonical point in the order of enumerate_points,
    which this inverts."""
    q, k = field.q, len(point)
    # a point whose unit coordinate sits at position d reads q^(d-1) plus its
    # counter, and q^(k-1) + ... + q^d points come before it
    val = sum(x * q ** t for t, x in enumerate(point))
    d = next(d for d in range(1, k + 1) if val < q ** d)
    return (q ** k - q ** d) // (q - 1) + val - q ** (d - 1)


def pairing(x, y, b: MatrixFq) -> int:
    """The scalar x^t B y."""
    k = b.rows
    if b.cols != k or len(x) != k or len(y) != k:
        raise ValueError("dimension mismatch in pairing")
    return pairing_matrix([x, y], b)[0][1]


def pairing_matrix(pts, b: MatrixFq) -> tuple[tuple[int, ...], ...]:
    """All pairings x^t B y of the points pts (any vectors of length k) as
    an n x n tuple of rows, by plain sums (for the full matrix U^t B U; the
    pattern graphs read pairing_support)."""
    f = b.field
    return _product(f, _product(f, pts, b.entries, b.cols), list(zip(*pts)), len(pts))


class _Planes:
    """Vectors of n elements of GF(q), q <= LANE_MAX_Q, held bit-sliced: a
    vector is a flat tuple of e b ints, b the bit length of p - 1, and bit
    y of int i b + j is bit j of digit i of element y.  Two digits add by
    a ripple-carry adder over their b ints, and p is subtracted by a
    borrow chain where the sum reaches it; over p = 2, b = 1 and a sum is
    a XOR.  A digit holds its value mod p exactly, so two vectors differ
    where any of their ints do."""

    def __init__(self, field: FieldCtx, n: int):
        p = field.p
        self.field, self.n = field, n
        self.b = b = (p - 1).bit_length()
        self.ones = (1 << n) - 1
        self.zero = (0,) * (field.e * b)
        self._bit = _bit_tables(field)

    def _digit_add(self, u: tuple, w: tuple) -> tuple:
        """u + w mod p, for two digits of b ints each."""
        p, ones = self.field.p, self.ones
        if p == 3:  # six operations (Kawahara, Aoki and Takagi, "Faster implementation of
            # eta_T pairing over GF(3^m) using minimum number of logical instructions", 2008)
            (ul, uh), (wl, wh) = u, w
            t = (ul | wh) ^ (uh | wl)
            return (uh | wh) ^ t, (ul | wl) ^ t
        s, carry = [], 0
        for x, y in zip(u, w):
            t = x ^ y
            s.append(t ^ carry)
            carry = x & y | carry & t
        s.append(carry)
        d, borrow = [], 0  # d = s - p, borrow set where s < p
        for j, x in enumerate(s):
            nx = x ^ ones
            if p >> j & 1:
                d.append(nx ^ borrow)
                borrow |= nx
            else:
                d.append(x ^ borrow)
                borrow &= nx
        return tuple(y ^ (x ^ y) & borrow for x, y in zip(s[:-1], d))

    def add(self, u: tuple, w: tuple) -> tuple:
        b = self.b
        if b == 1:
            return tuple(map(operator.xor, u, w))
        return tuple(itertools.chain.from_iterable(
            self._digit_add(u[i:i + b], w[i:i + b]) for i in range(0, len(u), b)))

    def from_reps(self, reps: bytes) -> tuple:
        """The vector whose element y is reps[y]."""
        reps = reps[::-1]  # int reads the top lane first
        return tuple(int(reps.translate(t) or b"0", 2) for t in self._bit)

    def reps(self, v: tuple) -> bytes:
        """The elements of v as the bytes of their reps."""
        f, b = self.field, self.b
        weights = [w << j for w in f._pw for j in range(b)]
        return sum(int.from_bytes(bin(x)[:1:-1].encode().translate(_DIGIT_BYTE), "little") * w
                   for x, w in zip(v, weights)).to_bytes(self.n, "little")

    def differs(self, u: tuple, w: tuple) -> int:
        """The mask of the lanes y where u and w differ."""
        return functools.reduce(operator.or_, map(operator.xor, u, w))


@functools.lru_cache(maxsize=None)
def _bit_tables(field: FieldCtx) -> list[bytes]:
    """bytes.translate tables from a rep to the ASCII bit j of its digit i,
    for each digit i and bit j, as _Planes orders its ints."""
    p, b = field.p, (field.p - 1).bit_length()
    return [bytes(48 + (v // w % p >> j & 1) for v in range(256))
            for w in field._pw for j in range(b)]


def _coordinate_reps(q: int, k: int, t: int) -> bytes:
    """Coordinate t of every point of PG(k-1, q), q <= 256, in point order."""
    out = []
    for d in range(k, 0, -1):
        if t < d - 1:  # counter digit t: each rep q^t times, the cycle repeated
            out.append(b"".join(bytes([v]) * q ** t for v in range(q)) * q ** (d - 2 - t))
        else:
            out.append(bytes([t == d - 1]) * q ** (d - 1))
    return b"".join(out)


class _Pairings:
    """The value vectors of the form b over the canonical points, for
    q <= LANE_MAX_Q: multiples[t][c] is c B(e_t, .).

    Every product is taken on reps, as bytes mapped by bytes.translate
    through a table of y -> c y from FieldCtx.mul, built only for the
    entries c of b and the digit powers p^j.  The term B_ts y_s of
    B(e_t, y) is coordinate s of every point mapped by the table of B_ts,
    and p^j B(e_t, .) is the sum of the terms each mapped by the table of
    p^j again.  The planes only add: the multiples follow as
    c v = (c - p^j) v + p^j v, j the lowest nonzero digit of c."""

    def __init__(self, b: MatrixFq):
        f, k = b.field, b.rows
        self.field, self.k = f, k
        self.planes = pl = _Planes(f, point_count(f.q, k))
        times = {c: bytes(f.mul(c, y) for y in range(f.q)).ljust(256, b"\0")
                 for c in {c for row in b.entries for c in row if c} | set(f._pw)}
        coords = [_coordinate_reps(f.q, k, s) for s in range(k)]
        self.multiples = []
        for row in b.entries:
            terms = [x.translate(times[c]) for c, x in zip(row, coords) if c]
            shifts = [functools.reduce(pl.add, [pl.from_reps(x.translate(times[w]))
                                                for x in terms] or [pl.zero]) for w in f._pw]
            out = [pl.zero]
            for c in range(1, f.q):
                j = next(j for j, w in enumerate(f._pw) if c // w % f.p)
                out.append(pl.add(out[c - f._pw[j]], shifts[j]))
            self.multiples.append(out)

    def prefixes(self) -> Iterator[tuple[tuple, range | tuple[int]]]:
        """For each run of points in order that differ only in x_0, the
        vector sum_{t >= 1} x_t B(e_t, .) and the values x_0 takes."""
        add, mult, every = self.planes.add, self.multiples, range(self.field.q)

        def level(t: int, acc: tuple):  # acc holds the digits above t >= 1
            for c in every:
                part = add(acc, mult[t][c]) if c else acc
                if t == 1:
                    yield part
                else:
                    yield from level(t - 1, part)

        for d in range(self.k, 0, -1):
            if d == 1:
                yield self.planes.zero, (1,)
            elif d == 2:
                yield mult[1][1], every
            else:
                for acc in level(d - 2, mult[d - 1][1]):
                    yield acc, every


def _zero_set(f: FieldCtx, a: list[int]) -> int:
    """The mask of the points y with sum_t a_t y_t = 0, for a != 0.  In the
    block of points whose unit sits at d - 1, let m < d - 1 be the last t
    with a_t != 0: each choice of y_0..y_{m-1} fixes y_m, and the digits
    above m are free, so the block's mask repeats with period q^(m+1)."""
    q, mask, at = f.q, 0, 0
    for d in range(len(a), 0, -1):
        size, m = q ** (d - 1), d - 2
        while m >= 0 and not a[m]:
            m -= 1
        if m >= 0:
            scale, low, step = f.neg(f.inv(a[m])), 0, q ** m
            for c in range(step):  # y_0..y_{m-1}, the digits of c
                s = a[d - 1]
                for t in range(m):
                    s = f.add(s, f.mul(a[t], c // q ** t % q))
                low |= 1 << c + f.mul(scale, s) * step
            if size > step * q:  # repeat the pattern of the first period
                low *= ((1 << size) - 1) // ((1 << step * q) - 1)
            mask |= low << at
        elif not a[d - 1]:
            mask |= ((1 << size) - 1) << at
        at += size
    return mask


def _lanes(b: MatrixFq) -> bool:
    """Whether the rows of b are walked as lanes: for k <= 2 a row has at
    most one zero pairing per block, and solving for it is cheaper than
    the lanes' set-up."""
    return b.rows > 2 and b.field.q <= LANE_MAX_Q


def pairing_support(b: MatrixFq) -> Iterator[int]:
    """For each canonical point x in order, the mask of the points y with
    x^t B y != 0 (bit x included when x^t B x != 0)."""
    f = b.field
    if _lanes(b):
        pairs = _Pairings(b)
        negs = [pairs.multiples[0][f.neg(c)] for c in range(f.q)] if b.rows else []
        differs = pairs.planes.differs
        for acc, firsts in pairs.prefixes():
            for c in firsts:
                yield differs(acc, negs[c])
        return
    pts, cols = enumerate_points(f, b.rows), list(zip(*b.entries))
    full = (1 << len(pts)) - 1
    for x in pts:
        yield full ^ _zero_set(f, [f.dot(x, col) for col in cols])


def pairing_rows(b: MatrixFq) -> Iterator[bytes | tuple[int, ...]]:
    """For each canonical point x in order, the pairings x^t B y over all
    canonical points y: as bytes for q <= LANE_MAX_Q, else as a tuple."""
    f = b.field
    if _lanes(b):
        pairs = _Pairings(b)
        pl, mult = pairs.planes, pairs.multiples
        for acc, firsts in pairs.prefixes():
            for c in firsts:
                yield pl.reps(pl.add(acc, mult[0][c]))
        return
    pts, cols = enumerate_points(f, b.rows), list(zip(*b.entries))
    for x in pts:
        a = [f.dot(x, col) for col in cols]
        yield tuple(f.dot(a, y) for y in pts)


def norms(b: MatrixFq) -> list[int]:
    """x^t B x for each canonical point x, in point order.  Walking the
    counter, N(r + c e_t) = N(r) + c (2 B(r, e_t) + c B_tt) and
    B(r + c e_t, e_s) = B(r, e_s) + c B_ts, a few field operations per
    point."""
    f, rows = b.field, b.entries
    add, mul, reps = f.add, f.mul, range(f.q)
    two, out = f.add(1, 1), []

    def level(t: int, nrm: int, w: list[int]):  # w[s] = B(r, e_s) for s <= t
        lin, diag = mul(two, w[t]), rows[t][t]
        if t == 0:
            out.extend(add(nrm, mul(c, add(lin, mul(c, diag)))) for c in reps)
            return
        for c in reps:
            level(t - 1, add(nrm, mul(c, add(lin, mul(c, diag)))),
                  [add(x, mul(c, y)) for x, y in zip(w[:t], rows[t])])

    for d in range(b.rows, 0, -1):
        u = d - 1
        if u == 0:
            out.append(rows[0][0])
        else:
            level(u - 1, rows[u][u], list(rows[u][:u]))
    return out


def count_absolute(b: MatrixFq) -> int:
    """Number of points x with x^t B x = 0 (the absolute points)."""
    if not b.is_symmetric():
        raise ValueError("absolute point count requires a symmetric matrix")
    return norms(b).count(0)
