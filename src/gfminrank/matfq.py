"""Dense matrices over GF(q): rank, congruence canonical forms, and the
rank decomposition A = U^t B U with B an invertible principal submatrix.

One Gauss-Jordan elimination (_rref) serves rank, det and
rank_decomposition; one congruence walk (_diagonalize) serves
congruence_diagonalize and normalize_invertible_symmetric.  Entries are a
tuple of row tuples of Python ints (element reps); the working copies
inside are lists of row lists.  Pivots are tie-broken by smallest index,
so every result is reproducible bit for bit.
"""

from __future__ import annotations

import collections
import enum
import operator

from .gf import FieldCtx


def _product(f: FieldCtx, a, b, cols: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a b for row sequences a and b, b having cols columns."""
    bt = list(zip(*b)) or [()] * cols
    return tuple(tuple(f.dot(row, col) for col in bt) for row in a)


class MatrixFq:
    """An immutable rows x cols matrix over a fixed FieldCtx."""

    __slots__ = ("field", "entries", "cols")

    def __init__(self, field: FieldCtx, entries, cols: int | None = None):
        """entries is a sequence of rows of ints in 0..q-1; cols, needed only
        when there are no rows, defaults to the length of the first row."""
        rows = tuple(tuple(map(operator.index, row)) for row in entries)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("matrix entries must be two-dimensional")
        if any(not 0 <= x < field.q for row in rows for x in row):
            raise ValueError(f"entry out of range for GF({field.q})")
        self.field = field
        self.entries = rows
        self.cols = cols

    @property
    def rows(self) -> int:
        return len(self.entries)

    @classmethod
    def zeros(cls, field: FieldCtx, rows: int, cols: int) -> "MatrixFq":
        return cls(field, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: FieldCtx, n: int) -> "MatrixFq":
        return cls.diagonal(field, [1] * n)

    @classmethod
    def diagonal(cls, field: FieldCtx, values) -> "MatrixFq":
        values = list(values)
        n = len(values)
        return cls(field, [[values[i] if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def block_diagonal(cls, field: FieldCtx, blocks) -> "MatrixFq":
        n = sum(b.rows for b in blocks)
        out = [[0] * n for _ in range(n)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b.entries):
                out[at + i][at:at + b.cols] = row
            at += b.rows
        return cls(field, out, n)

    def transpose(self) -> "MatrixFq":
        return MatrixFq(self.field, list(zip(*self.entries)) or [()] * self.cols, self.rows)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == tuple(zip(*self.entries))

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.field is not other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"matmul inner dimensions differ: {self.cols} and {other.rows}")
        return MatrixFq(self.field, _product(self.field, self.entries, other.entries, other.cols),
                        other.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixFq) and self.field is other.field
                and (self.entries, self.cols) == (other.entries, other.cols))

    def __hash__(self):
        return hash((id(self.field), self.entries, self.cols))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [x for row in self.entries for x in row],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixFq":
        """Parse the to_json object; ValueError names what outside input lacks."""
        from .gf import field_new
        if not isinstance(obj, dict):
            raise ValueError("matrix JSON must be an object")
        try:
            fspec = obj["field"]
            if not all(type(fspec[x]) is int for x in ("p", "e")):
                raise ValueError("field p and e must be integers")
            field = field_new(fspec["p"], fspec["e"])
            if "modulus" in fspec and list(field.modulus) != list(fspec["modulus"]):
                raise ValueError("unsupported modulus; fields use the canonical modulus")
            rows, cols, ent = obj["rows"], obj["cols"], list(obj["entries"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"matrix JSON needs field, rows, cols, entries: {exc!r}") from exc
        if not all(type(x) is int and x >= 0 for x in (rows, cols)):
            raise ValueError("matrix rows and cols must be nonnegative integers")
        if not all(type(x) is int for x in ent):
            raise ValueError("matrix entries must be integers")
        if len(ent) != rows * cols:
            raise ValueError(f"matrix JSON has {len(ent)} entries, not rows x cols = {rows * cols}")
        return cls(field, [ent[i * cols:(i + 1) * cols] for i in range(rows)], cols)

    def __repr__(self) -> str:
        return f"MatrixFq({self.field!r}, {self.to_lists()})"


class ClassTag(enum.Enum):
    IDENTITY = "identity"
    SYMPLECTIC = "symplectic"
    SQUARE_DET = "square_det"
    NONSQUARE_DET = "nonsquare_det"


class CongruenceClass(collections.namedtuple("CongruenceClass", "k tag projective_tag")):
    """Congruence class of an invertible symmetric matrix: its order k and
    its ClassTag.

    ``projective_tag`` collapses classes under an extra nonzero scalar
    factor: for odd q and odd order the two determinant classes merge into
    the class of the identity, reported as ``IDENTITY``.
    """

    __slots__ = ()


def rank(a: MatrixFq) -> int:
    """Rank: the number of pivots of the reduced row echelon form."""
    return len(_rref(a.field, a.to_lists())[0])


def det(a: MatrixFq) -> int:
    """Determinant: the signed pivot product at full rank, else 0."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots, d = _rref(a.field, a.to_lists())
    return d if len(pivots) == a.rows else 0


def _rref(field: FieldCtx, m: list[list[int]]) -> tuple[list[int], int]:
    """Reduce the row lists m in place to reduced row echelon form by
    Gauss-Jordan elimination; return (pivot columns, signed pivot product).

    The product is over the pivots as found, times -1 per row swap, which
    equals the determinant when m is square and of full rank.
    """
    f = field
    rows, cols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    d = 1
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            d = f.neg(d)
        pval = m[r][col]
        if pval != 1:
            d = f.mul(d, pval)
            pinv = f.inv(pval)
            m[r] = [f.mul(pinv, x) for x in m[r]]
        prow = m[r]
        for i in range(rows):
            c = m[i][col]
            if c and i != r:
                m[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[i], prow)]
        pivots.append(col)
    return pivots, d


class _CongruenceWorker:
    """Tracks D = C^t B C while applying elementary congruences to D."""

    def __init__(self, b: MatrixFq):
        self.field = b.field
        self.d = b.to_lists()
        self.c = MatrixFq.identity(b.field, b.rows).to_lists()

    def swap(self, i: int, j: int) -> None:
        if i == j:
            return
        d = self.d
        d[i], d[j] = d[j], d[i]
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in self.c:
            row[i], row[j] = row[j], row[i]

    def addmul(self, i: int, j: int, alpha: int) -> None:
        # congruence by E = I + alpha * e_i e_j^t: column j += alpha * column i
        f, d = self.field, self.d
        d[j] = [f.add(x, f.mul(alpha, y)) for x, y in zip(d[j], d[i])]
        for rows in (d, self.c):
            for row in rows:
                row[j] = f.add(row[j], f.mul(alpha, row[i]))

    def scale(self, i: int, c: int) -> None:
        f, d = self.field, self.d
        d[i] = [f.mul(c, x) for x in d[i]]
        for rows in (d, self.c):
            for row in rows:
                row[i] = f.mul(c, row[i])

    def apply(self, e: list[list[int]]) -> None:
        # general congruence by an explicit matrix E
        f, n = self.field, len(e)
        self.d = list(map(list, _product(f, _product(f, zip(*e), self.d, n), e, n)))
        self.c = list(map(list, _product(f, self.c, e, n)))

    def permute(self, order: list[int]) -> None:
        self.d = [[self.d[i][j] for j in order] for i in order]
        self.c = [[row[j] for j in order] for row in self.c]

    def result(self) -> tuple[MatrixFq, MatrixFq]:
        n = len(self.d)
        return MatrixFq(self.field, self.c, n), MatrixFq(self.field, self.d, n)


def _diagonalize(w: _CongruenceWorker) -> tuple[int, int]:
    """Bring w.d by congruences to block form diag(a_1..a_s, b_1 H.., 0..);
    return (s, r) with r the size of the nonzero part, so r = rank.  Pivots
    are as congruence_diagonalize states."""
    f = w.field
    n = len(w.d)
    diag_pos: list[int] = []
    hyp_pos: list[int] = []
    r = 0
    while r < n:
        piv = next((i for i in range(r, n) if w.d[i][i]), -1)
        if piv >= 0:
            w.swap(r, piv)
            pinv = f.inv(w.d[r][r])
            for j in range(r + 1, n):
                if w.d[r][j]:
                    w.addmul(r, j, f.neg(f.mul(w.d[r][j], pinv)))
            diag_pos.append(r)
            r += 1
            continue
        pair = next(((i, j) for i in range(r, n) for j in range(i + 1, n) if w.d[i][j]), None)
        if pair is None:
            break
        i, j = pair
        if f.q % 2 == 1:
            # make a diagonal pivot appear: (e_i + e_j) slot gets 2*d_ij != 0
            w.addmul(j, i, 1)
            continue
        w.swap(r, i)
        w.swap(r + 1, j)
        binv = f.inv(w.d[r][r + 1])
        for m in range(r + 2, n):
            if w.d[r][m]:
                w.addmul(r + 1, m, f.neg(f.mul(w.d[r][m], binv)))
            if w.d[r + 1][m]:
                w.addmul(r, m, f.neg(f.mul(w.d[r + 1][m], binv)))
        hyp_pos += [r, r + 1]
        r += 2
    w.permute(diag_pos + hyp_pos + list(range(r, n)))
    return len(diag_pos), r


def congruence_diagonalize(b: MatrixFq) -> tuple[MatrixFq, MatrixFq]:
    """Return (C, D) with D = C^t B C in block form diag(a_1..a_s, b_1 H.., 0..).

    Nonzero diagonal entries come first, then 2x2 zero-diagonal blocks
    b*[[0,1],[1,0]] (even characteristic only; over odd characteristic such
    blocks are split into two diagonal entries), then the zero part.
    Pivots are chosen at the smallest row index, then smallest column index.
    """
    if not b.is_symmetric():
        raise ValueError("congruence diagonalization requires a symmetric matrix")
    w = _CongruenceWorker(b)
    _diagonalize(w)
    return w.result()


def classify_invertible_symmetric(b: MatrixFq) -> CongruenceClass:
    """Congruence class of an invertible symmetric matrix.

    Odd q: the determinant's square class decides.  Even q: symplectic iff
    the diagonal is zero; over characteristic 2 that is when the form is
    alternate, which congruence keeps (A. A. Albert, "Symmetric and
    alternate matrices in an arbitrary field", 1938).
    """
    if not b.is_symmetric():
        raise ValueError("classification requires a symmetric matrix")
    k = b.rows
    if k == 0:
        raise ValueError("classification requires positive order")
    f = b.field
    d = det(b)
    if d == 0:
        raise ValueError("classification requires an invertible matrix")
    if f.q % 2 == 1:
        tag = ClassTag.SQUARE_DET if f.is_square(d) else ClassTag.NONSQUARE_DET
        ptag = ClassTag.IDENTITY if k % 2 == 1 else tag
        return CongruenceClass(k, tag, ptag)
    tag = ClassTag.IDENTITY if any(b.entries[i][i] for i in range(k)) \
        else ClassTag.SYMPLECTIC
    return CongruenceClass(k, tag, tag)


def hyperbolic_block(field: FieldCtx) -> MatrixFq:
    return MatrixFq(field, [[0, 1], [1, 0]])


def canonical_representatives(field: FieldCtx, k: int) -> list[MatrixFq]:
    """One representative per congruence class of invertible symmetric k x k
    matrices, as used to build the pattern graphs.

    k = 0 is allowed and yields the single empty matrix so that rank sweeps
    need no special case.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    ident = MatrixFq.identity(field, k)
    if k == 0 or k % 2 == 1:
        return [ident]
    if field.p == 2:
        h = hyperbolic_block(field)
        return [ident, MatrixFq.block_diagonal(field, [h] * (k // 2))]
    nu = field.nonsquare()
    return [ident, MatrixFq.diagonal(field, [1] * (k - 1) + [nu])]


def normalize_invertible_symmetric(b: MatrixFq) -> tuple[MatrixFq, MatrixFq]:
    """Constructive reduction to the canonical representative.

    Returns (C, N) with N = C^t B C and N one of canonical_representatives.
    This is the slow, fully explicit route; classify_invertible_symmetric is
    the cheap criterion, and the two are cross-checked in tests.
    """
    if not b.is_symmetric():
        raise ValueError("normalization requires a symmetric matrix")
    f = b.field
    k = b.rows
    w = _CongruenceWorker(b)
    s, r = _diagonalize(w)
    if r != k:
        raise ValueError("normalization requires an invertible matrix")

    if f.q % 2 == 0:
        for i in range(s):
            w.scale(i, f.inv(f.sqrt(w.d[i][i])))
        for pos in range(s, k, 2):
            w.scale(pos, f.inv(f.sqrt(w.d[pos][pos + 1])))
            hval = w.d[pos][pos + 1]
            if hval != 1:
                w.scale(pos + 1, f.inv(hval))
        # collapse diag(1, H) -> I_3 while an identity coordinate is available
        while s not in (0, k):
            w.apply(_embedded(k, s - 1, [[1, 1, 1], [1, 0, 1], [0, 1, 1]]))
            s += 2
        return w.result()

    # odd characteristic: fully diagonal; sort squares first, scale, pair nonsquares
    nu = f.nonsquare()
    diag = [w.d[i][i] for i in range(k)]
    squares = [i for i in range(k) if f.is_square(diag[i])]
    nonsq = [i for i in range(k) if not f.is_square(diag[i])]
    w.permute(squares + nonsq)
    s, t = len(squares), len(nonsq)
    for i in range(s):
        w.scale(i, f.inv(f.sqrt(w.d[i][i])))
    for i in range(s, k):
        w.scale(i, f.inv(f.sqrt(f.mul(w.d[i][i], f.inv(nu)))))
    cc, dd = f.sum_of_two_squares(nu)
    nu_inv = f.inv(nu)
    rot = [[f.mul(nu_inv, cc), f.mul(nu_inv, dd)],
           [f.mul(nu_inv, f.neg(dd)), f.mul(nu_inv, cc)]]
    for pos in range(s, s + t - (t % 2), 2):
        w.apply(_embedded(k, pos, rot))
    return w.result()


def _embedded(k: int, at: int, block: list[list[int]]) -> list[list[int]]:
    """The k x k identity with block placed on the diagonal from (at, at)."""
    out = [[int(i == j) for j in range(k)] for i in range(k)]
    for i, row in enumerate(block):
        out[at + i][at:at + len(row)] = row
    return out


def rank_decomposition(a: MatrixFq) -> tuple[MatrixFq, MatrixFq]:
    """Write symmetric A as U^t B U with B = A[S, S] invertible: S holds the
    pivot columns of A (its first independent columns) and U the r = rank A
    nonzero rows of its reduced row echelon form.

    Each column of A is the combination of the columns S that U records, so
    A = A[:, S] U; rows S of this read A[S, :] = B U.  Symmetry gives
    A[:, S] = A[S, :]^t = U^t B, hence A = U^t B U.  B is invertible since
    the r rows S of A are independent and equal B U.
    """
    if not a.is_symmetric():
        raise ValueError("rank decomposition requires a symmetric matrix")
    m = a.to_lists()
    s, _ = _rref(a.field, m)
    return (MatrixFq(a.field, [[a.entries[i][j] for j in s] for i in s], len(s)),
            MatrixFq(a.field, m[:len(s)], a.cols))
