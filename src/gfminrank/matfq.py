"""Dense matrices over GF(q): rank, congruence canonical forms, and the
rank decomposition A = U^t B U with B an invertible principal submatrix.

One Gauss-Jordan elimination (_rref) serves rank, det and
rank_decomposition; one congruence walk (_diagonalize) serves
congruence_diagonalize and normalize_invertible_symmetric.  Entries are an
immutable numpy int64 array of element reps.  Pivots are tie-broken by
smallest index, so every result is reproducible bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx


class MatrixFq:
    """An immutable rows x cols matrix over a fixed FieldCtx."""

    __slots__ = ("field", "entries")

    def __init__(self, field: FieldCtx, entries):
        arr = np.array(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise ValueError(f"entry out of range for GF({field.q})")
        arr.setflags(write=False)
        self.field = field
        self.entries = arr

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def zeros(cls, field: FieldCtx, rows: int, cols: int) -> "MatrixFq":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: FieldCtx, n: int) -> "MatrixFq":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def diagonal(cls, field: FieldCtx, values) -> "MatrixFq":
        return cls(field, np.diag(np.asarray(values, dtype=np.int64)))

    @classmethod
    def block_diagonal(cls, field: FieldCtx, blocks) -> "MatrixFq":
        n = sum(b.rows for b in blocks)
        out = np.zeros((n, n), dtype=np.int64)
        at = 0
        for b in blocks:
            out[at:at + b.rows, at:at + b.cols] = b.entries
            at += b.rows
        return cls(field, out)

    def transpose(self) -> "MatrixFq":
        return MatrixFq(self.field, self.entries.T)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and bool(np.array_equal(self.entries, self.entries.T))

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.field is not other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return MatrixFq(self.field, self.field.matmul(self.entries, other.entries))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixFq) and self.field is other.field
                and np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash((id(self.field), self.entries.tobytes(), self.entries.shape))

    def to_lists(self) -> list[list[int]]:
        return self.entries.tolist()

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.entries.reshape(-1).tolist(),
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
            rows, cols, ent = obj["rows"], obj["cols"], np.asarray(obj["entries"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"matrix JSON needs field, rows, cols, entries: {exc!r}") from exc
        if not all(type(x) is int and x >= 0 for x in (rows, cols)):
            raise ValueError("matrix rows and cols must be nonnegative integers")
        if ent.size and ent.dtype.kind not in "iu":
            raise ValueError("matrix entries must be integers")
        return cls(field, ent.reshape(rows, cols))

    def __repr__(self) -> str:
        return f"MatrixFq({self.field!r}, {self.entries.tolist()})"


class ClassTag(enum.Enum):
    IDENTITY = "identity"
    SYMPLECTIC = "symplectic"
    SQUARE_DET = "square_det"
    NONSQUARE_DET = "nonsquare_det"


@dataclass(frozen=True)
class CongruenceClass:
    """Congruence class of an invertible symmetric matrix.

    ``projective_tag`` collapses classes under an extra nonzero scalar
    factor: for odd q and odd order the two determinant classes merge into
    the class of the identity, reported as ``IDENTITY``.
    """

    k: int
    tag: ClassTag
    projective_tag: ClassTag


def rank(a: MatrixFq) -> int:
    """Rank: the number of pivots of the reduced row echelon form."""
    return len(_rref(a.field, np.array(a.entries))[0])


def det(a: MatrixFq) -> int:
    """Determinant: the signed pivot product at full rank, else 0."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots, d = _rref(a.field, np.array(a.entries))
    return int(d) if len(pivots) == a.rows else 0


def _rref(field: FieldCtx, m: np.ndarray) -> tuple[list[int], int]:
    """Reduce m in place to reduced row echelon form by Gauss-Jordan
    elimination; return (pivot columns, signed pivot product).

    The product is over the pivots as found, times -1 per row swap, which
    equals the determinant when m is square and of full rank.
    """
    rows, cols = m.shape
    pivots: list[int] = []
    d = 1
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        if not m[r, col]:
            # m[r, col] is tested alone first: on small matrices one scalar
            # test is cheaper than a numpy call
            below = np.flatnonzero(m[r + 1:, col])
            if not below.size:
                continue
            piv = r + 1 + int(below[0])
            m[[r, piv], :] = m[[piv, r], :]
            d = field.neg(d)
        pval = int(m[r, col])
        if pval != 1:
            d = field.mul(d, pval)
            m[r, col:] = field.mul(field.inv(pval), m[r, col:])
        factors = m[:, col:col + 1].copy()
        factors[r] = 0
        m[:, col:] = field.sub(m[:, col:], field.mul(factors, m[r:r + 1, col:]))
        pivots.append(col)
    return pivots, d


class _CongruenceWorker:
    """Tracks D = C^t B C while applying elementary congruences to D."""

    def __init__(self, b: MatrixFq):
        self.field = b.field
        self.d = np.array(b.entries)
        self.c = np.eye(b.rows, dtype=np.int64)

    def swap(self, i: int, j: int) -> None:
        if i == j:
            return
        self.d[[i, j], :] = self.d[[j, i], :]
        self.d[:, [i, j]] = self.d[:, [j, i]]
        self.c[:, [i, j]] = self.c[:, [j, i]]

    def addmul(self, i: int, j: int, alpha: int) -> None:
        # congruence by E = I + alpha * e_i e_j^t: column j += alpha * column i
        f = self.field
        self.d[j, :] = f.add(self.d[j, :], f.mul(alpha, self.d[i, :]))
        self.d[:, j] = f.add(self.d[:, j], f.mul(alpha, self.d[:, i]))
        self.c[:, j] = f.add(self.c[:, j], f.mul(alpha, self.c[:, i]))

    def scale(self, i: int, c: int) -> None:
        f = self.field
        self.d[i, :] = f.mul(c, self.d[i, :])
        self.d[:, i] = f.mul(c, self.d[:, i])
        self.c[:, i] = f.mul(c, self.c[:, i])

    def apply(self, e: np.ndarray) -> None:
        # general congruence by an explicit matrix E
        f = self.field
        self.d = f.matmul(f.matmul(e.T, self.d), e)
        self.c = f.matmul(self.c, e)

    def permute(self, order: list[int]) -> None:
        idx = np.asarray(order, dtype=np.int64)
        self.d = self.d[np.ix_(idx, idx)]
        self.c = self.c[:, idx]

    def result(self) -> tuple[MatrixFq, MatrixFq]:
        return MatrixFq(self.field, self.c), MatrixFq(self.field, self.d)


def _diagonalize(w: _CongruenceWorker) -> tuple[int, int]:
    """Bring w.d by congruences to block form diag(a_1..a_s, b_1 H.., 0..);
    return (s, r) with r the size of the nonzero part, so r = rank.  Pivots
    are as congruence_diagonalize states."""
    f = w.field
    n = w.d.shape[0]
    diag_pos: list[int] = []
    hyp_pos: list[int] = []
    r = 0
    while r < n:
        piv = next((i for i in range(r, n) if w.d[i, i]), -1)
        if piv >= 0:
            w.swap(r, piv)
            pinv = f.inv(int(w.d[r, r]))
            for j in range(r + 1, n):
                if w.d[r, j]:
                    w.addmul(r, j, f.neg(f.mul(int(w.d[r, j]), pinv)))
            diag_pos.append(r)
            r += 1
            continue
        pair = next(((i, j) for i in range(r, n) for j in range(i + 1, n) if w.d[i, j]), None)
        if pair is None:
            break
        i, j = pair
        if f.q % 2 == 1:
            # make a diagonal pivot appear: (e_i + e_j) slot gets 2*d_ij != 0
            w.addmul(j, i, 1)
            continue
        w.swap(r, i)
        w.swap(r + 1, j)
        binv = f.inv(int(w.d[r, r + 1]))
        for m in range(r + 2, n):
            if w.d[r, m]:
                w.addmul(r + 1, m, f.neg(f.mul(int(w.d[r, m]), binv)))
            if w.d[r + 1, m]:
                w.addmul(r, m, f.neg(f.mul(int(w.d[r + 1, m]), binv)))
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
    tag = ClassTag.IDENTITY if np.diag(b.entries).any() else ClassTag.SYMPLECTIC
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
            w.scale(i, f.inv(f.sqrt(int(w.d[i, i]))))
        for pos in range(s, k, 2):
            w.scale(pos, f.inv(f.sqrt(int(w.d[pos, pos + 1]))))
            hval = int(w.d[pos, pos + 1])
            if hval != 1:
                w.scale(pos + 1, f.inv(hval))
        # collapse diag(1, H) -> I_3 while an identity coordinate is available
        collapse = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.int64)
        while s not in (0, k):
            e = np.eye(k, dtype=np.int64)
            sl = [s - 1, s, s + 1]
            e[np.ix_(sl, sl)] = collapse
            w.apply(e)
            s += 2
        return w.result()

    # odd characteristic: fully diagonal; sort squares first, scale, pair nonsquares
    nu = f.nonsquare()
    diag = [int(w.d[i, i]) for i in range(k)]
    squares = [i for i in range(k) if f.is_square(diag[i])]
    nonsq = [i for i in range(k) if not f.is_square(diag[i])]
    w.permute(squares + nonsq)
    s, t = len(squares), len(nonsq)
    for i in range(s):
        w.scale(i, f.inv(f.sqrt(int(w.d[i, i]))))
    for i in range(s, k):
        w.scale(i, f.inv(f.sqrt(f.mul(int(w.d[i, i]), f.inv(nu)))))
    cc, dd = f.sum_of_two_squares(nu)
    nu_inv = f.inv(nu)
    rot = np.array(
        [[f.mul(nu_inv, cc), f.mul(nu_inv, dd)],
         [f.mul(nu_inv, f.neg(dd)), f.mul(nu_inv, cc)]], dtype=np.int64)
    for pos in range(s, s + t - (t % 2), 2):
        e = np.eye(k, dtype=np.int64)
        e[np.ix_([pos, pos + 1], [pos, pos + 1])] = rot
        w.apply(e)
    return w.result()


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
    m = np.array(a.entries)
    s, _ = _rref(a.field, m)
    return MatrixFq(a.field, a.entries[np.ix_(s, s)]), MatrixFq(a.field, m[:len(s)])
