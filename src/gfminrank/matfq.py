"""Dense matrices over GF(q): rank, congruence canonical forms, and the
rank decomposition A = U^t B U with B an invertible principal submatrix.

Entries are stored as an immutable numpy int64 array of element reps.
All pivot choices are tie-broken by smallest index so canonical forms and
decompositions are reproducible bit for bit.
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
    def from_json(cls, obj: dict, field: FieldCtx | None = None) -> "MatrixFq":
        from .gf import field_new
        if field is None:
            fspec = obj["field"]
            field = field_new(int(fspec["p"]), int(fspec["e"]))
            if "modulus" in fspec and list(field.modulus) != list(fspec["modulus"]):
                raise ValueError("unsupported modulus; fields use the canonical modulus")
        rows, cols = int(obj["rows"]), int(obj["cols"])
        ent = np.asarray(obj["entries"], dtype=np.int64).reshape(rows, cols)
        return cls(field, ent)

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
    """Rank by Gaussian elimination with exact field arithmetic."""
    r, _ = _echelon(a.field, np.array(a.entries))
    return r


def det(a: MatrixFq) -> int:
    """Determinant as a by-product of elimination (product of pivots)."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1 % a.field.q if a.field.q > 1 else 0
    r, d = _echelon(a.field, np.array(a.entries))
    return int(d) if r == n else 0


def _echelon(field: FieldCtx, m: np.ndarray) -> tuple[int, int]:
    """Reduce m in place to row echelon form; return (rank, det-ish product).

    The second value is the product of pivots times -1 per row swap, which
    equals the determinant when the matrix is square and of full rank.
    """
    rows, cols = m.shape
    r = 0
    d = 1
    for col in range(cols):
        piv = -1
        for i in range(r, rows):
            if m[i, col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[[r, piv], :] = m[[piv, r], :]
            d = field.neg(d)
        pval = int(m[r, col])
        d = field.mul(d, pval)
        pinv = field.inv(pval)
        below = m[r + 1:, col]
        nz = np.nonzero(below)[0]
        if nz.size:
            factors = field.mul(below[nz], pinv)
            updates = field.mul(factors[:, None], m[r:r + 1, col:])
            m[r + 1 + nz, col:] = field.sub(m[r + 1 + nz, col:], updates)
        r += 1
        if r == rows:
            break
    return r, d


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


def congruence_diagonalize(b: MatrixFq) -> tuple[MatrixFq, MatrixFq]:
    """Return (C, D) with D = C^t B C in block form diag(a_1..a_s, b_1 H.., 0..).

    Nonzero diagonal entries come first, then 2x2 zero-diagonal blocks
    b*[[0,1],[1,0]] (even characteristic only; over odd characteristic such
    blocks are split into two diagonal entries), then the zero part.
    Pivots are chosen at the smallest row index, then smallest column index.
    """
    if not b.is_symmetric():
        raise ValueError("congruence diagonalization requires a symmetric matrix")
    f = b.field
    n = b.rows
    w = _CongruenceWorker(b)
    diag_pos: list[int] = []
    hyp_pos: list[int] = []
    r = 0
    while r < n:
        piv = -1
        for i in range(r, n):
            if w.d[i, i]:
                piv = i
                break
        if piv >= 0:
            w.swap(r, piv)
            pinv = f.inv(int(w.d[r, r]))
            for j in range(r + 1, n):
                if w.d[r, j]:
                    w.addmul(r, j, f.neg(f.mul(int(w.d[r, j]), pinv)))
            diag_pos.append(r)
            r += 1
            continue
        pair = None
        for i in range(r, n):
            for j in range(i + 1, n):
                if w.d[i, j]:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        if f.q % 2 == 1:
            # make a diagonal pivot appear: (e_i + e_j) slot gets 2*d_ij != 0
            w.addmul(j, i, 1)
            continue
        w.swap(r, i)
        if j == r:
            j = i
        w.swap(r + 1, j)
        binv = f.inv(int(w.d[r, r + 1]))
        for m in range(r + 2, n):
            if w.d[r, m]:
                w.addmul(r + 1, m, f.neg(f.mul(int(w.d[r, m]), binv)))
            if w.d[r + 1, m]:
                w.addmul(r, m, f.neg(f.mul(int(w.d[r + 1, m]), binv)))
        hyp_pos.append(r)
        r += 2
    order = diag_pos + [p + d for p in hyp_pos for d in (0, 1)] + list(range(r, n))
    w.permute(order)
    return w.result()


def classify_invertible_symmetric(b: MatrixFq) -> CongruenceClass:
    """Congruence class of an invertible symmetric matrix.

    Odd q: the determinant's square class decides; even q: symplectic iff
    canonicalization finds no diagonal pivot (the zero-diagonal case).
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
    _, dd = congruence_diagonalize(b)
    has_diag_pivot = any(dd.entries[i, i] for i in range(k))
    tag = ClassTag.IDENTITY if has_diag_pivot else ClassTag.SYMPLECTIC
    return CongruenceClass(k, tag, tag)


def hyperbolic_block(field: FieldCtx, scale: int = 1) -> MatrixFq:
    return MatrixFq(field, [[0, scale], [scale, 0]])


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
    c0, d0 = congruence_diagonalize(b)
    if rank(b) != k:
        raise ValueError("normalization requires an invertible matrix")
    w = _CongruenceWorker(b)
    w.apply(np.array(c0.entries))

    if f.q % 2 == 0:
        s = sum(1 for i in range(k) if w.d[i, i])
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
    """Write symmetric A as U^t B U with B an invertible principal r x r
    submatrix of A on the symmetric pivot index set, r = rank A.
    """
    if not a.is_symmetric():
        raise ValueError("rank decomposition requires a symmetric matrix")
    f = a.field
    s = sorted(_symmetric_pivot_indices(a))
    bmat = a.entries[np.ix_(s, s)]
    rhs = a.entries[s, :]
    u = _solve(f, np.array(bmat), np.array(rhs))
    return MatrixFq(f, bmat), MatrixFq(f, u)


def _symmetric_pivot_indices(a: MatrixFq) -> list[int]:
    f = a.field
    n = a.rows
    w = _CongruenceWorker(a)
    idx = list(range(n))
    out: list[int] = []

    def swap(i, j):
        w.swap(i, j)
        idx[i], idx[j] = idx[j], idx[i]

    r = 0
    while r < n:
        cand = [i for i in range(r, n) if w.d[i, i]]
        if cand:
            i = min(cand, key=lambda t: idx[t])
            swap(r, i)
            out.append(idx[r])
            pinv = f.inv(int(w.d[r, r]))
            for j in range(r + 1, n):
                if w.d[r, j]:
                    w.addmul(r, j, f.neg(f.mul(int(w.d[r, j]), pinv)))
            r += 1
            continue
        pairs = [(i, j) for i in range(r, n) for j in range(i + 1, n) if w.d[i, j]]
        if not pairs:
            break
        i, j = min(pairs, key=lambda t: tuple(sorted((idx[t[0]], idx[t[1]]))))
        swap(r, i)
        if j == r:
            j = i
        swap(r + 1, j)
        out.extend((idx[r], idx[r + 1]))
        binv = f.inv(int(w.d[r, r + 1]))
        for m in range(r + 2, n):
            if w.d[r, m]:
                w.addmul(r + 1, m, f.neg(f.mul(int(w.d[r, m]), binv)))
            if w.d[r + 1, m]:
                w.addmul(r, m, f.neg(f.mul(int(w.d[r + 1, m]), binv)))
        r += 2
    return out


def _solve(f: FieldCtx, b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve B X = RHS for invertible B by Gauss-Jordan elimination."""
    r = b.shape[0]
    aug = np.concatenate([b, rhs], axis=1)
    for col in range(r):
        piv = -1
        for i in range(col, r):
            if aug[i, col]:
                piv = i
                break
        if piv < 0:
            raise ValueError("singular pivot block")
        if piv != col:
            aug[[col, piv], :] = aug[[piv, col], :]
        aug[col, :] = f.mul(f.inv(int(aug[col, col])), aug[col, :])
        for i in range(r):
            if i != col and aug[i, col]:
                aug[i, :] = f.sub(aug[i, :], f.mul(aug[i, col], aug[col, :]))
    return aug[:, r:]
