"""Generation of the pattern graphs whose blowups are exactly the graphs of
minimum rank at most k over GF(q).

Each pattern is the looped graph of the matrix U^t B U, where the columns of
U are the canonically ordered points of PG(k-1, q) and B runs over the
congruence-class representatives of invertible symmetric k x k matrices.
Equivalently: the complement of the looped polarity graph of B.  U^t is
the point array of projgeo.enumerate_points, kept as it is.  The isolated
extra vertex that every such family carries is not stored; the blowup
module accounts for it separately.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx, field_from_order
from .graphs import LoopedGraph
from .matfq import MatrixFq, canonical_representatives, rank
from .projgeo import (canonicalize, enumerate_points, norms, pairing_matrix, pairing_support,
                      point_count, point_index)

DEFAULT_VERTEX_BUDGET = 10_000


class VertexBudgetError(ValueError):
    """Pattern would exceed the configured vertex budget."""


class PatternPropertyError(AssertionError):
    """A structural count of a generated pattern is off; names the fact."""

    def __init__(self, fact: str, detail: str):
        super().__init__(f"{fact}: {detail}")
        self.fact = fact


@dataclass(frozen=True)
class Pattern:
    form: MatrixFq
    graph: LoopedGraph

    @functools.cached_property
    def roots(self) -> int:
        """The vertices the first class the blowup search branches on may
        take (see isometry_roots), found when the first class moves past
        its least candidate, and kept."""
        return isometry_roots(self.form)


@dataclass(frozen=True)
class PatternSet:
    q: int
    k: int
    field: FieldCtx
    points: np.ndarray
    patterns: tuple[Pattern, ...]


def pattern_graph(points: np.ndarray, b: MatrixFq) -> LoopedGraph:
    """Looped graph of U^t B U: edge where the pairing is nonzero, loop where
    a point is non-absolute.

    The nonzero pairings come from projgeo.pairing_support, one block of a
    few hundred rows at a time: one float64 BLAS product for every q, with
    each element of GF(p^e) written as its e base-p digits, whose sums of
    at most k e (p-1)^2 are exact below 2^53 (checked, not assumed).  Each
    block's diagonal becomes loops and the rest is packed straight into the
    int rows, so no n x n array is ever held."""
    rows: list[int] = []
    loops = 0
    for nz in pairing_support(points, b):
        lo, own = len(rows), np.arange(len(nz))
        diagonal = np.packbits(nz[own, lo + own], bitorder="little")
        loops |= int.from_bytes(diagonal.tobytes(), "little") << lo
        nz[own, lo + own] = False
        packed = np.packbits(nz, axis=1, bitorder="little")
        data, width = packed.tobytes(), packed.shape[1]
        rows += [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    return LoopedGraph._trusted(len(points), rows, loops)  # symmetric, as B is


def gram_matrix(points: np.ndarray, b: MatrixFq) -> MatrixFq:
    """The full matrix U^t B U over GF(q) under the canonical point order."""
    return MatrixFq(b.field, pairing_matrix(points, b))


def generate(q: int, k: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> PatternSet:
    """All pattern graphs for minimum rank at most k over GF(q).

    A pattern has (q^k-1)/(q-1) >= k vertices, so k past the budget is
    refused before q^k is built, and the refusal never writes q^k out."""
    field = field_from_order(q)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > vertex_budget or point_count(q, k) > vertex_budget:
        raise VertexBudgetError(f"pattern for q={q}, k={k} has (q^k-1)/(q-1) vertices, "
                                f"over budget {vertex_budget}")
    return _generate_cached(field, k)


# generators whose point images are computed in one numpy pass
_GENERATOR_BLOCK = 8


def _join(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> bool:
    """Merge the classes of u[i] and v[i], each point labelled by the least
    point of its class; whether any two classes merged."""
    a, b = labels[u], labels[v]
    merged = bool((a != b).any())
    while (a != b).any():
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(labels[labels], labels):  # labels only point down
            labels[:] = labels[labels]
        a, b = labels[u], labels[v]
    return merged


def isometry_generators(b: MatrixFq,
                        pts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The maps x -> x + c B(x,a) a for the rows a of pts and c != 0 with
    c (2 + c B(a,a)) = 0, yielded as arrays (rows a, scalars c) of at most
    _GENERATOR_BLOCK generators each.  Listed by c, then a, the m of them
    are visited by a stride near m/phi so that neighbours lie far apart.

    Each keeps B, since B(x',y') = B(x,y) + c (2 + c B(a,a)) B(x,a) B(y,a):
    they are the reflections for odd q and the transvections for even q.
    As c != 0, the condition reads B(a,a) = -2/c, so the centres a for c
    are the points of that norm and no list of all m pairs is built.
    """
    f = b.field
    nrm = norms(pts, b)
    by_norm = np.argsort(nrm, kind="stable")  # ascending points within a norm
    first = np.searchsorted(nrm[by_norm], np.arange(f.q + 1))
    scalars = np.arange(1, f.q, dtype=np.int64)
    norm = f.mul(f.neg(f.add(1, 1)), f.inv(scalars))
    counts = first[norm + 1] - first[norm]
    ends = np.cumsum(counts)
    m = int(ends[-1])
    step = max(1, round(m * 0.618))
    while math.gcd(step, m) != 1:
        step += 1
    for lo in range(0, m, _GENERATOR_BLOCK):
        j = np.arange(lo, min(lo + _GENERATOR_BLOCK, m), dtype=np.int64) * step % m
        # pair j has scalar g and is centre j - ends[g] + counts[g] of that norm
        g = np.searchsorted(ends, j, side="right")
        yield by_norm[first[norm[g]] + j - ends[g] + counts[g]], scalars[g]


def isometry_roots(b: MatrixFq) -> int:
    """The least point of each orbit of PG(k-1, q) under a group of isometries
    of the symmetric form b, as a bit mask over the canonical point order.

    An isometry permutes the points and keeps every pairing, so it is an
    automorphism of the pattern graph, loops included.  The group is the one
    generated by isometry_generators.  An orbit of any subgroup lies in an
    orbit of the full isometry group, so one point per computed orbit may
    stand for its orbit however many generators are used: they are added in
    blocks until a block merges no two orbits.
    """
    f = b.field
    pts = enumerate_points(f, b.rows)
    points = np.arange(len(pts), dtype=np.int64)
    labels = points.copy()
    xb = f.matmul(pts, b.entries)
    for centres, scalars in isometry_generators(b, pts):
        a = pts[centres]
        # images[g, x] = x + c_g B(x, a_g) a_g, one row per generator g
        coef = f.mul(scalars[:, None], f.matmul(xb, a.T).T)
        images = f.add(pts[None], f.mul(coef[:, :, None], a[:, None, :]))
        targets = point_index(f, canonicalize(f, images)).ravel()
        if not _join(labels, np.tile(points, len(a)), targets):
            break
    roots = np.packbits(labels == points, bitorder="little")
    return int.from_bytes(roots.tobytes(), "little")


@functools.lru_cache(maxsize=256)
def _generate_cached(field: FieldCtx, k: int) -> PatternSet:
    points = enumerate_points(field, k)
    pats = tuple(Pattern(b, pattern_graph(points, b))
                 for b in canonical_representatives(field, k))
    return PatternSet(field.q, k, field, points, pats)


def _nonlooped_expectations(q: int, k: int, even_char: bool) -> list[set[int]]:
    """Expected nonlooped-vertex counts, one set of admissible values per
    pattern position (a single joint set when the two odd-q even-k counts
    are interchangeable)."""
    if even_char:
        pseudo = (q ** (k - 1) - 1) // (q - 1)
        if k % 2 == 0:
            return [{pseudo}, {point_count(q, k)}]
        return [{pseudo}]
    if k % 2 == 1:
        m = (k - 1) // 2
        return [{(q ** (2 * m) - 1) // (q - 1)}]
    m = k // 2
    both = {(q ** m - 1) * (q ** (m - 1) + 1) // (q - 1),
            (q ** m + 1) * (q ** (m - 1) - 1) // (q - 1)}
    return [both, both]


def verify_counts(ps: PatternSet) -> dict:
    """Check the structural counting facts for every pattern in the set.

    Verified per pattern: the vertex count (q^k-1)/(q-1); regularity of
    degree q^(k-1) with a loop counting one; the nonlooped-vertex counts per
    characteristic (as a pair-set for even k over odd q, where the two
    patterns share the two admissible values); and for k = 3 that the q+1
    nonlooped vertices form a clique in which each has q nonlooped and
    q^2 - q looped neighbors.  Raises PatternPropertyError naming the fact.
    """
    q, k = ps.q, ps.k
    report: dict = {"q": q, "k": k, "patterns": []}
    if k == 0:
        report["patterns"] = [{"index": 0, "vertices": 0, "nonlooped": 0}]
        return report
    expected_n = point_count(q, k)
    expectations = _nonlooped_expectations(q, k, ps.field.p == 2)
    odd_even_pair = ps.field.p != 2 and k % 2 == 0
    seen_counts = []
    for idx, pat in enumerate(ps.patterns):
        g = pat.graph
        entry: dict = {"index": idx}
        if g.n != expected_n:
            raise PatternPropertyError(
                "vertex count (q^k-1)/(q-1)", f"pattern {idx} has {g.n}, expected {expected_n}")
        entry["vertices"] = g.n
        target = q ** (k - 1)
        for v in range(g.n):
            if g.degree(v) != target:
                raise PatternPropertyError(
                    "regularity of degree q^(k-1)",
                    f"pattern {idx} vertex {v} has degree {g.degree(v)}, expected {target}")
        entry["degree"] = target
        nonlooped = g.nonlooped_vertices()
        entry["nonlooped"] = len(nonlooped)
        seen_counts.append(len(nonlooped))
        if not odd_even_pair and len(nonlooped) not in expectations[idx]:
            raise PatternPropertyError(
                "nonlooped vertex count",
                f"pattern {idx} has {len(nonlooped)}, expected {sorted(expectations[idx])}")
        if k == 3:
            if len(nonlooped) != q + 1:
                raise PatternPropertyError(
                    "q+1 nonlooped vertices for k=3",
                    f"pattern {idx} has {len(nonlooped)}")
            for a in nonlooped:
                # q nonlooped neighbours of q + 1 nonlooped vertices: a clique
                nl, lp = (g.rows[a] & ~g.loops).bit_count(), (g.rows[a] & g.loops).bit_count()
                if nl != q or lp != q * q - q:
                    raise PatternPropertyError(
                        "nonlooped clique, each with q^2-q looped neighbors (k=3)",
                        f"pattern {idx} vertex {a}: {nl} nonlooped, {lp} looped")
        report["patterns"].append(entry)
    if odd_even_pair and set(seen_counts) != expectations[0]:
        raise PatternPropertyError(
            "nonlooped vertex counts as a pair (odd characteristic, even k)",
            f"got {sorted(seen_counts)}, expected {sorted(expectations[0])}")
    return report


def rank_certificate(ps: PatternSet) -> None:
    """Assert every pattern's full matrix U^t B U has rank exactly k."""
    for idx, pat in enumerate(ps.patterns):
        gm = gram_matrix(ps.points, pat.form)
        r = rank(gm)
        if r != ps.k:
            raise PatternPropertyError(
                "pattern matrix has rank k",
                f"pattern {idx} of (q={ps.q}, k={ps.k}) has rank {r}")
