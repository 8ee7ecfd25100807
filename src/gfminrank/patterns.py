"""Generation of the pattern graphs whose blowups are exactly the graphs of
minimum rank at most k over GF(q).

Each pattern is the looped graph of the matrix U^t B U, where the columns of
U are the canonically ordered points of PG(k-1, q) and B runs over the
congruence-class representatives of invertible symmetric k x k matrices.
Equivalently: the complement of the looped polarity graph of B.  The
isolated extra vertex that every such family carries is not stored; the
blowup module accounts for it separately.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx, field_from_order
from .graphs import LoopedGraph
from .matfq import MatrixFq, canonical_representatives
from . import matfq
from .projgeo import PointList, enumerate_points, pairing_matrix, point_count

DEFAULT_VERTEX_BUDGET = 10_000


class VertexBudgetError(ValueError):
    """Pattern would exceed the configured vertex budget."""

    def __init__(self, q: int, k: int, size: int, budget: int):
        super().__init__(
            f"pattern for q={q}, k={k} has {size} vertices, over budget {budget}")
        self.q = q
        self.k = k
        self.size = size
        self.budget = budget


class PatternPropertyError(AssertionError):
    """A structural count of a generated pattern is off; names the fact."""

    def __init__(self, fact: str, detail: str):
        super().__init__(f"{fact}: {detail}")
        self.fact = fact


@dataclass(frozen=True)
class PatternMasks:
    """Bit masks of a looped pattern graph that the blowup search reads
    beside its rows and loops.

    ``non[v]`` holds the vertices other than v not adjacent to v;
    ``nonloops`` the vertices without a loop; ``roots`` the first vertex of
    each orbit key (every vertex when there are no keys).
    """

    non: tuple[int, ...]
    nonloops: int
    roots: int

    @classmethod
    def of(cls, h: LoopedGraph, orbits: tuple[int, ...] | None) -> "PatternMasks":
        full = (1 << h.n) - 1
        roots = full
        if orbits is not None:
            first: dict[int, int] = {}
            for v, key in enumerate(orbits):
                first.setdefault(key, v)
            roots = sum(1 << v for v in first.values())
        non = tuple(full & ~r & ~(1 << v) for v, r in enumerate(h.rows))
        return cls(non, full & ~h.loops, roots)


@dataclass(frozen=True)
class Pattern:
    form: MatrixFq
    graph: LoopedGraph
    # orbit key per vertex such that the automorphism group of the graph is
    # transitive on each key, or None where no such keys are derived; a
    # search may restrict its first choice to one vertex per key.  See
    # _orbit_keys for the cases and why each holds.
    orbits: tuple[int, ...] | None = None

    @functools.cached_property
    def masks(self) -> PatternMasks:
        """The search masks, built on first use and kept with the pattern."""
        return PatternMasks.of(self.graph, self.orbits)


@dataclass(frozen=True)
class PatternSet:
    q: int
    k: int
    field: FieldCtx
    points: PointList
    patterns: tuple[Pattern, ...]


def _graph_from_pairings(g: np.ndarray) -> LoopedGraph:
    """Looped graph of the nonzero entries of a symmetric pairing matrix:
    the diagonal gives the loops, the rest the adjacency rows."""
    packed = np.packbits(g != 0, axis=1, bitorder="little")
    rows = [int.from_bytes(r.tobytes(), "little") for r in packed]
    loops = sum(r & (1 << v) for v, r in enumerate(rows))
    return LoopedGraph(len(rows), [r & ~(1 << v) for v, r in enumerate(rows)], loops)


def pattern_graph(field: FieldCtx, points: PointList, b: MatrixFq) -> LoopedGraph:
    """Looped graph of U^t B U: edge where the pairing is nonzero, loop where
    a point is non-absolute."""
    return _graph_from_pairings(pairing_matrix(points, b))


def gram_matrix(field: FieldCtx, points: PointList, b: MatrixFq) -> MatrixFq:
    """The full matrix U^t B U over GF(q) under the canonical point order."""
    return MatrixFq(field, pairing_matrix(points, b))


def generate(q: int | FieldCtx, k: int,
             vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> PatternSet:
    """All pattern graphs for minimum rank at most k over GF(q)."""
    field = q if isinstance(q, FieldCtx) else field_from_order(q)
    if k < 0:
        raise ValueError("k must be nonnegative")
    size = point_count(field.q, k)
    if size > vertex_budget:
        raise VertexBudgetError(field.q, k, size, vertex_budget)
    return _generate_cached(field, k)


def _orbit_keys(field: FieldCtx, k: int, graph: LoopedGraph,
                norms) -> tuple[int, ...] | None:
    """Orbit keys of the points under the isometry group of the form.

    Odd q, and alternating forms (no loops) over even q: the square class of
    x^t B x (0 absolute, 1 square, 2 nonsquare); Witt's theorem makes the
    isometries transitive on each class.  A non-alternating form over even q
    is a pseudo-polarity: x^t B x is the square of a linear form, so the
    absolute points fill a hyperplane, and every isometry fixes its pole w.
    For odd k, w is not absolute, V = <w> + w^perp with an alternating form on
    w^perp, and the symplectic group of w^perp is transitive on the absolute
    points and on the other non-absolute points; w gets key 3.  For even k, w
    is absolute and no keys are derived (None).
    """
    if field.p == 2 and graph.loops:
        if k % 2 == 0:
            return None
        poles = [v for v in graph.looped_vertices()
                 if graph.rows[v] | (1 << v) == graph.loops]
        if len(poles) != 1:
            raise PatternPropertyError(
                "unique pole of the absolute hyperplane",
                f"q={field.q}, k={k} has candidates {poles}")
        return tuple(3 if v == poles[0] else 1 if graph.has_loop(v) else 0
                     for v in range(graph.n))
    keys = []
    for a in norms:
        a = int(a)
        if a == 0:
            keys.append(0)
        elif field.is_square(a):
            keys.append(1)
        else:
            keys.append(2)
    return tuple(keys)


@functools.lru_cache(maxsize=256)
def _generate_cached(field: FieldCtx, k: int) -> PatternSet:
    points = enumerate_points(field, k)
    pats = []
    for b in canonical_representatives(field, k):
        g = pairing_matrix(points, b)
        graph = _graph_from_pairings(g)
        pats.append(Pattern(b, graph, _orbit_keys(field, k, graph, np.diag(g))))
    return PatternSet(field.q, k, field, points, tuple(pats))


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
                for bb in nonlooped:
                    if a != bb and not g.has_edge(a, bb):
                        raise PatternPropertyError(
                            "nonlooped vertices form a clique (k=3)",
                            f"pattern {idx} misses edge {a}-{bb}")
                nl = sum(1 for u in nonlooped if u != a and g.has_edge(a, u))
                lp = sum(1 for u in g.looped_vertices() if g.has_edge(a, u))
                if nl != q or lp != q * q - q:
                    raise PatternPropertyError(
                        "nonlooped vertex has q nonlooped and q^2-q looped neighbors (k=3)",
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
        gm = gram_matrix(ps.field, ps.points, pat.form)
        r = matfq.rank(gm)
        if r != ps.k:
            raise PatternPropertyError(
                "pattern matrix has rank k",
                f"pattern {idx} of (q={ps.q}, k={ps.k}) has rank {r}")
