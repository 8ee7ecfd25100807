"""Generation of the pattern graphs whose blowups are exactly the graphs of
minimum rank at most k over GF(q).

Each pattern is the looped graph of the matrix U^t B U, where the columns of
U are the canonically ordered points of PG(k-1, q) and B runs over the
congruence-class representatives of invertible symmetric k x k matrices.
Equivalently: the complement of the looped polarity graph of B.  U^t is
the point tuple of projgeo.enumerate_points, kept as it is.  The isolated
extra vertex that every such family carries is not stored; the blowup
module accounts for it separately.
"""

from __future__ import annotations

import collections
import functools

from .gf import FieldCtx, field_from_order
from .graphs import LoopedGraph
from .matfq import MatrixFq, _rref, canonical_representatives, rank
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


class Pattern(collections.namedtuple("Pattern", "form graph")):
    """A k-pattern: its invertible symmetric form (MatrixFq) and its looped
    graph (LoopedGraph).  No __slots__, so that roots has a __dict__ to be
    cached in."""

    @functools.cached_property
    def roots(self) -> int:
        """The vertices the first class the blowup search branches on may
        take (see isometry_roots), found when the first class moves past
        its least candidate, and kept."""
        return isometry_roots(self.form)


class PatternSet(collections.namedtuple("PatternSet", "q k field points patterns")):
    """The k-patterns over GF(q): the field (FieldCtx), the canonical points
    (tuple of coordinate tuples) and the patterns (tuple of Pattern)."""

    __slots__ = ()


def pattern_graph(b: MatrixFq) -> LoopedGraph:
    """Looped graph of U^t B U over the canonical points: edge where the
    pairing is nonzero, loop where a point is non-absolute.  Each row comes
    whole from projgeo.pairing_support, its own bit split off as the loop,
    so no n x n matrix is ever held."""
    rows: list[int] = []
    loops = 0
    for x, row in enumerate(pairing_support(b)):
        if row >> x & 1:
            loops |= 1 << x
            row ^= 1 << x
        rows.append(row)
    return LoopedGraph._trusted(len(rows), rows, loops)  # symmetric, as B is


def gram_matrix(points, b: MatrixFq) -> MatrixFq:
    """The full matrix U^t B U over GF(q) under the canonical point order."""
    return MatrixFq(b.field, pairing_matrix(points, b), len(points))


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


def _pole(b: MatrixFq) -> int:
    """The index of the pole of b, or -1 when q is odd or b is alternating:
    the one point w with B(x,w)^2 = B(x,x) for every x.  As B(x,x) =
    (sum_t x_t u_t)^2 for u_t = sqrt(B_tt), w = B^-1 u."""
    f = b.field
    if f.p != 2 or not any(b.entries[t][t] for t in range(b.rows)):
        return -1
    m = [list(row) + [f.sqrt(row[t])] for t, row in enumerate(b.entries)]
    if len(_rref(f, m)[0]) != b.rows:  # else m is now (I | B^-1 u)
        raise ValueError("the form is singular")
    return point_index(f, canonicalize(f, [row[-1] for row in m]))


def isometry_roots(b: MatrixFq) -> int:
    """The least point of each orbit of PG(k-1, q) under the isometries of
    the invertible symmetric form b, as a bit mask over the point order.

    An isometry keeps every pairing, so it is an automorphism of the
    pattern graph, loops included.  Its orbits are the key classes: the
    pole w (_pole) alone, and the other points by B(x,x) = 0, a nonzero
    square or a non-square (0 or not over even q, where all are squares).
    Each class is a union of orbits: an isometry g keeps B(x,x), scaling x
    by s scales it by s^2, and over even q, x -> sqrt(B(x,x)) = B(x,w) is
    linear and kept by g, so B(x,gw) = B(g^-1 x,w) = B(x,w) and gw = w.
    Each class is one orbit:
    - Odd q: if B(x,x) = s^2 B(y,y), s != 0, the isometry y -> x/s of <y>
      onto <x> extends to the whole space by Witt's extension theorem
      (Artin, "Geometric Algebra", 1957; Taylor, "The Geometry of the
      Classical Groups", 1992).
    - Even q, B alternating: every point has key 0, and Sp is transitive
      on nonzero vectors (a pair with B(x,x') = 1 extends to a symplectic
      basis).
    - Even q, B not alternating: W = w^perp holds the points of norm 0.  B
      is alternating on W, so of even rank there, with radical W meet <w>.
      k odd: dim W = k - 1 is even, so w is not in W, B(w,w) = 1 and V is
      the orthogonal sum <w> + W.  Sp(W), extended by the identity on w,
      is transitive on the nonzero u in W, so on the points <u> and on
      the points <w + u> off W but w.
      k even: dim W is odd, so w is in W.  Take v with B(v,w) = 1, so
      B(v,v) = 1 and <w,v> is nondegenerate, and the symplectic
      U = <w,v>^perp, so W = <w> + U.  Two families of isometries: Sp(U)
      extended by the identity on <w,v>, and w -> w, v -> v + u0 + a w,
      u -> u + B(u,u0) w for u0 in U and a in GF(q) (they keep B, as
      B(u0,u0) = B(w,w) = 0 = 2 B(u,u0)).  The
      second carries <v> to every point <v + a w + u> off W.  On the
      points <a w + u> of W, u != 0, the first moves u to any u' != 0 and
      the second turns a into a + B(u,u0), any value.
    """
    f, pole = b.field, _pole(b)
    roots, keys = 0 if pole < 0 else 1 << pole, set()
    for x, v in enumerate(norms(b)):
        key = 0 if v == 0 else 1 if f.is_square(v) else 2
        if key not in keys and x != pole:
            keys.add(key)
            roots |= 1 << x
    return roots


@functools.lru_cache(maxsize=256)
def _generate_cached(field: FieldCtx, k: int) -> PatternSet:
    points = enumerate_points(field, k)
    pats = tuple(Pattern(b, pattern_graph(b))
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
