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

import bisect
import collections
import functools
import itertools
import math
from collections.abc import Iterator

from .gf import FieldCtx, field_from_order
from .graphs import LoopedGraph
from .matfq import MatrixFq, _rref, canonical_representatives, rank
from .projgeo import (_lanes, _Pairings, canonicalize, enumerate_points, norms,
                      pairing_matrix, pairing_support, point_count, point_index)

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


# generators added to the orbit search at a time
_GENERATOR_BLOCK = 8


def isometry_generators(b: MatrixFq, nrm: list[int]) -> Iterator[tuple[list[int], list[int]]]:
    """The maps x -> x + c B(x,a) a for the points a and c != 0 with
    c (2 + c B(a,a)) = 0, yielded as lists (points a, scalars c) of at most
    _GENERATOR_BLOCK generators each; nrm holds B(a,a) for every point a.
    Listed by c, then a, the m of them are visited by a stride near m/phi
    so that neighbours lie far apart.

    Each keeps B, since B(x',y') = B(x,y) + c (2 + c B(a,a)) B(x,a) B(y,a):
    they are the reflections for odd q and the transvections for even q.
    As c != 0, the condition reads B(a,a) = -2/c, so the centres a for c
    are the points of that norm and no list of all m pairs is built.
    """
    f = b.field
    by_norm: list[list[int]] = [[] for _ in range(f.q)]
    for x, v in enumerate(nrm):
        by_norm[v].append(x)
    minus_two = f.neg(f.add(1, 1))
    centres = [by_norm[f.mul(minus_two, f.inv(c))] for c in range(1, f.q)]
    ends = list(itertools.accumulate(map(len, centres)))
    m = ends[-1]
    step = max(1, round(m * 0.618))
    while math.gcd(step, m) != 1:
        step += 1
    for lo in range(0, m, _GENERATOR_BLOCK):
        js = [j * step % m for j in range(lo, min(lo + _GENERATOR_BLOCK, m))]
        gs = [bisect.bisect_right(ends, j) for j in js]  # pair j has scalar g + 1
        yield [centres[g][j - ends[g] + len(centres[g])] for j, g in zip(js, gs)], \
            [g + 1 for g in gs]


def _orbit_key_count(b: MatrixFq, nrm: list[int]) -> int:
    """How many orbits the isometry group has at least: points whose norms
    differ by more than a nonzero square factor lie in different orbits
    (an isometry keeps x^t B x, and scaling x by s scales it by s^2), and
    over even q a form with a nonzero diagonal has a pole w, the one point
    with B(x,w)^2 = B(x,x) for every x (w = B^-1 u for u_t = sqrt(B_tt)),
    which every isometry fixes, so it is an orbit of its own."""
    f = b.field
    pole = -1
    if f.p == 2 and any(b.entries[t][t] for t in range(b.rows)):
        m = [list(row) + [f.sqrt(row[t])] for t, row in enumerate(b.entries)]
        if len(_rref(f, m)[0]) == b.rows:  # m is now (I | B^-1 u)
            pole = point_index(f, canonicalize(f, [row[-1] for row in m]))
    keys = {0 if v == 0 else 1 if f.is_square(v) else 2
            for x, v in enumerate(nrm) if x != pole}
    return len(keys) + (pole >= 0)


def _lane_images(b: MatrixFq, pts):
    """images(a, c): the index of x + c B(x,a) a for every point x, for
    k >= 3 and q <= LANE_MAX_Q.  The image coordinates are value vectors over all
    points (projgeo._Pairings), brought to canonical form lane by lane: the
    last nonzero coordinate L is picked out by masks, and each coordinate
    is divided by L as exp(log x - log L), one bytes.translate per step
    (the sum of two logarithms, at most 2q - 4, fits its byte)."""
    f, q = b.field, b.field.q
    pairs = _Pairings(b)
    pl, mult, coords = pairs.planes, pairs.multiples, pairs.coords
    n, index = pl.n, {x: i for i, x in enumerate(pts)}
    exp, log = f.log_tables()  # log[0], the sentinel 2(q-1), reads as 0 mod q - 1
    log_of = bytes(x % (q - 1) for x in log).ljust(256, b"\0")
    minus_log = bytes(-x % (q - 1) for x in log).ljust(256, b"\0")
    exp_of = bytes(exp[i % (q - 1)] for i in range(256))
    nonzero = b"\0" + b"\xff" * 255

    def lanes(data: bytes) -> int:
        return int.from_bytes(data, "little")

    def images(a: int, c: int) -> list[int]:
        centre = pts[a]
        mu = pl.scale(c, functools.reduce(
            pl.add, (mult[t][x] for t, x in enumerate(centre) if x), pl.zero))
        image = [pl.reps(pl.add(coords[t], pl.scale(x, mu)) if x else coords[t])
                 for t, x in enumerate(centre)]
        masks = [lanes(x.translate(nonzero)) for x in image]
        last = 0
        for x, nz in zip(image, masks):
            last = lanes(x) & nz | last & ~nz
        shift = lanes(last.to_bytes(n, "little").translate(minus_log))
        canon = [(lanes((lanes(x.translate(log_of)) + shift).to_bytes(n, "little")
                        .translate(exp_of)) & nz).to_bytes(n, "little")
                 for x, nz in zip(image, masks)]
        return list(map(index.__getitem__, zip(*canon)))

    return images


def _point_images(b: MatrixFq, pts):
    """images(a, c): the index of x + c B(x,a) a for every point x, one
    point at a time (for k <= 2, or q > LANE_MAX_Q)."""
    f, index = b.field, {x: i for i, x in enumerate(pts)}
    add, mul, dot = f.add, f.mul, f.dot

    def images(a: int, c: int) -> list[int]:
        centre = pts[a]
        ba = [dot(row, centre) for row in b.entries]  # B(x, a) = x . (B a)
        out = []
        for i, x in enumerate(pts):
            mu = mul(c, dot(x, ba))
            out.append(index[canonicalize(f, [add(s, mul(mu, t)) for s, t in zip(x, centre)])]
                       if mu else i)
        return out

    return images


def isometry_roots(b: MatrixFq) -> int:
    """The least point of each orbit of PG(k-1, q) under a group of isometries
    of the symmetric form b, as a bit mask over the canonical point order.

    An isometry permutes the points and keeps every pairing, so it is an
    automorphism of the pattern graph, loops included.  The group is the one
    generated by isometry_generators.  An orbit of any subgroup lies in an
    orbit of the full isometry group, so one point per computed orbit may
    stand for its orbit however many generators are used: they are added in
    blocks until a block merges no two orbits.  Once the orbits are as few
    as _orbit_key_count allows, no generator can merge two more, and the
    search stops there with the same orbits.
    """
    f = b.field
    pts = enumerate_points(f, b.rows)
    nrm = norms(b)
    images = (_lane_images if _lanes(b) else _point_images)(b, pts)
    labels = list(range(len(pts)))  # each point's label: the least point of its orbit
    orbits, floor = len(pts), _orbit_key_count(b, nrm)
    for centres, scalars in isometry_generators(b, nrm):
        merged = False
        for a, c in zip(centres, scalars):
            if orbits == floor:
                break
            parent: dict[int, int] = {}

            def root(u: int) -> int:
                while u in parent:
                    u = parent[u]
                return u

            for u, w in set(zip(labels, map(labels.__getitem__, images(a, c)))):
                u, w = root(u), root(w)
                if u != w:
                    parent[max(u, w)] = min(u, w)
                    orbits -= 1
            if parent:
                merged = True
                relabel = list(range(len(pts)))
                for u in parent:
                    relabel[u] = root(u)
                labels = list(map(relabel.__getitem__, labels))
        if not merged or orbits == floor:
            break
    return sum(1 << v for v, label in enumerate(labels) if label == v)


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
