"""Blowup recognition and minimum rank over GF(q).

A simple graph has minimum rank at most k over GF(q) exactly when it is a
blowup of one of the k-patterns together with an extra isolated vertex.
Recognition strips isolated vertices (they realise the extra vertex and
never change minimum rank), collapses twin vertices, and then runs a
backtracking search assigning twin classes to pattern vertices.

A class normally occupies a single pattern vertex whose loop status matches
(looped for merged cliques, nonlooped for merged independent sets, either
for singletons).  One genuine wrinkle: a merged clique can also be realised
by spreading its members, one each, over a clique of nonlooped pattern
vertices (dually for independent sets over looped ones), and such a spread
cannot always be re-pointed at a single vertex.  The search therefore also
tries exact-size spreads over loop-incompatible vertices.  Every witness is
re-verified against the raw blowup definition before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ClassStatus, LoopedGraph, SimpleGraph, twin_reduce
from .patterns import DEFAULT_VERTEX_BUDGET, VertexBudgetError, generate


class MinRankBoundError(Exception):
    """The k sweep stopped before finding the minimum rank.

    ``lower_bound`` is the largest k that was ruled out, so mr > lower_bound.
    """

    def __init__(self, lower_bound: int, reason: str):
        super().__init__(f"minimum rank > {lower_bound} ({reason})")
        self.lower_bound = lower_bound


class InvariantError(AssertionError):
    """A result failed the check that re-derives it from its definition.

    Raised explicitly, so the check survives ``python -O``."""


@dataclass(frozen=True)
class BlowupWitness:
    """Map from each non-isolated vertex to the pattern vertex it blows up."""

    assignment: dict[int, int]

    def class_image(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, p in self.assignment.items():
            out.setdefault(p, []).append(v)
        return out


def verify_blowup(g: SimpleGraph, h: LoopedGraph, assignment: dict[int, int]) -> bool:
    """Check an assignment against the raw blowup definition."""
    core = [v for v in range(g.n) if g.rows[v]]
    if sorted(assignment) != core:
        return False
    for i, u in enumerate(core):
        pu = assignment[u]
        if not (0 <= pu < h.n):
            return False
        for v in core[i + 1:]:
            pv = assignment[v]
            if pu == pv:
                expected = h.has_loop(pu)
            else:
                expected = h.has_edge(pu, pv)
            if g.has_edge(u, v) != expected:
                return False
    return True


def is_blowup(g: SimpleGraph, h: LoopedGraph,
              orbits: tuple[int, ...] | None = None) -> BlowupWitness | None:
    """A witness that g is a blowup of h (plus an isolated vertex), or None.

    ``orbits`` optionally labels pattern vertices by automorphism orbit (as
    produced by the pattern generator); the first branching level then tries
    only one vertex per orbit, which is sound because any witness can be
    carried to an orbit representative by an automorphism.
    """
    core = [v for v in range(g.n) if g.rows[v]]
    if not core:
        return BlowupWitness({})
    gc = g.induced(core)
    red = twin_reduce(gc)
    nclasses = red.quotient.n
    sizes = red.class_sizes()
    q_adj = red.quotient.rows

    def root_allowed(v: int) -> bool:
        return orbits is None or orbits.index(orbits[v]) == v

    # candidate pattern vertices per class, split by loop compatibility
    def compatible(v: int, status: ClassStatus) -> bool:
        if status is ClassStatus.FREE:
            return True
        return h.has_loop(v) == (status is ClassStatus.LOOPED)

    offdeg = [bin(r).count("1") for r in h.rows]
    q_deg = [bin(r).count("1") for r in q_adj]

    order = sorted(range(nclasses), key=lambda c: (-sizes[c], c))
    images: list[tuple[int, ...]] = [()] * nclasses
    used = 0

    def consistent_vertex(v: int, cls: int, depth: int) -> bool:
        for d2 in range(depth):
            other = order[d2]
            want = bool((q_adj[cls] >> other) & 1)
            for w in images[other]:
                if h.has_edge(v, w) != want:
                    return False
        return True

    def spread_candidates(cls: int, depth: int) -> list[int]:
        st = red.statuses[cls]
        need_adjacent = st is ClassStatus.LOOPED
        out = []
        for v in range(h.n):
            if (used >> v) & 1:
                continue
            if compatible(v, st):
                continue  # spreads use only loop-incompatible vertices
            if need_adjacent and offdeg[v] < sizes[cls] - 1 + q_deg[cls]:
                continue
            if consistent_vertex(v, cls, depth):
                out.append(v)
        return out

    def spreads(cls: int, depth: int):
        """Exact-size sets of loop-incompatible vertices, pairwise adjacent
        for merged cliques and pairwise nonadjacent for merged independents."""
        st = red.statuses[cls]
        need = sizes[cls]
        cands = spread_candidates(cls, depth)
        if len(cands) < need:
            return
        chosen: list[int] = []

        def grow(start: int):
            if len(chosen) == need:
                yield tuple(chosen)
                return
            for idx in range(start, len(cands)):
                v = cands[idx]
                if depth == 0 and not chosen and not root_allowed(v):
                    continue
                ok = True
                for w in chosen:
                    if h.has_edge(v, w) != (st is ClassStatus.LOOPED):
                        ok = False
                        break
                if ok:
                    chosen.append(v)
                    yield from grow(idx + 1)
                    chosen.pop()

        yield from grow(0)

    def backtrack(depth: int) -> bool:
        nonlocal used
        if depth == nclasses:
            return True
        cls = order[depth]
        st = red.statuses[cls]
        for v in range(h.n):
            if (used >> v) & 1 or not compatible(v, st):
                continue
            if depth == 0 and not root_allowed(v):
                continue
            if offdeg[v] < q_deg[cls]:
                continue
            if not consistent_vertex(v, cls, depth):
                continue
            images[cls] = (v,)
            used |= 1 << v
            if backtrack(depth + 1):
                return True
            used &= ~(1 << v)
            images[cls] = ()
        if sizes[cls] >= 2:
            for group in spreads(cls, depth):
                images[cls] = group
                mask = 0
                for v in group:
                    mask |= 1 << v
                used |= mask
                if backtrack(depth + 1):
                    return True
                used &= ~mask
                images[cls] = ()
        return False

    if not backtrack(0):
        return None

    assignment: dict[int, int] = {}
    for cls in range(nclasses):
        members = red.classes[cls]
        group = images[cls]
        if len(group) == 1:
            for m in members:
                assignment[core[m]] = group[0]
        else:
            for m, v in zip(members, group):
                assignment[core[m]] = v
    witness = BlowupWitness(assignment)
    if not verify_blowup(g, h, assignment):
        raise InvariantError("witness failed the raw blowup definition")
    return witness


def member(g: SimpleGraph, q: int, k: int,
           vertex_budget: int = DEFAULT_VERTEX_BUDGET
           ) -> tuple[bool, BlowupWitness | None, int | None]:
    """Is mr(GF(q), g) <= k?  Returns (answer, witness, pattern index)."""
    ps = generate(q, k, vertex_budget=vertex_budget)
    for idx, pat in enumerate(ps.patterns):
        w = is_blowup(g, pat.graph, orbits=pat.orbits)
        if w is not None:
            return True, w, idx
    return False, None, None


def _longest_induced_path_vertices(g: SimpleGraph) -> int:
    """Vertex count of a longest induced path (depth-first extension)."""
    best = min(g.n, 1)

    def extend(path_mask: int, last: int, length: int):
        nonlocal best
        best = max(best, length)
        cand = g.rows[last] & ~path_mask
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            # induced: v may touch only the path tip
            if g.rows[v] & path_mask & ~(1 << last):
                continue
            extend(path_mask | (1 << v), v, length + 1)

    for s in range(g.n):
        extend(1 << s, s, 1)
    return best


def _rank_lower_bound(g: SimpleGraph) -> int:
    """A field-independent minimum-rank lower bound.

    An induced path on m vertices forces rank at least m - 1: the submatrix
    on the path's rows 1..m-1 and columns 2..m is triangular with nonzero
    diagonal for any matrix realising the graph.
    """
    if g.n > 12:
        g = twin_reduce(g).quotient.simple()
        if g.n > 12:
            return 0
    return max(_longest_induced_path_vertices(g) - 1, 0)


def min_rank(g: SimpleGraph, q: int, max_k: int | None = None,
             vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """Smallest k with mr(GF(q), g) <= k, by sweeping k upward.

    The sweep starts at a cheap field-independent lower bound.  Raises
    MinRankBoundError when max_k (or the pattern vertex budget) is exhausted
    first; the exception carries the established lower bound.
    """
    ceiling = g.n if max_k is None else min(max_k, g.n)
    start = _rank_lower_bound(g)
    if start > ceiling:
        if max_k is not None and max_k < g.n:
            raise MinRankBoundError(max_k, f"k sweep capped at {max_k}")
        raise AssertionError("lower bound above vertex count")
    for k in range(start, ceiling + 1):
        try:
            ok, _, _ = member(g, q, k, vertex_budget=vertex_budget)
        except VertexBudgetError as exc:
            raise MinRankBoundError(k - 1, str(exc)) from exc
        if ok:
            if k > g.n:
                raise InvariantError(f"sweep accepted k = {k} above n = {g.n}")
            return k
    if max_k is not None and max_k < g.n:
        raise MinRankBoundError(max_k, f"k sweep capped at {max_k}")
    raise AssertionError("every n-vertex graph has minimum rank at most n")


def multipartite_bound_check(parts, q: int) -> bool:
    """Whether the complete multipartite graph on these parts has mr <= 3."""
    parts = list(parts)
    if not parts:
        raise ValueError("at least one part required")
    g = SimpleGraph.complete_multipartite(parts)
    try:
        return min_rank(g, q, max_k=3) <= 3
    except MinRankBoundError:
        return False
