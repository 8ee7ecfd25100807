"""Blowup recognition and minimum rank over GF(q).

A simple graph has minimum rank at most k over GF(q) exactly when it is a
blowup of one of the k-patterns together with an extra isolated vertex.
Recognition collapses twin vertices and then searches for an injective
assignment of twin classes to pattern vertices.  The isolated vertices
share one class (their neighbourhoods are all empty); it realises the extra
vertex, so the search and the witness leave it out.

A class normally occupies a single pattern vertex whose loop status matches
(looped for merged cliques, nonlooped for merged independent sets, either
for singletons).  One genuine wrinkle: a merged clique can also be realised
by spreading its members, one each, over a clique of nonlooped pattern
vertices (dually for independent sets over looped ones), and such a spread
cannot always be re-pointed at a single vertex.  The search therefore also
tries exact-size spreads over loop-incompatible vertices.

The search forward-checks on bitsets, in the manner of domain filtering in
subgraph solvers (McCreesh, Prosser and Trimble, "The Glasgow Subgraph
Solver", ICGT 2020).  Every open class keeps one mask of the pattern
vertices still consistent with all placements and not yet used.  Placing a
vertex intersects each open mask with the vertex's pattern row (classes
adjacent) or its non-neighbour row (classes not adjacent); the search backs
up as soon as a class has no single candidate and fewer spread candidates
than members, and it branches on the class with the fewest single
candidates (ties: larger class, then lower index).  Only the first class
branched on is pruned by symmetry, to one vertex per orbit of the
isometry group of the pattern's form, read off the norms in closed form
(see ``patterns.isometry_roots``) only once that class backtracks.
Every witness is re-verified against the raw blowup definition before it
is returned.  ``extend_blowup`` grows a witness for g minus its last
vertex into one for g without a search, or reports that it cannot.

``min_rank`` first splits G into its connected parts: a matrix whose graph
is a disjoint union is, with its vertices taken part by part, a direct sum
of one block per part, so mr adds over them, and an isolated vertex adds 0.
Each part with an edge is searched alone, a connected graph as it is, under
a ceiling that max_k leaves it.  ``member`` keeps the whole graph, since its
witness is one blowup.

Over q > 2, a part's k sweeps upward from the zero forcing bound
mr >= n - Z(G), which holds over every field (AIM Minimum Rank-Special
Graphs Work Group, LAA 428, 2008), so no k below it is ever searched.  Z is
the size of the zero forcing set that ``graphs._zero_forcing_set`` finds
per connected component by a wavefront search, a cheapest path over
forcing closures on bitmask rows (Brimkov, Fast and Hicks, EJOR 273,
2019).  It is exact unless a component uses up
``graphs.ZERO_FORCING_BUDGET``; then a greedily completed zero forcing set
stands in for it, whose size is at least Z, so the bound stays valid.  The
oracle takes its floors from the same set, once it has checked that the
set forces every vertex.

Over GF(2), ``min_rank`` uses no patterns.  Every nonzero off-diagonal
entry is 1 there, so the matrices with graph G are exactly A(G) + D for the
2^n diagonals D with 0/1 entries, and mr is the least rank among them.
``_gf2_min_rank`` finds it for each part by a row-by-row branch and bound
over D on bitset rows, which stops once it meets the zero forcing bound and
refuses past a fixed node budget.  It shares no code with the oracle, which
stays an independent check, and the pattern vertex budget does not limit it.
``member`` still decides GF(2) by patterns, since it returns a witness.
"""

from __future__ import annotations

import collections

from .graphs import LoopedGraph, SimpleGraph, _components, _zero_forcing_set, twin_reduce
from .patterns import DEFAULT_VERTEX_BUDGET, Pattern, VertexBudgetError, generate


class MinRankBoundError(Exception):
    """min_rank stopped before finding the minimum rank.

    ``lower_bound`` is the largest k that was ruled out, so mr > lower_bound.
    """

    def __init__(self, lower_bound: int, reason: str):
        super().__init__(f"minimum rank > {lower_bound} ({reason})")
        self.lower_bound = lower_bound
        self.reason = reason


class InvariantError(AssertionError):
    """A result failed the check that re-derives it from its definition.

    Raised explicitly, so the check survives ``python -O``."""


class BlowupWitness(collections.namedtuple("BlowupWitness", "assignment")):
    """Map from each non-isolated vertex to the pattern vertex it blows up
    (assignment: dict[int, int])."""

    __slots__ = ()

    def class_image(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, p in self.assignment.items():
            out.setdefault(p, []).append(v)
        return out


def verify_blowup(g: SimpleGraph, h: LoopedGraph, assignment: dict[int, int]) -> bool:
    """Check an assignment against the raw blowup definition: it maps
    exactly the non-isolated vertices of g into h, and two of them u != v
    are adjacent in g exactly when their images are adjacent in h, or are
    one looped vertex.

    On bitmask rows: the vertices are grouped by image, each image p gets
    the mask of the vertices that a vertex on p must be adjacent to (those
    on the images adjacent to p, and those on p when p is looped), and the
    row of each vertex on p is compared with that mask, less the vertex
    itself, in one int comparison.  Every neighbour of a vertex is
    non-isolated, so both sides lie inside the assigned vertices.
    """
    rows, n = g.rows, h.n
    members: dict[int, int] = {}  # image -> the vertices on it
    core = 0
    for u, r in enumerate(rows):
        if r:
            p = assignment.get(u, -1)
            if not 0 <= p < n:
                return False
            members[p] = members.get(p, 0) | 1 << u
            core += 1
    if len(assignment) != core:
        return False  # an isolated vertex, or one that g lacks, is assigned
    h_rows, loops = h.rows, h.loops
    images = 0
    for p in members:
        images |= 1 << p
    for p, on in members.items():
        adj = h_rows[p] & images
        mask = on if loops >> p & 1 else 0
        while adj:
            low = adj & -adj
            adj ^= low
            mask |= members[low.bit_length() - 1]
        while on:
            low = on & -on
            on ^= low
            if rows[low.bit_length() - 1] != mask & ~low:
                return False
    return True


def _apart(rows, avail: int, need: int) -> tuple[int, ...] | None:
    """need pairwise nonadjacent vertices of avail, lexicographically least,
    or None when there are none."""
    if not need:
        return ()
    while avail.bit_count() >= need:
        low = avail & -avail
        avail ^= low
        y = low.bit_length() - 1
        rest = _apart(rows, avail & ~rows[y], need - 1)
        if rest is not None:
            return (y, *rest)
    return None


def _place(rows, loops: int, cand: int, seen: int, need: int, lone: bool
           ) -> tuple[int, tuple[int, ...]] | None:
    """(x, spots): the new vertex on x in cand and its need new neighbours
    on spots, each adjacent to x and not in seen, pairwise apart; None when
    there are none.  lone: the new vertex has one neighbour, a new one."""
    if lone:
        # the two are adjacent twins, a new component, and first try to
        # share a looped vertex apart from every image, as is_blowup merges
        # twins: that leaves later vertices the most room
        twins = loops & ~seen
        if twins:
            x = (twins & -twins).bit_length() - 1
            return x, (x,)
    while cand:
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        free = (rows[x] | (loops >> x & 1) << x) & ~seen
        bare = free & ~loops
        spots = (((bare & -bare).bit_length() - 1,) * need if bare
                 else _apart(rows, free, need))
        if spots is not None:
            return x, spots
    return None


def extend_blowup(g: SimpleGraph, h: LoopedGraph, assignment: dict[int, int]
                  ) -> dict[int, int] | None:
    """A blowup assignment of g onto h extending assignment, a witness that
    g - v is a blowup of h for v the last vertex of g, or None when no
    extension exists (g may still be a blowup of h or of another pattern).

    Three steps.  (1) v takes a pattern vertex x whose adjacency to the image
    of every assigned vertex u matches g's (x equal to the image counts as
    adjacent when it is looped): one AND per u.  (2) The vertices isolated
    in g - v that v joins, S, are adjacent to v alone and pairwise apart, so
    each takes a vertex adjacent to x and to no image: all of S one such
    nonlooped vertex if there is one, else |S| distinct and pairwise
    nonadjacent looped ones, by a small exhaustive search, for each x in
    turn (_place).  (3) The result is re-verified by verify_blowup, and
    failing it raises InvariantError: assignment was no witness for g - v.
    """
    v = g.n - 1
    nbrs = g.rows[v]
    rows, loops = h.rows, h.loops
    cand, seen, core = (1 << h.n) - 1, 0, 0
    for u, p in assignment.items():
        row = rows[p] | (loops >> p & 1) << p
        cand &= row if nbrs >> u & 1 else ~row
        seen |= row
        core |= 1 << u
    out = assignment
    if nbrs:
        joined = nbrs & ~core
        need = joined.bit_count()
        placed = _place(rows, loops, cand, seen, need, need == 1 and nbrs == joined)
        if placed is None:
            return None
        x, spots = placed
        out = {**assignment, v: x}
        out.update(zip((u for u in range(v) if joined >> u & 1), spots))
    if not verify_blowup(g, h, out):
        raise InvariantError("extended witness failed the raw blowup definition")
    return out


def is_blowup(g: SimpleGraph, h: LoopedGraph | Pattern) -> BlowupWitness | None:
    """A witness that g is a blowup of h (plus an isolated vertex), or None.

    ``h`` is a looped graph, searched in full, or a Pattern, which keeps its
    isometry roots.  For a Pattern the first class branched on tries only the
    root of each isometry orbit, and a spread there must meet the roots: an
    isometry carrying any witness's image vertex to the root of its orbit
    gives another witness.

    The roots are read only once that class moves past its least single
    candidate, so a yes decided there never builds them.  That candidate is
    a root, so the order of the search, its answer and its witness are
    those of reading the roots up front.  At the top every domain is
    single | spread, which is every vertex, so the class's single candidates
    are all, the looped or the nonlooped vertices.  Each of these is a union
    of isometry orbits, since an isometry keeps B(x, x) != 0, and the
    orbits are the key classes of ``isometry_roots``, which keeps the least
    point of each.

    A graph with an edge is reduced once, by this module's ``twin_reduce``.
    A class placed on one vertex x narrows the other domains by x's row and
    its complement less x; a spread, by the intersections over its
    vertices.  When every class is a single vertex the branching ties go by
    index, with no sort.  A successful search writes each class's members
    into the assignment as it returns, which ``verify_blowup`` re-checks
    before the witness is handed out, raising InvariantError if it fails.
    """
    pattern = h if isinstance(h, Pattern) else None
    if pattern is not None:
        h = pattern.graph
    if not any(g.rows):
        return BlowupWitness({})
    red = twin_reduce(g)
    classes, sizes = red.classes, red.class_sizes()
    q_adj, q_loops = red.quotient.rows, red.quotient.loops
    rows, loops = h.rows, h.loops
    full = (1 << h.n) - 1
    nonloops = full & ~loops
    # per class: where a single image may go (loop status matching the
    # class), and where the members of a spread go (the opposite status)
    single = [full if size == 1 else loops if q_loops >> c & 1 else nonloops
              for c, size in enumerate(sizes)]
    spread = [0 if size == 1 else full ^ s for size, s in zip(sizes, single)]
    nclasses = len(sizes)
    # ties on the candidate count go to the larger class, then the lower index
    rank: list[int] | range = range(nclasses)
    if nclasses < g.n:
        rank = [0] * nclasses
        for r, c in enumerate(sorted(range(nclasses), key=lambda c: (-sizes[c], c))):
            rank[c] = r
    no_class = (h.n + 1) * nclasses
    assignment: dict[int, int] = {}

    def narrow(adj: int, joined: int, apart: int, doms: dict[int, int]):
        """The domains once a class with quotient row adj is placed, where
        joined is the set of vertices adjacent to all its images and apart
        the set of those adjacent to and equal to none, and the class to
        branch on next (fewest single candidates); None as soon as a class
        is left with no single and too few spread candidates."""
        out = {}
        best, best_key = -1, no_class
        for d, dom in doms.items():
            dom &= joined if (adj >> d) & 1 else apart
            count = (dom & single[d]).bit_count()
            if not count and (dom & spread[d]).bit_count() < sizes[d]:
                return None
            out[d] = dom
            key = count * nclasses + rank[d]
            if key < best_key:
                best, best_key = d, key
        return out, best

    def spreads(cls: int, avail: int, roots: int):
        """Groups of size(cls) vertices from avail, pairwise adjacent for a
        merged clique and pairwise nonadjacent for a merged independent set,
        meeting roots."""
        need = sizes[cls]
        looped = q_loops >> cls & 1

        def grow(chosen: tuple[int, ...], hit: bool, avail: int):
            if len(chosen) == need:
                if hit:
                    yield chosen
                return
            while avail.bit_count() >= need - len(chosen):
                if not hit and not avail & roots:
                    return
                low = avail & -avail
                avail ^= low
                v = low.bit_length() - 1
                # v has left avail, so ~rows[v] needs no 1 << v taken out
                yield from grow(chosen + (v,), hit or bool(low & roots),
                                avail & (rows[v] if looped else ~rows[v]))

        yield from grow((), False, avail)

    def search(doms: dict[int, int], cls: int, pattern: Pattern | None = None) -> bool:
        """Place cls, then the rest of doms (which it owns), filling in
        assignment, or report failure.  cls tries its single candidates in
        increasing order and then its spreads; with a pattern (at the top),
        only those meeting its roots, read past the least single candidate."""
        dom = doms.pop(cls)
        adj, members = q_adj[cls], classes[cls]
        roots, cand = full, dom & single[cls]
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            row = rows[x]
            step = narrow(adj, row, ~(row | low), doms)
            if step is not None and (not doms or search(*step)):
                for v in members:
                    assignment[v] = x
                return True
            if pattern is not None:
                roots, pattern = pattern.roots, None
                cand &= roots
        if len(members) >= 2:
            if pattern is not None:
                roots = pattern.roots
            for group in spreads(cls, dom & spread[cls], roots):
                joined = apart = -1
                for v in group:
                    joined &= rows[v]
                    apart &= ~(rows[v] | 1 << v)
                step = narrow(adj, joined, apart, doms)
                if step is not None and (not doms or search(*step)):
                    assignment.update(zip(members, group))
                    return True
        return False

    # every class but the isolated one, whose rows in g are empty (not just
    # in the quotient); single | spread is every vertex
    first = narrow(0, -1, -1, {c: full for c in range(nclasses) if g.rows[classes[c][0]]})
    if first is None or not search(*first, pattern):
        return None
    if not verify_blowup(g, h, assignment):
        raise InvariantError("witness failed the raw blowup definition")
    return BlowupWitness(assignment)


def member(g: SimpleGraph, q: int, k: int,
           vertex_budget: int = DEFAULT_VERTEX_BUDGET
           ) -> tuple[bool, BlowupWitness | None, int | None]:
    """Is mr(GF(q), g) <= k?  Returns (answer, witness, pattern index); a
    graph on n <= k vertices (mr <= n) needs no witness when over budget."""
    try:
        ps = generate(q, k, vertex_budget=vertex_budget)
    except VertexBudgetError:
        if g.n <= k:
            return True, None, None
        raise
    for idx, pat in enumerate(ps.patterns):
        w = is_blowup(g, pat)
        if w is not None:
            return True, w, idx
    return False, None, None


def _rank_lower_bound(g: SimpleGraph) -> int:
    """The zero forcing bound: mr_F(g) >= n - Z(g) over every field F (AIM
    Minimum Rank-Special Graphs Work Group, LAA 428, 2008), both sides
    adding over connected components, as n - |S| for the set S of
    graphs._zero_forcing_set.  It still holds past its budget, where a
    greedy zero forcing set stands in for a smallest one.  It dominates the
    induced-path bound: for an induced path P, the other vertices and one
    end of P force P one vertex at a time.
    """
    return g.n - _zero_forcing_set(g.rows).bit_count()


# search nodes (row choices) before _gf2_min_rank refuses, as for the oracle
GF2_NODE_BUDGET = 4 * 10 ** 6


def _gf2_min_rank(g: SimpleGraph, floor: int, ceiling: int) -> int | None:
    """mr(GF(2), g) as the least rank of A(g) + D over 0/1 diagonals D, or
    None when it is over ceiling; floor is a lower bound on it.

    Every nonzero off-diagonal entry over GF(2) is 1, so these are all the
    matrices with graph g.  Depth i chooses row i's diagonal bit; the row is
    reduced against an echelon basis of rows 0..i-1 (pivot = lowest set
    bit), whose size bounds the rank of every matrix below the node, so a
    branch is cut once it reaches the least rank found.  The search stops
    at floor, and refuses past GF2_NODE_BUDGET nodes.
    """
    n, rows = g.n, g.rows
    best = ceiling + 1
    basis: list[tuple[int, int]] = []  # (pivot bit, row) in insertion order
    kept = [0] * n  # basis size before row i
    # reduced rows left to try at each depth, popped last to first
    todo: list[list[int]] = [[] for _ in range(n)]
    todo[0] = [rows[0] | 1, rows[0]]
    i = 0 if floor <= ceiling else -1
    nodes = 0
    while i >= 0 and best > floor:
        if not todo[i]:
            i -= 1
            continue
        nodes += 1
        if nodes > GF2_NODE_BUDGET:
            raise MinRankBoundError(floor - 1, f"GF(2) search past {GF2_NODE_BUDGET} nodes")
        del basis[kept[i]:]
        r = todo[i].pop()
        if r:
            basis.append((r & -r, r))
        if len(basis) >= best:
            continue
        if i == n - 1:
            best = len(basis)
            continue
        i += 1
        kept[i] = len(basis)
        r, e = rows[i], 1 << i
        for p, b in basis:
            if r & p:
                r ^= b
            if e & p:
                e ^= b
        todo[i] = [r ^ e, r]  # d = 0, then d = 1
    return best if best <= ceiling else None


def _sweep(g: SimpleGraph, q: int, floor: int, ceiling: int, vertex_budget: int) -> int | None:
    """mr(GF(q), g), the least k in floor..ceiling at which g is a member,
    or None when there is none and ceiling < n; floor is a lower bound on it."""
    for k in range(floor, ceiling + 1):
        try:
            if member(g, q, k, vertex_budget=vertex_budget)[0]:
                return k
        except VertexBudgetError as exc:
            raise MinRankBoundError(k - 1, str(exc)) from exc
    if ceiling < g.n:
        return None
    raise InvariantError("sweep refused k = n, but every n-vertex graph has mr <= n")


def min_rank(g: SimpleGraph, q: int, max_k: int | None = None,
             vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """Smallest k with mr(GF(q), g) <= k: the sum of mr over g's connected
    parts, each searched from its zero forcing bound by ``_gf2_min_rank``
    over GF(2), which ``vertex_budget`` does not limit, or else ``_sweep``.
    A part on n vertices whose bound is n - 1 (a path, say) has mr = n - 1
    over every field and is answered without a search, so no budget
    refuses it.

    Raises MinRankBoundError when a part passes its ceiling (max_k less the
    mr of the parts before it and the bounds of those after it), the
    pattern vertex budget or the GF(2) node budget.  Its lower bound adds
    those mr and bounds to the part's, so it is at least the zero forcing
    bound minus one even when max_k is below it.
    """
    comps = [c for c in _components(g) if len(c) > 1]
    parts = [g] if len(comps) == 1 else [g.induced(c) for c in comps]
    floors = [_rank_lower_bound(h) for h in parts]
    cap = g.n if max_k is None else max_k
    done, ahead = 0, sum(floors)
    for h, floor in zip(parts, floors):
        ahead -= floor
        ceiling = min(h.n, cap - done - ahead)
        if floor == h.n - 1 <= ceiling:
            # 1 on every edge and -deg(v) on the diagonal sends the all-ones
            # vector to 0, so mr <= n - 1 over every field: no search
            done += floor
            continue
        try:
            mr = (_gf2_min_rank(h, floor, ceiling) if q == 2
                  else _sweep(h, q, floor, ceiling, vertex_budget))
        except MinRankBoundError as exc:
            raise MinRankBoundError(done + exc.lower_bound + ahead, exc.reason) from exc
        if mr is None:
            raise MinRankBoundError(done + max(ceiling, floor - 1) + ahead,
                                    f"capped at {max_k}")
        done += mr
    return done


def multipartite_bound_check(parts, q: int) -> bool:
    """Whether the complete multipartite graph on these parts has mr <= 3;
    VertexBudgetError, not no, when the k = 3 patterns are over budget."""
    parts = list(parts)
    if not parts:
        raise ValueError("at least one part required")
    g = SimpleGraph.complete_multipartite(parts)
    return member(g, q, 3)[0]
