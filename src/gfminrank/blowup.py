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
branched on is pruned by symmetry, to one vertex per orbit of a group of
isometries of the pattern's form, computed from explicit generators (see
``patterns.isometry_roots``).
Every witness is re-verified against the raw blowup definition before it
is returned.

Over q > 2, ``min_rank`` sweeps k upward from the zero forcing bound
mr >= n - Z(G), which holds over every field (AIM Minimum Rank-Special
Graphs Work Group, LAA 428, 2008), so no k below it is ever searched.  Z is
computed exactly per connected component of up to 12 vertices (or on the
twin quotient of a larger one), by trying vertex sets of each size with
bitmask rows.

Over GF(2), ``min_rank`` uses no patterns.  Every nonzero off-diagonal
entry is 1 there, so the matrices with graph G are exactly A(G) + D for the
2^n diagonals D with 0/1 entries, and mr is the least rank among them.
``_gf2_min_rank`` finds it by a row-by-row branch and bound over D on
bitset rows, which stops once it meets the zero forcing bound and refuses
past a fixed node budget.  It shares no code with the oracle, which stays
an independent check, and the pattern vertex budget does not limit it.
``member`` still decides GF(2) by patterns, since it returns a witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import ClassStatus, LoopedGraph, SimpleGraph, _components, _least_twins, twin_reduce
from .patterns import DEFAULT_VERTEX_BUDGET, Pattern, VertexBudgetError, generate


class MinRankBoundError(Exception):
    """min_rank stopped before finding the minimum rank.

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


def is_blowup(g: SimpleGraph, h: LoopedGraph | Pattern) -> BlowupWitness | None:
    """A witness that g is a blowup of h (plus an isolated vertex), or None.

    ``h`` is a looped graph, searched in full, or a Pattern, which keeps its
    isometry roots.  For a Pattern the first class branched on tries only the
    root of each isometry orbit, and a spread there must meet the roots: an
    isometry carrying any witness's image vertex to the root of its orbit
    gives another witness.
    """
    if isinstance(h, Pattern):
        roots, h = h.roots, h.graph
    else:
        roots = (1 << h.n) - 1
    if not any(g.rows):
        return BlowupWitness({})
    red = twin_reduce(g)
    sizes = red.class_sizes()
    q_adj = red.quotient.rows
    rows, loops = h.rows, h.loops
    full = (1 << h.n) - 1
    nonloops = full & ~loops
    # per class: where a single image may go (loop status matching the
    # class), and where the members of a spread go (the opposite status)
    single, spread = [], []
    for st in red.statuses:
        if st is ClassStatus.FREE:
            single.append(full)
            spread.append(0)
        else:
            looped = st is ClassStatus.LOOPED
            single.append(loops if looped else nonloops)
            spread.append(nonloops if looped else loops)
    nclasses = len(sizes)
    images: list[tuple[int, ...]] = [()] * nclasses
    # ties on the candidate count go to the larger class, then the lower index
    rank = [0] * nclasses
    for r, c in enumerate(sorted(range(nclasses), key=lambda c: (-sizes[c], c))):
        rank[c] = r
    no_class = (h.n + 1) * nclasses

    def narrow(adj: int, group: tuple[int, ...], doms: dict[int, int]):
        """The domains once a class with quotient row adj takes group, and
        the class to branch on next (fewest single candidates); None as soon
        as a class is left with no single and too few spread candidates."""
        joined = apart = -1
        for v in group:
            joined &= rows[v]
            apart &= ~(rows[v] | 1 << v)
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
        looped = red.statuses[cls] is ClassStatus.LOOPED

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

    def search(doms: dict[int, int], cls: int, roots: int) -> bool:
        """Place cls, then the rest of doms (which it owns), or report failure."""
        dom = doms.pop(cls)
        singles = []
        cand = dom & single[cls] & roots
        while cand:
            low = cand & -cand
            cand ^= low
            singles.append((low.bit_length() - 1,))
        groups = singles
        if sizes[cls] >= 2:
            groups = itertools.chain(singles, spreads(cls, dom & spread[cls], roots))
        for group in groups:
            step = narrow(q_adj[cls], group, doms)
            if step is not None and (not doms or search(*step, full)):
                images[cls] = group
                return True
        return False

    # all but the isolated class, whose rows in g are empty (not just in the quotient)
    first = narrow(0, (), {c: single[c] | spread[c] for c in range(nclasses)
                           if g.rows[red.classes[c][0]]})
    if first is None or not search(*first, roots):
        return None

    assignment: dict[int, int] = {}
    for members, group in zip(red.classes, images):  # the isolated class has ()
        if len(group) == 1:
            group = group * len(members)
        assignment.update(zip(members, group))
    witness = BlowupWitness(assignment)
    if not verify_blowup(g, h, assignment):
        raise InvariantError("witness failed the raw blowup definition")
    return witness


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


# components (or their twin quotients) searched for Z; a larger one adds 0
_ZERO_FORCING_MAX_N = 12


def _forces_all(rows, black: int, full: int) -> bool:
    """Whether black spreads to every vertex by zero forcing: a black vertex
    with exactly one white neighbour turns that neighbour black."""
    while black != full:
        grown = b = black
        while b:
            low = b & -b
            b ^= low
            white = rows[low.bit_length() - 1] & ~grown
            if not white & (white - 1):
                grown |= white
        if grown == black:
            return False
        black = grown
    return True


def _zero_forcing_number(h: SimpleGraph) -> int:
    """Z(h), the size of a smallest zero forcing set of h, by trying vertex
    sets of each size upward.

    The search starts at max(min degree, n - c) for the c twin classes of
    _least_twins (no vertex has twins of both kinds, see twin_reduce): the
    first force needs a black vertex with all but one neighbour black, and
    mr(h) <= c (1 on every edge, on the diagonal of true-twin classes and
    nowhere else gives twins equal rows), so Z >= n - mr >= n - c.
    """
    n, rows = h.n, h.rows
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    start = max(min(r.bit_count() for r in rows), n - len(set(_least_twins(rows))))
    for size in range(start, n):
        for black in itertools.combinations(bits, size):
            if _forces_all(rows, sum(black), full):
                return size
    return n  # the whole vertex set


def _rank_lower_bound(g: SimpleGraph) -> int:
    """The zero forcing bound, a field-independent minimum-rank lower bound.

    mr_F(h) >= |h| - Z(h) over every field F (AIM Minimum Rank-Special
    Graphs Work Group, LAA 428, 2008), and both mr and Z add over connected
    components, so the bound sums |h| - Z(h) over the components h with two
    or more vertices.  A component on more than 12 vertices is replaced by
    its twin quotient, an induced subgraph (one vertex per class) whose mr
    is at most the component's, and adds 0 when that is still too large.
    The bound dominates the induced-path bound: for an induced path P,
    the other vertices and one end of P force P one vertex at a time.
    """
    bound = 0
    for comp in _components(g):
        if len(comp) < 2:
            continue
        h = g if len(comp) == g.n else g.induced(comp)
        if h.n > _ZERO_FORCING_MAX_N:
            h = twin_reduce(h).quotient.simple()
            if h.n > _ZERO_FORCING_MAX_N:
                continue
        bound += h.n - _zero_forcing_number(h)
    return bound


# search nodes (row choices) before _gf2_min_rank refuses, as for the oracle
GF2_NODE_BUDGET = 4 * 10 ** 6


def _gf2_min_rank(g: SimpleGraph, max_k: int | None = None) -> int:
    """mr(GF(2), g) as the least rank of A(g) + D over 0/1 diagonals D.

    Every nonzero off-diagonal entry over GF(2) is 1, so these are all the
    matrices with graph g.  Depth i chooses row i's diagonal bit; the row is
    reduced against an echelon basis of rows 0..i-1 (pivot = lowest set
    bit), whose size bounds the rank of every matrix below the node, so a
    branch is cut once it reaches the least rank found.  The search stops
    at the zero forcing bound (at least 1 on a graph with an edge), and
    refuses past GF2_NODE_BUDGET nodes.
    """
    n, rows = g.n, g.rows
    if not any(rows):
        return 0  # the zero matrix
    floor = max(_rank_lower_bound(g), 1)
    ceiling = n if max_k is None else min(max_k, n)
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
    if best > ceiling:
        raise MinRankBoundError(max(max_k, floor - 1), f"GF(2) search capped at {max_k}")
    return best


def min_rank(g: SimpleGraph, q: int, max_k: int | None = None,
             vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """Smallest k with mr(GF(q), g) <= k.

    Over GF(2) this is ``_gf2_min_rank``, a search over the diagonal that
    ``vertex_budget`` does not limit.  Over larger fields k sweeps upward
    from the zero forcing bound (``_rank_lower_bound``), so it never has to
    refuse a k that the bound already rules out.  Raises MinRankBoundError
    when max_k, the pattern vertex budget or the GF(2) node budget is
    exhausted first; the exception carries the established lower bound,
    which is at least the zero forcing bound minus one even when max_k is
    below it.
    """
    if q == 2:
        return _gf2_min_rank(g, max_k)
    start = _rank_lower_bound(g)
    ceiling = g.n if max_k is None else min(max_k, g.n)
    for k in range(start, ceiling + 1):
        try:
            if member(g, q, k, vertex_budget=vertex_budget)[0]:
                return k
        except VertexBudgetError as exc:
            raise MinRankBoundError(k - 1, str(exc)) from exc
    if ceiling < g.n:
        raise MinRankBoundError(max(max_k, start - 1), f"k sweep capped at {max_k}")
    raise InvariantError("sweep refused k = n, but every n-vertex graph has mr <= n")


def multipartite_bound_check(parts, q: int) -> bool:
    """Whether the complete multipartite graph on these parts has mr <= 3;
    VertexBudgetError, not no, when the k = 3 patterns are over budget."""
    parts = list(parts)
    if not parts:
        raise ValueError("at least one part required")
    g = SimpleGraph.complete_multipartite(parts)
    return member(g, q, 3)[0]
