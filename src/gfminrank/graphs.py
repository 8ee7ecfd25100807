"""Graph value types and utilities: loop-free and looped graphs with
bit-packed adjacency rows (one edge iterator and one relabelling serve
both), graph6 parsing/emission, complements, one-pass twin reduction by
grouping equal neighbourhoods, blowups of looped patterns (a complete
multipartite graph is the blowup of a loopless complete pattern),
backtracking isomorphism for desk-scale graphs, and a canonical form.

canonical_form(g) is g relabelled by the least leaf of its
individualisation-refinement tree (McKay and Piperno, "Practical graph
isomorphism, II", 2014): each node refines an ordered partition to an
equitable one by neighbour counts per cell, then branches on the first
non-singleton cell.  Equal keys mean isomorphic graphs.  A node tries one
vertex per twin class of that cell (N(u) = N(w) or N[u] = N[w]): swapping
two twins is an automorphism fixing every vertex individualised so far, so
the subtrees it skips give the same leaves.  There is no other pruning, so
are_isomorphic stays the tool for large pattern graphs, whose automorphism
groups make the unpruned tree too big.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


def _check_rows(n: int, rows, allow_loops: bool) -> tuple[int, ...]:
    rows = tuple(int(r) for r in rows)
    if len(rows) != n:
        raise ValueError("adjacency row count does not match n")
    full = (1 << n) - 1
    for i, r in enumerate(rows):
        if r & ~full:
            raise ValueError("adjacency bits outside vertex range")
        if not allow_loops and (r >> i) & 1:
            raise ValueError(f"loop stored in adjacency at vertex {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if ((rows[i] >> j) & 1) != ((rows[j] >> i) & 1):
                raise ValueError("adjacency is not symmetric")
    return rows


def _edge_rows(n: int, edges) -> list[int]:
    """Adjacency rows of an edge list; a loop (u, u) is a ValueError."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError("simple graphs have no loops")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _row_edges(rows):
    """Edges (u, v), u < v, of bit-packed adjacency rows."""
    for u, r in enumerate(rows):
        m = r >> (u + 1)
        v = u + 1
        while m:
            if m & 1:
                yield (u, v)
            m >>= 1
            v += 1


def _relabel_mask(mask: int, perm) -> int:
    """The mask of the images perm[v] of the vertices v set in mask (perm
    is a sequence or a dict defined on those vertices)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _induced_rows(rows, verts) -> list[int]:
    """Rows of the subgraph induced on the distinct vertices verts, with
    verts[i] becoming vertex i."""
    pos = {v: i for i, v in enumerate(verts)}
    keep = sum(1 << v for v in verts)
    return [_relabel_mask(rows[v] & keep, pos) for v in verts]


def _relabel_rows(rows, perm) -> list[int]:
    out = [0] * len(rows)
    for u, r in enumerate(rows):
        out[perm[u]] = _relabel_mask(r, perm)
    return out


class SimpleGraph:
    """Loop-free undirected graph on vertices 0..n-1, rows as bitmasks."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = _check_rows(n, rows, allow_loops=False)

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, [0] * n)

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        return cls(n, _edge_rows(n, edges))

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << i) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "SimpleGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_multipartite(cls, sizes) -> "SimpleGraph":
        sizes = list(sizes)
        return blow_up(cls.complete(len(sizes)).with_loops(), sizes)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return bin(self.rows[v]).count("1")

    def edges(self):
        return _row_edges(self.rows)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.rows[v]]

    def induced(self, verts) -> "SimpleGraph":
        verts = list(verts)
        return SimpleGraph(len(verts), _induced_rows(self.rows, verts))

    def relabel(self, perm) -> "SimpleGraph":
        """perm[i] is the new label of vertex i."""
        return SimpleGraph(self.n, _relabel_rows(self.rows, perm))

    def complement(self) -> "SimpleGraph":
        full = (1 << self.n) - 1
        return SimpleGraph(self.n, [(~r & full) & ~(1 << i) for i, r in enumerate(self.rows)])

    def add_isolated(self, t: int) -> "SimpleGraph":
        return SimpleGraph(self.n + t, list(self.rows) + [0] * t)

    def disjoint_union(self, other: "SimpleGraph") -> "SimpleGraph":
        rows = list(self.rows) + [r << self.n for r in other.rows]
        return SimpleGraph(self.n + other.n, rows)

    def with_loops(self, loops: int = 0) -> "LoopedGraph":
        return LoopedGraph(self.n, self.rows, loops)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimpleGraph)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n}, edges={list(self.edges())})"


class LoopedGraph:
    """Undirected graph with per-vertex loop flags kept apart from adjacency."""

    __slots__ = ("n", "rows", "loops")

    def __init__(self, n: int, rows, loops: int):
        self.n = n
        self.rows = _check_rows(n, rows, allow_loops=False)
        loops = int(loops)
        if loops & ~((1 << n) - 1):
            raise ValueError("loop bits outside vertex range")
        self.loops = loops

    @classmethod
    def from_parts(cls, n: int, edges, looped) -> "LoopedGraph":
        return cls(n, _edge_rows(n, edges), sum(1 << v for v in set(looped)))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def has_loop(self, v: int) -> bool:
        return bool((self.loops >> v) & 1)

    def degree(self, v: int) -> int:
        """Neighbor count plus one if looped (the filled-vertex convention)."""
        return bin(self.rows[v]).count("1") + ((self.loops >> v) & 1)

    def looped_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.has_loop(v)]

    def nonlooped_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.has_loop(v)]

    def edges(self):
        return _row_edges(self.rows)

    def simple(self) -> SimpleGraph:
        return SimpleGraph(self.n, self.rows)

    def complement(self) -> "LoopedGraph":
        full = (1 << self.n) - 1
        rows = [(~r & full) & ~(1 << i) for i, r in enumerate(self.rows)]
        return LoopedGraph(self.n, rows, ~self.loops & full)

    def relabel(self, perm) -> "LoopedGraph":
        """perm[i] is the new label of vertex i."""
        return LoopedGraph(self.n, _relabel_rows(self.rows, perm),
                           _relabel_mask(self.loops, perm))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LoopedGraph) and self.n == other.n
                and self.rows == other.rows and self.loops == other.loops)

    def __hash__(self):
        return hash((self.n, self.rows, self.loops))

    def __repr__(self) -> str:
        return (f"LoopedGraph({self.n}, edges={list(self.edges())}, "
                f"loops={self.looped_vertices()})")


# -- graph6 ------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_decode_size(data: bytes) -> tuple[int, int]:
    if not data:
        raise ValueError("empty graph6 input")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        return n, 4
    if len(data) < 8:
        raise ValueError("truncated graph6 size field")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, 8


def _g6_encode_size(n: int) -> bytes:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        parts = [126, 126]
        for shift in range(30, -1, -6):
            parts.append(((n >> shift) & 63) + 63)
        return bytes(parts)
    raise ValueError("vertex count too large for graph6")


def parse_graph6(text: str | bytes) -> SimpleGraph:
    """Parse one graph6 line (optional >>graph6<< header allowed)."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise ValueError("empty graph6 input")
    data = s.encode("ascii")
    for b in data:
        if b < 63 or b > 126:
            raise ValueError(f"graph6 byte {b} out of range")
    n, at = _g6_decode_size(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[at:]
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = 0
    for b in body:
        bits = (bits << 6) | (b - 63)
    pad = 6 * need - nbits
    if pad and (bits & ((1 << pad) - 1)):
        raise ValueError("graph6 padding bits are not zero")
    bits >>= pad
    rows = [0] * n
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos -= 1
    return SimpleGraph(n, rows)


def emit_graph6(g: SimpleGraph) -> str:
    n = g.n
    out = bytearray(_g6_encode_size(n))
    bits = 0
    nbits = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            bits = (bits << 1) | (1 if g.has_edge(i, j) else 0)
    pad = (6 - nbits % 6) % 6
    bits <<= pad
    for shift in range(nbits + pad - 6, -1, -6):
        out.append(((bits >> shift) & 63) + 63)
    return out.decode("ascii")


# -- looped-graph serialisation ------------------------------------------------

def looped_to_json(g: LoopedGraph) -> dict:
    return {
        "n": g.n,
        "loops": g.looped_vertices(),
        "edges": [list(e) for e in g.edges()],
    }


def looped_from_json(obj: dict) -> LoopedGraph:
    return LoopedGraph.from_parts(int(obj["n"]), [tuple(e) for e in obj["edges"]],
                                  [int(v) for v in obj["loops"]])


def to_dot(g: LoopedGraph | SimpleGraph, name: str = "G") -> str:
    """DOT output; looped vertices are drawn filled, nonlooped empty."""
    if isinstance(g, SimpleGraph):
        g = g.with_loops(0)
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(g.n):
        if g.has_loop(v):
            lines.append(f"  {v} [style=filled, fillcolor=black, fontcolor=white];")
        else:
            lines.append(f"  {v} [style=filled, fillcolor=white];")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)


# -- twin reduction ------------------------------------------------------------

class ClassStatus(enum.Enum):
    LOOPED = "looped"        # class is a clique of size >= 2
    NONLOOPED = "nonlooped"  # class is an independent set of size >= 2
    FREE = "free"            # singleton


@dataclass(frozen=True)
class TwinReduction:
    """Fixpoint of merging independent and true twins of a simple graph."""

    classes: tuple[tuple[int, ...], ...]
    statuses: tuple[ClassStatus, ...]
    quotient: LoopedGraph

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def twin_reduce(g: SimpleGraph) -> TwinReduction:
    """Merge twin vertices until no pair remains, in one pass.

    True twins (equal closed neighbourhoods N[v]) form the LOOPED classes;
    the other vertices are grouped by open neighbourhood N(v) into
    NONLOOPED classes and FREE singletons.  Classes are ordered by least
    vertex, and the quotient joins two classes whose representatives are
    adjacent.  One pass reaches the fixpoint of pairwise merging because
    no vertex has twins of both kinds (if u has an independent twin v and
    a true twin w, then w ~ u gives w ~ v, so v is in N[w] = N[u],
    contradicting v !~ u), and merging twins creates no new twins: classes
    of the quotient are twins there exactly when their members are twins
    in g.
    """
    rows = g.rows
    closed: dict[int, list[int]] = {}
    for v, r in enumerate(rows):
        closed.setdefault(r | 1 << v, []).append(v)
    groups: list[tuple[list[int], ClassStatus]] = []
    open_: dict[int, list[int]] = {}
    for members in closed.values():
        if len(members) > 1:
            groups.append((members, ClassStatus.LOOPED))
        else:
            open_.setdefault(rows[members[0]], []).append(members[0])
    for members in open_.values():
        groups.append((members, ClassStatus.NONLOOPED if len(members) > 1
                       else ClassStatus.FREE))
    groups.sort(key=lambda group: group[0][0])

    quotient_rows = _induced_rows(rows, [members[0] for members, _ in groups])
    loops = sum(1 << i for i, (_, st) in enumerate(groups) if st is ClassStatus.LOOPED)
    return TwinReduction(tuple(tuple(members) for members, _ in groups),
                         tuple(st for _, st in groups),
                         LoopedGraph(len(groups), quotient_rows, loops))


def blow_up(pattern: LoopedGraph, sizes) -> SimpleGraph:
    """Expand a looped pattern: looped vertices become cliques, nonlooped
    vertices independent sets, edges become complete joins."""
    sizes = list(sizes)
    if len(sizes) != pattern.n:
        raise ValueError("one size per pattern vertex required")
    blocks, at = [], 0
    for s in sizes:
        blocks.append(range(at, at + s))
        at += s
    masks = [((1 << len(b)) - 1) << b.start for b in blocks]
    rows = []
    for u, block in enumerate(blocks):
        joined = pattern.rows[u] | (pattern.loops & 1 << u)
        nbrs = sum(m for w, m in enumerate(masks) if joined >> w & 1)
        rows.extend(nbrs & ~(1 << v) for v in block)
    return SimpleGraph(at, rows)


# -- isomorphism ----------------------------------------------------------------

class IsoBudgetError(Exception):
    """Raised when the isomorphism search exceeds its node budget."""


def _refined_colors(g: LoopedGraph) -> list[int]:
    """Vertex colors from iterated neighborhood refinement, loops included."""
    colors = [(g.has_loop(v), bin(g.rows[v]).count("1")) for v in range(g.n)]
    palette = {c: i for i, c in enumerate(sorted(set(colors)))}
    cur = [palette[c] for c in colors]
    for _ in range(g.n):
        sigs = []
        for v in range(g.n):
            nbr = sorted(cur[u] for u in range(g.n) if g.has_edge(v, u))
            sigs.append((cur[v], tuple(nbr)))
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        nxt = [palette[s] for s in sigs]
        if nxt == cur:
            break
        cur = nxt
    return cur


def _color_histogram(colors: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for c in colors:
        out[c] = out.get(c, 0) + 1
    return out


def are_isomorphic(g: LoopedGraph | SimpleGraph, h: LoopedGraph | SimpleGraph,
                   node_budget: int = 2_000_000) -> bool:
    """Loop-respecting graph isomorphism by backtracking.

    Candidates are pruned by iterated color refinement and each vertex is
    matched after one of its neighbors whenever possible, which keeps the
    search shallow on regular graphs.  Intended for desk-scale inputs; the
    search aborts with IsoBudgetError after node_budget assignments.
    """
    if isinstance(g, SimpleGraph):
        g = g.with_loops(0)
    if isinstance(h, SimpleGraph):
        h = h.with_loops(0)
    if g.n != h.n:
        return False
    gc = _refined_colors(g)
    hc = _refined_colors(h)
    if _color_histogram(gc) != _color_histogram(hc):
        return False

    # order: rarest color first, then prefer vertices adjacent to the mapped set
    order: list[int] = []
    placed = 0
    hist = _color_histogram(gc)
    while len(order) < g.n:
        best = None
        for v in range(g.n):
            if (placed >> v) & 1:
                continue
            touches = any(g.has_edge(v, w) for w in order)
            key = (not touches, hist[gc[v]], v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        placed |= 1 << best[1]

    by_color: dict[int, list[int]] = {}
    for u in range(h.n):
        by_color.setdefault(hc[u], []).append(u)
    mapped = [-1] * g.n
    used = 0
    nodes = 0

    def backtrack(depth: int) -> bool:
        nonlocal used, nodes
        if depth == g.n:
            return True
        v = order[depth]
        for u in by_color.get(gc[v], ()):
            nodes += 1
            if nodes > node_budget:
                raise IsoBudgetError(f"isomorphism search exceeded {node_budget} nodes")
            if (used >> u) & 1:
                continue
            ok = True
            for d2 in range(depth):
                w = order[d2]
                if g.has_edge(v, w) != h.has_edge(u, mapped[w]):
                    ok = False
                    break
            if not ok:
                continue
            mapped[v] = u
            used |= 1 << u
            if backtrack(depth + 1):
                return True
            used &= ~(1 << u)
            mapped[v] = -1
        return False

    return backtrack(0)


# -- canonical form ----------------------------------------------------------------

def _refine(rows, cells: list[int], splitters: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition (cells as vertex masks).

    Each splitter W splits every cell by the number of neighbours its
    vertices have in W; the parts replace the cell in increasing count
    order and become splitters themselves.  Every step depends only on the
    counts and on the positions of cells, never on vertex labels.  The
    result is equitable when the partition already was equitable against
    every cell that is not a splitter: the caller passes the whole vertex
    set at the root, and {v} after individualising v in an equitable
    partition (counts into the rest of v's old cell are the old counts
    minus those into {v})."""
    n = len(rows)
    queue = list(splitters)
    for w in queue:  # grows while it is walked
        if len(cells) == n:
            break
        out = []
        for c in cells:
            if not c & (c - 1):
                out.append(c)
                continue
            groups: dict[int, int] = {}
            m = c
            while m:
                low = m & -m
                k = (rows[low.bit_length() - 1] & w).bit_count()
                groups[k] = groups.get(k, 0) | low
                m ^= low
            if len(groups) == 1:
                out.append(c)
            else:
                parts = [groups[k] for k in sorted(groups)]
                out.extend(parts)
                queue.extend(parts)
        cells = out
    return cells


def canonical_form(g: SimpleGraph, node_budget: int = 2_000_000) -> SimpleGraph:
    """g relabelled by the least leaf of its individualisation-refinement
    tree, so canonical_form(g) == canonical_form(h) exactly when g and h
    are isomorphic.

    A tree node is an ordered partition made equitable by _refine; the root
    starts from one cell.  A node branches on its first non-singleton cell,
    individualising each choice of vertex v (the cell becomes {v} followed
    by the rest).  A leaf is a discrete partition; it orders the vertices,
    and its certificate is the graph relabelled in that order.  The key is
    the least certificate over all leaves, which relabelling g cannot
    change.

    Only one vertex per twin class in the branching cell is tried.  Two
    twins u and w (N(u) = N(w) or N[u] = N[w]) in that cell are not yet
    individualised, so swapping them is an automorphism of g that fixes
    every individualised vertex; it maps the subtree under u onto the
    subtree under w, leaf for leaf with equal certificates, so skipping w
    loses no certificate.  Past node_budget tree nodes the search raises
    IsoBudgetError.
    """
    n, rows = g.n, g.rows
    # least vertex of each twin class; no vertex has twins of both kinds
    # (see twin_reduce), so the two lookups never disagree about a class
    closed: dict[int, int] = {}
    open_: dict[int, int] = {}
    for v, r in enumerate(rows):
        closed.setdefault(r | 1 << v, v)
        open_.setdefault(r, v)
    twin = [min(closed[r | 1 << v], open_[r]) for v, r in enumerate(rows)]
    best: tuple[int, ...] | None = None
    nodes = 0

    def search(cells: list[int], splitters: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise IsoBudgetError(f"canonical form search exceeded {node_budget} nodes")
        cells = _refine(rows, cells, splitters)
        for i, c in enumerate(cells):
            if c & (c - 1):
                break
        else:
            pos = [0] * n
            for i, c in enumerate(cells):
                pos[c.bit_length() - 1] = i
            cert = tuple(_relabel_mask(rows[c.bit_length() - 1], pos) for c in cells)
            if best is None or cert < best:
                best = cert
            return
        tried = set()
        m = c
        while m:
            low = m & -m
            m ^= low
            t = twin[low.bit_length() - 1]
            if t not in tried:
                tried.add(t)
                search(cells[:i] + [low, c ^ low] + cells[i + 1:], [low])

    search([(1 << n) - 1] if n else [], [(1 << n) - 1])
    return SimpleGraph(n, best)
