"""Graph value types and utilities: loop-free and looped graphs with
bit-packed adjacency rows (one edge iterator and one relabelling serve
both), graph6 read and written in one pass over the upper triangle
(column by column, six bits to a byte: time linear in the line, no
n(n-1)/2-bit integer), complements, one-pass twin reduction by grouping
equal neighbourhoods, blowups of looped patterns (a complete
multipartite graph is the blowup of a loopless complete pattern), and
a canonical form of loop-free and looped graphs, whose keys decide
isomorphism.

Rows are checked on entry and trusted inside: SimpleGraph(n, rows) and
LoopedGraph(n, rows, loops) check each row for range, then for a loop,
then the rows for symmetry.  Every graph the library derives is symmetric
by construction and built unchecked by the private _trusted classmethods:
from_edges, from_parts, empty, complete, path, induced, relabel,
complement, add_isolated, with_loops, simple, blow_up, parse_graph6, the
twin_reduce quotient, canonical keys and patterns.pattern_graph.  Each
checks its own arguments (edges, permutations, vertices, loops, sizes).
looped_to_json and to_dot join the pieces of looped_json_chunks and
dot_chunks, which make their edge text a few adjacency rows at a time:
the rows' set bits pick the neighbours' names from a list made once per
graph, and a str.join writes each row's edges, so no Python object is
made per edge.  A writer that takes the pieces as they come
(cli patterns does) never holds a whole graph's text.

canonical_form(g) is g relabelled by the least leaf of its
individualisation-refinement tree (McKay and Piperno, "Practical graph
isomorphism, II", 2014): each node refines an ordered partition to an
equitable one by neighbour counts per cell, then branches on the first
non-singleton cell.  The root is the cells (nonlooped, looped), so looped
graphs take the same search.  Equal keys mean isomorphic graphs, and
are_isomorphic compares keys.  The search skips every subtree that an
automorphism fixing the vertices individualised so far maps onto a
searched one: that subtree repeats the searched one's certificates.  Such
automorphisms are the swaps of two twins in the branching cell, known in
advance, and the maps between leaves with equal certificates, found on the
way; these end the current subtree, and prune later branches by orbits.
Together they generate g's automorphism group, and _canonical returns
them with the key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress

import numpy as np


def _check_rows(n: int, rows) -> tuple[int, ...]:
    """rows as a tuple of ints, once they are checked to be the adjacency
    rows of a loop-free undirected graph on n vertices."""
    rows = tuple(map(int, rows))
    if len(rows) != n:
        raise ValueError("adjacency row count does not match n")
    full = (1 << n) - 1
    for i, r in enumerate(rows):
        if r & ~full:
            raise ValueError("adjacency bits outside vertex range")
        if r >> i & 1:
            raise ValueError(f"loop stored in adjacency at vertex {i}")
    # row i's binary digits, lowest first, at i*n..i*n+n-1: column j is
    # bits[j::n], and the matrix is symmetric when each column is its row
    bits = "".join([bin(r)[:1:-1].ljust(n, "0") for r in rows])
    if any(bits[j::n] != bits[j * n:j * n + n] for j in range(n)):
        raise ValueError("adjacency is not symmetric")
    return rows


def _loop_mask(n: int, loops) -> int:
    """loops as an int, once it is checked to hold only vertices 0..n-1."""
    loops = int(loops)
    if loops & ~((1 << n) - 1):
        raise ValueError("loop bits outside vertex range")
    return loops


def _edge_rows(n: int, edges) -> list[int]:
    """Adjacency rows of an edge list; a loop (u, u) or an endpoint
    outside 0..n-1 is a ValueError."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
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


def _component_masks(rows) -> list[int]:
    """The vertex sets of the connected components of the graph with these
    adjacency rows, as bitmasks, by least vertex."""
    comps = []
    rest = (1 << len(rows)) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= rows[low.bit_length() - 1]
            frontier = reach & ~comp
            comp |= frontier
        rest ^= comp
        comps.append(comp)
    return comps


def _components(g: SimpleGraph) -> list[list[int]]:
    """The sorted vertex lists of g's connected components, by least vertex."""
    comps = []
    for m in _component_masks(g.rows):
        comp = []
        while m:
            low = m & -m
            m ^= low
            comp.append(low.bit_length() - 1)
        comps.append(comp)
    return comps


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
        self.rows = _check_rows(n, rows)

    @classmethod
    def _trusted(cls, n: int, rows) -> "SimpleGraph":
        """A graph on rows that are symmetric, loop-free and in range by
        construction, which _check_rows is not run on."""
        g = cls.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        return g

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls.from_edges(n, ())

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        return cls._trusted(n, _edge_rows(n, edges))

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls._trusted(n, [full ^ (1 << i) for i in range(n)])

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
        return self.rows[v].bit_count()

    def edges(self):
        return _row_edges(self.rows)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.rows[v]]

    def induced(self, verts) -> "SimpleGraph":
        """The subgraph induced on the distinct vertices verts, verts[i]
        becoming vertex i."""
        verts = list(verts)
        if len(set(verts)) != len(verts) or not all(0 <= v < self.n for v in verts):
            raise ValueError(f"induced vertices are not distinct vertices in 0..{self.n - 1}")
        return SimpleGraph._trusted(len(verts), _induced_rows(self.rows, verts))

    def relabel(self, perm) -> "SimpleGraph":
        """perm[i] is the new label of vertex i."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabelling is not a permutation of 0..{self.n - 1}")
        return SimpleGraph._trusted(self.n, _relabel_rows(self.rows, perm))

    def complement(self) -> "SimpleGraph":
        full = (1 << self.n) - 1  # row i of the complete graph is full ^ 1 << i
        return SimpleGraph._trusted(self.n, [full ^ 1 << i ^ r for i, r in enumerate(self.rows)])

    def add_isolated(self, t: int) -> "SimpleGraph":
        if t < 0:
            raise ValueError("cannot add a negative number of vertices")
        return SimpleGraph._trusted(self.n + t, self.rows + (0,) * t)

    def with_loops(self, loops: int = 0) -> "LoopedGraph":
        return LoopedGraph._trusted(self.n, self.rows, _loop_mask(self.n, loops))

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
        self.rows = _check_rows(n, rows)
        self.loops = _loop_mask(n, loops)

    @classmethod
    def _trusted(cls, n: int, rows, loops: int) -> "LoopedGraph":
        """SimpleGraph._trusted with a loop mask inside 0..n-1."""
        g = cls.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        g.loops = loops
        return g

    @classmethod
    def from_parts(cls, n: int, edges, looped) -> "LoopedGraph":
        return SimpleGraph.from_edges(n, edges).with_loops(sum(1 << v for v in set(looped)))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def has_loop(self, v: int) -> bool:
        return bool((self.loops >> v) & 1)

    def degree(self, v: int) -> int:
        """Neighbor count plus one if looped (the filled-vertex convention)."""
        return self.rows[v].bit_count() + ((self.loops >> v) & 1)

    def looped_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.has_loop(v)]

    def nonlooped_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.has_loop(v)]

    def edges(self):
        return _row_edges(self.rows)

    def simple(self) -> SimpleGraph:
        return SimpleGraph._trusted(self.n, self.rows)

    def complement(self) -> "LoopedGraph":
        return self.simple().complement().with_loops(~self.loops & ((1 << self.n) - 1))

    def relabel(self, perm) -> "LoopedGraph":
        """perm[i] is the new label of vertex i."""
        return self.simple().relabel(perm).with_loops(_relabel_mask(self.loops, perm))

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
    """Parse one graph6 line (optional >>graph6<< header allowed).

    Non-ASCII input fails the 63..126 range check: text is checked as its
    UTF-8 bytes, a surrogate escape standing for the byte it escapes."""
    if isinstance(text, bytes):
        text = text.decode("ascii", "surrogateescape")
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise ValueError("empty graph6 input")
    try:
        data = s.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError as exc:  # a lone surrogate that escapes no byte
        raise ValueError(f"graph6 character U+{ord(s[exc.start]):04X} out of range") from None
    for b in data:
        if b < 63 or b > 126:
            raise ValueError(f"graph6 byte {b} out of range")
    n, at = _g6_decode_size(data)
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[at:]
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    rows = [0] * n
    i, j = 0, 1  # the pair of the next bit, column j of the upper triangle
    for b in body:
        b -= 63
        for bit in (32, 16, 8, 4, 2, 1):
            if j == n:
                if b & (2 * bit - 1):
                    raise ValueError("graph6 padding bits are not zero")
                break
            if b & bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return SimpleGraph._trusted(n, rows)  # each pair set both ways, never i == j


def emit_graph6(g: SimpleGraph) -> str:
    """The graph6 line of g: column j of the upper triangle is the j low
    bits of rows[j] in increasing i, read as reversed binary digits (the
    top bit 1 << j keeps the leading zeros), six bits to a byte."""
    bits = "".join([bin(r & ((1 << j) - 1) | 1 << j)[:2:-1] for j, r in enumerate(g.rows)])
    bits += "0" * (-len(bits) % 6)
    body = bytes(int(bits[a:a + 6], 2) + 63 for a in range(0, len(bits), 6))
    return (_g6_encode_size(g.n) + body).decode("ascii")


# -- looped-graph serialisation ------------------------------------------------

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _named(mask: int, names):
    """names[v] for the bits v set in mask, in increasing order; the
    reversed binary digits of mask select them, so no Python object is
    made per bit."""
    return compress(names, bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


# rows whose edges make one piece of text; from _BLOCK_TEXT_MIN vertices on,
# they are unpacked together with numpy, whose cost per call outweighs what
# it saves on fewer
_TEXT_ROWS = 32
_BLOCK_TEXT_MIN = 1024


def _neighbour_blocks(rows, names):
    """For each _TEXT_ROWS rows, the list of (u, the names of u's
    neighbours v > u in increasing order) over those rows u that have any.
    On _BLOCK_TEXT_MIN or more vertices, the rows are unpacked into one bit
    matrix, whose set bits above the diagonal pick the names in one
    gather; on fewer, each row's binary digits pick them (_named)."""
    n = len(rows)
    if n < _BLOCK_TEXT_MIN:
        for lo in range(0, n, _TEXT_ROWS):
            yield [(u, _named(r >> (u + 1), names[u + 1:]))
                   for u, r in enumerate(rows[lo:lo + _TEXT_ROWS], lo) if r >> (u + 1)]
        return
    width, named, cols = (n + 7) // 8, np.array(names, dtype=object), np.arange(n)
    for lo in range(0, n, _TEXT_ROWS):
        block = rows[lo:lo + _TEXT_ROWS]
        data = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in block]), np.uint8)
        bits = np.unpackbits(data.reshape(len(block), width), axis=1, count=n,
                             bitorder="little").view(bool)
        bits &= cols > np.arange(lo, lo + len(block))[:, None]  # v > u
        picked = named[np.flatnonzero(bits) % n].tolist()
        ends = np.cumsum(np.count_nonzero(bits, axis=1)).tolist()
        yield [(u, picked[start:end]) for u, start, end
               in zip(range(lo, lo + len(block)), [0] + ends, ends) if end > start]


def _edge_chunks(rows, names, left: str, right: str, sep: str, first: str = ""):
    """The text of the edges (u, v), u < v, in _row_edges order:
    left.format(u) + names[v] + right joined by sep and led by first, in
    one piece per _TEXT_ROWS rows that have any."""
    lead = first
    for block in _neighbour_blocks(rows, names):
        texts = []
        for u, picked in block:
            head = left.format(u)
            texts.append(head + (right + sep + head).join(picked) + right)
        if texts:
            texts[0] = lead + texts[0]
            yield sep.join(texts)
            lead = sep


def looped_json_chunks(g: LoopedGraph, **extra):
    """looped_to_json(g, **extra) in pieces: the head with the loops, the
    edges of _TEXT_ROWS rows at a time, then the tail."""
    names = list(map(str, range(g.n)))
    tail = json.dumps(extra)[1:-1]
    yield f'{{"n": {g.n}, "loops": [{", ".join(_named(g.loops, names))}], "edges": ['
    yield from _edge_chunks(g.rows, names, "[{}, ", "]", ", ")
    yield f']{", " + tail if tail else ""}}}'


def looped_to_json(g: LoopedGraph, **extra) -> str:
    """The JSON text of {"n": .., "loops": .., "edges": .., **extra}, byte
    for byte what json.dumps gives, for extra keys other than those
    three."""
    return "".join(looped_json_chunks(g, **extra))


def _json_vertex(x, what: str, n: int) -> int:
    """x, once it is checked to be an int (not a bool) in 0..n-1."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} {x!r} is not an integer")
    if not 0 <= x < n:
        raise ValueError(f"{what} {x} is outside 0..{n - 1}")
    return x


def _json_field(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"{key} is missing")
    return obj[key]


def _json_list(obj: dict, key: str) -> list:
    value = _json_field(obj, key)
    if not isinstance(value, list):
        raise ValueError(f"{key} {value!r} is not a list")
    return value


def looped_from_json(obj: dict) -> LoopedGraph:
    """The graph of a looped_to_json object.  n must be a nonnegative int,
    each edge a pair of ints and each loop an int, the vertices in 0..n-1
    (a bool is not an int here); anything else is a ValueError naming the
    field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{obj!r} is not a JSON object")
    n = _json_field(obj, "n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n {n!r} is not a nonnegative integer")
    edges = []
    for e in _json_list(obj, "edges"):
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"edge {e!r} is not a pair of vertices")
        edges.append(tuple(_json_vertex(v, f"edge {e!r} endpoint", n) for v in e))
    loops = [_json_vertex(v, "loop vertex", n) for v in _json_list(obj, "loops")]
    return LoopedGraph.from_parts(n, edges, loops)


def dot_chunks(g: LoopedGraph | SimpleGraph, name: str = "G"):
    """to_dot(g, name) in pieces: the head, one piece per vertex, the edges
    of _TEXT_ROWS rows at a time, then the closing brace; each piece after
    the first starts a new line."""
    if isinstance(g, SimpleGraph):
        g = g.with_loops(0)
    yield f"graph {name} {{\n  node [shape=circle];"
    for v in range(g.n):
        if g.has_loop(v):
            yield f"\n  {v} [style=filled, fillcolor=black, fontcolor=white];"
        else:
            yield f"\n  {v} [style=filled, fillcolor=white];"
    yield from _edge_chunks(g.rows, list(map(str, range(g.n))), "  {} -- ", ";", "\n", "\n")
    yield "\n}"


def to_dot(g: LoopedGraph | SimpleGraph, name: str = "G") -> str:
    """DOT output; looped vertices are drawn filled, nonlooped empty."""
    return "".join(dot_chunks(g, name))


# -- twin reduction ------------------------------------------------------------

@dataclass(frozen=True)
class TwinReduction:
    """Fixpoint of merging independent and true twins of a simple graph:
    the classes, and the quotient on them, whose looped vertices are the
    merged cliques.  A class of two or more members without a loop is a
    merged independent set, and a class of one is free."""

    classes: tuple[tuple[int, ...], ...]
    quotient: LoopedGraph

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def _least_twins(rows) -> list[int]:
    """Each vertex's least twin (N(u) = N(w) or N[u] = N[w]), the vertex
    itself when it has none smaller: the one grouping of vertices by
    neighbourhood.  A vertex never has twins of both kinds (see
    twin_reduce), so the smaller of its least open and least closed twin
    is its least twin."""
    closed: dict[int, int] = {}
    open_: dict[int, int] = {}
    for v, r in enumerate(rows):
        closed.setdefault(r | 1 << v, v)
        open_.setdefault(r, v)
    return [min(closed[r | 1 << v], open_[r]) for v, r in enumerate(rows)]


def twin_reduce(g: SimpleGraph) -> TwinReduction:
    """Merge twin vertices until no pair remains, in one pass.

    The classes are those of _least_twins, ordered by least vertex.  True
    twins (equal closed neighbourhoods N[v]) form the classes whose first
    two members are adjacent, which the quotient loops; independent twins
    (equal open neighbourhoods N(v)) form the other classes of two or more.
    The quotient joins two classes whose representatives are adjacent.
    One pass reaches the fixpoint of pairwise merging because no vertex
    has twins of both kinds (if u has an independent twin v and a true
    twin w, then w ~ u gives w ~ v, so v is in N[w] = N[u], contradicting
    v !~ u), and merging twins creates no new twins: classes of the
    quotient are twins there exactly when their members are twins in g.
    """
    rows = g.rows
    groups: dict[int, list[int]] = {}  # a class enters at its least vertex
    for v, t in enumerate(_least_twins(rows)):
        groups.setdefault(t, []).append(v)
    classes = tuple(map(tuple, groups.values()))
    loops = sum(1 << i for i, c in enumerate(classes) if len(c) > 1 and rows[c[0]] >> c[1] & 1)
    return TwinReduction(classes, LoopedGraph._trusted(
        len(classes), _induced_rows(rows, list(groups)), loops))


def blow_up(pattern: LoopedGraph, sizes) -> SimpleGraph:
    """Expand a looped pattern: looped vertices become cliques, nonlooped
    vertices independent sets, edges become complete joins."""
    sizes = list(sizes)
    if len(sizes) != pattern.n or not all(isinstance(s, int) and s >= 0 for s in sizes):
        raise ValueError("one nonnegative integer size per pattern vertex required")
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
    return SimpleGraph._trusted(at, rows)


# -- canonical form and isomorphism ------------------------------------------------

class IsoBudgetError(Exception):
    """Raised when the isomorphism search exceeds its node budget."""


def _refine(rows, cells: list[int], splitters: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition (cells as vertex masks).

    Each splitter W splits every cell by the number of neighbours its
    vertices have in W; the parts replace the cell in increasing count
    order and become splitters themselves.  Every step depends only on the
    counts and on the positions of cells, never on vertex labels.  The
    result is equitable when the partition already was equitable against
    every cell that is not a splitter: the caller passes every cell at the
    root, and {v} after individualising v in an equitable
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


def _orbits(perms, n: int) -> list[int]:
    """Each vertex's least orbit-mate under the group the permutations
    perms (lists, perm[v] the image of v) generate."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for perm in perms:
        for v, w in enumerate(perm):
            a, b = find(v), find(w)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


# tree nodes before canonical_form (and so are_isomorphic) raises IsoBudgetError
ISO_NODE_BUDGET = 2_000_000


def canonical_form(g: SimpleGraph | LoopedGraph) -> SimpleGraph | LoopedGraph:
    """g relabelled by the least leaf of its individualisation-refinement
    tree, of g's type, so canonical_form(g) == canonical_form(h) exactly
    when g and h are isomorphic (respecting loops).  See _canonical."""
    return _canonical(g)[0]


def _canonical(g: SimpleGraph | LoopedGraph) -> tuple[SimpleGraph | LoopedGraph, list[list[int]]]:
    """(canonical_form(g), automorphisms of g that generate its group).

    A tree node is an ordered partition made equitable by _refine; the root
    starts from the cells (nonlooped, looped), the empty one dropped, so a
    simple graph starts from one cell.  A node branches on its first
    non-singleton cell, individualising each choice of vertex v (the cell
    becomes {v} followed by the rest).  A leaf is a discrete partition; it
    orders the vertices, and its certificate is the adjacency relabelled in
    that order.  The looped vertices take the last places at every leaf, so
    certificates need no loop part, and the key's loop mask is the
    relabelled one.  The key is the least certificate over all leaves,
    which relabelling g cannot change.  A leaf's certificate is compared
    with the best one row by row as it is built: a greater row ends the
    leaf, and after a smaller row the rest is built without comparing.

    Subtrees that an automorphism fixing every individualised vertex maps
    onto searched ones repeat their certificates, so three kinds are
    skipped without changing the key:
    - twins: only one vertex per twin class (of _least_twins; no vertex has
      twins of both kinds, see twin_reduce) in the branching cell is tried.
      Swapping two twins u and w (N(u) = N(w) or N[u] = N[w]) in that cell
      is such an automorphism, since the root split keeps a looped and a
      nonlooped vertex out of one cell.
    - leaves equal to the best one: the map gamma from the best leaf's
      order to an equal leaf's order is an automorphism (both orders give
      one certificate), and as refinement never looks at labels, it takes
      the best leaf's path to this leaf's path.  It fixes the common prefix
      and maps the best leaf's subtree below it, already searched, onto the
      current one, so the search returns to the node where the paths part.
    - orbits: a node skips a vertex in the orbit of a tried one under the
      recorded gammas that fix every vertex on the node's path.
    Every leaf is thus searched or is the image of a searched leaf under
    the group of the recorded gammas and the twin swaps, so these
    generate the automorphism group.  The generators returned (perm[v] the
    image of v) are the gammas and, for each twin class, the swaps of its
    least vertex with the others of the same loop status (a swap across
    loop status is no automorphism).
    Past ISO_NODE_BUDGET tree nodes the search raises IsoBudgetError.
    """
    n, rows = g.n, g.rows
    loops = g.loops if isinstance(g, LoopedGraph) else 0
    full = (1 << n) - 1
    root = [c for c in (full & ~loops, loops) if c]
    twin = _least_twins(rows)
    best: list[int] | None = None
    best_pos: list[int] = []
    best_path: list[int] = []
    autos: list[list[int]] = []
    nodes = 0

    def search(cells: list[int], splitters: list[int], path: list[int]) -> int:
        """Search the subtree at path; the depth to resume at, less than
        len(path) when a leaf shows an ancestor's subtree repeats."""
        nonlocal best, best_pos, best_path, nodes
        nodes += 1
        if nodes > ISO_NODE_BUDGET:
            raise IsoBudgetError(f"canonical form search exceeded {ISO_NODE_BUDGET} nodes")
        cells = _refine(rows, cells, splitters)
        for i, c in enumerate(cells):
            if c & (c - 1):
                break
        else:
            pos = [0] * n
            for i, c in enumerate(cells):
                pos[c.bit_length() - 1] = i
            cert: list[int] = []
            if best is not None:
                for c, b in zip(cells, best):
                    cert.append(_relabel_mask(rows[c.bit_length() - 1], pos))
                    if cert[-1] != b:
                        break
                else:  # equal certificates
                    autos.append([cells[p].bit_length() - 1 for p in best_pos])
                    return next(d for d, (u, v) in enumerate(zip(path, best_path)) if u != v)
                if cert[-1] > b:
                    return len(path)
            cert += [_relabel_mask(rows[c.bit_length() - 1], pos) for c in cells[len(cert):]]
            best, best_pos, best_path = cert, pos, path
            return len(path)
        depth = len(path)
        tried: list[int] = []
        twins: set[int] = set()
        orbit, seen = None, 0
        m = c
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if twin[v] in twins:
                continue
            if len(autos) > seen:
                seen = len(autos)
                orbit = _orbits([a for a in autos if all(a[u] == u for u in path)], n)
            if orbit and any(orbit[w] == orbit[v] for w in tried):
                continue
            twins.add(twin[v])
            tried.append(v)
            back = search(cells[:i] + [low, c ^ low] + cells[i + 1:], [low], path + [v])
            if back < depth:
                return back
        return depth

    search(root, root, [])
    first: dict[tuple[int, int], int] = {}
    for v, t in enumerate(twin):
        u = first.setdefault((t, loops >> v & 1), v)
        if u != v:
            swap = list(range(n))
            swap[u], swap[v] = v, u
            autos.append(swap)
    if isinstance(g, LoopedGraph):
        return LoopedGraph._trusted(n, best, _relabel_mask(loops, best_pos)), autos
    return SimpleGraph._trusted(n, best), autos


def are_isomorphic(g: LoopedGraph | SimpleGraph, h: LoopedGraph | SimpleGraph) -> bool:
    """Loop-respecting graph isomorphism: equal canonical_form keys of g
    and h as looped graphs (a simple graph has no loops).  Either search
    raises IsoBudgetError past ISO_NODE_BUDGET tree nodes."""
    g, h = (x.with_loops(0) if isinstance(x, SimpleGraph) else x for x in (g, h))
    if g.n != h.n or g.loops.bit_count() != h.loops.bit_count():
        return False
    return canonical_form(g) == canonical_form(h)
