"""Independent brute-force minimum rank.

A symmetric matrix whose graph is a disjoint union is, with its vertices
taken component by component, the direct sum of one block per component,
so the minimum rank adds over connected components.  ``oracle_min_rank``
searches each connected part with an edge (an isolated vertex adds 0)
under one node budget shared by all of them.

Conjugating a symmetric matrix A by a nonsingular diagonal D (A -> D A D)
keeps its rank and its off-diagonal support.  Take a spanning tree of a
connected part rooted at its vertex 0, put d = 1 at the root and
d_v = 1 / (d_u a_uv) along each tree edge uv away from it: then every tree
edge of D A D is 1, while its diagonal d_v^2 a_vv still ranges over all of
GF(q).  So the minimum rank of a part with n vertices and m edges is the
minimum over the q^n (q-1)^(m-n+1) matrices with tree edges 1, every
diagonal and every nonzero value on the other edges (the forest-normalised
set of the part).

A second symmetry keeps the tree edges at 1.  Give each vertex a side, the
parity of its tree depth.  For mu != 0, mu D A D with d = 1 on side 0 and
1/mu on side 1 multiplies the side-0 diagonal entries and side-0 free edges
by mu and the side-1 ones by 1/mu, and leaves every edge between the sides,
tree edges among them, alone; rank and graph are kept.  So each orbit holds
a matrix whose first nonzero scaled entry (a diagonal entry, or a free edge
within one side) in search order is 1.  Only those are searched: up to q-1
times fewer, and none fewer over GF(2).

``_kernels.scan_min_rank`` searches them for one connected part, row by
row, cutting every branch whose leading rows already have rank at least the
least rank found, so it visits far fewer nodes.

A zero forcing set S of a graph on n vertices gives the floor
mr >= n - |S| over every field (AIM Minimum Rank-Special Graphs Work Group,
LAA 428, 2008).  If A has the graph and Ax = 0 with x zero on the black
vertices, a black vertex v with one white neighbour u has row v of Ax equal
to a_vu x_u, so x_u = 0 and u may turn black; so a null vector that is zero
on S is zero, and the null space has dimension at most |S|.  The oracle
takes each part's S from the k sweep's search
(``graphs._component_zero_forcing``, the part being connected), but uses
it only once its own forcing closure, ``_forces_all``, has turned every
vertex black; so the part's floor, its vertex count less |S|, rests on
that check and not on the search.  The kernel stops at the first matrix whose rank
reaches the floor; every matrix it visits realises the part, so that rank
is the part's minimum rank.  For the path P5 over GF(5) the floor 4 is
exact and the search visits 5 nodes; without the floor it visits 200,
without the scaling symmetry too 785, and the forest-normalised set has
3,125 matrices.

The search reads dense field tables, so the oracle takes field orders up
to ``gf.KERNEL_TABLE_MAX_Q`` (1024) only and refuses larger ones with a
``ValueError`` before it looks at the graph.

Deliberately simple: it shares no code with the blowup route below the
graph layer, and it is the ground truth the classification pipeline is
validated against.
"""

from __future__ import annotations

from . import _kernels
from .gf import KERNEL_TABLE_MAX_Q, field_from_order
from .graphs import (SimpleGraph, _component_zero_forcing, _components, _induced_rows,
                     _least_twins)

# Search nodes (row choices) before refusing.  On a 2-CPU Intel Xeon host
# the search visits about 37k nodes per second on a G(28, 1/2) draw over
# GF(2) or GF(3), 66k on 20 vertices and 140k-200k on 9-14 vertices over
# GF(3), GF(4) and GF(5), so a refusal comes within about 110 s.
DEFAULT_BUDGET = 4 * 10 ** 6


class OracleBudgetError(Exception):
    """The search would visit more nodes than the configured budget."""


class OracleScanError(AssertionError):
    """The zero forcing set does not force every vertex, or the search
    returned a rank outside floor..n: the search broke its contract."""


def enumeration_size(n: int, m: int, q: int) -> int:
    """q^n (q-1)^m, an upper bound on the forest-normalised set of every
    graph with n vertices and m edges (q^n (q-1)^(m-n+1) for a connected
    one, the product of those over its parts for any other), and so on the
    matrices the search covers; not the nodes it visits."""
    return q ** n * (q - 1) ** m


def check_order(q: int) -> None:
    """Raise ValueError unless the oracle can search over GF(q)."""
    if q > KERNEL_TABLE_MAX_Q:
        raise ValueError(f"the oracle takes field orders up to {KERNEL_TABLE_MAX_Q}, not {q}")


def _forces_all(rows, black: int) -> bool:
    """Whether the vertex set black, a bitmask, forces every vertex of the
    graph with these adjacency rows: a black vertex with exactly one white
    neighbour turns it black, until none does."""
    grown = True
    while grown:
        grown = False
        for v, r in enumerate(rows):
            white = r & ~black
            if black >> v & 1 and white and not white & (white - 1):
                black |= white
                grown = True
    return black == (1 << len(rows)) - 1


def oracle_min_rank(g: SimpleGraph, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum rank of g over GF(q) by exhaustive search: the sum over
    its connected parts with an edge, each searched by the kernel down to
    its zero forcing floor.

    Raises ValueError for a q that is not a prime power or is over
    ``KERNEL_TABLE_MAX_Q``, OracleBudgetError when the searches of all
    parts together would visit more than ``budget`` nodes, and
    OracleScanError when the zero forcing set does not force every vertex
    or the kernel returns a rank below a part's floor or above its vertex
    count.
    """
    check_order(q)
    field = field_from_order(q)
    total, left = 0, budget
    for part in _components(g):
        if len(part) < 2:
            continue  # an isolated vertex is a zero block
        rows = g.rows if len(part) == g.n else _induced_rows(g.rows, part)
        forcing = _component_zero_forcing(rows, (1 << len(part)) - 1, _least_twins(rows))
        if not _forces_all(rows, forcing):
            raise OracleScanError(f"vertex set {forcing:#x} does not force every vertex")
        floor = len(part) - forcing.bit_count()
        best, nodes = _kernels.scan_min_rank(rows, q, field.kernel_tables(), left, floor)
        if best is None:
            raise OracleBudgetError(f"search exceeds the budget of {budget} nodes")
        if not floor <= best <= len(part):
            raise OracleScanError(f"search returned rank {best} for n = {len(part)} "
                                  f"and floor {floor}")
        left -= nodes
        total += best
    return total
