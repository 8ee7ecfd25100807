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

Minimum rank never rises under induced subgraphs, and an induced path on k
vertices forces rank at least k - 1 over every field (Fallat and Hogben,
"The minimum rank of symmetric matrices described by a graph: a survey",
LAA 426, 2007): the principal submatrix on it has the graph P_k, and
deleting its first row and last column leaves an upper-triangular minor
whose diagonal is the path's k - 1 edges, all nonzero.  So
``induced_path_floor`` gives each part a floor, and the kernel stops at the
first matrix whose rank reaches it; every matrix it visits realises the
part, so that rank is the part's minimum rank.  The floor search is
capped, and a shorter path than the longest still gives a valid floor.
For the path P5 over GF(5) the floor 4 is exact and the search visits 5
nodes; without the floor it visits 200, without the scaling symmetry too
785, and the forest-normalised set has 3,125 matrices.

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
from .graphs import SimpleGraph, _components, _induced_rows

# Search nodes (row choices) before refusing.  On a 2-CPU Intel Xeon host
# the search visits about 37k nodes per second on a G(28, 1/2) draw over
# GF(2) or GF(3), 66k on 20 vertices and 140k-200k on 9-14 vertices over
# GF(3), GF(4) and GF(5), so a refusal comes within about 110 s.
DEFAULT_BUDGET = 4 * 10 ** 6

# Path extensions induced_path_floor makes before it keeps the longest path
# found.  Parts on up to 7 vertices finish far below it.  On a 2-CPU Intel
# Xeon host the seeded sparse G(60, 0.1) draw of the tests reaches it in
# 0.05-0.09 s with floor 25; 10^6 extensions take 0.5 s for floor 27, and
# 10^7 take 6.5 s for floor 28 without ending the search.
FLOOR_PATH_CAP = 10 ** 5


class OracleBudgetError(Exception):
    """The search would visit more nodes than the configured budget."""


class OracleScanError(AssertionError):
    """The search returned a rank outside floor..n: the kernel broke its
    contract."""


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


def induced_path_floor(rows) -> int:
    """k - 1 for the longest induced path, on k vertices, that a depth-first
    search finds within FLOOR_PATH_CAP extensions of a path by one vertex
    (0 for at most one vertex): a lower bound on the minimum rank over every
    field of the graph with adjacency bitmasks ``rows``.  A search that ends
    within the cap is exhaustive, so k is then the longest.

    A path p_0..p_l is extended at its tip by a neighbour of p_l outside
    the closed neighbourhoods of p_0..p_(l-1), so every path is induced.  A
    branch is cut once the path, its next vertex and every vertex outside
    the closed neighbourhoods of the whole path cannot beat the longest
    found, and the search ends at a path through every vertex.
    """
    n = len(rows)
    full = (1 << n) - 1
    closed = [r | 1 << v for v, r in enumerate(rows)]
    best, cap = 1, FLOOR_PATH_CAP
    for s in range(n):
        if 2 + (full & ~closed[s]).bit_count() <= best:
            continue
        # [closed neighbourhoods of the path, untried extensions, path length]
        stack = [[closed[s], rows[s], 1]]
        while stack:
            top = stack[-1]
            seen, untried, length = top
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            top[1] = untried ^ low
            cap -= 1
            if cap < 0:
                return best - 1
            v = low.bit_length() - 1
            length += 1
            if length > best:
                best = length
                if best == n:
                    return best - 1
            nxt = rows[v] & ~seen
            seen |= closed[v]
            if nxt and length + 1 + (full & ~seen).bit_count() > best:
                stack.append([seen, nxt, length])
    return best - 1


def oracle_min_rank(g: SimpleGraph, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum rank of g over GF(q) by exhaustive search: the sum over
    its connected parts with an edge, each searched by the kernel down to
    its ``induced_path_floor``.

    Raises ValueError for a q that is not a prime power or is over
    ``KERNEL_TABLE_MAX_Q``, OracleBudgetError when the searches of all
    parts together would visit more than ``budget`` nodes, and
    OracleScanError when the kernel returns a rank below a part's floor or
    above its vertex count.
    """
    check_order(q)
    field = field_from_order(q)
    total, left = 0, budget
    for part in _components(g):
        if len(part) < 2:
            continue  # an isolated vertex is a zero block
        rows = g.rows if len(part) == g.n else _induced_rows(g.rows, part)
        floor = induced_path_floor(rows)
        best, nodes = _kernels.scan_min_rank(rows, q, field.kernel_tables(), left, floor)
        if best is None:
            raise OracleBudgetError(f"search exceeds the budget of {budget} nodes")
        if not floor <= best <= len(part):
            raise OracleScanError(f"search returned rank {best} for n = {len(part)} "
                                  f"and floor {floor}")
        left -= nodes
        total += best
    return total
