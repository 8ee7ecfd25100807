"""Independent brute-force minimum rank.

Conjugating a symmetric matrix A by a nonsingular diagonal D (A -> D A D)
keeps its rank and its off-diagonal support.  Root each tree of a spanning
forest of the graph, put d = 1 at the root and d_v = 1 / (d_u a_uv) along
each forest edge uv away from it: then every forest edge of D A D is 1,
while its diagonal d_v^2 a_vv still ranges over all of GF(q).  So the
minimum rank over all matrices realising the graph is the minimum over
the q^n (q-1)^(m-n+c) matrices with forest edges 1, every diagonal and
every nonzero value on the other edges (n vertices, m edges, c connected
components counting isolated vertices).

A second symmetry keeps the forest edges at 1.  Give each vertex a side,
the parity of its forest depth from the least vertex of its component.
For mu != 0, scaling one component's block to mu D A D, with d = 1 on side
0 and 1/mu on side 1, multiplies its side-0 diagonal entries and side-0
free edges by mu and its side-1 ones by 1/mu, and leaves every edge
between the sides, forest edges among them, alone.  Rank adds over the
blocks, so rank and graph are kept, and each orbit holds a matrix in which
every component's first nonzero scaled entry (a diagonal entry, or a free
edge within one side) in search order is 1.  Only those are searched: up
to q-1 times fewer per component, and none fewer over GF(2).

``_kernels.scan_min_rank`` searches them row by row, cutting every branch
whose leading rows already have rank at least the least rank found, so it
visits far fewer nodes.  For the path P5 over GF(5) it visits 200 nodes,
where the forest-normalised set has 3,125 matrices and the search without
the scaling symmetry visits 785.

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
from .graphs import SimpleGraph

# Search nodes (row choices) before refusing.  On a 2-CPU Intel Xeon host
# the search visits about 37k nodes per second on a G(28, 1/2) draw over
# GF(2) or GF(3), 66k on 20 vertices and 140k-200k on 9-14 vertices over
# GF(3), GF(4) and GF(5), so a refusal comes within about 110 s.
DEFAULT_BUDGET = 4 * 10 ** 6


class OracleBudgetError(Exception):
    """The search would visit more nodes than the configured budget."""


class OracleScanError(AssertionError):
    """The search returned a rank outside 1..n: the kernel broke its contract."""


def enumeration_size(n: int, m: int, q: int, components: int | None = None) -> int:
    """Matrices with forest edges 1 for a graph with n vertices, m edges
    and this many connected components: the forest-normalised set, an
    upper bound on the matrices the search covers (one per scaling class)
    and not the nodes it visits.  Without ``components`` the count is
    q^n (q-1)^m, an upper bound for every such graph."""
    c = n if components is None else components
    return q ** n * (q - 1) ** (m - n + c)


def _spanning_forest(g: SimpleGraph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split g's edges, in sorted order, into a spanning forest and the rest."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest, rest = [], []
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            rest.append((u, v))
        else:
            root[ru] = rv
            forest.append((u, v))
    return forest, rest


def check_order(q: int) -> None:
    """Raise ValueError unless the oracle can search over GF(q)."""
    if q > KERNEL_TABLE_MAX_Q:
        raise ValueError(f"the oracle takes field orders up to {KERNEL_TABLE_MAX_Q}, not {q}")


def oracle_min_rank(g: SimpleGraph, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum rank of g over GF(q) by exhaustive search.

    Raises ValueError for a q that is not a prime power or is over
    ``KERNEL_TABLE_MAX_Q``, and OracleBudgetError when the search would
    visit more than ``budget`` nodes.
    """
    check_order(q)
    field = field_from_order(q)
    if g.edge_count() == 0:
        return 0  # the zero matrix realises every edgeless graph
    forest, rest = _spanning_forest(g)
    tables = field.kernel_tables()
    best = _kernels.scan_min_rank(g.n, forest, rest, q, tables, budget)
    if best is None:
        raise OracleBudgetError(f"search exceeds the budget of {budget} nodes")
    if not 1 <= best <= g.n:
        raise OracleScanError(f"search returned rank {best} for n = {g.n}")
    return best
