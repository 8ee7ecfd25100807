"""Independent brute-force minimum rank.

Conjugating a symmetric matrix A by a nonsingular diagonal D (A -> D A D)
keeps its rank and its off-diagonal support.  Root each tree of a spanning
forest of the graph, put d = 1 at the root and d_v = 1 / (d_u a_uv) along
each forest edge uv away from it: then every forest edge of D A D is 1,
while its diagonal d_v^2 a_vv still ranges over all of GF(q).  So the
minimum rank over all matrices realising the graph is the minimum over
the q^n (q-1)^(m-n+c) matrices with forest edges 1, every diagonal and
every nonzero value on the other edges (n vertices, m edges, c connected
components counting isolated vertices).  ``_kernels.scan_min_rank``
searches them row by row, cutting every branch whose leading rows already
have rank at least the least rank found, so it visits far fewer nodes.

Deliberately simple: it shares no code with the blowup route below the
graph layer, and it is the ground truth the classification pipeline is
validated against.
"""

from __future__ import annotations

from . import _kernels
from .gf import field_from_order
from .graphs import SimpleGraph

# Search nodes (row choices) before refusing.  On a 2-CPU Intel Xeon host
# the search visits 19k-160k nodes per second on 10-28 vertices, so a
# refusal comes within about 210 s.
DEFAULT_BUDGET = 4 * 10 ** 6


class OracleBudgetError(Exception):
    """The search would visit more nodes than the configured budget."""


class OracleScanError(AssertionError):
    """The search returned a rank outside 1..n: the kernel broke its contract."""


def enumeration_size(n: int, m: int, q: int, components: int | None = None) -> int:
    """Matrices with forest edges 1 for a graph with n vertices, m edges
    and this many connected components: the set the search covers, not the
    nodes it visits.  Without ``components`` the count is q^n (q-1)^m, an
    upper bound for every such graph."""
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


def oracle_min_rank(g: SimpleGraph, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum rank of g over GF(q) by exhaustive search.

    Raises OracleBudgetError when the search would visit more than
    ``budget`` nodes.
    """
    field = field_from_order(q)
    if g.edge_count() == 0:
        return 0  # the zero matrix realises every edgeless graph
    forest, rest = _spanning_forest(g)
    try:
        tables = field.kernel_tables()
    except ValueError as exc:
        raise OracleBudgetError(str(exc)) from exc
    best = _kernels.scan_min_rank(g.n, forest, rest, q, tables, budget)
    if best is None:
        raise OracleBudgetError(f"search exceeds the budget of {budget} nodes")
    if not 1 <= best <= g.n:
        raise OracleScanError(f"search returned rank {best} for n = {g.n}")
    return best
