"""Independent brute-force minimum rank.

Conjugating a symmetric matrix A by a nonsingular diagonal D (A -> D A D)
keeps its rank and its off-diagonal support.  Root each tree of a spanning
forest of the graph, put d = 1 at the root and d_v = 1 / (d_u a_uv) along
each forest edge uv away from it: then every forest edge of D A D is 1,
while its diagonal d_v^2 a_vv still ranges over all of GF(q).  So the
minimum rank over all matrices realising the graph is the minimum over
the q^n (q-1)^(m-n+c) matrices with forest edges 1, every diagonal and
every nonzero value on the other edges (n vertices, m edges, c connected
components counting isolated vertices), which is what the scan visits.

Deliberately simple: it shares no code with the blowup route below the
graph layer, and it is the ground truth the classification pipeline is
validated against.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .gf import field_from_order
from .graphs import SimpleGraph

DEFAULT_BUDGET = 10 ** 8


class OracleBudgetError(Exception):
    """The enumeration would exceed the configured budget."""

    def __init__(self, detail: str):
        super().__init__(detail)


class OracleScanError(AssertionError):
    """A scan returned a rank outside 1..n: the kernel broke its contract."""


def enumeration_size(n: int, m: int, q: int, components: int | None = None) -> int:
    """Matrices scanned for a graph with n vertices, m edges and this many
    connected components.  Without ``components`` the count is q^n (q-1)^m,
    an upper bound for every such graph."""
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


def plan_scan(g: SimpleGraph, q: int, budget: int = DEFAULT_BUDGET
              ) -> tuple[list[tuple[int, int]], list[tuple[int, int]], int]:
    """(forest edges, other edges, matrices scanned) for g over GF(q).

    Raises OracleBudgetError when the scan exceeds ``budget`` matrices.
    """
    forest, rest = _spanning_forest(g)
    total = enumeration_size(g.n, len(forest) + len(rest), q, g.n - len(forest))
    if total > budget:
        raise OracleBudgetError(f"enumeration of {total} matrices exceeds budget {budget}")
    return forest, rest, total


def oracle_min_rank(g: SimpleGraph, q: int,
                    budget: int = DEFAULT_BUDGET,
                    start: int | None = None, stop: int | None = None) -> int:
    """Minimum rank of g over GF(q) by exhaustive enumeration.

    ``start``/``stop`` restrict the scan to a ticket range of
    [0, plan_scan(g, q)[2]) so the work can be partitioned across processes;
    the full range is the default.  An empty range is a ValueError.
    """
    field = field_from_order(q)
    if g.edge_count() == 0:
        return 0  # the zero matrix realises every edgeless graph
    forest, rest, total = plan_scan(g, q, budget)
    try:
        tables = field.kernel_tables()
    except ValueError as exc:
        raise OracleBudgetError(str(exc)) from exc
    lo = 0 if start is None else max(0, start)
    hi = total if stop is None else min(stop, total)
    if lo >= hi:
        raise ValueError(f"empty scan range [{lo}, {hi}) of {total} tickets")
    best = _kernels.scan_min_rank(g.n, _pairs(forest), _pairs(rest), q, tables, lo, hi)
    if not 1 <= best <= g.n:
        raise OracleScanError(f"scan of [{lo}, {hi}) returned rank {best} for n = {g.n}")
    return best


def _pairs(edges: list[tuple[int, int]]) -> np.ndarray:
    return np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
