"""Row-by-row branch and bound behind the brute-force oracle.

The search covers the symmetric matrices whose spanning-forest edges are 1,
whose diagonal takes every value of GF(q) and whose remaining edges take
every nonzero value (the oracle module says why these suffice).  Depth i
chooses vertex i's diagonal and its free entries toward later vertices; its
entries toward earlier vertices were fixed by symmetry, so row i is then
whole.  It is reduced against an echelon basis of rows 0..i-1, and the
basis size, a lower bound on the rank of every matrix below the node, cuts
the node once it reaches the least rank found so far.
"""

from __future__ import annotations

import itertools


def scan_min_rank(n: int, forest: list[tuple[int, int]], free: list[tuple[int, int]],
                  q: int, tables, budget: int) -> int | None:
    """Least rank over the matrices above, or None past ``budget`` nodes.

    ``forest`` and ``free`` are vertex pairs u < v; ``tables`` are the
    (sub, mul, inv) lists of ``FieldCtx.kernel_tables()``, read only.
    A node is one choice of a row.  The search stops as soon as it finds
    rank 1, the least rank of a graph with an edge.
    """
    sub, mul, inv = tables
    a = [[0] * n for _ in range(n)]
    for u, v in forest:
        a[u][v] = a[v][u] = 1
    later: list[list[int]] = [[] for _ in range(n)]
    for u, v in free:
        later[u].append(v)
    choices = [[range(q)] + [range(1, q)] * len(js) for js in later]

    best, nodes = n, 0
    basis: list[tuple[int, list[int]]] = []  # (pivot, row with 1 at the pivot)
    kept = [0] * n  # basis size before row i
    rows = [itertools.product(*choices[0])] + [iter(())] * (n - 1)
    i = 0
    while i >= 0:
        choice = next(rows[i], None)
        if choice is None:
            i -= 1
            continue
        nodes += 1
        if nodes > budget:
            return None
        del basis[kept[i]:]
        r = a[i]
        r[i] = choice[0]
        for j, x in zip(later[i], choice[1:]):
            r[j] = a[j][i] = x
        for p, b in basis:
            if r[p]:
                mc = mul[r[p]]
                r = [sub[x][mc[y]] for x, y in zip(r, b)]
        p = next((j for j, x in enumerate(r) if x), None)
        if p is not None:
            mi = mul[inv[r[p]]]
            basis.append((p, [mi[x] for x in r]))
        if len(basis) >= best:
            continue
        if i == n - 1:
            best = len(basis)
            if best <= 1:
                break
            continue
        i += 1
        kept[i] = len(basis)
        rows[i] = itertools.product(*choices[i])
    return best
