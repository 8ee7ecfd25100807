"""Row-by-row branch and bound behind the brute-force oracle.

The search takes one connected graph with n vertices and m edges.  It
covers the symmetric matrices whose spanning-tree edges are 1, whose
diagonal takes every value of GF(q) and whose remaining edges take every
nonzero value, q^n (q-1)^(m-n+1) of them, keeping only those whose first
nonzero scaled entry is 1 (the oracle module says why these suffice).
Depth i chooses vertex i's diagonal and its free entries toward later
vertices; its entries toward earlier vertices were fixed by symmetry, so
row i is then whole.  It is reduced against an echelon basis of rows
0..i-1, and the basis size, a lower bound on the rank of every matrix below
the node, cuts the node once it reaches the least rank found so far.  The
search stops at the first matrix whose rank reaches the floor it is given,
a proved lower bound (the oracle's zero forcing floor).
"""

from __future__ import annotations

import itertools


def scan_min_rank(rows, q: int, tables, budget: int, floor: int) -> tuple[int | None, int]:
    """(the least rank over the matrices above, or None past ``budget``
    nodes; the nodes visited).

    ``rows`` are the adjacency bitmasks of a connected graph; ``tables`` are
    the (sub, mul, inv) lists of ``FieldCtx.kernel_tables()``, read only.  A
    breadth-first search from vertex 0 gives the spanning tree, the free
    edges (the others) and each vertex's side, the parity of its distance
    from vertex 0; it raises ValueError unless it reaches every vertex.  A
    node is one choice of a row.  The search stops as soon as it finds a
    rank of at most ``floor``, which must be a lower bound on the least rank
    (1 is one for every graph with an edge); so the rank it returns is that
    least rank.

    The scaled entries are the diagonal and the free edges joining two
    vertices on the same side; they are chosen in row order, and within a
    row the diagonal comes first.  Free edges are never 0, so row i's first
    scaled entry is its diagonal if that is nonzero, else its first free
    edge toward a later vertex on its side (``lead[i]``, an index into
    ``later[i]``, or None).  While no scaled entry is nonzero yet, row i
    takes diagonal 0 with that edge 1 (diagonal 0 alone when there is none,
    which leaves the search unsettled), then diagonal 1, every other entry
    free.  These choices are an order-preserving subsequence of the full
    product, equal to it over GF(2).
    """
    n = len(rows)
    sub, mul, inv = tables
    a = [[0] * n for _ in range(n)]
    side = [0] + [-1] * (n - 1)
    reached = [0]
    for u in reached:  # grows while it is read: breadth-first order
        for v in range(n):
            if rows[u] >> v & 1 and side[v] < 0:
                side[v] = side[u] ^ 1
                a[u][v] = a[v][u] = 1
                reached.append(v)
    if len(reached) < n:
        raise ValueError(f"the oracle kernel takes a connected graph, and reached "
                         f"{len(reached)} of {n} vertices")
    later = [[j for j in range(i + 1, n) if rows[i] >> j & 1 and not a[i][j]]
             for i in range(n)]
    lead = [next((k for k, j in enumerate(js) if side[j] == side[i]), None)
            for i, js in enumerate(later)]
    choices = [[range(q)] + [range(1, q)] * len(js) for js in later]

    def row_choices(i: int, settled: bool):
        """Row i's choices, given whether a nonzero scaled entry is already
        chosen."""
        if settled:
            return itertools.product(*choices[i])
        if lead[i] is None:
            return itertools.product(range(2), *choices[i][1:])
        zero = [(0,)] + choices[i][1:]
        zero[1 + lead[i]] = (1,)
        return itertools.chain(itertools.product(*zero), itertools.product((1,), *choices[i][1:]))

    best, nodes = n, 0
    basis: list[tuple[int, list[int]]] = []  # (pivot, row with 1 at the pivot)
    kept = [0] * n  # basis size before row i
    settled = [False] * n  # a nonzero scaled entry before row i
    row_iters = [row_choices(0, False)] + [iter(())] * (n - 1)
    i = 0
    while i >= 0:
        choice = next(row_iters[i], None)
        if choice is None:
            i -= 1
            continue
        nodes += 1
        if nodes > budget:
            return None, nodes
        del basis[kept[i]:]
        r = a[i]
        r[i] = choice[0]
        for j, x in zip(later[i], choice[1:]):
            r[j] = a[j][i] = x
        for p, b in basis:
            if r[p]:
                mc = mul[r[p]]
                r = [sub[x][mc[y]] for x, y in zip(r, b)]
        rank = len(basis) + any(r)
        if rank >= best:
            continue
        if i == n - 1:
            best = rank
            if best <= floor:
                break
            continue
        if rank > len(basis):
            p = next(j for j, x in enumerate(r) if x)
            mi = mul[inv[r[p]]]
            basis.append((p, [mi[x] for x in r]))
        s = settled[i] or bool(choice[0]) or lead[i] is not None
        i += 1
        kept[i] = len(basis)
        settled[i] = s
        row_iters[i] = row_choices(i, s)
    return best, nodes
