"""Row-by-row branch and bound behind the brute-force oracle.

The search covers the symmetric matrices whose spanning-forest edges are 1,
whose diagonal takes every value of GF(q) and whose remaining edges take
every nonzero value, keeping in each connected component only those whose
first nonzero scaled entry is 1 (the oracle module says why these
suffice).  Depth i chooses vertex i's diagonal and its free entries toward
later vertices; its entries toward earlier vertices were fixed by symmetry,
so row i is then whole.  It is reduced against an echelon basis of rows
0..i-1, and the basis size, a lower bound on the rank of every matrix below
the node, cuts the node once it reaches the least rank found so far.
"""

from __future__ import annotations

import itertools


def _sides(n: int, forest: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Each vertex's component number and side: the parity of its forest
    depth from the least vertex of its component."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in forest:
        adj[u].append(v)
        adj[v].append(u)
    comp, side = [-1] * n, [0] * n
    count = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = count
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if comp[v] < 0:
                    comp[v], side[v] = count, side[u] ^ 1
                    stack.append(v)
        count += 1
    return comp, side


def scan_min_rank(n: int, forest: list[tuple[int, int]], free: list[tuple[int, int]],
                  q: int, tables, budget: int) -> int | None:
    """Least rank over the matrices above, or None past ``budget`` nodes.

    ``forest`` and ``free`` are vertex pairs u < v; ``tables`` are the
    (sub, mul, inv) lists of ``FieldCtx.kernel_tables()``, read only.
    A node is one choice of a row.  The search stops as soon as it finds
    rank 1, the least rank of a graph with an edge.

    The scaled entries of a component are its diagonal and its free edges
    joining two vertices on the same side; they are chosen in row order,
    and within a row the diagonal comes first.  Free edges are never 0, so
    row i's first scaled entry is its diagonal if that is nonzero, else its
    first free edge toward a later vertex on its side (``lead[i]``, an index
    into ``later[i]``, or None).  While row i's component has no nonzero
    scaled entry yet, row i takes diagonal 0 with that edge 1 (diagonal 0
    alone when there is none, which leaves the component unsettled), then
    diagonal 1, every other entry free.  These choices are an
    order-preserving subsequence of the full product, equal to it over
    GF(2).
    """
    sub, mul, inv = tables
    a = [[0] * n for _ in range(n)]
    for u, v in forest:
        a[u][v] = a[v][u] = 1
    later: list[list[int]] = [[] for _ in range(n)]
    for u, v in free:
        later[u].append(v)
    comp, side = _sides(n, forest)
    lead = [next((k for k, j in enumerate(js) if side[j] == side[i]), None)
            for i, js in enumerate(later)]
    choices = [[range(q)] + [range(1, q)] * len(js) for js in later]

    def row_choices(i: int, fixed: int):
        """Row i's choices, given the bitmask of components whose first
        nonzero scaled entry is already chosen."""
        if fixed >> comp[i] & 1:
            return itertools.product(*choices[i])
        if lead[i] is None:
            return itertools.product(range(2), *choices[i][1:])
        zero = [(0,)] + choices[i][1:]
        zero[1 + lead[i]] = (1,)
        return itertools.chain(itertools.product(*zero), itertools.product((1,), *choices[i][1:]))

    best, nodes = n, 0
    basis: list[tuple[int, list[int]]] = []  # (pivot, row with 1 at the pivot)
    kept = [0] * n  # basis size before row i
    fixed = [0] * n  # components with a nonzero scaled entry before row i
    rows = [row_choices(0, 0)] + [iter(())] * (n - 1)
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
        f = fixed[i] | (1 << comp[i] if choice[0] or lead[i] is not None else 0)
        i += 1
        kept[i] = len(basis)
        fixed[i] = f
        rows[i] = row_choices(i, f)
    return best
