"""Batched enumerate-and-rank kernel behind the brute-force oracle.

The scan visits the symmetric matrices whose spanning-forest edges are 1,
whose diagonal takes every value of GF(q) and whose remaining edges take
every nonzero value (the oracle module says why these suffice).  Scan
ticket t = diag_index * free_count + free_index, with free_count =
(q-1)^len(free); both counters are little-endian, so the diagonal changes
slowest.  Matrices are built and ranked in numpy batches of _BATCH tickets.
"""

from __future__ import annotations

import numpy as np

_BATCH = 4096


def _rank_batch(mats: np.ndarray, add_t, sub_t, mul_t, inv_t) -> np.ndarray:
    """Row-echelon rank of every matrix in a (B, n, n) batch, in lockstep."""
    a = mats.copy()
    bsz, n, _ = a.shape
    row = np.zeros(bsz, dtype=np.int64)
    rows_idx = np.arange(n)
    batch_idx = np.arange(bsz)
    for col in range(n):
        nz = a[:, :, col] != 0
        eligible = nz & (rows_idx[None, :] >= row[:, None])
        has = eligible.any(axis=1)
        if not has.any():
            continue
        b = batch_idx[has]
        r0 = row[b]
        pr = eligible[has].argmax(axis=1)
        tmp = a[b, r0, :].copy()
        a[b, r0, :] = a[b, pr, :]
        a[b, pr, :] = tmp
        pinv = inv_t[a[b, r0, col]]
        factors = mul_t[a[b, :, col], pinv[:, None]]
        pivrow = a[b, r0, :]
        prod = mul_t[factors[:, :, None], pivrow[:, None, :]]
        reduced = sub_t[a[b], prod]
        below = rows_idx[None, :] > r0[:, None]
        a[b] = np.where(below[:, :, None], reduced, a[b])
        row[b] = r0 + 1
    return row


def _build_batch(n: int, forest: np.ndarray, free: np.ndarray, q: int,
                 tickets: np.ndarray) -> np.ndarray:
    """The (B, n, n) matrices of a batch of scan tickets."""
    mats = np.zeros((tickets.shape[0], n, n), dtype=np.int64)
    mats[:, forest[:, 0], forest[:, 1]] = 1
    mats[:, forest[:, 1], forest[:, 0]] = 1
    diag_idx, free_idx = np.divmod(tickets, (q - 1) ** free.shape[0])
    for i in range(n):
        diag_idx, mats[:, i, i] = np.divmod(diag_idx, q)
    for u, v in free.tolist():
        free_idx, rem = np.divmod(free_idx, q - 1)
        mats[:, u, v] = mats[:, v, u] = rem + 1
    return mats


def scan_min_rank(n: int, forest: np.ndarray, free: np.ndarray, q: int, tables,
                  start: int, stop: int) -> int:
    """Smallest rank over scan tickets [start, stop), n + 1 for an empty range.

    ``forest`` and ``free`` are (k, 2) arrays of vertex pairs.  The scan stops
    as soon as it sees rank 1, the least rank of a graph with an edge.
    """
    best = n + 1
    for at in range(start, stop, _BATCH):
        tickets = np.arange(at, min(at + _BATCH, stop), dtype=np.int64)
        ranks = _rank_batch(_build_batch(n, forest, free, q, tickets), *tables)
        best = min(best, int(ranks.min()))
        if best <= 1:
            break
    return best
