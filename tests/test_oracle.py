from __future__ import annotations

import itertools

import numpy as np
import pytest

from gfminrank import (MatrixFq, SimpleGraph, emit_graph6, field_from_order,
                       min_rank, oracle_min_rank, parse_graph6, rank)
from gfminrank import _kernels
from gfminrank._kernels import _build_batch, _rank_batch
from gfminrank.miner import enumerate_graphs
from gfminrank.oracle import (OracleBudgetError, OracleScanError, _pairs,
                              enumeration_size, plan_scan)


def test_fullhouse_reference_values(fullhouse):
    assert oracle_min_rank(fullhouse, 2) == 3
    assert oracle_min_rank(fullhouse, 3) == 2


def test_path_needs_rank_two():
    p3 = SimpleGraph.path(3)
    for q in (2, 3, 4, 5):
        assert oracle_min_rank(p3, q) == 2


def test_edgeless_is_rank_zero():
    assert oracle_min_rank(SimpleGraph.empty(4), 2) == 0
    assert oracle_min_rank(SimpleGraph.empty(0), 3) == 0


def test_single_edge_has_rank_one():
    for q in (2, 3, 9):
        assert oracle_min_rank(SimpleGraph.complete(2), q) == 1


def test_budget_refusal():
    g = SimpleGraph.complete(8)
    with pytest.raises(OracleBudgetError):
        oracle_min_rank(g, 16, budget=10 ** 6)
    assert enumeration_size(8, 28, 16) > 10 ** 6


def test_agreement_with_blowup_route(rng):
    for q in (2, 3):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                assert oracle_min_rank(g, q) == min_rank(g, q)


def test_partitioned_scan_matches_full(fullhouse):
    q = 2
    total = enumeration_size(5, 8, q)
    mid = total // 2
    lo = oracle_min_rank(fullhouse, q, stop=mid)
    hi = oracle_min_rank(fullhouse, q, start=mid)
    assert min(lo, hi) == 3


def _components(g: SimpleGraph) -> int:
    seen: set[int] = set()
    count = 0
    for s in range(g.n):
        if s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for v in range(g.n):
                if g.has_edge(u, v) and v not in seen:
                    seen.add(v)
                    stack.append(v)
    return count


def _full_min_rank(g: SimpleGraph, q: int) -> int:
    """Minimum rank over every matrix realising g, each ranked by matfq.rank."""
    f = field_from_order(q)
    edges = list(g.edges())
    best = g.n
    for diag in itertools.product(range(q), repeat=g.n):
        for vals in itertools.product(range(1, q), repeat=len(edges)):
            a = [[0] * g.n for _ in range(g.n)]
            for i, d in enumerate(diag):
                a[i][i] = d
            for (u, v), x in zip(edges, vals):
                a[u][v] = a[v][u] = x
            best = min(best, rank(MatrixFq(f, a)))
    return best


# Largest full enumeration the reference takes on (~0.1 ms per matfq.rank).
# Under it fall every graph on <= 5 vertices over GF(2), all but K4 on 4
# vertices over GF(3), all on 3 vertices over GF(4), and sparser graphs above
# those, among them disconnected and isolated-vertex graphs on 5 vertices.
# Dense graphs on 4-5 vertices over GF(4) and GF(5) need up to millions.
FULL_REFERENCE_CAP = 4096


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_forest_scan_matches_full_enumeration(q):
    cases = [g for n in range(1, 6) for g in enumerate_graphs(n)
             if q ** g.n * (q - 1) ** g.edge_count() <= FULL_REFERENCE_CAP]
    if q == 2:
        cases.append(parse_graph6("F{czG"))  # a blowup of the GF(2) rank-3 pattern
    shapes = set()
    for g in cases:
        assert oracle_min_rank(g, q) == _full_min_rank(g, q), (q, emit_graph6(g))
        shapes.add((g.n, _components(g) > 1, bool(g.isolated_vertices()),
                    g.edge_count() - g.n + _components(g) > 0))
    assert {s[0] for s in shapes} >= {1, 2, 3}
    if q < 5:  # over GF(5) these shapes all exceed the cap
        assert any(n == 5 and disc for n, disc, _, _ in shapes)
        assert any(n == 5 and iso for n, _, iso, _ in shapes)
        assert any(cycle for _, _, _, cycle in shapes)


def test_reduced_count_and_scan_set():
    # the scan visits q^n (q-1)^(m-n+c) distinct matrices, each realising g
    # with every spanning-forest edge equal to 1
    graphs = [g for n in range(1, 5) for g in enumerate_graphs(n) if g.edge_count()]
    graphs.append(SimpleGraph.from_edges(5, [(0, 1), (2, 3)]))
    for q in (2, 3, 4, 5):
        tables = field_from_order(q).kernel_tables()
        for g in graphs:
            forest, rest, total = plan_scan(g, q)
            m, c = g.edge_count(), _components(g)
            assert total == enumeration_size(g.n, m, q, c) == q ** g.n * (q - 1) ** (m - g.n + c)
            assert total <= enumeration_size(g.n, m, q)
            if total > 20000:
                continue
            mats = _build_batch(g.n, _pairs(forest), _pairs(rest), q,
                                np.arange(total, dtype=np.int64))
            assert len({a.tobytes() for a in mats}) == total
            support = np.array([[g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)])
            off = ~np.eye(g.n, dtype=bool)
            assert ((mats != 0)[:, off] == support[off]).all()
            assert (mats == mats.transpose(0, 2, 1)).all()
            for u, v in forest:
                assert (mats[:, u, v] == 1).all()
            assert _rank_batch(mats, *tables).min() == oracle_min_rank(g, q)


def test_scan_range_and_result_are_checked(fullhouse, monkeypatch):
    total = plan_scan(fullhouse, 3)[2]
    with pytest.raises(ValueError):
        oracle_min_rank(fullhouse, 3, start=total)
    monkeypatch.setattr(_kernels, "scan_min_rank", lambda *args, **kwargs: 0)
    with pytest.raises(OracleScanError):
        oracle_min_rank(fullhouse, 3)


def test_batch_rank_kernel_matches_scalar_rank(rng):
    # the numpy batch eliminator against the plain matrix rank, directly
    for q in (2, 3, 4, 5):
        f = field_from_order(q)
        tables = f.kernel_tables()
        for n in (1, 3, 5):
            batch = np.array([[[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                              for _ in range(64)], dtype=np.int64)
            got = _rank_batch(batch, *tables)
            want = [rank(MatrixFq(f, m)) for m in batch]
            assert got.tolist() == want


def test_gf2_exhaustive_dense_graphs():
    # over GF(2) the edge values are forced, so 2^n ranks per graph
    for g in (SimpleGraph.complete(8), SimpleGraph.complete_multipartite([4, 4])):
        assert enumeration_size(g.n, g.edge_count(), 2) == 2 ** g.n
        assert oracle_min_rank(g, 2) in (1, 2)
