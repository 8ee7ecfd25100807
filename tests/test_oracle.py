from __future__ import annotations

import itertools
import random
import time

import pytest

from gfminrank import (MatrixFq, SimpleGraph, emit_graph6, field_from_order,
                       min_rank, oracle_min_rank, parse_graph6, rank)
from gfminrank import _kernels, oracle
from gfminrank.miner import enumerate_graphs
from gfminrank.graphs import _zero_forcing_set
from gfminrank.oracle import OracleBudgetError, OracleScanError, enumeration_size


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


def test_field_order_past_the_kernel_tables_is_refused_before_the_graph_is_read():
    # before, K2 over GF(2048) was an OracleBudgetError and K0 answered 0
    for g in (SimpleGraph.complete(2), SimpleGraph.empty(3)):
        for q in (2048, 65536):
            with pytest.raises(ValueError, match="up to 1024"):
                oracle_min_rank(g, q)


def test_budget_refusal():
    g = SimpleGraph.complete(8)
    with pytest.raises(OracleBudgetError):
        oracle_min_rank(g, 16, budget=10 ** 4)
    assert enumeration_size(8, 28, 16) > 10 ** 4


def test_large_dense_graphs_within_default_budget():
    # far past any full scan (2^28 matrices each), but the search cuts early
    assert oracle_min_rank(SimpleGraph.complete_multipartite([14, 14]), 2) == 2
    assert oracle_min_rank(SimpleGraph.complete(28), 2) == 1


def test_agreement_with_blowup_route():
    for q, n_max in ((2, 6), (3, 6), (4, 5), (5, 5)):
        for n in range(1, n_max + 1):
            for g in enumerate_graphs(n):
                assert oracle_min_rank(g, q) == min_rank(g, q), (q, emit_graph6(g))


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
    # a connected graph's forest-normalised set has q^n (q-1)^(m-n+1)
    # matrices, at most enumeration_size = q^n (q-1)^m; every row has two or
    # more choices, so the search tree of the part it covers has fewer than
    # twice as many nodes as that set
    graphs = [g for n in range(2, 6) for g in enumerate_graphs(n) if _components(g) == 1]
    for q in (2, 3, 4, 5):
        tables = field_from_order(q).kernel_tables()
        for g in graphs:
            m = g.edge_count()
            total = q ** g.n * (q - 1) ** (m - g.n + 1)
            assert total <= enumeration_size(g.n, m, q) == q ** g.n * (q - 1) ** m
            best, nodes = _kernels.scan_min_rank(g.rows, q, tables, 10 ** 9, 1)
            assert best == oracle_min_rank(g, q)
            assert nodes < 2 * total, (q, emit_graph6(g))


def test_scan_range_and_result_are_checked(fullhouse, monkeypatch):
    monkeypatch.setattr(_kernels, "scan_min_rank", lambda *args, **kwargs: (0, 1))
    with pytest.raises(OracleScanError):
        oracle_min_rank(fullhouse, 3)


def test_kernel_refuses_a_disconnected_graph():
    tables = field_from_order(3).kernel_tables()
    for g in (_disjoint_union(_cycle(3), SimpleGraph.complete(2)),
              SimpleGraph.path(3).add_isolated(1)):
        with pytest.raises(ValueError, match="connected"):
            _kernels.scan_min_rank(g.rows, 3, tables, 10 ** 6, 1)


def test_scan_below_the_floor_is_checked(fullhouse, monkeypatch):
    # the fullhouse has zero forcing number 3, so a rank-1 answer breaks the
    # floor 5 - 3
    monkeypatch.setattr(_kernels, "scan_min_rank", lambda *args, **kwargs: (1, 1))
    with pytest.raises(OracleScanError, match="floor 2"):
        oracle_min_rank(fullhouse, 3)


def test_one_budget_is_shared_by_the_parts():
    # FnBGO over GF(5) takes 131 nodes: one copy fits 200, two (262) do not
    g = parse_graph6("FnBGO")
    assert oracle_min_rank(g, 5, budget=200) == 5
    with pytest.raises(OracleBudgetError):
        oracle_min_rank(_disjoint_union(g, g), 5, budget=200)
    assert oracle_min_rank(_disjoint_union(g, g), 5, budget=300) == 10


def test_gf2_exhaustive_dense_graphs():
    # over GF(2) the edge values are forced, so 2^n ranks per graph
    for g in (SimpleGraph.complete(8), SimpleGraph.complete_multipartite([4, 4])):
        assert enumeration_size(g.n, g.edge_count(), 2) == 2 ** g.n
        assert oracle_min_rank(g, 2) in (1, 2)


def _shuffled(g: SimpleGraph, rng: random.Random) -> SimpleGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _disjoint_union(*parts: SimpleGraph) -> SimpleGraph:
    edges, offset = [], 0
    for h in parts:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    return SimpleGraph.from_edges(offset, edges)


def _cycle(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("q", [3, 4, 5])
def test_answers_do_not_depend_on_vertex_order(q):
    # which entry of a component leads, and so is fixed to 1, depends on the
    # vertex order and the spanning forest; the least rank must not
    rng = random.Random(f"oracle-relabel:{q}")
    for n in (6, 6, 7):
        g = SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                       if rng.random() < 0.5])
        want = oracle_min_rank(g, q)
        for _ in range(2):
            assert oracle_min_rank(_shuffled(g, rng), q) == want, (q, emit_graph6(g))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_disjoint_unions_add_up_in_any_vertex_order(q):
    # odd cycles and triangles have free edges within one side of their
    # forest, bipartite components (even cycles, K_{2,3}, paths) have none,
    # and an isolated vertex has only its diagonal
    parts = [_cycle(5), _cycle(4), SimpleGraph.complete(3), SimpleGraph.path(3),
             SimpleGraph.complete_multipartite([2, 3]), SimpleGraph.empty(1)]
    assert [oracle_min_rank(h, q) for h in parts] == [3, 2, 1, 2, 2, 0]
    rng = random.Random(f"oracle-unions:{q}")
    for chosen in [[parts[0], parts[1], parts[5]]] + [rng.sample(parts, 3) for _ in range(5)]:
        g = _disjoint_union(*chosen)
        want = sum(oracle_min_rank(h, q) for h in chosen)
        assert oracle_min_rank(g, q) == want
        assert oracle_min_rank(_shuffled(g, rng), q) == want, (q, emit_graph6(g))


def _floor(g: SimpleGraph) -> int:
    """The oracle's floor for a connected g: n less its zero forcing set."""
    return g.n - _zero_forcing_set(g.rows).bit_count()


def test_one_matrix_per_scaling_class_fits_a_node_budget():
    # without a floor, FnBGO over GF(5) (mr 5) takes 72,112 nodes with one
    # matrix per scaling class and 288,115 with every forest-normalised
    # matrix; with its zero forcing floor 5 the oracle takes 131
    g = parse_graph6("FnBGO")
    tables = field_from_order(5).kernel_tables()
    assert _kernels.scan_min_rank(g.rows, 5, tables, 100_000, 1) == (5, 72_112)
    assert _floor(g) == 5
    assert oracle_min_rank(g, 5, budget=131) == 5


def test_floor_is_exact_on_paths_and_cycles():
    # mr(P_n) = n - 1 and mr(C_n) = n - 2 over every field, so the kernel
    # stops at its first leaf of that rank, within 100 nodes here
    for n in range(1, 41):
        assert _floor(SimpleGraph.path(n)) == n - 1
    for n in range(3, 41):
        assert _floor(_cycle(n)) == n - 2
    for q in (2, 3, 5):
        for n in (10, 30):
            assert oracle_min_rank(SimpleGraph.path(n), q, budget=100) == n - 1
            assert oracle_min_rank(_cycle(n), q, budget=100) == n - 2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_floor_keeps_every_answer_and_never_adds_nodes(q):
    tables = field_from_order(q).kernel_tables()
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            if _components(g) > 1:
                continue
            floor = _floor(g)
            plain = _kernels.scan_min_rank(g.rows, q, tables, 10 ** 9, 1)
            floored = _kernels.scan_min_rank(g.rows, q, tables, 10 ** 9, floor)
            assert floored[0] == plain[0] >= floor, (q, emit_graph6(g))
            assert floored[1] <= plain[1], (q, emit_graph6(g))


def test_capped_floor_search_on_a_sparse_60_vertex_draw():
    # the zero forcing search is capped by its own budget, and the floor
    # (39) leaves the kernel far too much to search within 1000 nodes
    rng = random.Random(60)
    g = SimpleGraph.from_edges(60, [(u, v) for u in range(60) for v in range(u + 1, 60)
                                    if rng.random() < 0.1])
    start = time.perf_counter()
    with pytest.raises(OracleBudgetError):
        oracle_min_rank(g, 2, budget=1000)
    assert time.perf_counter() - start < 2


def test_a_set_that_does_not_force_every_vertex_is_refused(fullhouse, monkeypatch):
    # a smallest zero forcing set less one vertex forces too few; the check
    # raises, and does under python -O too
    real = oracle._component_zero_forcing
    monkeypatch.setattr(oracle, "_component_zero_forcing",
                        lambda *args: real(*args) & (real(*args) - 1))
    for g in (fullhouse, SimpleGraph.path(6), parse_graph6("FnBGO")):
        with pytest.raises(OracleScanError, match="does not force"):
            oracle_min_rank(g, 3)


@pytest.mark.parametrize("text, q", [("IEeaSgO}G", 3), ("IEeaSgO}G", 4),
                                     ("JXdXgZ\\TCJ?", 3), ("HaJnE]F", 4)])
def test_zero_forcing_floor_reaches_past_ten_vertices(text, q):
    # G(10, 1/2) and G(11, 1/2) draws (seeds 6 and 10) and a 9-vertex graph:
    # the zero forcing floor equals mr, and the kernel reaches it within
    # 396-1,496 nodes
    g = parse_graph6(text)
    assert oracle_min_rank(g, q, budget=5_000) == min_rank(g, q)
