from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gfminrank import (LoopedGraph, SimpleGraph, blow_up, emit_graph6, generate,
                       is_blowup, member, min_rank, multipartite_bound_check,
                       oracle_min_rank, parse_graph6, twin_reduce)
from gfminrank import blowup, graphs
from gfminrank.blowup import MinRankBoundError, _rank_lower_bound, verify_blowup
from gfminrank.gf import field_from_order
from gfminrank.graphs import _components, _zero_forcing_set
from gfminrank.matfq import MatrixFq, rank
from gfminrank.miner import enumerate_graphs, enumerate_trees
from gfminrank.patterns import DEFAULT_VERTEX_BUDGET, Pattern, VertexBudgetError
from gfminrank.projgeo import point_count


def test_fullhouse_field_dependence(fullhouse):
    for pat in generate(2, 2).patterns:
        assert is_blowup(fullhouse, pat.graph) is None
    assert is_blowup(fullhouse, generate(2, 3).patterns[0].graph) is not None
    assert min_rank(fullhouse, 2) == 3
    assert min_rank(fullhouse, 3) == 2


def test_k222_is_blowup_of_the_nonlooped_triangle():
    k222 = SimpleGraph.complete_multipartite([2, 2, 2])
    triangle = generate(2, 2).patterns[1].graph
    w = is_blowup(k222, triangle)
    assert w is not None
    assert verify_blowup(k222, triangle, w.assignment)
    assert min_rank(k222, 2) == 2


def test_looped_path_blowup_example():
    pattern = LoopedGraph.from_parts(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3])
    g = blow_up(pattern, [3, 1, 2, 0])
    assert g.n == 6 and g.edge_count() == 6
    w = is_blowup(g, pattern)
    assert w is not None
    assert sorted(len(v) for v in w.class_image().values()) == [1, 2, 3]


def test_complete_graphs_have_rank_one():
    for q in (2, 3, 4):
        for n in (1, 2, 5):
            assert min_rank(SimpleGraph.complete(n), q) == (1 if n > 1 else 0)


def test_k2222_needs_rank_four_over_gf2():
    g = SimpleGraph.complete_multipartite([2, 2, 2, 2])
    assert min_rank(g, 2) == 4
    assert oracle_min_rank(g, 2) == 4


def test_edgeless_graphs_have_rank_zero():
    for n in (0, 1, 4):
        assert min_rank(SimpleGraph.empty(n), 2) == 0
        assert min_rank(SimpleGraph.empty(n), 2, max_k=0) == 0
        assert min_rank(SimpleGraph.empty(n), 3) == 0


def test_spread_realisations_are_found():
    # a two-vertex clique is a blowup of two adjacent nonlooped vertices
    triangle = generate(2, 2).patterns[1].graph
    w = is_blowup(SimpleGraph.complete(2), triangle)
    assert w is not None
    assert verify_blowup(SimpleGraph.complete(2), triangle, w.assignment)
    # dual case: independent pair onto nonadjacent looped vertices
    two_loops = LoopedGraph.from_parts(2, [], [0, 1])
    w2 = is_blowup(SimpleGraph.empty(2).add_isolated(0), two_loops)
    assert w2 is not None


def test_multipartite_bounds():
    assert multipartite_bound_check([2, 2, 2], 2)
    assert multipartite_bound_check([1], 2)
    assert not multipartite_bound_check([10, 10, 10, 10], 2)
    assert multipartite_bound_check([10, 10, 10, 10], 3)
    assert min_rank(SimpleGraph.complete_multipartite([10, 10, 10, 10]), 3) == 3


def test_multipartite_bound_check_over_budget_is_not_a_no():
    # the k = 3 patterns over GF(101) have 10303 > 10000 vertices
    with pytest.raises(VertexBudgetError):
        multipartite_bound_check([3, 3, 3, 3], 101)


def test_min_rank_bound_error_reports_cap(fullhouse):
    with pytest.raises(MinRankBoundError) as err:
        min_rank(fullhouse, 2, max_k=2)
    assert err.value.lower_bound == 2


def _cycle(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _union(*parts: SimpleGraph) -> SimpleGraph:
    rows, shift = [], 0
    for h in parts:
        rows += [r << shift for r in h.rows]
        shift += h.n
    return SimpleGraph(shift, rows)


def _longest_induced_path(g: SimpleGraph) -> int:
    """Vertex count of a longest induced path, by depth-first extension."""
    best = min(g.n, 1)

    def extend(path: int, last: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for v in range(g.n):
            # v extends the path at its tip and touches no other path vertex
            if g.has_edge(last, v) and not (path >> v) & 1 \
                    and not g.rows[v] & path & ~(1 << last):
                extend(path | 1 << v, v, length + 1)

    for s in range(g.n):
        extend(1 << s, s, 1)
    return best


def _forces_all(g: SimpleGraph, black: int) -> bool:
    """Whether the vertex mask black forces every vertex of g, by rounds."""
    full = (1 << g.n) - 1
    while black != full:
        grown = black
        for v in range(g.n):
            white = g.rows[v] & ~grown
            if (black >> v) & 1 and white.bit_count() == 1:
                grown |= white
        if grown == black:
            return False
        black = grown
    return True


def _brute_zero_forcing_number(g: SimpleGraph) -> int:
    """Z(g) by trying vertex sets by size upward from the minimum degree
    (the first force needs a black vertex with all but one neighbour black)."""
    start = min((r.bit_count() for r in g.rows), default=0)
    for size in range(start, g.n):
        for black in itertools.combinations(range(g.n), size):
            if _forces_all(g, sum(1 << v for v in black)):
                return size
    return g.n


def _zero_forcing_number(g: SimpleGraph) -> int:
    return _zero_forcing_set(g.rows).bit_count()


def test_zero_forcing_number_of_families():
    for n in range(2, 10):
        assert _zero_forcing_number(SimpleGraph.path(n)) == 1
        assert _zero_forcing_number(SimpleGraph.complete(n)) == n - 1
    for n in range(3, 10):
        assert _zero_forcing_number(_cycle(n)) == 2
    for m in range(2, 7):
        for n in range(2, 7):
            kmn = SimpleGraph.complete_multipartite([m, n])
            assert _zero_forcing_number(kmn) == m + n - 2
    union = _union(SimpleGraph.path(4), _cycle(5), SimpleGraph.complete(4))
    assert _zero_forcing_number(union) == 1 + 2 + 3


def test_zero_forcing_number_matches_brute_force_on_small_graphs():
    for n in range(8):
        for g in enumerate_graphs(n):
            s = _zero_forcing_set(g.rows)
            assert _forces_all(g, s), emit_graph6(g)
            assert s.bit_count() == _brute_zero_forcing_number(g), emit_graph6(g)


def test_zero_forcing_number_matches_brute_force_on_seeded_draws():
    rng = random.Random(2019)
    for _ in range(520):
        n, p = rng.randrange(8, 12), rng.choice((0.2, 0.35, 0.5, 0.7))
        g = SimpleGraph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        assert _zero_forcing_number(g) == _brute_zero_forcing_number(g), emit_graph6(g)


def test_zero_forcing_bound_dominates_the_induced_path_bound():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert _rank_lower_bound(g) >= _longest_induced_path(g) - 1, emit_graph6(g)


def test_zero_forcing_bound_sums_over_components_past_twelve_vertices():
    # 13 vertices, no twins: Z(P6) + Z(P7) = 2
    assert _rank_lower_bound(_union(SimpleGraph.path(6), SimpleGraph.path(7))) == 5 + 6
    # Z(K_{7,7}) = 12, and P3 gives 2
    k77 = SimpleGraph.complete_multipartite([7, 7])
    assert _rank_lower_bound(_union(k77, SimpleGraph.path(3))) == 2 + 2
    assert _rank_lower_bound(SimpleGraph.path(13)) == 12


def _random_tree(n: int, rng: random.Random) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def test_zero_forcing_bound_past_its_budget_completes_greedily(monkeypatch):
    # greedy bound <= exact bound <= mr: on random trees, on every graph with
    # at most 7 vertices and on G(n, 1/2) draws, each draw and tree past the
    # budget in some component
    rng = random.Random(1616)
    trees = [_random_tree(16, rng) for _ in range(8)]
    draws = trees + [_gnp_half(n, seed) for n in range(10, 15) for seed in range(1, 5)]
    cases = [g for n in range(8) for g in enumerate_graphs(n)] + draws
    exact = [(_rank_lower_bound(g), min_rank(g, 2)) for g in cases]
    completions = []
    real = graphs._greedy_completion

    def counted(*args):
        completions.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, "_greedy_completion", counted)
    monkeypatch.setattr(graphs, "ZERO_FORCING_BUDGET", 3)
    loosened = 0
    for i, (g, (b, mr)) in enumerate(zip(cases, exact)):
        completions.clear()
        bound = _rank_lower_bound(g)
        assert 0 <= bound <= b <= mr, emit_graph6(g)
        assert _forces_all(g, _zero_forcing_set(g.rows)), emit_graph6(g)
        if i >= len(cases) - len(draws):
            assert completions, emit_graph6(g)
        loosened += bound < b
    assert loosened  # on 24 of the small graphs the greedy bound is the lower


def test_zero_forcing_bound_of_large_sparse_and_twin_rich_graphs():
    # the budget bounds a 60-vertex tree; twins make K_{40,40,40} exact at once
    bound = _rank_lower_bound(_random_tree(60, random.Random(60)))
    assert 0 < bound < 60
    assert _rank_lower_bound(SimpleGraph.complete_multipartite([40, 40, 40])) == 2


def test_the_sweep_starts_at_the_zero_forcing_bound(monkeypatch):
    # each took seconds to minutes, or did not finish, refusing k = mr - 1;
    # the bound equals mr
    real = blowup.member
    for g6, q, mr in [("KN{pGA?VRDkd", 3, 7), ("HCdRjyh", 4, 6), ("Lb}~xC_wvvcChJ", 3, 7)]:
        def guarded(g, q, k, mr=mr, **kwargs):
            if k < mr:
                raise AssertionError(f"sweep tried k = {k} below the bound {mr}")
            return real(g, q, k, **kwargs)

        monkeypatch.setattr(blowup, "member", guarded)
        assert min_rank(parse_graph6(g6), q) == mr


def test_path_past_the_pattern_budget_is_answered_at_its_bound(monkeypatch):
    # mr(P13) = 12 = the bound n - 1, though the k = 12 patterns over GF(3)
    # are over budget: a part whose bound is n - 1 needs no search
    monkeypatch.setattr(blowup, "member", None)
    monkeypatch.setattr(blowup, "_gf2_min_rank", None)
    assert min_rank(SimpleGraph.path(13), 3) == 12
    for n, q in ((7, 7), (7, 8), (7, 9), (6, 11), (6, 13), (8, 5), (5, 2)):
        assert min_rank(SimpleGraph.path(n), q) == n - 1
    # two paths add up; P7 + P7 under a cap of 11 is refused below the bound
    assert min_rank(_union(SimpleGraph.path(6), SimpleGraph.path(7)), 7) == 11
    with pytest.raises(MinRankBoundError) as err:
        min_rank(_union(SimpleGraph.path(7), SimpleGraph.path(7)), 7, max_k=11)
    assert err.value.lower_bound == 11


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_every_graph_has_a_matrix_of_rank_at_most_n_minus_1(q):
    """1 on every edge and -deg(v) on the diagonal: the all-ones vector is
    in the kernel, so the rank is at most n - 1, and on a path it is n - 1."""
    field = field_from_order(q)
    for n in range(1, 8):
        for g in (SimpleGraph.path(n), SimpleGraph.complete(n), _gnp_half(n, n)):
            entries = [[1 if g.has_edge(u, v) else 0 for v in range(n)] for u in range(n)]
            for v in range(n):
                entries[v][v] = field.neg(g.rows[v].bit_count() % field.p)
            r = rank(MatrixFq(field, entries))
            assert r == n - 1 if g == SimpleGraph.path(n) else r <= n - 1, (n, q)


def test_a_tree_past_the_pattern_budget_is_refused_at_its_bound():
    # P11 with a pendant vertex at its middle: bound 10 = mr < n - 1, and
    # the k = 10 patterns over GF(3) are over budget
    spider = SimpleGraph.from_edges(12, [(v, v + 1) for v in range(10)] + [(5, 11)])
    assert _rank_lower_bound(spider) == 10
    with pytest.raises(MinRankBoundError) as err:
        min_rank(spider, 3)
    assert err.value.lower_bound == 9


def _brute_is_blowup(g: SimpleGraph, h: LoopedGraph) -> bool:
    """Ground truth by trying every vertex-level map, shared images included."""
    core = [v for v in range(g.n) if g.rows[v]]
    gc = g.induced(core)
    if gc.n == 0:
        return True
    if h.n == 0:
        return False
    for assign in itertools.product(range(h.n), repeat=gc.n):
        ok = True
        for u in range(gc.n):
            for v in range(u + 1, gc.n):
                if assign[u] == assign[v]:
                    expected = h.has_loop(assign[u])
                else:
                    expected = h.has_edge(assign[u], assign[v])
                if gc.has_edge(u, v) != expected:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_is_blowup_agrees_with_bruteforce_exhaustive():
    patterns = []
    for n in range(4):
        for bits in range(2 ** (n * (n - 1) // 2)):
            edges = []
            b = bits
            for i in range(n):
                for j in range(i + 1, n):
                    if b & 1:
                        edges.append((i, j))
                    b >>= 1
            for loops in range(2 ** n):
                patterns.append(LoopedGraph.from_parts(
                    n, edges, [v for v in range(n) if (loops >> v) & 1]))
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for h in patterns:
                assert (_brute_is_blowup(g, h)
                        == (is_blowup(g, h) is not None))


def test_is_blowup_agrees_with_bruteforce_randomised(rng):
    for _ in range(400):
        gn = rng.randrange(1, 6)
        g = SimpleGraph.from_edges(
            gn, [(i, j) for i in range(gn) for j in range(i + 1, gn) if rng.random() < 0.5])
        hn = rng.randrange(1, 5)
        h = LoopedGraph.from_parts(
            hn,
            [(i, j) for i in range(hn) for j in range(i + 1, hn) if rng.random() < 0.5],
            [v for v in range(hn) if rng.random() < 0.5])
        assert _brute_is_blowup(g, h) == (is_blowup(g, h) is not None)


def test_witness_soundness_fuzz(rng):
    for _ in range(150):
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        ps = generate(q, k)
        pat = ps.patterns[rng.randrange(len(ps.patterns))].graph
        sizes = [rng.randrange(0, 3) for _ in range(pat.n)]
        g = blow_up(pat, sizes)
        w = is_blowup(g, pat)
        assert w is not None, (q, k, sizes)
        assert verify_blowup(g, pat, w.assignment)


def _pairwise_verify_blowup(g: SimpleGraph, h: LoopedGraph, assignment: dict[int, int]) -> bool:
    """The raw blowup definition checked pair by pair over the non-isolated
    vertices: the reference that verify_blowup is compared with."""
    core = [v for v in range(g.n) if g.rows[v]]
    if sorted(assignment) != core:
        return False
    for i, u in enumerate(core):
        pu = assignment[u]
        if not (0 <= pu < h.n):
            return False
        for v in core[i + 1:]:
            pv = assignment[v]
            if pu == pv:
                expected = h.has_loop(pu)
            else:
                expected = h.has_edge(pu, pv)
            if g.has_edge(u, v) != expected:
                return False
    return True


def _reference_verdict(g: SimpleGraph, h: LoopedGraph, assignment: dict[int, int]) -> bool:
    # the pairwise check reads a negative image as the second vertex of a
    # pair before its own range check, and the shift by it raises: a no
    try:
        return _pairwise_verify_blowup(g, h, assignment)
    except ValueError:
        return False


def test_witness_check_agrees_with_the_pairwise_check_exhaustively():
    # every assignment of every labelled graph on <= 4 vertices, each vertex
    # left out, on an image below or above range or on a vertex of the host
    hosts = [pat.graph for q, k in [(2, 2), (3, 2), (2, 3)] for pat in generate(q, k).patterns]
    verdicts = {True: 0, False: 0}
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        labelled = [SimpleGraph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                    for bits in range(1 << len(pairs))]
        for h in hosts:
            for choice in itertools.product((None, *range(-1, h.n + 1)), repeat=n):
                assignment = {v: p for v, p in enumerate(choice) if p is not None}
                for g in labelled:
                    expected = _reference_verdict(g, h, assignment)
                    assert verify_blowup(g, h, assignment) == expected, (g, h, assignment)
                    verdicts[expected] += 1
    assert verdicts == {True: 4935, False: 1125806}


def test_witness_check_agrees_with_the_pairwise_check_on_corrupted_witnesses():
    # real witnesses on <= 8 vertices, each with one image changed (in range
    # or not) and with the images of two vertices swapped
    rng = random.Random(4141)
    hosts = [pat.graph for q, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)]
             for pat in generate(q, k).patterns]
    witnesses = 0
    verdicts = {True: 0, False: 0}
    while witnesses < 300:
        h = rng.choice(hosts)
        n = rng.randrange(2, 9)
        g = SimpleGraph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        w = is_blowup(g, h)
        if w is None or len(w.assignment) < 2:
            continue
        witnesses += 1
        assert verify_blowup(g, h, w.assignment) and _reference_verdict(g, h, w.assignment)
        for _ in range(10):
            changed = dict(w.assignment)
            v = rng.choice(list(changed))
            changed[v] = rng.choice([p for p in range(-1, h.n + 1) if p != changed[v]])
            swapped = dict(w.assignment)
            u, v = rng.sample(list(swapped), 2)
            swapped[u], swapped[v] = swapped[v], swapped[u]
            for assignment in (changed, swapped):
                expected = _reference_verdict(g, h, assignment)
                assert verify_blowup(g, h, assignment) == expected, (g, h, assignment)
                verdicts[expected] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_membership_monotone_under_induced_subgraphs(rng):
    for _ in range(40):
        n = rng.randrange(1, 7)
        g = SimpleGraph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        mr = min_rank(g, 2)
        keep = [v for v in range(n) if rng.random() < 0.6]
        assert min_rank(g.induced(keep), 2) <= mr


def test_tree_minimum_rank_is_field_independent():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert min_rank(t, 2) == min_rank(t, 3)


def test_isolated_vertices_do_not_change_minimum_rank(rng):
    for _ in range(25):
        n = rng.randrange(1, 6)
        g = SimpleGraph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        base = min_rank(g, 2)
        for t in (1, 2, 3):
            assert min_rank(g.add_isolated(t), 2) == base


def test_isolated_class_is_the_one_with_empty_rows():
    # K3 + K2 + 2K1: all three twin classes have quotient row 0, but only the
    # last is isolated in g; the two cliques must still be placed
    g = parse_graph6("FwC??")
    assert g == SimpleGraph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4)])
    ok, w, idx = member(g, 2, 2)
    assert ok and idx == 0
    assert w.assignment == {0: 0, 1: 0, 2: 0, 3: 2, 4: 2}


def test_inserted_isolated_vertices_leave_the_witness_alone():
    rng = random.Random(909)
    patterns = [pat for q, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
                for pat in generate(q, k).patterns]
    for _ in range(300):
        n = rng.randrange(1, 7)
        g = SimpleGraph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        t = rng.randrange(3)
        # new positions of g's vertices, in their old order
        pos = sorted(rng.sample(range(n + t), n))
        h = SimpleGraph.from_edges(n + t, [(pos[u], pos[v]) for u, v in g.edges()])
        pat = rng.choice(patterns)
        w, wh = is_blowup(g, pat), is_blowup(h, pat)
        assert (w is None) == (wh is None)
        if w is not None:
            assert wh.assignment == {pos[v]: p for v, p in w.assignment.items()}


def test_member_returns_witness_and_pattern_index(fullhouse):
    ok, w, idx = member(fullhouse, 2, 3)
    assert ok and idx == 0
    assert verify_blowup(fullhouse, generate(2, 3).patterns[0].graph, w.assignment)
    ok2, w2, idx2 = member(fullhouse, 2, 2)
    assert not ok2 and w2 is None and idx2 is None


def test_quotient_respects_blowup_structure():
    pattern = generate(2, 2).patterns[0].graph  # looped-nonlooped-looped path
    g = blow_up(pattern, [2, 2, 2])
    red = twin_reduce(g)
    assert red.quotient.n == 3
    assert is_blowup(g, pattern) is not None


def test_small_sweep_matches_oracle_gf4():
    # GF(4) exercises extension-field arithmetic through both routes
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert min_rank(g, 4) == oracle_min_rank(g, 4)


def test_small_sweep_matches_oracle_gf5():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert min_rank(g, 5) == oracle_min_rank(g, 5)


def test_f_czg_has_minimum_rank_three_over_gf2():
    # a blowup of the rank-3 GF(2) pattern; the oracle gives 3
    assert min_rank(parse_graph6("F{czG"), 2) == 3


def test_blowups_are_recognised_with_orbit_pruning():
    # every blowup of a pattern must be found although the first class tries
    # only one vertex per isometry orbit
    rng = random.Random(4004)
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in range(1, 7):
            if point_count(q, k) > 63:
                continue
            for pat in generate(q, k).patterns:
                for _ in range(40):
                    sizes = [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(pat.graph.n)]
                    g = blow_up(pat.graph, sizes)
                    assert is_blowup(g, pat) is not None, (q, k, sizes)


ROOT_SETS = [(2, k) for k in range(2, 6)] + [(3, k) for k in range(2, 5)] + [
    (4, 2), (4, 3), (5, 2), (5, 3), (7, 3), (9, 2), (9, 3)]


@pytest.mark.parametrize("q,k", ROOT_SETS)
def test_the_least_single_candidates_are_roots(q, k):
    # is_blowup tries the least single candidate of its first class before it
    # reads the roots; at the top that candidate is the least vertex, the
    # least looped or the least nonlooped one, so each must be a root
    for pat in generate(q, k).patterns:
        g = pat.graph
        full = (1 << g.n) - 1
        for cand in (full, g.loops, full & ~g.loops):
            if cand:
                assert pat.roots & cand & -cand, (q, k, cand & -cand)


def test_roots_are_built_only_on_a_backtrack():
    # FlTc? is decided at its first candidate over GF(3) at k = 4, and K_{2,2,2,2}
    # has mr 3 over GF(3), so k = 2 is refused after a search
    first = generate(3, 4).patterns[0]
    pat = Pattern(first.form, first.graph)
    assert is_blowup(parse_graph6("FlTc?"), pat) is not None
    assert "roots" not in pat.__dict__
    for pattern in generate(3, 2).patterns:
        pat = Pattern(pattern.form, pattern.graph)
        assert is_blowup(SimpleGraph.complete_multipartite([2, 2, 2, 2]), pat) is None
        assert pat.__dict__["roots"] == pattern.roots
    # GbB|I[ is found over GF(3) at k = 4 only after the first class moves on
    pat = Pattern(first.form, first.graph)
    assert is_blowup(parse_graph6("GbB|I["), pat) is not None
    assert "roots" in pat.__dict__


def _member_cases():
    """(q, g, k): every q > 2 sweep-pool graph of perfbench's reference data
    at k = mr - 1, mr and mr + 1, then G(n, 1/2) draws for n = 5..8 and seeds
    1..15 over GF(3), GF(4) and GF(5) at k = 2, 3 and 4."""
    refs = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data" /
                       "refs.json").read_text())
    for pool in refs["sweep_pools"]:
        if pool["q"] > 2:
            for item in pool["graphs"]:
                g = parse_graph6(item["g6"])
                mr = min_rank(g, pool["q"])
                yield from ((pool["q"], g, k) for k in (mr - 1, mr, mr + 1))
    for q in (3, 4, 5):
        for n in range(5, 9):
            for seed in range(1, 16):
                g = _gnp_half(n, seed)
                yield from ((q, g, k) for k in (2, 3, 4))


def test_member_answers_and_witnesses_are_pinned():
    # recorded before the roots were built lazily: the search order, and so
    # every answer, pattern index and witness, must not move
    digest, count = hashlib.sha256(), 0
    for q, g, k in _member_cases():
        ok, w, idx = member(g, q, k)
        record = [q, k, emit_graph6(g), ok, idx, None if w is None else sorted(w.assignment.items())]
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    assert count == 960
    assert digest.hexdigest() == "ebe90d5d8b3f43723f5368b28d4e36fccc484e98e1fb320f244e3cb6d636d15d"


def test_plain_looped_graph_witnesses_are_pinned():
    # a LoopedGraph host has no roots, so each call is a full search; the
    # answers and witnesses were recorded before the witness check and the
    # twin reduction worked on masks, and must not move
    digest, count = hashlib.sha256(), 0
    for q, k in [(2, 3), (3, 3)]:
        for idx, pat in enumerate(generate(q, k).patterns):
            for n in range(1, 7):
                for g in enumerate_graphs(n):
                    w = is_blowup(g, pat.graph)
                    record = [q, k, idx, emit_graph6(g),
                              None if w is None else sorted(w.assignment.items())]
                    digest.update(json.dumps(record).encode() + b"\n")
                    count += 1
    assert count == 416
    assert digest.hexdigest() == "5f86edbfa52b09e01ff83d66dd491a7119b450622e60ab1c2266acc9646f04e9"


def test_each_is_blowup_call_reduces_twins_once(monkeypatch):
    # a tracer that binds blowup.twin_reduce times one reduction per search
    calls = {"is_blowup": 0, "twin_reduce": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(blowup, "is_blowup", counted("is_blowup", blowup.is_blowup))
    monkeypatch.setattr(blowup, "twin_reduce", counted("twin_reduce", blowup.twin_reduce))
    for seed in range(1, 11):
        g = _gnp_half(7, seed)
        assert any(g.rows)  # an edgeless graph is decided before any reduction
        for k in range(2, 6):
            member(g, 3, k)
    assert calls["is_blowup"] >= 40
    assert calls["twin_reduce"] == calls["is_blowup"]


def test_sweep_matches_oracle_on_nine_vertex_graphs_gf2():
    # nine vertices need the k = 6 patterns over GF(2), where the pattern of
    # the identity form has an absolute pole; H^Zwu[O has mr 7
    rng = random.Random(9009)
    graphs = [parse_graph6("H^Zwu[O")]
    for _ in range(20):
        graphs.append(SimpleGraph.from_edges(
            9, [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.5]))
    assert min_rank(graphs[0], 2) == 7
    for g in graphs:
        mr = oracle_min_rank(g, 2)
        assert min_rank(g, 2) == mr, emit_graph6(g)
        _assert_patterns_give(g, mr)


def _assert_patterns_give(g: SimpleGraph, mr: int) -> None:
    # min_rank over GF(2) is the diagonal search, so check the pattern
    # route against the oracle here: g is a member at mr and not below it
    assert member(g, 2, mr)[0], emit_graph6(g)
    if mr > 0:
        assert not member(g, 2, mr - 1)[0], emit_graph6(g)


def test_sweep_matches_oracle_on_all_seven_vertex_graphs_gf2():
    for g in enumerate_graphs(7):
        mr = oracle_min_rank(g, 2)
        assert min_rank(g, 2) == mr, emit_graph6(g)
        assert _rank_lower_bound(g) <= mr, emit_graph6(g)
        _assert_patterns_give(g, mr)


def test_gf2_search_refuses_past_its_node_budget(monkeypatch):
    g = parse_graph6("H^Zwu[O")  # mr 7, above the zero forcing bound
    assert 1 <= _rank_lower_bound(g) < 7
    monkeypatch.setattr(blowup, "GF2_NODE_BUDGET", 5)
    with pytest.raises(MinRankBoundError) as err:
        min_rank(g, 2)
    assert err.value.lower_bound == _rank_lower_bound(g) - 1


def test_a_refusing_part_keeps_the_parts_before_and_after_it(monkeypatch):
    # P3 takes at most 10 nodes, H^Zwu[O more
    g = parse_graph6("H^Zwu[O")
    floor = _rank_lower_bound(g)
    monkeypatch.setattr(blowup, "GF2_NODE_BUDGET", 10)
    assert min_rank(SimpleGraph.path(3), 2) == 2
    with pytest.raises(MinRankBoundError) as err:
        min_rank(_union(SimpleGraph.path(3), g), 2)
    assert err.value.lower_bound == 2 + floor - 1
    # the floor of a part after it, K3's 1, still counts
    with pytest.raises(MinRankBoundError) as err:
        min_rank(_union(SimpleGraph.path(3), g, SimpleGraph.complete(3)), 2)
    assert err.value.lower_bound == 2 + floor - 1 + 1


def _seeded_unions(rng: random.Random, count: int) -> list[SimpleGraph]:
    """Disjoint unions of two or three G(n, 1/2) draws on 2-5 vertices and
    at times an isolated vertex, in shuffled vertex order."""
    out = []
    for _ in range(count):
        parts = []
        for _ in range(rng.choice((2, 3))):
            n = rng.randint(2, 5)
            parts.append(SimpleGraph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]))
        g = _union(*parts).add_isolated(rng.randint(0, 1))
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(g.relabel(perm))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_disjoint_unions_match_the_oracle(q):
    for g in _seeded_unions(random.Random(f"unions:{q}"), 12):
        assert min_rank(g, q) == oracle_min_rank(g, q), emit_graph6(g)


@pytest.mark.parametrize("q", [2, 3])
def test_max_k_caps_the_sum_over_the_parts(q):
    # over GF(2), H^Zwu[O has mr 7 above its bound 4, so with K3 before it
    # the cap falls on the second part
    extra = [_union(SimpleGraph.complete(3), parse_graph6("H^Zwu[O"))] if q == 2 else []
    for g in extra + _seeded_unions(random.Random(f"capped unions:{q}"), 8):
        mr = min_rank(g, q)
        if mr == 0:
            continue
        assert min_rank(g, q, max_k=mr) == mr
        with pytest.raises(MinRankBoundError) as err:
            min_rank(g, q, max_k=mr - 1)
        assert err.value.lower_bound == mr - 1, emit_graph6(g)


def test_each_part_gets_the_ceiling_the_others_leave(monkeypatch):
    # H^Zwu[O (mr 7, bound 4), K1,3 (mr 2 = bound) and K3 (mr 1 = bound)
    # over GF(2) with max_k 10: a part's ceiling is 10 less the mr before it
    # and the bounds after it, each below the part's vertex count (a part
    # whose bound is n - 1, such as P3, is answered without a search)
    star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    g = _union(parse_graph6("H^Zwu[O"), star, SimpleGraph.complete(3))
    calls = []
    real = blowup._gf2_min_rank

    def recorded(h, floor, ceiling):
        calls.append((h.n, floor, ceiling))
        return real(h, floor, ceiling)

    monkeypatch.setattr(blowup, "_gf2_min_rank", recorded)
    assert min_rank(g, 2, max_k=10) == 10
    assert calls == [(9, 4, 10 - 2 - 1), (4, 2, 10 - 7 - 1), (3, 1, 10 - 7 - 2)]
    calls.clear()
    assert min_rank(_union(parse_graph6("H^Zwu[O"), SimpleGraph.path(3)), 2) == 9
    assert calls == [(9, 4, 9)]


def test_rank_lower_bound_sums_over_the_components():
    # n - Z(g), with Z = 1 for an isolated vertex, equals the sum of
    # |h| - Z(h) over the components h with two or more vertices
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            parts = [g.induced(c) for c in _components(g) if len(c) > 1]
            assert _rank_lower_bound(g) == sum(h.n - _zero_forcing_number(h) for h in parts)


# -- metamorphic checks past the oracle's range ------------------------------------

def _gnp_half(n: int, seed: int) -> SimpleGraph:
    """G(n, 1/2) from random.Random(seed), one random() per pair i < j."""
    rng = random.Random(seed)
    return SimpleGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])


METAMORPHIC_DRAWS = [(n, seed) for n in (9, 10, 11) for seed in (1, 2, 3, 4)]


@pytest.mark.parametrize("n,seed", METAMORPHIC_DRAWS)
def test_minimum_rank_does_not_grow_over_an_extension_field(n, seed):
    """A GF(2) matrix is a GF(4) matrix with the same graph and rank."""
    g = _gnp_half(n, seed)
    assert min_rank(g, 4) <= min_rank(g, 2), emit_graph6(g)


@pytest.mark.parametrize("n,seed", METAMORPHIC_DRAWS)
def test_a_vertex_deletion_lowers_minimum_rank_by_at_most_two(n, seed):
    """mr(G) - 2 <= mr(G - v) <= mr(G) over GF(3): deleting v deletes a row
    and a column of a matrix, and keeps a principal submatrix of any."""
    g = _gnp_half(n, seed)
    mr = min_rank(g, 3)
    for v in range(n):
        h = g.induced([u for u in range(n) if u != v])
        assert mr - 2 <= min_rank(h, 3) <= mr, (emit_graph6(g), v)


# about 3 s in all; seed 17 is the first to take long: over GF(5) its n = 9
# draw toggled, HIl@Ia], takes 42 s at its bound, mr 5 (ROADMAP.md, the wall)
METAMORPHIC_SEEDS = range(1, 17)


def _mr_or_skip(g: SimpleGraph, q: int) -> int | None:
    """mr(GF(q), g), or None (a skipped check) when min_rank stops short."""
    try:
        return min_rank(g, q)
    except MinRankBoundError:
        return None


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("n", [9, 10, 11])
def test_metamorphic_battery(q, n):
    """Over G(n, 1/2) draws for METAMORPHIC_SEEDS, each with one edge uv
    toggled and one relabelling drawn from random.Random(f"{q} {n} {seed}"):
    - toggling an edge changes mr by at most 2: changing the entries uv and
      vu of a least-rank matrix of one graph, a change of rank at most 2,
      gives a matrix of the other;
    - relabelling changes nothing;
    - mr adds over a disjoint union, here of the draw and its toggled copy
      on interleaved labels.
    A check whose min_rank stops short (the pattern vertex budget) is
    skipped."""
    checks = 0
    for seed in METAMORPHIC_SEEDS:
        g = _gnp_half(n, seed)
        rng = random.Random(f"{q} {n} {seed}")
        u, v = rng.sample(range(n), 2)
        rows = list(g.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        toggled = SimpleGraph(n, rows)
        perm = list(range(n))
        rng.shuffle(perm)
        union = SimpleGraph.from_edges(2 * n, [(2 * a, 2 * b) for a, b in g.edges()] +
                                       [(2 * a + 1, 2 * b + 1) for a, b in toggled.edges()])
        mr, mr_toggled = _mr_or_skip(g, q), _mr_or_skip(toggled, q)
        mr_relabelled, mr_union = _mr_or_skip(g.relabel(perm), q), _mr_or_skip(union, q)
        where = (emit_graph6(g), u, v, perm)
        if None not in (mr, mr_toggled):
            assert abs(mr - mr_toggled) <= 2, where
            checks += 1
        if None not in (mr, mr_relabelled):
            assert mr_relabelled == mr, where
            checks += 1
        if None not in (mr, mr_toggled, mr_union):
            assert mr_union == mr + mr_toggled, where
            checks += 1
    assert checks >= 30


def test_gf2_search_answers_past_the_pattern_vertex_budget():
    # G(18, 1/2), seed 1: mr 14, where the GF(2) patterns have 16383 points
    rng = random.Random(1)
    g = SimpleGraph.from_edges(
        18, [(u, v) for u in range(18) for v in range(u + 1, 18) if rng.random() < 0.5])
    assert point_count(2, 14) > DEFAULT_VERTEX_BUDGET
    assert min_rank(g, 2) == oracle_min_rank(g, 2) == 14


# Run under python -O: the first assert is stripped there, which shows the
# flag took effect; the witness check in is_blowup must still raise.
GUARD = """
import gfminrank.blowup as b
from gfminrank import SimpleGraph, generate
assert False, "asserts are live"
b.verify_blowup = lambda *args: False
k222 = SimpleGraph.complete_multipartite([2, 2, 2])
try:
    b.is_blowup(k222, generate(2, 2).patterns[1].graph)
except b.InvariantError:
    print("raised")
"""


def test_invariant_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", GUARD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
