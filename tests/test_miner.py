from __future__ import annotations

import hashlib
import json

import pytest

from gfminrank import (SimpleGraph, are_isomorphic, check_f2r2_form,
                       emit_graph6, member, mine, oracle_min_rank)
from gfminrank.miner import (GRAPH_COUNTS, TREE_COUNTS, enumerate_graphs,
                             enumerate_trees)


def test_enumeration_counts():
    assert tuple(len(enumerate_graphs(n)) for n in range(8)) == GRAPH_COUNTS
    assert tuple(len(enumerate_trees(n)) for n in range(1, 8)) == TREE_COUNTS


def test_enumeration_output_is_pinned():
    """The representatives, their labelling and their order are part of
    the output (mined graphs are reported as graph6 strings)."""
    digest = hashlib.sha256()
    for n in range(8):
        for g in enumerate_graphs(n):
            digest.update((emit_graph6(g) + "\n").encode("ascii"))
    assert digest.hexdigest() == \
        "434bc757ac10473178bb7ca3f96f58aac2d25897662c3b47ad070505a6808c87"


def test_enumeration_has_no_duplicates():
    for n in range(6):
        graphs = enumerate_graphs(n)
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                assert not are_isomorphic(g, h)


def test_mine_rank1_ground_truth():
    run = mine(2, 1, n_max=5)
    p3 = SimpleGraph.path(3)
    two_k2 = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    assert len(run.found) == 2
    assert any(are_isomorphic(g, p3) for g in run.found)
    assert any(are_isomorphic(g, two_k2) for g in run.found)
    assert run.stats["scanned"] == sum(len(enumerate_graphs(n)) for n in range(1, 6))


def test_mine_rank2_finds_the_fullhouse(fullhouse):
    run = mine(2, 2, n_max=5)
    assert any(g.n == 5 and are_isomorphic(g, fullhouse) for g in run.found)


def test_mined_graphs_verify_against_oracle():
    run = mine(2, 1, n_max=5)
    for g in run.found:
        assert oracle_min_rank(g, 2) == 2
        for v in range(g.n):
            sub = g.induced([u for u in range(g.n) if u != v])
            assert oracle_min_rank(sub, 2) <= 1


@pytest.mark.parametrize("q,k,n_max", [(2, 2, 6), (3, 2, 5)])
def test_mined_rank2_sets_verify_against_oracle(q, k, n_max):
    run = mine(q, k, n_max=n_max)
    assert run.found, "rank-2 obstructions exist at this order"
    for g in run.found:
        assert oracle_min_rank(g, q) > k
        for v in range(g.n):
            sub = g.induced([u for u in range(g.n) if u != v])
            assert oracle_min_rank(sub, q) <= k


def test_mine_determinism_across_jobs():
    base = mine(2, 1, n_max=4).found_graph6()
    par = mine(2, 1, n_max=4, jobs=2).found_graph6()
    assert base == par


def test_mine_checkpoint_resume(tmp_path):
    ck = tmp_path / "mine.json"
    partial = mine(2, 1, n_max=5, checkpoint=str(ck), max_graphs=10,
                   checkpoint_every=5)
    state = json.loads(ck.read_text())
    assert state["counter"] == partial.stats["scanned"] > 0
    resumed = mine(2, 1, n_max=5, checkpoint=str(ck))
    assert resumed.found_graph6() == mine(2, 1, n_max=5).found_graph6()
    with pytest.raises(ValueError):
        mine(3, 1, n_max=4, checkpoint=str(ck))


def test_mine_checkpoint_is_tied_to_its_source(tmp_path):
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    ck = tmp_path / "mine.json"
    mine(2, 1, source=graphs, checkpoint=str(ck), max_graphs=20, checkpoint_every=5)
    assert json.loads(ck.read_text())["counter"] == 20
    saved = ck.read_text()
    resumed = mine(2, 1, source=graphs, checkpoint=str(ck))
    assert resumed.found_graph6() == mine(2, 1, source=graphs).found_graph6()
    ck.write_text(saved)
    with pytest.raises(ValueError, match="different source"):
        mine(2, 1, source=graphs[1:], checkpoint=str(ck))
    with pytest.raises(ValueError, match="covers 20 graphs"):
        mine(2, 1, source=graphs[:19], checkpoint=str(ck))


def test_mine_external_source(fullhouse):
    source = [SimpleGraph.path(3), SimpleGraph.complete(4), fullhouse]
    run = mine(2, 2, source=source)
    assert [g.n for g in run.found] == [5]
    assert run.stats["source"] == "external"


def test_mine_reports_a_relabelled_forbidden_graph_once(tmp_path):
    p3 = SimpleGraph.path(3)
    p3_centre_first = SimpleGraph.from_edges(3, [(0, 1), (0, 2)])
    source = [p3, SimpleGraph.complete(3), p3_centre_first]
    assert mine(2, 1, source=source).found == [p3]
    ck = tmp_path / "mine.json"
    mine(2, 1, source=source, checkpoint=str(ck), max_graphs=1, checkpoint_every=1)
    assert json.loads(ck.read_text())["found"] == [emit_graph6(p3)]
    resumed = mine(2, 1, source=source, checkpoint=str(ck))
    assert resumed.found == [p3] and resumed.stats["scanned"] == 3


def test_mine_rejects_oversize_internal_enumeration():
    with pytest.raises(ValueError):
        mine(2, 1, n_max=8)


def test_f2r2_form_reference_cases(fullhouse):
    assert check_f2r2_form(SimpleGraph.complete_multipartite([2, 2, 2]))
    assert not check_f2r2_form(fullhouse)
    for n in (1, 3, 6):
        assert check_f2r2_form(SimpleGraph.complete(n))


def test_f2r2_form_agrees_with_membership_everywhere():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert check_f2r2_form(g) == member(g, 2, 2)[0], emit_graph6(g)
