from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import random

import pytest
from test_graphs import _group_order

from gfminrank import (SimpleGraph, are_isomorphic, canonical_form,
                       check_f2r2_form, emit_graph6, generate, member, mine,
                       oracle_min_rank)
from gfminrank import graphs, miner
from gfminrank.blowup import InvariantError, extend_blowup, verify_blowup
from gfminrank.miner import (GRAPH_COUNTS, TREE_COUNTS, deletion_classes,
                             enumerate_graphs, enumerate_trees)


def test_enumeration_counts():
    assert tuple(len(enumerate_graphs(n)) for n in range(8)) == GRAPH_COUNTS[:8]
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


def test_deletion_classes_are_the_classes_of_the_deletions():
    for n in range(1, 8):
        below = {canonical_form(h): j for j, h in enumerate(enumerate_graphs(n - 1))}
        for g, classes in zip(enumerate_graphs(n), deletion_classes(n), strict=True):
            assert classes == tuple(sorted({below[canonical_form(h)]
                                            for h in miner._deletions(g)})), emit_graph6(g)


def test_first_parent_is_the_representative_minus_its_last_vertex():
    # mine extends the witness of this parent, labelling and all
    for n in range(1, 8):
        below = enumerate_graphs(n - 1)
        for g, classes in zip(enumerate_graphs(n), deletion_classes(n), strict=True):
            assert g.induced(range(n - 1)) == below[classes[0]], emit_graph6(g)


def test_enumeration_keys_one_candidate_per_orbit(monkeypatch):
    """Per level, one candidate per orbit of each parent's automorphism
    group on its attachment sets, counted where the candidates are keyed
    and by brute force for n <= 6.  _canonical runs once per parent, for
    its generators, and never on a candidate."""
    profiles, canonical = miner._profiles, miner._canonical
    keyed, canonicalised = collections.Counter(), collections.Counter()

    def counted_profiles(parent, masks):
        for key in profiles(parent, masks):
            keyed[parent.n + 1] += 1
            yield key

    def counted_canonical(g, *args):
        canonicalised[g.n] += 1
        return canonical(g, *args)

    monkeypatch.setattr(miner, "_profiles", counted_profiles)
    monkeypatch.setattr(miner, "_canonical", counted_canonical)
    miner._enumerate.cache_clear()
    enumerate_graphs(7)
    candidates = [keyed[n] for n in range(1, 8)]
    assert candidates == [1, 2, 6, 20, 90, 544, 5096]
    assert [canonicalised[n] for n in range(8)] == [*GRAPH_COUNTS[:7], 0]
    for n in range(1, 7):
        orbits = 0
        for parent in enumerate_graphs(n - 1):
            autos = [p for p in itertools.permutations(range(n - 1)) if parent.relabel(p) == parent]
            images = {frozenset(graphs._relabel_mask(m, p) for p in autos)
                      for m in range(1 << (n - 1))}
            orbits += len(images)
        assert orbits == candidates[n - 1]


def _union_find_orbit_minima(gens, n):
    """_orbit_minima by a union-find over all 2^n masks, each joined to
    its image under each generator."""
    images = []
    for perm in gens:
        image = [0]
        for p in perm:
            image += [m | 1 << p for m in image]
        images.append(image)
    return [m for m, least in enumerate(graphs._orbits(images, 1 << n)) if least == m]


def test_orbit_minima_match_a_union_find_on_every_parent():
    for n in range(8):
        for parent in enumerate_graphs(n):
            gens = graphs._canonical(parent)[1]
            assert list(miner._orbit_minima(gens, n)) == _union_find_orbit_minima(gens, n), \
                emit_graph6(parent)
    # a group with no generators fixes every mask; a transposition pairs
    # masks that differ in exactly one of its two bits
    assert miner._orbit_minima([], 3) == range(8)
    assert miner._orbit_minima([[1, 0, 2]], 3) == [0, 1, 3, 4, 5, 7]


def _profile(g):
    """g's profile, as _enumerate keys g as a candidate: its vertices but
    the last, extended by the last."""
    return next(miner._profiles(g.induced(range(g.n - 1)), [g.rows[-1]]))


def _defined_profile(g):
    """The profile by its definition: each vertex's sorted (adjacency,
    common neighbours) over the other vertices, sorted."""
    return tuple(sorted(
        tuple(sorted((g.has_edge(v, u), (g.rows[v] & g.rows[u]).bit_count())
                     for u in range(g.n) if u != v))
        for v in range(g.n)))


def _candidates(n):
    """Every candidate on n vertices: each parent extended by the least
    mask of each orbit of its automorphism group."""
    for parent in enumerate_graphs(n - 1):
        for mask in miner._orbit_minima(graphs._canonical(parent)[1], n - 1):
            yield miner._extend(parent, mask)


def test_profile_is_unchanged_by_relabelling():
    # every graph on up to 7 vertices, and random ones on 8, where the
    # counts take the top slots of the 64-bit ints
    rng = random.Random(3803)
    samples = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    for _ in range(300):
        edges = [e for e in itertools.combinations(range(8), 2) if rng.random() < 0.7]
        samples.append(SimpleGraph.from_edges(8, edges))
    for g in samples:
        perm = list(range(g.n))
        for _ in range(3):
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert _profile(h) == _profile(g), emit_graph6(g)
            assert _defined_profile(h) == _defined_profile(g)


def test_profiles_tell_the_candidates_apart_exactly_as_canonical_forms_do():
    """On every candidate with n <= 7, two profiles are equal exactly when
    the canonical forms are, and when the profiles by the definition are."""
    for n in range(1, 8):
        keys = {(_profile(g), canonical_form(g), _defined_profile(g))
                for g in _candidates(n)}
        assert len(keys) == GRAPH_COUNTS[n]
        for i in range(3):
            assert len({key[i] for key in keys}) == GRAPH_COUNTS[n]


def test_enumeration_past_the_table_keys_by_canonical_form(monkeypatch):
    """With the table cut to n <= 3, levels 4-7 are keyed by canonical_form
    alone, and give the same representatives and deletion classes."""
    expected = [miner._enumerate(n) for n in range(8)]
    profiles, canonical_form = miner._profiles, miner.canonical_form
    keyed, canonicalised = collections.Counter(), collections.Counter()

    def counted_profiles(parent, masks):
        keyed[parent.n + 1] += len(masks)
        return profiles(parent, masks)

    def counted_canonical_form(g):
        canonicalised[g.n] += 1
        return canonical_form(g)

    monkeypatch.setattr(miner, "GRAPH_COUNTS", (1, 1, 2, 4))
    monkeypatch.setattr(miner, "_profiles", counted_profiles)
    monkeypatch.setattr(miner, "canonical_form", counted_canonical_form)
    miner._enumerate.cache_clear()
    try:
        assert miner._enumerate.__wrapped__(7) == expected[7]
        assert [miner._enumerate(n) for n in range(7)] == expected[:7]
    finally:
        miner._enumerate.cache_clear()
    assert keyed == {1: 1, 2: 2, 3: 6}
    assert canonicalised == {4: 20, 5: 90, 6: 544, 7: 5096}


def test_a_weakened_profile_raises_and_never_merges_classes(monkeypatch):
    """Keyed by the degree sequence, which tells the 11 graphs on 4
    vertices apart but not those on 5, every level either raises or is
    the one the profile gives."""
    expected = [miner._enumerate(n) for n in range(8)]

    def degrees(parent, masks):
        for mask in masks:
            g = miner._extend(parent, mask)
            yield bytes(sorted(g.degree(v) for v in range(g.n)))

    monkeypatch.setattr(miner, "_profiles", degrees)
    raised = []
    try:
        for n in range(8):
            miner._enumerate.cache_clear()
            try:
                assert miner._enumerate(n) == expected[n]
            except InvariantError as err:
                assert "on 5 vertices, not 34" in str(err)
                raised.append(n)
    finally:
        miner._enumerate.cache_clear()
    assert raised == [5, 6, 7]


def test_class_sizes_add_up_to_the_labelled_graphs():
    """Orbit-stabiliser: the class of g holds n!/|Aut(g)| labelled graphs,
    so the classes cover all 2^(n(n-1)/2) exactly when GRAPH_COUNTS[n] is
    right, with no isomorphic representatives and none missing."""
    for n in range(8):
        labelled = sum(math.factorial(n) // _group_order(graphs._canonical(g)[1], n)
                       for g in enumerate_graphs(n))
        assert labelled == 1 << n * (n - 1) // 2


def test_enumeration_holds_graphs_and_deletion_classes_only():
    """The cache keeps no automorphism generators: each level is the
    representatives and their deletion classes, nothing more."""
    miner._enumerate.cache_clear()
    for n in range(8):
        assert miner._enumerate(n) == (enumerate_graphs(n), deletion_classes(n))
        assert len(enumerate_graphs(n)) == len(deletion_classes(n)) == GRAPH_COUNTS[n]


def test_enumeration_checks_the_class_counts(monkeypatch):
    monkeypatch.setattr(miner, "GRAPH_COUNTS", (1, 1, 2, 5))
    with pytest.raises(InvariantError, match="4 classes on 3 vertices, not 5"):
        miner._enumerate.__wrapped__(3)


def test_enumeration_has_no_duplicates():
    """By brute force: the relabellings of different representatives never
    coincide, and together they are all 2^(n(n-1)/2) labelled graphs."""
    for n in range(7):
        owner = {}
        for i, g in enumerate(enumerate_graphs(n)):
            for perm in itertools.permutations(range(n)):
                assert owner.setdefault(g.relabel(perm).rows, i) == i
        assert len(owner) == 1 << n * (n - 1) // 2


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


@pytest.mark.parametrize("q,k,n_max", [(2, 1, 6), (2, 2, 6), (2, 3, 7),
                                       (3, 2, 6), (3, 3, 6), (4, 2, 6),
                                       (3, 3, 7), (4, 3, 7)])
def test_mine_by_heredity_matches_the_table_free_check(q, k, n_max):
    graphs = [g for n in range(1, n_max + 1) for g in enumerate_graphs(n)]
    direct = sorted(emit_graph6(g) for g in graphs if miner._check_minimal_forbidden(g, q, k))
    assert mine(q, k, n_max=n_max).found_graph6() == direct


def test_mine_asks_only_about_graphs_whose_deletions_are_members(monkeypatch):
    verdicts = {}

    def verdict(g):
        key = canonical_form(g)
        if key not in verdicts:
            verdicts[key] = member(g, 2, 3)
        return verdicts[key]

    def checked(g, q, k):
        assert all(verdict(h)[0] for h in miner._deletions(g)), emit_graph6(g)
        return verdict(g)

    monkeypatch.setattr(miner, "member", checked)
    assert mine(2, 3, n_max=7).stats["scanned"] == 1252


def test_mine_makes_at_most_one_member_call_per_scanned_graph(monkeypatch):
    calls = []

    def counted(g, q, k):
        calls.append(g)
        return member(g, q, k)

    monkeypatch.setattr(miner, "member", counted)
    run = mine(2, 2, n_max=7)
    assert run.stats["scanned"] == 1252
    assert len(calls) <= run.stats["scanned"]


def _first_parents(q, k):
    """(g, h, assignment) for every representative g on 1..7 vertices whose
    first parent is a member, with member's witness of that parent: its
    pattern graph h and its assignment."""
    patterns = generate(q, k).patterns
    for n in range(1, 8):
        witnesses = []
        for p in enumerate_graphs(n - 1):
            yes, w, idx = member(p, q, k)
            witnesses.append((patterns[idx].graph, w.assignment) if yes else None)
        for g, classes in zip(enumerate_graphs(n), deletion_classes(n), strict=True):
            if witnesses[classes[0]] is not None:
                yield g, *witnesses[classes[0]]


EXTENSION_PAIRS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]


@pytest.mark.parametrize("q,k", EXTENSION_PAIRS)
def test_an_extended_witness_is_a_blowup_of_a_member(q, k):
    fits = 0
    for g, h, assignment in _first_parents(q, k):
        fit = extend_blowup(g, h, assignment)
        if fit is None:
            continue
        fits += 1
        assert verify_blowup(g, h, fit), emit_graph6(g)
        assert fit.items() >= {u: p for u, p in assignment.items()}.items()
        assert member(g, q, k)[0], emit_graph6(g)
    assert fits


@pytest.mark.parametrize("q,k", EXTENSION_PAIRS)
def test_a_corrupted_parent_witness_raises_and_never_fits(q, k):
    raised = 0
    for g, h, assignment in _first_parents(q, k):
        if not assignment:
            continue
        parent = g.induced(range(g.n - 1))
        u = min(assignment)
        for p in range(h.n):  # the first image that breaks the parent's blowup
            bad = {**assignment, u: p}
            if not verify_blowup(parent, h, bad):
                break
        try:
            fit = extend_blowup(g, h, bad)
        except InvariantError:
            raised += 1
        else:
            assert fit is None, emit_graph6(g)
    assert raised


def test_mine_raises_on_a_corrupted_witness(monkeypatch):
    member_witness = miner._member_witness

    def corrupted(g, q, k):
        witness = member_witness(g, q, k)
        if witness is None or not witness[1]:
            return witness
        h, assignment = witness
        u = min(assignment)
        for p in range(h.n):
            bad = {**assignment, u: p}
            if not verify_blowup(g, h, bad):
                return h, bad
        return witness

    monkeypatch.setattr(miner, "_member_witness", corrupted)
    with pytest.raises(InvariantError, match="extended witness"):
        mine(3, 3, n_max=6)


def _scan_member_calls(monkeypatch, pairs, n_max):
    """member calls made inside _is_minimal_forbidden and elsewhere, summed
    over mine(q, k, n_max) for (q, k) in pairs."""
    calls = collections.Counter()
    scanning = []
    is_minimal_forbidden = miner._is_minimal_forbidden

    def counted(g, q, k):
        calls["scan" if scanning else "report"] += 1
        return member(g, q, k)

    def scanned(*args):
        scanning.append(True)
        try:
            return is_minimal_forbidden(*args)
        finally:
            scanning.pop()

    monkeypatch.setattr(miner, "member", counted)
    monkeypatch.setattr(miner, "_is_minimal_forbidden", scanned)
    for q, k in pairs:
        mine(q, k, n_max=n_max)
    return calls


BENCHMARK_PAIRS = [(2, 3), (3, 3), (4, 3), (2, 2)]


def test_mine_extends_witnesses_in_place_of_most_member_calls(monkeypatch):
    # the pairs of the benchmark's mine workload: 1,888 scan-time member
    # calls without the extension, 441 with it
    calls = _scan_member_calls(monkeypatch, BENCHMARK_PAIRS, 7)
    assert calls["scan"] <= 460
    # re-verification of the 113 graphs found is by the definition alone,
    # one member call per distinct labelled graph (820 without the dict)
    assert calls["report"] == 470


@pytest.mark.parametrize("q,k,n_max", [*((q, k, 7) for q, k in BENCHMARK_PAIRS), (2, 3, 8)])
def test_internal_mining_reports_each_class_once(q, k, n_max):
    # no canonical form keys an internal run: its graphs are the
    # representatives, pairwise non-isomorphic
    found = mine(q, k, n_max=n_max).found
    assert found
    assert len({canonical_form(g) for g in found}) == len(found)


def test_an_external_stream_of_isomorphic_copies_is_deduplicated():
    rng = random.Random(5)
    source = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            source += [g, g.relabel(perm)]
    internal = mine(2, 2, n_max=6).found_graph6()
    run = mine(2, 2, source=source)
    assert run.stats["scanned"] == len(source)
    assert run.found_graph6() == internal


def test_a_lie_about_one_deletion_fails_re_verification(monkeypatch):
    """The re-verification decides each labelled graph once, by member and
    with no verdict of the scan: member saying no on one deletion of one
    mined graph, a labelled graph the scan never asks about, is caught."""
    found = mine(2, 3, n_max=6).found
    representatives = {g.rows for n in range(7) for g in enumerate_graphs(n)}
    lie = next(h.rows for g in found for h in miner._deletions(g)
               if h.rows not in representatives)
    asked = []

    def lying(g, q, k):
        asked.append(g.rows)
        return (False, None, None) if g.rows == lie else member(g, q, k)

    monkeypatch.setattr(miner, "member", lying)
    with pytest.raises(InvariantError, match="failed re-verification"):
        mine(2, 3, n_max=6)
    assert asked.count(lie) == 1


def test_mine_over_the_vertex_budget_falls_back_to_member(monkeypatch):
    # member answers yes with no witness, so no graph has one to extend
    assert miner._member_witness(SimpleGraph.path(3), 2, 20000) == miner._BARE
    calls = _scan_member_calls(monkeypatch, [(2, 20000)], 4)
    assert calls == {"scan": 18}


def test_mine_checkpoint_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(miner, "CHECKPOINT_EVERY", 5)
    ck = tmp_path / "mine.json"
    partial = mine(2, 1, n_max=5, checkpoint=str(ck), max_graphs=10)
    state = json.loads(ck.read_text())
    assert state["counter"] == partial.stats["scanned"] > 0
    resumed = mine(2, 1, n_max=5, checkpoint=str(ck))
    assert resumed.found_graph6() == mine(2, 1, n_max=5).found_graph6()
    with pytest.raises(ValueError):
        mine(3, 1, n_max=4, checkpoint=str(ck))


def test_mine_resumed_inside_a_level_reads_the_skipped_verdicts(tmp_path, monkeypatch):
    # 72 graphs cover the 52 on up to 5 vertices and 20 of the 156 on 6;
    # the only 6-vertex obstruction is representative 36, whose deletion
    # classes are all skipped 5-vertex graphs
    ck = tmp_path / "mine.json"
    partial = mine(3, 2, n_max=6, checkpoint=str(ck), max_graphs=72)
    assert partial.stats["scanned"] == 72
    assert all(g.n < 6 for g in partial.found)
    classified = []
    is_minimal_forbidden = miner._is_minimal_forbidden

    def counted(g, *args):
        classified.append(g)
        return is_minimal_forbidden(g, *args)

    monkeypatch.setattr(miner, "_is_minimal_forbidden", counted)
    resumed = mine(3, 2, n_max=6, checkpoint=str(ck))
    assert len(classified) == resumed.stats["scanned"] - 72 == 156 - 20
    assert emit_graph6(enumerate_graphs(6)[36]) in resumed.found_graph6()
    monkeypatch.undo()
    assert resumed.found_graph6() == mine(3, 2, n_max=6).found_graph6()


def test_mine_checkpoint_is_tied_to_its_source(tmp_path, monkeypatch):
    monkeypatch.setattr(miner, "CHECKPOINT_EVERY", 5)
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    ck = tmp_path / "mine.json"
    mine(2, 1, source=graphs, checkpoint=str(ck), max_graphs=20)
    assert json.loads(ck.read_text())["counter"] == 20
    saved = ck.read_text()
    resumed = mine(2, 1, source=graphs, checkpoint=str(ck))
    assert resumed.found_graph6() == mine(2, 1, source=graphs).found_graph6()
    ck.write_text(saved)
    with pytest.raises(ValueError, match="different source"):
        mine(2, 1, source=graphs[1:], checkpoint=str(ck))
    with pytest.raises(ValueError, match="covers 20 graphs"):
        mine(2, 1, source=graphs[:19], checkpoint=str(ck))


def test_mine_checks_its_checkpoint_path_before_scanning(tmp_path, monkeypatch):
    ck = tmp_path / "mine.json"
    mine(2, 1, n_max=5, checkpoint=str(ck), max_graphs=10)
    saved = ck.read_text()

    def interrupt(*args):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(miner, "_is_minimal_forbidden", interrupt)
    with pytest.raises(RuntimeError, match="interrupted"):
        mine(2, 1, n_max=5, checkpoint=str(ck))
    assert ck.read_text() == saved  # rewritten before the scan, no progress lost
    with pytest.raises(FileNotFoundError):
        mine(2, 1, n_max=5, checkpoint=str(tmp_path / "missing" / "mine.json"))


def test_mine_refuses_a_checkpoint_without_its_source_hash(tmp_path, monkeypatch):
    ck = tmp_path / "mine.json"
    mine(2, 1, n_max=4, checkpoint=str(ck), max_graphs=3)
    state = json.loads(ck.read_text())
    assert state["counter"] == 3
    del state["source_sha256"]
    ck.write_text(json.dumps(state))
    saved = ck.read_text()
    calls = []
    monkeypatch.setattr(miner, "member", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="source_sha256"):
        mine(2, 1, n_max=4, checkpoint=str(ck))
    assert ck.read_text() == saved and calls == []
    # a checkpoint that covers nothing may leave the hash out
    ck.write_text(json.dumps({**state, "counter": 0, "found": []}))
    monkeypatch.undo()
    assert mine(2, 1, n_max=4, checkpoint=str(ck)).found_graph6() == \
        mine(2, 1, n_max=4).found_graph6()


def test_mine_external_source(fullhouse):
    source = [SimpleGraph.path(3), SimpleGraph.complete(4), fullhouse]
    run = mine(2, 2, source=source)
    assert [g.n for g in run.found] == [5]
    assert run.stats["source"] == "external"


def test_mine_reports_a_relabelled_forbidden_graph_once(tmp_path, monkeypatch):
    monkeypatch.setattr(miner, "CHECKPOINT_EVERY", 1)
    p3 = SimpleGraph.path(3)
    p3_centre_first = SimpleGraph.from_edges(3, [(0, 1), (0, 2)])
    source = [p3, SimpleGraph.complete(3), p3_centre_first]
    assert mine(2, 1, source=source).found == [p3]
    ck = tmp_path / "mine.json"
    mine(2, 1, source=source, checkpoint=str(ck), max_graphs=1)
    assert json.loads(ck.read_text())["found"] == [emit_graph6(p3)]
    resumed = mine(2, 1, source=source, checkpoint=str(ck))
    assert resumed.found == [p3] and resumed.stats["scanned"] == 3


def test_mine_resumes_a_checkpoint_that_stores_n(tmp_path):
    # checkpoints once also stored the order of the largest graph found
    ck = tmp_path / "mine.json"
    mine(2, 1, n_max=5, checkpoint=str(ck), max_graphs=10)
    state = json.loads(ck.read_text())
    assert "n" not in state
    ck.write_text(json.dumps({**state, "n": 3}))
    resumed = mine(2, 1, n_max=5, checkpoint=str(ck))
    assert resumed.found_graph6() == mine(2, 1, n_max=5).found_graph6()
    assert resumed.stats["scanned"] == sum(len(enumerate_graphs(n)) for n in range(1, 6))


def test_mine_over_the_vertex_budget_finds_nothing():
    # every graph on n <= 4 < k vertices is a member without its patterns
    run = mine(2, 20000, n_max=4)
    assert run.found == [] and run.stats["scanned"] == 18


def test_mine_rejects_oversize_internal_enumeration():
    with pytest.raises(ValueError, match="n_max <= 8"):
        mine(2, 1, n_max=9)


def test_mine_to_8_vertices_builds_levels_only_as_it_scans():
    miner._enumerate.cache_clear()
    run = mine(2, 1, n_max=8, max_graphs=1)
    assert run.stats["scanned"] == 1 and run.stats["source"] == "internal:n<=8"
    assert miner._enumerate.cache_info().currsize == 2  # levels 0 and 1


def test_f2r2_form_reference_cases(fullhouse):
    assert check_f2r2_form(SimpleGraph.complete_multipartite([2, 2, 2]))
    assert not check_f2r2_form(fullhouse)
    for n in (1, 3, 6):
        assert check_f2r2_form(SimpleGraph.complete(n))


def test_f2r2_form_agrees_with_membership_everywhere():
    # n = 7 sends larger components through the complete bipartite check
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert check_f2r2_form(g) == member(g, 2, 2)[0], emit_graph6(g)
