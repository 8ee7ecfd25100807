from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfminrank import (LoopedGraph, SimpleGraph, are_isomorphic, blow_up,
                       canonical_form, emit_graph6, parse_graph6, twin_reduce)
from gfminrank.graphs import (ClassStatus, IsoBudgetError, looped_from_json,
                              looped_to_json, to_dot)
from gfminrank.miner import GRAPH_COUNTS, enumerate_graphs


def random_graph(n, rng, p=0.5):
    return SimpleGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


# -- graph6 --------------------------------------------------------------------

def test_graph6_reference_encodings():
    assert emit_graph6(SimpleGraph.complete(3)) == "Bw"
    assert parse_graph6("Bw") == SimpleGraph.complete(3)
    assert emit_graph6(SimpleGraph.empty(1)) == "@"
    assert parse_graph6("@") == SimpleGraph.empty(1)
    assert parse_graph6(">>graph6<<Bw") == SimpleGraph.complete(3)


def test_graph6_malformed_inputs():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("B")  # missing body byte
    with pytest.raises(ValueError):
        parse_graph6("Bww")  # trailing junk
    with pytest.raises(ValueError):
        parse_graph6("B" + chr(1))  # byte out of range
    # n = 2 has one data bit and five padding bits; nonzero padding must fail
    assert parse_graph6("A?") == SimpleGraph.empty(2)
    with pytest.raises(ValueError):
        parse_graph6("A@")


def test_graph6_roundtrip_small():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_roundtrip_random(rng):
    for _ in range(1000):
        n = rng.randrange(0, 41)
        g = random_graph(n, rng)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_long_form_header():
    g = SimpleGraph.empty(63)
    enc = emit_graph6(g)
    assert enc.startswith("~??~")
    assert parse_graph6(enc) == g
    g2 = random_graph(70, __import__("random").Random(7))
    assert parse_graph6(emit_graph6(g2)) == g2


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(0, 2 ** 30))
def test_graph6_roundtrip_hypothesis(n, seed):
    import random as _random
    g = random_graph(n, _random.Random(seed))
    assert parse_graph6(emit_graph6(g)) == g


# -- complement ------------------------------------------------------------------

def test_complement_fully_looped_complete():
    kn = SimpleGraph.complete(4).with_loops(0b1111)
    c = kn.complement()
    assert list(c.edges()) == []
    assert c.loops == 0


def test_complement_involution(rng):
    for _ in range(50):
        n = rng.randrange(0, 9)
        g = random_graph(n, rng).with_loops(rng.getrandbits(n) if n else 0)
        assert g.complement().complement() == g


def test_simple_complement(fullhouse):
    c = fullhouse.complement()
    # the complement is a 3-path plus two isolated vertices
    assert c.edge_count() == 2
    assert sorted(c.degree(v) for v in range(5)) == [0, 0, 1, 1, 2]


# -- twin reduction ----------------------------------------------------------------

def test_twin_reduce_multipartite():
    red = twin_reduce(SimpleGraph.complete_multipartite([2, 2, 2]))
    assert red.quotient.n == 3
    assert all(st is ClassStatus.NONLOOPED for st in red.statuses)
    assert red.quotient.simple() == SimpleGraph.complete(3)
    assert red.quotient.loops == 0


def test_twin_reduce_complete():
    red = twin_reduce(SimpleGraph.complete(5))
    assert red.quotient.n == 1
    assert red.statuses == (ClassStatus.LOOPED,)
    assert red.classes == ((0, 1, 2, 3, 4),)


def test_twin_reduce_path():
    red = twin_reduce(SimpleGraph.path(4))
    assert red.quotient.n == 4
    assert all(st is ClassStatus.FREE for st in red.statuses)


def _has_mergeable_pair(red) -> bool:
    """Whether any two quotient classes could still merge as twins, given
    their loop statuses."""
    q = red.quotient
    for i in range(q.n):
        for j in range(i + 1, q.n):
            if q.has_edge(i, j):
                if ClassStatus.NONLOOPED in (red.statuses[i], red.statuses[j]):
                    continue
                if (q.rows[i] | (1 << i) | (1 << j)) == (q.rows[j] | (1 << i) | (1 << j)):
                    return True
            else:
                if ClassStatus.LOOPED in (red.statuses[i], red.statuses[j]):
                    continue
                if (q.rows[i] & ~(1 << j)) == (q.rows[j] & ~(1 << i)):
                    return True
    return False


def test_twin_reduce_fixpoint(rng):
    for _ in range(100):
        g = random_graph(rng.randrange(0, 9), rng)
        assert not _has_mergeable_pair(twin_reduce(g))


def test_twin_reduce_reconstruction_exhaustive():
    for n in range(7):
        for g in enumerate_graphs(n):
            red = twin_reduce(g)
            rebuilt = blow_up(red.quotient, red.class_sizes())
            assert are_isomorphic(rebuilt, g)


def _twin_reduction_by_definition(g):
    """Classes, statuses and quotient straight from the definition: the
    groups of equal closed neighbourhoods of size >= 2, then the groups of
    equal open neighbourhoods of size >= 2 among the other vertices, then
    singletons, ordered by least vertex; the quotient joins classes whose
    representatives are adjacent."""
    n, rows = g.n, g.rows
    true = {tuple(u for u in range(n) if rows[u] | 1 << u == rows[v] | 1 << v)
            for v in range(n)}
    looped = {c for c in true if len(c) > 1}
    rest = [v for v in range(n) if not any(v in c for c in looped)]
    classes = sorted(looped | {tuple(u for u in rest if rows[u] == rows[v]) for v in rest})
    statuses = tuple(ClassStatus.LOOPED if c in looped else
                     ClassStatus.NONLOOPED if len(c) > 1 else ClassStatus.FREE
                     for c in classes)
    edges = [(i, j) for i, c in enumerate(classes) for j, d in enumerate(classes)
             if i < j and g.has_edge(c[0], d[0])]
    quotient = LoopedGraph.from_parts(len(classes), edges,
                                      [i for i, st in enumerate(statuses)
                                       if st is ClassStatus.LOOPED])
    return tuple(classes), statuses, quotient


def _assert_twin_reduction_is_the_definition(g):
    red = twin_reduce(g)
    assert (red.classes, red.statuses, red.quotient) == _twin_reduction_by_definition(g), \
        emit_graph6(g)


def test_twin_classes_are_the_definition_on_all_small_graphs():
    for n in range(8):
        for g in enumerate_graphs(n):
            _assert_twin_reduction_is_the_definition(g)


def test_twin_classes_are_the_definition_on_relabelled_blowups():
    rng = random.Random(5005)
    for _ in range(300):
        m = rng.randrange(1, 16)
        pattern = random_graph(m, rng).with_loops(rng.getrandbits(m))
        g = blow_up(pattern, [rng.choice((1, 1, 2, 3, 4)) for _ in range(m)])
        perm = list(range(g.n))
        rng.shuffle(perm)
        _assert_twin_reduction_is_the_definition(g.relabel(perm))


# -- isomorphism -------------------------------------------------------------------

def test_isomorphic_to_random_relabelling(rng):
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = random_graph(n, rng).with_loops(rng.getrandbits(n))
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_isomorphic(g, g.relabel(perm))


def test_non_isomorphic_pairs():
    assert not are_isomorphic(SimpleGraph.complete(3), SimpleGraph.path(3))
    looped = SimpleGraph.path(3).with_loops(0b001)
    unlooped = SimpleGraph.path(3).with_loops(0b010)
    assert not are_isomorphic(looped, unlooped)


def test_isomorphism_budget():
    g = SimpleGraph.empty(12)
    h = SimpleGraph.empty(12)
    with pytest.raises(IsoBudgetError):
        are_isomorphic(g, h, node_budget=5)


# -- canonical form ----------------------------------------------------------------

def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph.from_edges(10, outer + spokes + inner)


def _keyed_graphs(rng):
    """Random graphs on up to 10 vertices, twin-heavy graphs (empty,
    complete, complete multipartite, blowups of random looped patterns)
    and vertex-transitive ones (C7, the Petersen graph, their complements)."""
    graphs = [random_graph(rng.randrange(0, 11), rng) for _ in range(60)]
    graphs += [SimpleGraph.empty(n) for n in (0, 1, 6, 10)]
    graphs += [SimpleGraph.complete(n) for n in (2, 7, 10)]
    graphs += [SimpleGraph.complete_multipartite(s)
               for s in ([1, 2, 3], [2, 2, 2], [3, 3, 4], [1, 1, 1, 1, 5])]
    for _ in range(30):
        m = rng.randrange(1, 6)
        pattern = random_graph(m, rng).with_loops(rng.getrandbits(m))
        g = blow_up(pattern, [rng.choice((1, 2, 3)) for _ in range(m)])
        if g.n <= 10:
            graphs.append(g)
    for g in (cycle(7), petersen()):
        graphs += [g, g.complement()]
    return graphs


def test_canonical_form_ignores_relabelling():
    rng = random.Random(6006)
    for g in _keyed_graphs(rng):
        key = canonical_form(g)
        assert key.n == g.n and are_isomorphic(key, g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == key, emit_graph6(g)


def test_canonical_forms_of_all_small_graphs_are_distinct():
    keys = {canonical_form(g) for n in range(1, 8) for g in enumerate_graphs(n)}
    assert len(keys) == sum(GRAPH_COUNTS[1:]) == 1252


def test_equal_canonical_forms_agree_with_isomorphism():
    rng = random.Random(7007)
    pairs = 0
    while pairs < 400:
        n = rng.randrange(1, 9)
        g, h = random_graph(n, rng), random_graph(n, rng)
        if rng.random() < 0.3:
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
        degrees = sorted(g.degree(v) for v in range(n))
        if degrees != sorted(h.degree(v) for v in range(n)):
            continue  # keep the pairs a degree count cannot tell apart
        pairs += 1
        assert (canonical_form(g) == canonical_form(h)) == are_isomorphic(g, h)


def test_canonical_form_budget():
    with pytest.raises(IsoBudgetError):
        canonical_form(petersen(), node_budget=1)


# -- serialisation -----------------------------------------------------------------

def test_looped_json_roundtrip(rng):
    for _ in range(25):
        n = rng.randrange(0, 8)
        g = random_graph(n, rng).with_loops(rng.getrandbits(n) if n else 0)
        assert looped_from_json(looped_to_json(g)) == g


def test_dot_output_styles_loops():
    g = LoopedGraph.from_parts(2, [(0, 1)], [0])
    dot = to_dot(g)
    assert "0 [style=filled, fillcolor=black" in dot
    assert "1 [style=filled, fillcolor=white" in dot
    assert "0 -- 1;" in dot
