from __future__ import annotations

import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfminrank import graphs
from gfminrank import (LoopedGraph, SimpleGraph, are_isomorphic, blow_up,
                       canonical_form, emit_graph6, generate, parse_graph6,
                       twin_reduce)
from gfminrank.graphs import IsoBudgetError, looped_from_json, looped_to_json, to_dot
from gfminrank.miner import GRAPH_COUNTS, enumerate_graphs


def random_graph(n, rng, p=0.5):
    return SimpleGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


# -- adjacency rows ------------------------------------------------------------

def pair_loop_accepts(n, rows):
    """The reference check: rows inside 0..n-1, no loop, and bit j of row i
    equal to bit i of row j for every pair i < j."""
    full = (1 << n) - 1
    if any(r & ~full or r >> i & 1 for i, r in enumerate(rows)):
        return False
    return all((rows[i] >> j & 1) == (rows[j] >> i & 1)
               for i in range(n) for j in range(i + 1, n))


def accepts(n, rows):
    try:
        SimpleGraph(n, rows)
    except ValueError:
        return False
    return True


# both sides of each change of the packing stride (8, 64, 128, 256)
CHECK_SIZES = list(range(21)) + [63, 64, 65, 127, 128, 129]


def test_row_check_agrees_with_a_pair_loop(rng):
    for n in CHECK_SIZES:
        stride = max(8, 1 << (n - 1).bit_length())
        for trial in range(30):
            rows = list(random_graph(n, rng).rows)
            kind = trial % 7 if n else 0
            i, j = rng.randrange(n or 1), rng.randrange(n or 1)
            if kind == 1:  # one flipped bit, a loop when i == j
                rows[i] ^= 1 << j
            elif kind == 2 and i != j:  # a symmetric pair flipped
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
            elif kind == 3 and n < stride:  # a bit in n..stride-1
                rows[i] |= 1 << rng.randrange(n, stride)
            elif kind == 4:  # a bit past the stride
                rows[i] |= 1 << rng.randrange(stride, 3 * stride)
            elif kind == 5:  # a negative row
                rows[i] = ~rows[i] if rng.random() < 0.5 else -(1 << j)
            elif kind == 6:
                rows[i] |= 1 << i
            assert accepts(n, rows) == pair_loop_accepts(n, rows), (n, kind, rows)


@pytest.mark.parametrize("rows, message", [
    ([2, 0, 0], "not symmetric"),
    ([2, 1, 8], "outside vertex range"),
    ([2, -2, 0], "outside vertex range"),
    ([2, 1 << 300, 0], "outside vertex range"),
    ([2, 3, 0], "loop stored in adjacency at vertex 1"),
    ([3, 1, 8], "loop stored in adjacency at vertex 0"),
])
def test_row_check_names_the_first_fault(rows, message):
    with pytest.raises(ValueError, match=message):
        SimpleGraph(3, rows)
    with pytest.raises(ValueError, match=message):
        LoopedGraph(3, rows, 0)


@pytest.mark.parametrize("build", [
    lambda: SimpleGraph.path(3).induced([1, 1, 2]),
    lambda: SimpleGraph.path(3).induced([0, 0]),
    lambda: SimpleGraph.path(3).induced([0, 3]),
    lambda: SimpleGraph.path(3).induced([-1, 0]),
    lambda: SimpleGraph.empty(2).relabel([0, 0]),
    lambda: SimpleGraph.empty(2).relabel([0, 1, 2]),
    lambda: SimpleGraph.empty(2).relabel([1]),
    lambda: SimpleGraph.path(2).with_loops(1).relabel([1, 1]),
    lambda: SimpleGraph.empty(2).add_isolated(-1),
    lambda: SimpleGraph.empty(2).with_loops(0b100),
    lambda: SimpleGraph.empty(2).with_loops(-1),
    lambda: LoopedGraph.from_parts(2, [], [2]),
    lambda: SimpleGraph.empty(-1),
    lambda: SimpleGraph.path(-1),
    lambda: blow_up(SimpleGraph.path(2).with_loops(), [1]),
    lambda: blow_up(SimpleGraph.path(2).with_loops(), [1, -1]),
    lambda: blow_up(SimpleGraph.path(2).with_loops(), [1, 1.0]),
    lambda: SimpleGraph.complete_multipartite([2, -1]),
], ids=["induced-repeat-in-range", "induced-repeat", "induced-past-n", "induced-negative",
        "relabel-repeat", "relabel-long", "relabel-short", "looped-relabel-repeat",
        "add-negative", "loop-past-n", "loop-negative", "from-parts-loop-past-n",
        "empty-negative", "path-negative", "blow-up-short", "blow-up-negative",
        "blow-up-float", "multipartite-negative"])
def test_derived_graphs_check_their_arguments(build):
    with pytest.raises(ValueError):
        build()


def _assert_checked(g):
    assert isinstance(g.rows, tuple) and pair_loop_accepts(g.n, g.rows)
    if isinstance(g, LoopedGraph):
        assert 0 <= g.loops < 1 << g.n


def _trusted_derivations(g, rng):
    """Every graph the library derives from g without the row check."""
    n = g.n
    verts = rng.sample(range(n), rng.randrange(n + 1))
    perm = rng.sample(range(n), n)
    looped = g.with_loops(rng.getrandbits(n) if n else 0)
    yield from (g.induced(verts), g.relabel(perm), g.complement(), g.add_isolated(2), looped,
                looped.simple(), looped.complement(), looped.relabel(perm),
                canonical_form(g), canonical_form(looped), twin_reduce(g).quotient,
                blow_up(looped, [rng.randrange(3) for _ in range(n)]),
                SimpleGraph.from_edges(n, g.edges()),
                LoopedGraph.from_parts(n, g.edges(), looped.looped_vertices()),
                SimpleGraph.empty(n), SimpleGraph.complete(n), SimpleGraph.path(n),
                SimpleGraph.complete_multipartite([rng.randrange(4) for _ in range(n % 5)]))


def test_trusted_paths_build_checked_rows(rng):
    for n in list(range(9)) + [20, 33, 64, 65]:
        for _ in range(5):
            for h in _trusted_derivations(random_graph(n, rng, rng.random()), rng):
                _assert_checked(h)


@pytest.mark.parametrize("q,k", [(2, 9), (3, 4), (4, 3)])
def test_pattern_rows_pass_the_reference_check(q, k, rng):
    for pat in generate(q, k).patterns:
        _assert_checked(pat.graph)
    for h in _trusted_derivations(generate(q, k).patterns[-1].graph.simple(), rng):
        _assert_checked(h)


def test_library_paths_never_run_the_row_check(monkeypatch):
    from gfminrank import min_rank, miner, mine, patterns
    calls = []
    real = graphs._check_rows

    def counted(n, rows):
        calls.append(n)
        return real(n, rows)

    monkeypatch.setattr(graphs, "_check_rows", counted)
    miner._enumerate.cache_clear()
    for q, k in ((2, 3), (3, 3), (4, 3), (2, 2)):
        mine(q, k, n_max=7)
    patterns._generate_cached.cache_clear()
    generate(2, 11)
    rng = random.Random(7)
    for q in (3, 4):
        for _ in range(5):
            min_rank(random_graph(7, rng), q)
    assert calls == []
    LoopedGraph(2, [2, 1], 1)
    assert calls == [2]


@pytest.mark.parametrize("edge", [(0, 5), (5, 0), (0, 2), (-1, 1), (1, -3)])
def test_edge_endpoint_outside_the_vertices_is_a_value_error(edge):
    with pytest.raises(ValueError, match="outside 0..1"):
        SimpleGraph.from_edges(2, [edge])
    with pytest.raises(ValueError, match="outside 0..1"):
        looped_from_json({"n": 2, "edges": [list(edge)], "loops": []})


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


@pytest.mark.parametrize("text,what", [
    (b"\xff", "byte 255"), ("\udcff", "byte 255"), ("B\u00e9", "byte 195"),
    (b"B\x80", "byte 128"), ("B\ud800", "character U+D800"),
], ids=["byte", "surrogate-escape", "non-ascii-str", "non-ascii-bytes", "lone-surrogate"])
def test_graph6_non_ascii_is_out_of_range_not_a_codec_error(text, what):
    with pytest.raises(ValueError) as err:
        parse_graph6(text)
    assert str(err.value) == f"graph6 {what} out of range"


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


def reference_graph6(g):
    """graph6 from its definition: the size field (one byte for n <= 62,
    else 126 and three 6-bit digits), then the bits x(0,1), x(0,2),
    x(1,2), x(0,3), ... of the upper triangle column by column, padded
    with zeros to a multiple of six, six bits to a byte, high bit first,
    every 6-bit value offset by 63."""
    n = g.n
    size = [n] if n <= 62 else [63] + [(n >> s) & 63 for s in (12, 6, 0)]
    bits = [int(g.has_edge(i, j)) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[a:a + 6])), 2) for a in range(0, len(bits), 6)]
    return bytes(x + 63 for x in size + body).decode("ascii")


# both sides of the 62/63 size-field switch, and lines whose body is
# several thousand bytes
REFERENCE_SIZES = list(range(81)) + [200, 257]


def test_graph6_eight_byte_size_field():
    assert parse_graph6("~~?????@") == SimpleGraph.complete(1)
    assert parse_graph6("~~?????Bw") == SimpleGraph.complete(3)
    with pytest.raises(ValueError, match="truncated graph6 size field"):
        parse_graph6("~~??")
    # the size field alone: the row check of a 258,048-vertex graph packs
    # n s bits, about 8 GB
    for n in (62, 63, 258047, 258048, 2 ** 36 - 1):
        field = graphs._g6_encode_size(n)
        assert len(field) == (1 if n <= 62 else 4 if n <= 258047 else 8)
        assert graphs._g6_decode_size(field + b"?") == (n, len(field))
    with pytest.raises(ValueError, match="vertex count too large for graph6"):
        graphs._g6_encode_size(2 ** 36)


def test_graph6_matches_the_reference_encoder():
    rng = random.Random(11)
    for n in REFERENCE_SIZES:
        for p in (0.0, 0.5, 1.0):
            g = random_graph(n, rng, p)
            text = reference_graph6(g)
            assert emit_graph6(g) == text, n
            assert parse_graph6(text) == g, n


def test_graph6_rejects_each_nonzero_padding_bit():
    widths = set()
    for n in REFERENCE_SIZES:
        g = random_graph(n, random.Random(n))
        text = emit_graph6(g)
        pad = -(n * (n - 1) // 2) % 6
        widths.add(pad)
        for b in range(pad):
            bad = text[:-1] + chr(63 + (ord(text[-1]) - 63 | 1 << b))
            with pytest.raises(ValueError, match="padding bits are not zero"):
                parse_graph6(bad)
    # n(n-1)/2 is 0, 1, 3 or 4 mod 6, so these are all the widths there are
    assert widths == {0, 2, 3, 5}


def test_graph6_is_linear_in_the_line_at_both_ends():
    g = SimpleGraph.complete_multipartite([300, 300, 300])
    start = time.perf_counter()
    assert parse_graph6(emit_graph6(g)) == g
    assert time.perf_counter() - start < 1.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(0, 2 ** 30))
def test_graph6_roundtrip_hypothesis(n, seed):
    import random as _random
    g = random_graph(n, _random.Random(seed))
    assert parse_graph6(emit_graph6(g)) == g



@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parsed_rows_pass_the_row_check(data):
    # parse_graph6 skips _check_rows: any well-formed line must still give
    # symmetric, loop-free rows in range, and emit back to itself
    n = data.draw(st.integers(0, 70))
    bits = n * (n - 1) // 2
    body = data.draw(st.lists(st.integers(0, 63), min_size=-(-bits // 6), max_size=-(-bits // 6)))
    if body:
        body[-1] &= ~((1 << (-bits % 6)) - 1)  # padding bits are zero
    text = (graphs._g6_encode_size(n) + bytes(b + 63 for b in body)).decode("ascii")
    g = parse_graph6(text)
    assert graphs._check_rows(g.n, g.rows) == g.rows
    assert emit_graph6(g) == text

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
    assert red.class_sizes() == (2, 2, 2)
    assert red.quotient.simple() == SimpleGraph.complete(3)
    assert red.quotient.loops == 0


def test_twin_reduce_complete():
    red = twin_reduce(SimpleGraph.complete(5))
    assert red.quotient.n == 1
    assert red.quotient.loops == 1
    assert red.classes == ((0, 1, 2, 3, 4),)


def test_twin_reduce_path():
    red = twin_reduce(SimpleGraph.path(4))
    assert red.quotient.n == 4
    assert red.class_sizes() == (1, 1, 1, 1)
    assert red.quotient.loops == 0


def _has_mergeable_pair(red) -> bool:
    """Whether any two quotient classes could still merge as twins, given
    their kinds: a looped quotient vertex is a merged clique, an unlooped
    class of two or more a merged independent set."""
    q = red.quotient
    merged_set = [len(c) > 1 and not q.has_loop(i) for i, c in enumerate(red.classes)]
    for i in range(q.n):
        for j in range(i + 1, q.n):
            if q.has_edge(i, j):
                if merged_set[i] or merged_set[j]:
                    continue
                if (q.rows[i] | (1 << i) | (1 << j)) == (q.rows[j] | (1 << i) | (1 << j)):
                    return True
            else:
                if q.has_loop(i) or q.has_loop(j):
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
    """Classes and quotient straight from the definition: the groups of
    equal closed neighbourhoods of size >= 2, then the groups of equal open
    neighbourhoods of size >= 2 among the other vertices, then singletons,
    ordered by least vertex; the quotient joins classes whose
    representatives are adjacent and loops the merged cliques, the first
    groups."""
    n, rows = g.n, g.rows
    true = {tuple(u for u in range(n) if rows[u] | 1 << u == rows[v] | 1 << v)
            for v in range(n)}
    looped = {c for c in true if len(c) > 1}
    rest = [v for v in range(n) if not any(v in c for c in looped)]
    classes = sorted(looped | {tuple(u for u in rest if rows[u] == rows[v]) for v in rest})
    edges = [(i, j) for i, c in enumerate(classes) for j, d in enumerate(classes)
             if i < j and g.has_edge(c[0], d[0])]
    quotient = LoopedGraph.from_parts(len(classes), edges,
                                      [i for i, c in enumerate(classes) if c in looped])
    return tuple(classes), quotient


def _assert_twin_reduction_is_the_definition(g):
    red = twin_reduce(g)
    assert (red.classes, red.quotient) == _twin_reduction_by_definition(g), \
        emit_graph6(g)


def test_twin_classes_are_the_definition_on_all_small_graphs():
    for n in range(8):
        for g in enumerate_graphs(n):
            _assert_twin_reduction_is_the_definition(g)


def _least_twins_by_two_dicts(rows):
    """_least_twins with one dict per kind of twin: the smaller of each
    vertex's least open twin and least closed twin."""
    closed, open_ = {}, {}
    for v, r in enumerate(rows):
        closed.setdefault(r | 1 << v, v)
        open_.setdefault(r, v)
    return [min(closed[r | 1 << v], open_[r]) for v, r in enumerate(rows)]


def test_least_twins_match_two_dicts_on_all_small_graphs():
    for n in range(8):
        for g in enumerate_graphs(n):
            assert graphs._least_twins(g.rows) == _least_twins_by_two_dicts(g.rows), \
                emit_graph6(g)


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
    # the refinement starts from (nonlooped, looped): one empty part each
    assert not are_isomorphic(SimpleGraph.complete(3).with_loops(0b111), SimpleGraph.complete(3))


def test_isomorphism_budget(monkeypatch):
    g = SimpleGraph.empty(12)
    h = SimpleGraph.empty(12)
    monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", 5)
    with pytest.raises(IsoBudgetError):
        are_isomorphic(g, h)


# -- canonical form ----------------------------------------------------------------

def cycles(*lengths):
    """The disjoint union of cycles of these lengths."""
    edges, at = [], 0
    for n in lengths:
        edges += [(at + i, at + (i + 1) % n) for i in range(n)]
        at += n
    return SimpleGraph.from_edges(at, edges)


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
    for g in (cycles(7), petersen()):
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


def _least_leaf(g: LoopedGraph):
    """The reference certificate: the least over every leaf of the
    individualisation-refinement tree, searched with no pruning."""
    full = (1 << g.n) - 1
    root = [c for c in (full & ~g.loops, g.loops) if c]

    def leaves(cells, splitters):
        cells = graphs._refine(g.rows, cells, splitters)
        cell = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if cell is None:
            pos = {c.bit_length() - 1: i for i, c in enumerate(cells)}
            yield tuple(graphs._relabel_mask(g.rows[c.bit_length() - 1], pos) for c in cells)
            return
        c = cells[cell]
        for v in range(g.n):
            if c >> v & 1:
                yield from leaves(cells[:cell] + [1 << v, c ^ 1 << v] + cells[cell + 1:],
                                  [1 << v])

    return min(leaves(root, root))


def test_pruning_keeps_the_least_leaf():
    """Unions of cycles and a cubic bipartite double cover on 16 vertices
    are graphs where returning too far up the tree, or taking orbits
    under automorphisms that move the path, loses the least leaf under
    some labellings."""
    rng = random.Random(8008)
    cases = [cycles(3, 3, 4), cycles(3, 4, 5), cycles(4, 6), petersen(),
             parse_graph6("O????@caccCgOocOL??w?")]
    cases += [random_graph(n, rng) for n in range(2, 9) for _ in range(5)]
    for g in cases:
        for i in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm).with_loops(rng.getrandbits(g.n) if i % 2 else 0)
            assert canonical_form(h).rows == _least_leaf(h), looped_to_json(h)


def test_canonical_forms_of_all_small_graphs_are_distinct():
    keys = [canonical_form(g) for n in range(1, 8) for g in enumerate_graphs(n)]
    assert len(set(keys)) == sum(GRAPH_COUNTS[1:8]) == 1252
    digest = hashlib.sha256("\n".join(map(emit_graph6, keys)).encode("ascii"))
    assert digest.hexdigest() == \
        "0b221137c3b4f2ce256372fcef8129280e13800e2b90c93f536d53377530812d"


def _brute_isomorphic(g, h):
    """The reference: some permutation of g's vertices maps g onto h,
    loops included."""
    return g.n == h.n and any(g.relabel(p) == h for p in itertools.permutations(range(g.n)))


def test_equal_canonical_forms_agree_with_isomorphism():
    rng = random.Random(7007)
    pairs = 0
    while pairs < 400:
        n = rng.randrange(1, 7)  # 6! permutations per non-isomorphic pair
        g, h = random_graph(n, rng), random_graph(n, rng)
        if pairs % 2:
            g, h = g.with_loops(rng.getrandbits(n)), h.with_loops(rng.getrandbits(n))
        if rng.random() < 0.3:
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
        degrees = sorted(g.degree(v) for v in range(n))
        if degrees != sorted(h.degree(v) for v in range(n)):
            continue  # keep the pairs a degree count cannot tell apart
        pairs += 1
        same = _brute_isomorphic(g, h)
        assert (canonical_form(g) == canonical_form(h)) == same == are_isomorphic(g, h)


def test_looped_keys_count_the_looped_graphs():
    """Over all labelled looped graphs on n vertices the keys number the
    unlabelled ones (OEIS A000666), and a looped key of a graph without
    loops is its simple key."""
    for n, count in enumerate((1, 2, 6, 20, 90, 544)):
        pairs = list(itertools.combinations(range(n), 2))
        keys = set()
        for edges in range(1 << len(pairs)):
            g = SimpleGraph.from_edges(n, itertools.compress(pairs, map(int, bin(edges)[:1:-1])))
            loopless = canonical_form(g.with_loops(0))
            assert loopless.loops == 0 and loopless.rows == canonical_form(g).rows
            keys.add(loopless)
            keys.update(canonical_form(g.with_loops(loops)) for loops in range(1, 1 << n))
        assert len(keys) == count


@pytest.mark.parametrize("q,k", [(7, 3), (2, 6), (3, 5)])
def test_relabelled_patterns_have_equal_looped_keys(q, k):
    rng = random.Random(2)
    keys = []
    for pat in generate(q, k).patterns:
        perm = list(range(pat.graph.n))
        rng.shuffle(perm)
        key = canonical_form(pat.graph)
        assert isinstance(key, LoopedGraph) and key.loops.bit_count() == pat.graph.loops.bit_count()
        assert canonical_form(pat.graph.relabel(perm)) == key
        keys.append(key)
    assert len(set(keys)) == len(keys)  # the two patterns of (2, 6) differ


def _group_order(gens, n):
    """The order of the group the permutations gens of range(n) generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for p in gens:
            b = tuple(p[v] for v in a)
            if b not in group:
                group.add(b)
                frontier.append(b)
    return len(group)


def _canonical_with_swaps(g):
    """_canonical(g) with the twin swaps added to its gammas: for each twin
    class, the swaps of its least vertex with the others of the same loop
    status.  Together they generate the automorphism group of g."""
    loops = g.loops if isinstance(g, LoopedGraph) else 0
    (key, gens), first = graphs._canonical(g), {}
    for v, t in enumerate(graphs._least_twins(g.rows)):
        u = first.setdefault((t, loops >> v & 1), v)
        if u != v:
            swap = list(range(g.n))
            swap[u], swap[v] = v, u
            gens.append(swap)
    return key, gens


def test_canonical_generators_generate_the_automorphisms():
    """Every generator is an automorphism, and on small graphs, with and
    without loops, they generate the whole group (counted by brute force)."""
    rng = random.Random(9009)
    for n in range(7):
        for g in enumerate_graphs(n):
            for h in (g, g.with_loops(rng.getrandbits(n))):
                key, gens = _canonical_with_swaps(h)
                assert key == canonical_form(h)
                assert all(h.relabel(p) == h for p in gens), emit_graph6(g)
                autos = sum(h.relabel(p) == h for p in itertools.permutations(range(n)))
                assert _group_order(gens, n) == autos, emit_graph6(g)


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3)])
def test_generators_of_relabelled_looped_patterns_are_automorphisms(q, k):
    """Relabelled pattern graphs, with their own loops and with random
    ones, and their blowups by 1 or 2 with random loops, where twins of
    different loop status occur: a swap of those is no automorphism."""
    rng = random.Random(10010)
    mixed = 0
    for pat in generate(q, k).patterns:
        g = pat.graph
        for i in range(6):
            if i < 3:
                h = g if i == 0 else LoopedGraph(g.n, g.rows, rng.getrandbits(g.n))
            else:
                b = blow_up(g, [rng.choice((1, 2)) for _ in range(g.n)])
                h = b.with_loops(rng.getrandbits(b.n))
            perm = list(range(h.n))
            rng.shuffle(perm)
            h = h.relabel(perm)
            key, gens = _canonical_with_swaps(h)
            assert key == canonical_form(h) and all(h.relabel(p) == h for p in gens)
            if i == 0:
                assert gens  # these patterns have automorphisms
            twin = graphs._least_twins(h.rows)
            mixed += sum(h.has_loop(v) != h.has_loop(twin[v]) for v in range(h.n))
    assert mixed


def test_canonical_form_budget(monkeypatch):
    monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", 1)
    with pytest.raises(IsoBudgetError):
        canonical_form(petersen())


def test_canonical_form_takes_a_twin_class_in_one_step():
    """A cell of mutual twins is individualised in one step, in the order
    the one-at-a-time chain gave, so 1,100 twins need no deep recursion.
    Each graph here is its own key but the star, whose centre goes last."""
    n = 1100
    star = SimpleGraph.from_edges(n, [(0, v) for v in range(1, n)])
    cases = [(SimpleGraph.empty(n), SimpleGraph.empty(n)),
             (SimpleGraph.complete(n), SimpleGraph.complete(n)),
             (star, star.relabel([n - 1] + list(range(n - 1)))),
             (SimpleGraph.complete_multipartite([550, 550]),) * 2]
    rng = random.Random(3)
    for g, key in cases:
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == key == canonical_form(g.relabel(perm))


def test_canonical_form_of_a_cell_of_many_small_twin_classes():
    """The orbits under the recorded gammas are read only once a node has
    tried a child; the keys of 30 and 20 twin classes in one cell are those
    of a relabelling."""
    rng = random.Random(46)
    for parts in ([2] * 30, [3] * 20):
        g = SimpleGraph.complete_multipartite(parts)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


# -- serialisation -----------------------------------------------------------------

def test_looped_json_roundtrip(rng):
    for _ in range(25):
        n = rng.randrange(0, 8)
        g = random_graph(n, rng).with_loops(rng.getrandbits(n) if n else 0)
        assert looped_from_json(json.loads(looped_to_json(g))) == g


@pytest.mark.parametrize("obj,message", [
    ({"n": 2, "edges": [["0", "1"]], "loops": []}, "endpoint '0' is not an integer"),
    ({"n": 2, "edges": [[0, 1.5]], "loops": []}, "endpoint 1.5 is not an integer"),
    ({"n": 2, "edges": [[True, 0]], "loops": []}, "endpoint True is not an integer"),
    ({"n": 2, "edges": [[0, 1, 1]], "loops": []}, "edge .* is not a pair"),
    ({"n": 2, "edges": [5], "loops": []}, "edge 5 is not a pair"),
    ({"n": 2, "edges": {}, "loops": []}, "edges {} is not a list"),
    ({"n": 2, "edges": [], "loops": [1.5]}, "loop vertex 1.5 is not an integer"),
    ({"n": 2, "edges": [], "loops": [-1]}, r"loop vertex -1 is outside 0\.\.1"),
    ({"n": 2, "edges": [], "loops": [2]}, r"loop vertex 2 is outside 0\.\.1"),
    ({"n": 2, "edges": [], "loops": [False]}, "loop vertex False is not an integer"),
    ({"n": 2.7, "edges": [], "loops": []}, "n 2.7 is not a nonnegative integer"),
    ({"n": -1, "edges": [], "loops": []}, "n -1 is not a nonnegative integer"),
    ({"n": True, "edges": [], "loops": []}, "n True is not a nonnegative integer"),
    ([2, [], []], "is not a JSON object"),
    ({"edges": [], "loops": []}, "n is missing"),
    ({"n": 2, "loops": []}, "edges is missing"),
    ({"n": 2, "edges": []}, "loops is missing"),
], ids=["string-endpoint", "fractional-endpoint", "bool-endpoint", "triple-edge",
        "int-edge", "dict-edges", "fractional-loop", "negative-loop", "loop-past-n",
        "bool-loop", "fractional-n", "negative-n", "bool-n", "list-record",
        "missing-n", "missing-edges", "missing-loops"])
def test_looped_from_json_rejects_malformed_fields(obj, message):
    with pytest.raises(ValueError, match=message):
        looped_from_json(obj)


def test_dot_output_styles_loops():
    g = LoopedGraph.from_parts(2, [(0, 1)], [0])
    dot = to_dot(g)
    assert "0 [style=filled, fillcolor=black" in dot
    assert "1 [style=filled, fillcolor=white" in dot
    assert "0 -- 1;" in dot


def serialisation_cases(rng):
    yield SimpleGraph.empty(0).with_loops()
    yield SimpleGraph.empty(1).with_loops()
    yield SimpleGraph.empty(1).with_loops(1)
    yield SimpleGraph.empty(6).with_loops(0b100101)
    yield SimpleGraph.complete(7).with_loops()
    yield SimpleGraph.complete(9).with_loops(511)
    for n in rng.choices(range(70), k=30):
        yield random_graph(n, rng, rng.random()).with_loops(rng.getrandbits(n) if n else 0)


def test_looped_to_json_is_json_dumps_of_the_record(rng):
    for g in serialisation_cases(rng):
        record = {"n": g.n, "loops": g.looped_vertices(), "edges": [list(e) for e in g.edges()]}
        assert looped_to_json(g) == json.dumps(record)
        extra = {"q": 4, "k": 3, "pattern": 1, "note": 'a "b" é'}
        assert looped_to_json(g, **extra) == json.dumps({**record, **extra})


def test_dot_output_matches_an_edge_at_a_time_writer(rng):
    for g in serialisation_cases(rng):
        lines = ["graph P {", "  node [shape=circle];"]
        lines += [f"  {v} [style=filled, fillcolor=black, fontcolor=white];" if g.has_loop(v)
                  else f"  {v} [style=filled, fillcolor=white];" for v in range(g.n)]
        lines += [f"  {u} -- {v};" for u, v in g.edges()] + ["}"]
        assert to_dot(g, name="P") == "\n".join(lines)


@pytest.mark.parametrize("seed", [0, 10 ** 6])
@pytest.mark.parametrize("rows_at_a_time", [1, 3, 64])
def test_edge_text_is_the_same_in_any_blocks_of_rows(monkeypatch, seed, rows_at_a_time):
    cases = list(serialisation_cases(random.Random(seed))) + [generate(2, 5).patterns[0].graph]
    expected = [(looped_to_json(g, pattern=1), to_dot(g)) for g in cases]
    monkeypatch.setattr(graphs, "_TEXT_ROWS", rows_at_a_time)
    assert [(looped_to_json(g, pattern=1), to_dot(g)) for g in cases] == expected
