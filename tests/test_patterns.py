from __future__ import annotations

import pytest

from gfminrank import (MatrixFq, are_isomorphic, field_from_order, generate,
                       rank, verify_counts)
from gfminrank import patterns
from gfminrank.matfq import rank as matrix_rank
from gfminrank.patterns import (_GENERATOR_BLOCK, PatternPropertyError, VertexBudgetError,
                                gram_matrix, isometry_generators, pattern_graph,
                                rank_certificate)
from gfminrank.projgeo import canonicalize, norms, pairing, pairing_matrix
from gfminrank.refdata import (F2R3_GRAM, F2R4A_GRAM, F2R4B_GRAM, F3R3_GRAM,
                               G2F2_IDENTITY_GRAM, G2F2_SYMPLECTIC_GRAM,
                               G2F2_U, u_columns)


def graph_of_gram(gram: MatrixFq):
    from gfminrank import LoopedGraph
    n = gram.rows
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if gram.entries[i][j]]
    loops = [i for i in range(n) if gram.entries[i][i]]
    return LoopedGraph.from_parts(n, edges, loops)


@pytest.mark.parametrize("q,k,idx,ref", [
    (2, 3, 0, F2R3_GRAM),
    (3, 3, 0, F3R3_GRAM),
    (2, 4, 0, F2R4A_GRAM),
    (2, 4, 1, F2R4B_GRAM),
])
def test_generated_matrices_match_reference(q, k, idx, ref):
    ps = generate(q, k)
    gm = gram_matrix(ps.points, ps.patterns[idx].form)
    assert gm.to_lists() == ref
    assert ps.patterns[idx].graph == graph_of_gram(gm)


def test_rank2_gf2_patterns_match_reference_up_to_column_order():
    ps = generate(2, 2)
    cols = u_columns(G2F2_U)
    live = [j for j, c in enumerate(cols) if any(c)]
    pos = [cols.index(p) for p in ps.points]  # printed column of each point
    for idx, ref in [(0, G2F2_IDENTITY_GRAM), (1, G2F2_SYMPLECTIC_GRAM)]:
        gm = gram_matrix(ps.points, ps.patterns[idx].form)
        expected = [[ref[pos[i]][pos[j]] for j in range(len(live))]
                    for i in range(len(live))]
        assert gm.to_lists() == expected


def test_pattern_set_shape():
    for q, k, expect in [(2, 3, 1), (2, 4, 2), (3, 2, 2), (3, 3, 1), (4, 2, 2), (5, 1, 1)]:
        ps = generate(q, k)
        assert len(ps.patterns) == expect
        for pat in ps.patterns:
            assert pat.graph.n == (q ** k - 1) // (q - 1)


def test_generate_k0_and_k1():
    ps0 = generate(3, 0)
    assert len(ps0.patterns) == 1
    assert ps0.patterns[0].graph.n == 0
    ps1 = generate(3, 1)
    g = ps1.patterns[0].graph
    assert g.n == 1 and g.has_loop(0)


def test_points_are_read_only():
    ps = generate(2, 3)
    assert len(ps.points) == 7 and {len(p) for p in ps.points} == {3}
    assert type(ps.points) is tuple and {type(p) for p in ps.points} == {tuple}
    with pytest.raises(TypeError):
        ps.points[0][0] = 1


def test_vertex_budget_guard(monkeypatch):
    with pytest.raises(VertexBudgetError):
        generate(5, 7, vertex_budget=100)
    # a k past the budget is refused without computing q^k
    monkeypatch.setattr(patterns, "point_count", None)
    with pytest.raises(VertexBudgetError, match="q=3, k=101 .* over budget 100"):
        generate(3, 101, vertex_budget=100)


def test_verify_counts_all_small():
    for q in (2, 3, 4, 5):
        for k in (1, 2, 3, 4):
            report = verify_counts(generate(q, k))
            assert len(report["patterns"]) in (1, 2)


def test_verify_counts_reference_values():
    r23 = verify_counts(generate(2, 3))["patterns"][0]
    assert (r23["vertices"], r23["degree"], r23["nonlooped"]) == (7, 4, 3)
    r33 = verify_counts(generate(3, 3))["patterns"][0]
    assert (r33["vertices"], r33["degree"], r33["nonlooped"]) == (13, 9, 4)
    r24 = verify_counts(generate(2, 4))["patterns"]
    assert [p["nonlooped"] for p in r24] == [7, 15]


def test_verify_counts_names_the_violated_fact(gf2):
    ps = generate(2, 3)
    broken_graph = ps.patterns[0].graph.complement()
    from gfminrank.patterns import Pattern, PatternSet
    forged = PatternSet(2, 3, ps.field, ps.points,
                        (Pattern(ps.patterns[0].form, broken_graph),))
    with pytest.raises(PatternPropertyError) as err:
        verify_counts(forged)
    assert "regularity" in str(err.value) or "nonlooped" in str(err.value)


def test_rank_certificate():
    for q in (2, 3, 4):
        for k in (1, 2, 3):
            rank_certificate(generate(q, k))


def test_gram_rank_equals_k():
    for q, k in [(2, 4), (3, 3), (5, 2)]:
        ps = generate(q, k)
        for pat in ps.patterns:
            gm = gram_matrix(ps.points, pat.form)
            assert matrix_rank(gm) == k


def test_complement_is_polarity_graph():
    for q, k in [(2, 3), (3, 2), (4, 2)]:
        ps = generate(q, k)
        for pat in ps.patterns:
            polarity = pat.graph.complement()
            pts = list(ps.points)
            for i, x in enumerate(pts):
                assert polarity.has_loop(i) == (pairing(x, x, pat.form) == 0)
                for j in range(i + 1, len(pts)):
                    val = pairing(x, pts[j], pat.form)
                    assert polarity.has_edge(i, j) == (val == 0)


def _random_invertible(field, n, rng):
    while True:
        m = MatrixFq(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)])
        if matrix_rank(m) == n:
            return m


@pytest.mark.parametrize("q,kmax", [(2, 4), (3, 3)])
def test_congruent_representative_gives_isomorphic_pattern(q, kmax, rng):
    f = field_from_order(q)
    for k in range(1, kmax + 1):
        ps = generate(q, k)
        for pat in ps.patterns:
            for _ in range(3):
                c = _random_invertible(f, k, rng)
                twisted = c.transpose() @ pat.form @ c
                g2 = pattern_graph(twisted)
                assert are_isomorphic(pat.graph, g2)


@pytest.mark.parametrize("q,k", [(2, 5), (3, 4), (4, 3), (9, 3), (2, 9), (3, 6), (7, 4), (4, 5),
                                 (2, 11)])
def test_pattern_rows_and_loops_are_the_nonzero_pairings(q, k):
    ps = generate(q, k)
    for pat in ps.patterns:
        gram = pairing_matrix(ps.points, pat.form)
        n = len(gram)
        assert pat.graph.n == n
        assert pat.graph.loops == sum(1 << v for v in range(n) if gram[v][v])
        assert pat.graph.rows == tuple(sum(1 << u for u in range(n) if u != v and gram[v][u])
                                       for v in range(n))


def _projective_point(f, vec) -> tuple[int, ...]:
    last = max(i for i, c in enumerate(vec) if c)
    scale = f.inv(vec[last])
    return tuple(int(f.mul(scale, c)) for c in vec)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (4, 3),
                                 (4, 4), (8, 3), (9, 3)])
def test_orbit_keys_follow_the_form(q, k):
    # the computed roots hold one vertex per orbit key of the isometry group:
    # the square class of x^t B x, with the pole w of the absolute points
    # (B(x, w)^2 = B(x, x) for every x; only over even q with loops) apart;
    # the generators come in blocks, each (a, c) with c (2 + c B(a,a)) = 0
    # exactly once; and every generator the roots come from is an automorphism
    ps = generate(q, k)
    f, pts = ps.field, list(ps.points)
    index = {p: v for v, p in enumerate(pts)}
    for pat in ps.patterns:
        gram = pairing_matrix(ps.points, pat.form)
        norm = [gram[v][v] for v in range(len(pts))]
        keys = [0 if a == 0 else 1 if f.is_square(a) else 2 for a in norm]
        if q % 2 == 0 and pat.graph.loops:
            poles = [w for w in range(len(pts))
                     if all(f.mul(gram[x][w], gram[x][w]) == norm[x] for x in range(len(pts)))]
            assert len(poles) == 1
            keys[poles[0]] = 3
        roots = [v for v in range(len(pts)) if pat.roots >> v & 1]
        assert sorted(keys[v] for v in roots) == sorted(set(keys))

        blocks = list(isometry_generators(pat.form, norms(pat.form)))
        assert blocks or k == 1
        assert all(0 < len(centres) <= _GENERATOR_BLOCK for centres, _ in blocks)
        pairs = [(a, c) for centres, scalars in blocks for a, c in zip(centres, scalars)]
        two = f.add(1, 1)
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == {(a, c) for a in range(len(pts)) for c in range(1, q)
                              if f.mul(c, f.add(two, f.mul(c, norm[a]))) == 0}
        for a, c in pairs:
            image = []
            for x, p in enumerate(pts):
                t = f.mul(c, gram[x][a])
                image.append(index[_projective_point(
                    f, [f.add(xi, f.mul(t, ai)) for xi, ai in zip(p, pts[a])])])
            assert pat.graph.relabel(image) == pat.graph, (a, c)


@pytest.mark.parametrize("q, k", [(q, k) for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27)
                                  for k in range(3, 9) if (q ** k - 1) // (q - 1) <= 400])
def test_point_images_match_the_lane_images(monkeypatch, q, k):
    # the one-point-at-a-time images of fields past LANE_MAX_Q, run where
    # the lanes serve, for every generator, and the roots they give
    ps = generate(q, k)
    for pat in ps.patterns:
        by_lanes = patterns._lane_images(pat.form, ps.points)
        by_points = patterns._point_images(pat.form, ps.points)
        for centres, scalars in isometry_generators(pat.form, norms(pat.form)):
            for a, c in zip(centres, scalars):
                assert by_points(a, c) == by_lanes(a, c), (a, c)
        roots = pat.roots
        with monkeypatch.context() as m:
            m.setattr(patterns, "_lanes", lambda b: False)
            assert patterns.isometry_roots(pat.form) == roots


SMALL_SETS = [(q, k) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 37)
              for k in range(1, 6) if (q ** k - 1) // (q - 1) <= 40]


@pytest.mark.parametrize("q, k", SMALL_SETS)
def test_roots_are_the_least_points_of_the_orbits_under_every_generator(q, k):
    # the orbits closed under every reflection (odd q) and transvection
    # (even q) x -> x + c B(x,a) a with c (2 + c B(a,a)) = 0, by plain scalar
    # sums, one image at a time
    ps = generate(q, k)
    f, pts = ps.field, list(ps.points)
    index = {p: v for v, p in enumerate(pts)}
    two = f.add(1, 1)
    for pat in ps.patterns:
        label = list(range(len(pts)))

        def find(v):
            while label[v] != v:
                v = label[v]
            return v

        for a, centre in enumerate(pts):
            for c in range(1, q):
                if f.mul(c, f.add(two, f.mul(c, pairing(centre, centre, pat.form)))):
                    continue
                for v, x in enumerate(pts):
                    t = f.mul(c, pairing(x, centre, pat.form))
                    w = index[canonicalize(f, [f.add(xi, f.mul(t, ai))
                                               for xi, ai in zip(x, centre)])]
                    rv, rw = find(v), find(w)
                    label[max(rv, rw)] = min(rv, rw)
        least = {min(v for v in range(len(pts)) if find(v) == r) for r in map(find, range(len(pts)))}
        assert pat.roots == sum(1 << v for v in least), (q, k)
