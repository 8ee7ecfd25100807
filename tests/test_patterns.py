from __future__ import annotations

import functools
import hashlib
import itertools

import pytest

from gfminrank import (MatrixFq, are_isomorphic, field_from_order, generate,
                       rank, verify_counts)
from gfminrank import patterns
from gfminrank.matfq import rank as matrix_rank
from gfminrank.gf import factor_prime_power
from gfminrank.patterns import (DEFAULT_VERTEX_BUDGET, PatternPropertyError, VertexBudgetError,
                                gram_matrix, pattern_graph, point_count, rank_certificate)
from gfminrank.projgeo import canonicalize, pairing, pairing_matrix
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


# (2, 1), whose one point is the pole, and every set of up to 400 points
# with k = 3..8 over these fields
ORBIT_KEY_SETS = [(2, 1)] + [(q, k) for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27)
                             for k in range(3, 9) if (q ** k - 1) // (q - 1) <= 400]


@pytest.mark.parametrize("q,k", ORBIT_KEY_SETS)
def test_orbit_keys_follow_the_form(q, k):
    # the roots are the least point of each orbit key, by plain scalar sums:
    # the square class of x^t B x, with the pole w of the absolute points
    # (B(x, w)^2 = B(x, x) for every x; only over even q with loops) apart
    ps = generate(q, k)
    f, pts = ps.field, ps.points
    for pat in ps.patterns:
        norm = [pairing(x, x, pat.form) for x in pts]
        keys = [0 if a == 0 else 1 if f.is_square(a) else 2 for a in norm]
        if q % 2 == 0 and pat.graph.loops:
            poles = [w for w, y in enumerate(pts)
                     if all(f.mul(t, t) == a for t, a in
                            ((pairing(x, y, pat.form), a) for x, a in zip(pts, norm)))]
            assert len(poles) == 1
            keys[poles[0]] = 3
        assert pat.roots == sum(1 << keys.index(key) for key in set(keys))


@pytest.mark.parametrize("q, k", ORBIT_KEY_SETS[1:])
def test_point_images_match_the_lane_images(q, k):
    # every reflection (odd q) and transvection (even q) x -> x + c B(x,a) a
    # with c (2 + c B(a,a)) = 0, applied one point at a time by plain scalar
    # sums, is a permutation that keeps each orbit key, so the key classes
    # that isometry_roots reads are unions of orbits.  (The name is kept from
    # when this test compared two ways of computing these images, so that
    # its ids stay comparable across runs.)
    ps = generate(q, k)
    f, pts = ps.field, ps.points
    index = {p: v for v, p in enumerate(pts)}
    two = f.add(1, 1)
    for pat in ps.patterns:
        gram = pairing_matrix(pts, pat.form)
        norm = [gram[x][x] for x in range(len(pts))]
        keys = [0 if a == 0 else 1 if f.is_square(a) else 2 for a in norm]
        pole = patterns._pole(pat.form)
        if pole >= 0:
            keys[pole] = 3
        for a, centre in enumerate(pts):
            for c in range(1, q):
                if f.mul(c, f.add(two, f.mul(c, norm[a]))):
                    continue
                image = []
                for x, row in zip(pts, gram):
                    t = f.mul(c, row[a])
                    image.append(index[canonicalize(
                        f, [f.add(xi, f.mul(t, ai)) for xi, ai in zip(x, centre)])])
                assert sorted(image) == list(range(len(pts))), (a, c)
                assert [keys[v] for v in image] == keys, (a, c)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (4, 2), (4, 3),
                                 (4, 4), (8, 2), (8, 3), (16, 2)])
def test_the_pole_and_the_maps_of_the_proof_over_even_q(q, k):
    # isometry_roots' proof for a form with loops over even q: B(w, w) = 1
    # exactly when k is odd; for k even, with B(v, w) = 1 and
    # U = <w, v>^perp, each map w -> w, v -> v + u0 + a w,
    # u -> u + B(u, u0) w keeps B and is an automorphism of the pattern
    ps = generate(q, k)
    f, pts = ps.field, ps.points
    index = {p: v for v, p in enumerate(pts)}
    for pat in ps.patterns:
        if not pat.graph.loops:
            continue
        b = pat.form

        def pair(x, y):
            return pairing(x, y, b)

        w = next(y for y in pts if all(f.mul(pair(x, y), pair(x, y)) == pair(x, x) for x in pts))
        assert pair(w, w) == k % 2
        if k % 2:
            continue
        v = next(y for y in pts if pair(y, w) == 1)
        units = [tuple(int(s == t) for s in range(k)) for t in range(k)]
        vectors = list(itertools.product(range(q), repeat=k))
        us = [u for u in vectors if pair(u, w) == 0 and pair(u, v) == 0]
        assert len(us) == q ** (k - 2)

        def combine(*terms):  # sum of c x over (c, x)
            return tuple(functools.reduce(f.add, (f.mul(c, x[t]) for c, x in terms), 0)
                         for t in range(k))

        def image(x, u0, a):  # x = alpha w + beta v + u
            beta = pair(x, w)
            alpha = f.add(pair(x, v), beta)
            u = combine((1, x), (alpha, w), (beta, v))
            return combine((alpha, w), (beta, v), (beta, u0), (f.mul(beta, a), w),
                           (1, u), (pair(u, u0), w))

        for u0 in us:
            for a in range(q):
                ims = [image(e, u0, a) for e in units]
                assert [[pair(x, y) for y in ims] for x in ims] == b.to_lists()
        perm = [index[canonicalize(f, list(image(x, us[-1], q - 1)))] for x in pts]
        assert pat.graph.relabel(perm) == pat.graph


def _prime_powers(top: int) -> list[int]:
    out = []
    for q in range(2, top + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


def _roots_digest(sets) -> tuple[int, str]:
    h, forms = hashlib.sha256(), 0
    for q, k in sets:
        for pat in generate(q, k).patterns:
            h.update(f"{q} {k} {pat.roots:x}\n".encode())
            forms += 1
    return forms, h.hexdigest()


def test_roots_are_pinned_on_every_form_within_the_budget():
    # recorded by the generator search that closed orbits under reflections
    # and transvections, before the closed form replaced it: every (q, k),
    # k >= 1, within the default budget for the 71 prime powers 2..257
    orders = _prime_powers(257)
    assert len(orders) == 71
    sets = [(q, k) for q in orders for k in range(1, 20) if point_count(q, k) <= DEFAULT_VERTEX_BUDGET]
    assert _roots_digest(sets) == (
        302, "cebcbfde765cb315d8c76cb99243f38c16a38d87eb9c41bd9e618ea052ac439b")


def test_roots_are_pinned_on_large_sets():
    # recorded as above; the generator search took 1.0 s for (8192, 2) alone
    sets = [(8192, 2), (9973, 2), (2, 13), (3, 8), (5, 5), (65521, 1)]
    assert _roots_digest(sets) == (
        9, "c5b59c346d1da882c2cbe2c0d706af218908c8f097b37bf62fae947ec87e68be")


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
