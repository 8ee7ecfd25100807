from __future__ import annotations

import functools
import itertools
import random

import pytest

from gfminrank import (MatrixFq, canonical_representatives, count_absolute,
                       enumerate_points, field_from_order, pairing)
from gfminrank import projgeo
from gfminrank.projgeo import (LANE_MAX_Q, canonicalize, norms, pairing_matrix, pairing_rows,
                               pairing_support, point_count, point_index)
from gfminrank.refdata import F2R3_U, F2R4_U, F3R3_U


def test_point_order_matches_reference_columns(gf2, gf3):
    assert [list(c) for c in zip(*enumerate_points(gf2, 3))] == F2R3_U
    assert [list(c) for c in zip(*enumerate_points(gf3, 3))] == F3R3_U
    assert [list(c) for c in zip(*enumerate_points(gf2, 4))] == F2R4_U
    assert enumerate_points(gf2, 1) == ((1,),)
    assert enumerate_points(gf2, 0) == ()


def test_point_counts():
    for q in (2, 3, 4, 5, 7, 9):
        f = field_from_order(q)
        for k in range(1, 6):
            pts = enumerate_points(f, k)
            assert len(pts) == point_count(q, k) == (q ** k - 1) // (q - 1)


def test_no_point_is_a_scalar_multiple_of_another():
    for q in (2, 3, 4):
        f = field_from_order(q)
        for k in (1, 2, 3):
            pts = enumerate_points(f, k)
            for x, y in itertools.combinations(pts, 2):
                for c in range(1, q):
                    assert tuple(f.mul(c, xi) for xi in x) != y


def test_points_are_canonical_and_unique():
    for q in (2, 3, 5, 9):
        f = field_from_order(q)
        pts = enumerate_points(f, 3)
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert canonicalize(f, p) == p
            last = max(i for i, c in enumerate(p) if c)
            assert p[last] == 1


def test_canonicalize_scalar_multiples(gf3):
    assert [canonicalize(gf3, v) for v in [(2, 1, 0), (1, 2, 0)]] == [(2, 1, 0), (2, 1, 0)]
    with pytest.raises(ValueError):
        canonicalize(gf3, (0, 0, 0))


def test_point_index_inverts_the_point_order():
    for q in (2, 3, 4, 5, 9):
        f = field_from_order(q)
        for k in (1, 2, 3, 4):
            pts = enumerate_points(f, k)
            assert [point_index(f, x) for x in pts] == list(range(len(pts)))
            # every nonzero multiple of a point indexes back to that point
            for c in range(1, q):
                assert [point_index(f, canonicalize(f, [f.mul(c, xi) for xi in x]))
                        for x in pts] == list(range(len(pts)))


def test_pairing_examples(gf2):
    i3 = MatrixFq.identity(gf2, 3)
    assert pairing((1, 0, 0), (1, 0, 0), i3) == 1
    assert pairing((0, 0, 1), (1, 1, 1), i3) == 1
    h = MatrixFq(gf2, [[0, 1], [1, 0]])
    assert pairing((1, 0), (0, 1), h) == 1
    with pytest.raises(ValueError):
        pairing((1, 0), (1, 0, 0), i3)


def test_pairing_symmetry(rng):
    for q in (2, 3, 4):
        f = field_from_order(q)
        for _ in range(50):
            k = rng.randrange(1, 5)
            ent = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    ent[i][j] = ent[j][i] = rng.randrange(q)
            b = MatrixFq(f, ent)
            x = tuple(rng.randrange(q) for _ in range(k))
            y = tuple(rng.randrange(q) for _ in range(k))
            assert pairing(x, y, b) == pairing(y, x, b)


def test_count_absolute_reference_values(gf2, gf3):
    assert count_absolute(MatrixFq.identity(gf2, 3)) == 3
    assert count_absolute(MatrixFq.identity(gf3, 3)) == 4
    hh = canonical_representatives(gf2, 4)[1]
    assert count_absolute(hh) == 15


def test_count_absolute_pairs_for_even_k_odd_q():
    for q in (3, 5):
        f = field_from_order(q)
        for m in (1, 2):
            k = 2 * m
            counts = {count_absolute(b) for b in canonical_representatives(f, k)}
            expected = {(q ** m - 1) * (q ** (m - 1) + 1) // (q - 1),
                        (q ** m + 1) * (q ** (m - 1) - 1) // (q - 1)}
            assert counts == expected


# -- brute-force references -------------------------------------------------------

def _dot(f, u, v) -> int:
    """u . v as a plain sum of scalar products."""
    return functools.reduce(f.add, map(f.mul, u, v), 0)


def _by_sums(f, b, xs, ys) -> list[list[int]]:
    """x^t B y for x in xs and y in ys, from B y for each y and one dot
    product per pair."""
    by = [[_dot(f, row, y) for row in b.entries] for y in ys]
    return [[_dot(f, x, c) for c in by] for x in xs]


def _prime_sum(x, entries, y, p) -> int:
    """x^t B y over GF(p) as one Python int reduced once."""
    return sum(xs * e * yt for xs, row in zip(x, entries) for e, yt in zip(row, y)) % p


def _mask(values) -> int:
    return sum(1 << v for v, w in enumerate(values) if w)


def _random_form(f, k, rng) -> MatrixFq:
    return MatrixFq(f, [[rng.randrange(f.q) for _ in range(k)] for _ in range(k)])


def _random_symmetric(f, k, rng) -> MatrixFq:
    ent = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            ent[i][j] = ent[j][i] = rng.randrange(f.q)
    return MatrixFq(f, ent)


# (q, k) with 400 or fewer points over the fields the lanes cover in each
# shape (prime, 2^e, odd p^e), and beyond them
SMALL_SETS = [(q, k) for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27) for k in range(1, 9)
              if point_count(q, k) <= 400] + [(257, 2)]


@pytest.mark.parametrize("q, k", SMALL_SETS)
def test_support_and_rows_match_sums_over_all_point_pairs(q, k):
    f = field_from_order(q)
    pts = enumerate_points(f, k)
    rng = random.Random(q * 100 + k)
    for b in canonical_representatives(f, k) + [_random_symmetric(f, k, rng)]:
        want = _by_sums(f, b, pts, pts)
        assert [list(row) for row in pairing_rows(b)] == want
        assert list(pairing_support(b)) == list(map(_mask, want))
        assert norms(b) == [want[v][v] for v in range(len(pts))]


@pytest.mark.parametrize("q, k", [(q, k) for q, k in SMALL_SETS if k >= 3])
def test_hyperplane_route_matches_sums_at_k_3_and_up(monkeypatch, q, k):
    # the route of fields past LANE_MAX_Q, run where the lanes would serve:
    # at k >= 3 _zero_set repeats the mask of each block's first period
    monkeypatch.setattr(projgeo, "_lanes", lambda b: False)
    f = field_from_order(q)
    pts = enumerate_points(f, k)
    rng = random.Random(q * 100 + k + 1)
    for b in canonical_representatives(f, k) + [_random_symmetric(f, k, rng)]:
        want = _by_sums(f, b, pts, pts)
        assert [list(row) for row in pairing_rows(b)] == want
        assert list(pairing_support(b)) == list(map(_mask, want))


def test_spot_rows_of_the_largest_sets_match_sums():
    f = field_from_order(9973)
    pts = enumerate_points(f, 2)
    rng = random.Random(9973)
    for b in canonical_representatives(f, 2):
        spots = sorted(rng.sample(range(len(pts)), 6) + [0, 1, len(pts) - 1])
        support = list(pairing_support(b))
        for v in spots:
            want = [_prime_sum(pts[v], b.entries, y, 9973) for y in pts]
            assert support[v] == _mask(want)
            if v < 2:  # each value row sums over every point, so only the first two
                assert list(next(itertools.islice(pairing_rows(b), v, None))) == want


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 256])
def test_pairing_support_over_extension_fields(q):
    f = field_from_order(q)
    rng = random.Random(q)
    for k in (1, 2, 3) if q < 256 else (1, 2):
        pts = enumerate_points(f, k)
        for b in (_random_form(f, k, rng), _random_symmetric(f, k, rng)):
            if b.is_symmetric():
                assert list(pairing_support(b)) == list(map(_mask, _by_sums(f, b, pts, pts)))


@pytest.mark.parametrize("q", [2, 3, 4, 9, 13])
def test_pairing_support_at_the_block_boundaries(q):
    # the walk restarts where the unit coordinate moves and carries where a
    # counter digit above the first wraps; the rows on both sides of each
    # must be exact
    f = field_from_order(q)
    b = _random_symmetric(f, 4, random.Random(q))
    pts = enumerate_points(f, 4)
    edges = {0, len(pts) - 1}
    for at in range(1, len(pts)):
        if any(pts[at][t] != pts[at - 1][t] for t in range(1, 4)):
            edges |= {at - 1, at}
    edges = sorted(edges)
    support = list(pairing_support(b))
    assert [support[v] for v in edges] == list(map(_mask, _by_sums(
        f, b, [pts[v] for v in edges], pts)))


@pytest.mark.parametrize("k", [2, 6, 12])
def test_pairing_support_is_exact_at_the_largest_prime(k):
    # sums of k products reach k (p-1)^2, about 2^34.6 at k = 6 and 2^35.6
    # at k = 12: past any 32-bit word, and exact as plain ints.  The
    # canonical points are too many past k = 2, so their pairings are
    # checked on sampled points through pairing_matrix
    f = field_from_order(65521)
    rng = random.Random(k)
    pts = [tuple(rng.randrange(f.q) for _ in range(k)) for _ in range(60)]
    pts[:5] = [(f.q - 1,) * k] * 5
    for b in (_random_form(f, k, rng), MatrixFq(f, [[f.q - 1] * k] * k)):
        assert [list(r) for r in pairing_matrix(pts, b)] == [
            [_prime_sum(x, b.entries, y, f.q) for y in pts] for x in pts]
    if k == 2:
        b = _random_symmetric(f, 2, rng)
        every = enumerate_points(f, 2)
        first = list(itertools.islice(pairing_support(b), 3))
        assert first == [_mask(_prime_sum(x, b.entries, y, f.q) for y in every)
                         for x in every[:3]]


# (q, k) whose bound k e (p-1)^2 lies just below and just above 2^8, 2^16
# and 2^32, with the width in bits of the word that holds it: where sums
# held in fixed words would wrap, the plain-int sums must stay exact, on
# sampled points through pairing_matrix and, where the canonical points
# are few, on all of them through pairing_support
WORD_EDGES = [(2, 255, 8), (2, 256, 16), (9, 31, 8), (9, 32, 16), (13, 1, 8), (13, 2, 16),
              (251, 1, 16), (257, 1, 32), (65521, 1, 32), (65521, 2, 64)]


@pytest.mark.parametrize("q, k, bits", WORD_EDGES)
def test_pairing_support_at_the_edges_of_each_word(q, k, bits):
    f = field_from_order(q)
    bound = k * f.e * (f.p - 1) ** 2
    assert 1 << bits // 2 <= bound < 1 << bits
    rng = random.Random(q * 1000 + k)
    full = [[q - 1] * k for _ in range(k)]
    # over GF(p), the unit row e_0 under the all-(q-1) form pairs with the
    # all-(q-1) row to k (p-1)^2, the bound itself
    pts = [tuple(int(i == 0) for i in range(k)), tuple(full[0])]
    pts += [tuple(rng.randrange(q) for _ in range(k)) for _ in range(30)]
    forms = [_random_form(f, k, rng), MatrixFq(f, full)]
    if f.e == 1 and k > 1:
        # and pairs with y to zero under a form whose row 0 is (q-1, .., q-1, c),
        # y = (q-1, .., q-1, d) with c d = -(k-1) mod p: a multiple of p near
        # the bound, which a word too narrow for it would not see as zero
        c, d = max(((c, -(k - 1) * pow(c, -1, q) % q) for c in range(1, q)),
                   key=lambda cd: cd[0] * cd[1])
        cancel = [row[:] for row in full]
        cancel[0][-1] = c
        y = tuple(full[0][:-1]) + (d,)
        pts.append(y)
        forms.append(MatrixFq(f, cancel))
        assert pairing(pts[0], y, forms[-1]) == 0
    for b in forms:
        want = _by_sums(f, b, pts, pts)
        assert [list(r) for r in pairing_matrix(pts, b)] == want
        if point_count(q, k) <= 300 and b.is_symmetric():  # all points, where few
            every = enumerate_points(f, k)
            assert list(pairing_support(b)) == list(map(_mask, _by_sums(f, b, every, every)))


def test_lanes_reach_the_largest_field_they_cover():
    # the largest lane fields of each kind (GF(127), GF(2^7)) and the
    # extension fields GF(7^2), GF(3^4), GF(11^2) and GF(5^3), walked as
    # lanes (k >= 3), against the sums
    assert LANE_MAX_Q == 128
    for q in (49, 81, 121, 125, 127, 128):
        f = field_from_order(q)
        b = _random_symmetric(f, 3, random.Random(q))
        pts = enumerate_points(f, 3)
        spots = [0, 1, q - 1, q, q * q - 1, q * q, len(pts) - 1]
        support = list(pairing_support(b))
        assert [support[v] for v in spots] == list(map(_mask, _by_sums(
            f, b, [pts[v] for v in spots], pts)))
