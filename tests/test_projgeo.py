from __future__ import annotations

import itertools

import numpy as np
import pytest

from gfminrank import (MatrixFq, canonical_representatives, count_absolute,
                       enumerate_points, field_from_order, pairing)
from gfminrank import projgeo
from gfminrank.projgeo import (_BLOCK_ROWS, canonicalize, pairing_matrix, pairing_support,
                               point_count, point_index, sum_word)
from gfminrank.refdata import F2R3_U, F2R4_U, F3R3_U


def test_point_order_matches_reference_columns(gf2, gf3):
    assert enumerate_points(gf2, 3).T.tolist() == F2R3_U
    assert enumerate_points(gf3, 3).T.tolist() == F3R3_U
    assert enumerate_points(gf2, 4).T.tolist() == F2R4_U
    assert enumerate_points(gf2, 1).tolist() == [[1]]


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
            pts = [tuple(p) for p in enumerate_points(f, k).tolist()]
            for x, y in itertools.combinations(pts, 2):
                for c in range(1, q):
                    assert tuple(f.mul(c, xi) for xi in x) != y


def test_points_are_canonical_and_unique():
    for q in (2, 3, 5, 9):
        f = field_from_order(q)
        pts = [tuple(p) for p in enumerate_points(f, 3).tolist()]
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert tuple(canonicalize(f, p)) == p
            last = max(i for i, c in enumerate(p) if c)
            assert p[last] == 1


def test_canonicalize_scalar_multiples(gf3):
    assert canonicalize(gf3, [(2, 1, 0), (1, 2, 0)]).tolist() == [[2, 1, 0], [2, 1, 0]]
    with pytest.raises(ValueError):
        canonicalize(gf3, (0, 0, 0))


def test_point_index_inverts_the_point_order():
    for q in (2, 3, 4, 5, 9):
        f = field_from_order(q)
        for k in (1, 2, 3, 4):
            pts = enumerate_points(f, k)
            assert point_index(f, pts).tolist() == list(range(len(pts)))
            # every nonzero multiple of a point indexes back to that point
            multiples = f.mul(np.arange(1, q)[:, None, None], pts[None])
            assert (point_index(f, canonicalize(f, multiples)) == np.arange(len(pts))).all()


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


def _support(pts, b) -> np.ndarray:
    blocks = list(pairing_support(pts, b))
    step = max(1, _BLOCK_ROWS // b.field.e)
    assert [len(nz) for nz in blocks] == [min(step, len(pts) - lo)
                                          for lo in range(0, len(pts), step)]
    return np.concatenate(blocks) if blocks else np.zeros((0, 0), dtype=bool)


def _random_form(f, k, gen) -> MatrixFq:
    return MatrixFq(f, gen.integers(0, f.q, (k, k)).tolist())


@pytest.mark.parametrize("k", [2, 6, 12])
def test_pairing_support_is_exact_at_the_largest_prime(k):
    # sums reach k (p-1)^2, about 2^34.6 at k = 6 and 2^35.6 at k = 12: past
    # 2^32, so only sums in 64-bit words are exact
    f = field_from_order(65521)
    gen = np.random.default_rng(k)
    pts = gen.integers(0, f.q, (300, k))
    pts[:5] = f.q - 1
    for b in (_random_form(f, k, gen), MatrixFq(f, np.full((k, k), f.q - 1).tolist())):
        assert (_support(pts, b) == (pairing_matrix(pts, b) != 0)).all()


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 256])
def test_pairing_support_over_extension_fields(q):
    f = field_from_order(q)
    gen = np.random.default_rng(q)
    for k in (1, 2, 3):
        pts = gen.integers(0, q, (200, k))
        b = _random_form(f, k, gen)
        assert (_support(pts, b) == (pairing_matrix(pts, b) != 0)).all()
    pts = enumerate_points(f, 2)
    for b in canonical_representatives(f, 2):
        assert (_support(pts, b) == (pairing_matrix(pts, b) != 0)).all()


@pytest.mark.parametrize("q", [2, 3, 4, 9, 13])
def test_pairing_support_at_the_block_boundaries(q):
    f = field_from_order(q)
    step = max(1, _BLOCK_ROWS // f.e)
    gen = np.random.default_rng(q)
    b = _random_form(f, 4, gen)
    for n in (0, 1, step - 1, step, step + 1, 2 * step + 1):
        pts = gen.integers(0, q, (n, 4))
        nz = _support(pts, b)
        assert nz.shape == (n, n)
        assert (nz == (pairing_matrix(pts, b) != 0)).all()


# (q, k) whose bound k e (p-1)^2 lies just below and just above 2^8, 2^16
# and 2^32, with the width in bits of the word that holds it.  A word one
# size too narrow gives wrong answers on (9, 32), (257, 1) and (65521, 2);
# on (2, 256) and (13, 2) it happens not to (a wrapped sum keeps its
# parity, and no sum of (13, 2) from 256 to 288 changes its test mod 13)
WORD_EDGES = [(2, 255, 8), (2, 256, 16), (9, 31, 8), (9, 32, 16), (13, 1, 8), (13, 2, 16),
              (251, 1, 16), (257, 1, 32), (65521, 1, 32), (65521, 2, 64)]


@pytest.mark.parametrize("q, k, bits", WORD_EDGES)
def test_pairing_support_at_the_edges_of_each_word(q, k, bits):
    f = field_from_order(q)
    assert 8 * sum_word(k * f.e, f.p).itemsize == bits
    gen = np.random.default_rng(q * 1000 + k)
    full = np.full((k, k), q - 1)
    # over GF(p), the unit row e_0 under the all-(q-1) form pairs with the
    # all-(q-1) row to k (p-1)^2, the bound itself
    pts = [np.eye(1, k, dtype=np.int64), full[:1], gen.integers(0, q, (60, k))]
    forms = [_random_form(f, k, gen), MatrixFq(f, full.tolist())]
    if f.e == 1 and k > 1:
        # and pairs with y to zero under a form whose row 0 is (q-1, .., q-1, c),
        # y = (q-1, .., q-1, d) with c d = -(k-1) mod p: a multiple of p near
        # the bound, which a word too narrow for it would not see as zero
        c, d = max(((c, -(k - 1) * pow(c, -1, q) % q) for c in range(1, q)),
                   key=lambda cd: cd[0] * cd[1])
        cancel = full.copy()
        cancel[0, -1] = c
        y = full[:1].copy()
        y[0, -1] = d
        pts.append(y)
        forms.append(MatrixFq(f, cancel.tolist()))
        assert pairing(pts[0][0], y[0], forms[-1]) == 0
    pts = np.concatenate(pts)
    for b in forms:
        assert (_support(pts, b) == (pairing_matrix(pts, b) != 0)).all()


def test_sum_word_refuses_sums_past_2_64():
    assert sum_word(3, 7) == np.uint8  # 108
    assert sum_word(0, 2) == np.uint8
    assert sum_word((1 << 16) - 1, 2) == np.uint16
    assert sum_word(1 << 16, 2) == np.uint32
    assert sum_word((1 << 64) - 1, 2) == np.uint64
    with pytest.raises(OverflowError, match="2\\^64"):
        sum_word(1 << 64, 2)
    most = ((1 << 64) - 1) // 65520 ** 2  # just past 2^32
    assert sum_word(most, 65521) == np.uint64
    with pytest.raises(OverflowError):
        sum_word(most + 1, 65521)


def test_pairing_support_checks_the_bound_of_its_digit_sums(monkeypatch):
    seen = []

    def refuse(terms, p):
        seen.append((terms, p))
        raise OverflowError("past 2^64")

    monkeypatch.setattr(projgeo, "sum_word", refuse)
    f = field_from_order(9)
    with pytest.raises(OverflowError):
        next(pairing_support(enumerate_points(f, 3), MatrixFq.identity(f, 3)))
    assert seen == [(3 * 2, 3)]
