from __future__ import annotations

import itertools

import numpy as np
import pytest

from gfminrank import (MatrixFq, canonical_representatives, count_absolute,
                       enumerate_points, field_from_order, pairing)
from gfminrank.projgeo import canonicalize, point_count, point_index
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
