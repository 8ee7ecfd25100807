"""Every number the arithmetic layers hand out is a Python int."""

from __future__ import annotations

import pytest

from gfminrank import MatrixFq, canonical_representatives, enumerate_points, field_from_order
from gfminrank.matfq import normalize_invertible_symmetric, rank_decomposition
from gfminrank.patterns import generate, gram_matrix
from gfminrank.projgeo import pairing


def _all_ints(values) -> bool:
    return all(type(x) is int for x in values)


@pytest.mark.parametrize("q", [2, 4, 9, 65521])
def test_field_operations_return_ints(q):
    f = field_from_order(q)
    some = sorted({0, 1, 2 % q, 3 % q, q - 1, q // 2})
    for a in some:
        assert _all_ints([f.add(a, b) for b in some] + [f.sub(a, b) for b in some]
                         + [f.mul(a, b) for b in some] + [f.neg(a)])
        if a:
            assert type(f.inv(a)) is int
    assert _all_ints([f.sqrt(a) for a in some if f.is_square(a)])
    if q % 2:
        assert type(f.nonsquare()) is int
        assert _all_ints(f.sum_of_two_squares(f.nonsquare()))


def test_the_scalar_leaks_of_the_table_path_are_ints():
    gf4, gf9 = field_from_order(4), field_from_order(9)
    assert type(gf4.mul(2, 3)) is int and type(gf4.inv(2)) is int
    assert type(gf9.mul(2, 3)) is int


@pytest.mark.parametrize("q, k", [(2, 3), (4, 3), (9, 2), (5, 3), (257, 2)])
def test_matrices_points_and_pairings_hold_ints(q, k):
    f = field_from_order(q)
    pts = enumerate_points(f, k)
    assert _all_ints(x for p in pts for x in p)
    for b in canonical_representatives(f, k):
        assert _all_ints(x for row in b.entries for x in row)
        assert _all_ints(pairing(x, y, b) for x in pts[:5] for y in pts[-5:])
        gm = gram_matrix(pts, b)
        assert _all_ints(x for row in gm.entries for x in row)
        c, n = normalize_invertible_symmetric(b)
        assert _all_ints(x for m in (c, n) for row in m.entries for x in row)
    ps = generate(q, k)
    assert ps.points == pts
    m = MatrixFq(f, [[1, 0], [0, q - 1]])
    u, s = rank_decomposition(m)
    assert _all_ints(x for mat in (u, s, m @ m, m.transpose()) for row in mat.entries for x in row)
