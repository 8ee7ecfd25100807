from __future__ import annotations

import itertools

import pytest

from gfminrank import (ClassTag, MatrixFq, canonical_representatives,
                       classify_invertible_symmetric, congruence_diagonalize,
                       field_from_order, rank, rank_decomposition)
from gfminrank.matfq import det, hyperbolic_block, normalize_invertible_symmetric


def random_matrix(field, n, rng):
    return MatrixFq(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)])


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, rng)
        if rank(m) == n:
            return m


def random_symmetric(field, n, rng):
    a = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
    return MatrixFq(field, [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)], n)


def all_symmetric(field, n):
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for values in itertools.product(range(field.q), repeat=len(pairs)):
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, values):
            m[i][j] = m[j][i] = v
        yield MatrixFq(field, m, n)


def congruence_form(c: MatrixFq, b: MatrixFq) -> MatrixFq:
    return c.transpose() @ b @ c


def test_rank_examples(gf2, gf3):
    assert rank(MatrixFq.identity(gf2, 3)) == 3
    fullhouse_ones = MatrixFq(gf2, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1],
                                    [0, 1, 1, 1, 1], [0, 1, 1, 1, 1]])
    assert rank(fullhouse_ones) == 3
    assert rank(MatrixFq(gf3, [[1] * 5] * 5)) == 1
    assert rank(MatrixFq.zeros(gf2, 4, 4)) == 0


def test_rank_invariant_under_congruence(rng):
    for q in (2, 3, 4, 5):
        f = field_from_order(q)
        for _ in range(100):
            n = rng.randrange(1, 7)
            a = random_symmetric(f, n, rng)
            c = random_invertible(f, n, rng)
            assert rank(congruence_form(c, a)) == rank(a)


def test_det_matches_bruteforce_3x3(gf3, rng):
    # permanent-style cofactor oracle
    def det3(m):
        e = m.entries
        f = m.field
        total = 0
        for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                           ((2, 1, 0), -1), ((0, 2, 1), -1), ((1, 0, 2), -1)]:
            term = 1
            for i, j in enumerate(perm):
                term = f.mul(term, e[i][j])
            total = f.add(total, term if sign > 0 else f.neg(term))
        return total

    for _ in range(50):
        m = random_matrix(gf3, 3, rng)
        assert det(m) == det3(m)


def test_congruence_diagonalize_zero(gf3):
    z = MatrixFq.zeros(gf3, 3, 3)
    c, d = congruence_diagonalize(z)
    assert d == z
    assert rank(c) == 3


def test_congruence_diagonalize_hyperbolic(gf2, gf3):
    c, d = congruence_diagonalize(hyperbolic_block(gf3))
    assert d.to_lists() == [[2, 0], [0, 1]]
    assert congruence_form(c, hyperbolic_block(gf3)) == d
    c2, d2 = congruence_diagonalize(hyperbolic_block(gf2))
    assert d2.to_lists() == [[0, 1], [1, 0]]


def _is_canonical_block_form(field, d: MatrixFq) -> bool:
    n = d.rows
    e = d.entries
    i = 0
    while i < n and e[i][i]:
        i += 1
    s = i
    while i + 1 < n and e[i][i + 1]:
        if e[i][i] or e[i + 1][i + 1] or e[i][i + 1] != e[i + 1][i]:
            return False
        i += 2
    if any(e[a][b] for a in range(i, n) for b in range(i, n)):
        return False
    off = [list(row) for row in e]
    for j in range(s):
        off[j][j] = 0
    for j in range(s, i, 2):
        off[j][j + 1] = off[j + 1][j] = 0
    return not any(map(any, off))


def test_congruence_diagonalize_structure(rng):
    for q in (2, 3, 4, 5):
        f = field_from_order(q)
        for _ in range(150):
            n = rng.randrange(1, 6)
            b = random_symmetric(f, n, rng)
            c, d = congruence_diagonalize(b)
            assert rank(c) == n
            assert congruence_form(c, b) == d
            assert _is_canonical_block_form(f, d)
            if f.p != 2:
                assert not any(d.entries[i][j] for i in range(n) for j in range(n) if i != j)


def test_classify_reference_cases(gf2, gf3):
    assert classify_invertible_symmetric(hyperbolic_block(gf2)).tag is ClassTag.SYMPLECTIC
    assert classify_invertible_symmetric(
        MatrixFq(gf2, [[1, 1], [1, 0]])).tag is ClassTag.IDENTITY
    c = classify_invertible_symmetric(MatrixFq.diagonal(gf3, [1, 2]))
    assert c.tag is ClassTag.NONSQUARE_DET
    assert c.projective_tag is ClassTag.NONSQUARE_DET
    c3 = classify_invertible_symmetric(MatrixFq.diagonal(gf3, [1, 1, 2]))
    assert c3.tag is ClassTag.NONSQUARE_DET
    assert c3.projective_tag is ClassTag.IDENTITY


def test_classify_rejects_bad_input(gf2):
    with pytest.raises(ValueError):
        classify_invertible_symmetric(MatrixFq(gf2, [[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        classify_invertible_symmetric(MatrixFq.zeros(gf2, 2, 2))
    with pytest.raises(ValueError):
        classify_invertible_symmetric(MatrixFq.zeros(gf2, 0, 0))


def test_canonical_representatives(gf2, gf3):
    assert canonical_representatives(gf2, 3) == [MatrixFq.identity(gf2, 3)]
    reps = canonical_representatives(gf2, 4)
    assert reps[0] == MatrixFq.identity(gf2, 4)
    assert reps[1].to_lists() == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    reps3 = canonical_representatives(gf3, 2)
    assert reps3 == [MatrixFq.identity(gf3, 2), MatrixFq.diagonal(gf3, [1, 2])]
    assert canonical_representatives(gf3, 0) == [MatrixFq.identity(gf3, 0)]


def _full_normal_forms(f, k):
    """Complete congruence classification of invertible symmetric matrices.

    For odd q this is {I_k, diag(1..1, nu)} for every k; the pattern
    representative set additionally collapses the two classes for odd k,
    where they are projectively congruent."""
    ident = MatrixFq.identity(f, k)
    if f.p == 2:
        return canonical_representatives(f, k)
    return [ident, MatrixFq.diagonal(f, [1] * (k - 1) + [f.nonsquare()])]


def test_classification_completeness_exhaustive():
    """Every invertible symmetric matrix normalizes onto a full normal form
    with a matching tag, its projective class hits a pattern representative,
    and for even k both pattern classes are nonempty."""
    for q, kmax in [(2, 3), (3, 3)]:
        f = field_from_order(q)
        for k in range(1, kmax + 1):
            reps = canonical_representatives(f, k)
            rep_ptags = {classify_invertible_symmetric(r).projective_tag for r in reps}
            forms = _full_normal_forms(f, k)
            form_tags = [classify_invertible_symmetric(n).tag for n in forms]
            seen_tags = set()
            seen_ptags = set()
            for b in all_symmetric(f, k):
                if rank(b) != k:
                    continue
                cls = classify_invertible_symmetric(b)
                seen_tags.add(cls.tag)
                seen_ptags.add(cls.projective_tag)
                c, n = normalize_invertible_symmetric(b)
                assert congruence_form(c, b) == n
                assert n in forms
                assert cls.tag is form_tags[forms.index(n)]
            assert seen_ptags == rep_ptags
            assert seen_tags == set(form_tags)
            if k % 2 == 0:
                assert len(reps) == 2 and len(seen_ptags) == 2


@pytest.mark.parametrize("q, entries", [
    (4, [[0, 2], [2, 0]]),
    (4, [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]]),
    (8, [[0, 5], [5, 0]]),
], ids=["gf4-k2", "gf4-k4", "gf8-k2"])
def test_normalize_alternating_forms_whose_hyperbolic_entry_is_not_one(q, entries):
    # after the square-root scaling the hyperbolic entry is sqrt(h) != 1, so
    # the partner coordinate is scaled by its inverse as well
    f = field_from_order(q)
    b = MatrixFq(f, entries)
    c, n = normalize_invertible_symmetric(b)
    assert n == canonical_representatives(f, b.rows)[1]
    assert congruence_form(c, b) == n
    assert rank(c) == b.rows


@pytest.mark.parametrize("q", [2, 3, 4])
def test_normalize_rejects_singular(q):
    f = field_from_order(q)
    # zero, a diagonal pivot then zero, a hyperbolic pair then zero
    for a in ([[0, 0], [0, 0]], [[1, 1], [1, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]):
        b = MatrixFq(f, a)
        assert rank(b) < b.rows
        with pytest.raises(ValueError, match="invertible"):
            normalize_invertible_symmetric(b)


def test_classify_matches_bruteforce_orbits_k2():
    """Exact congruence orbits by closure under every invertible C; the
    classifier's tags must be constant on orbits and separate them."""
    import itertools

    for q in (2, 3):
        f = field_from_order(q)
        invertibles = []
        for vals in itertools.product(range(q), repeat=4):
            c = MatrixFq(f, [list(vals[:2]), list(vals[2:])])
            if rank(c) == 2:
                invertibles.append(c)
        seen: dict[tuple, int] = {}
        orbits = []
        for vals in itertools.product(range(q), repeat=3):
            b = MatrixFq(f, [[vals[0], vals[1]], [vals[1], vals[2]]])
            if rank(b) != 2 or b.entries in seen:
                continue
            orbit = {b.entries: b}
            frontier = [b]
            while frontier:
                cur = frontier.pop()
                for c in invertibles:
                    nxt = congruence_form(c, cur)
                    key = nxt.entries
                    if key not in orbit:
                        orbit[key] = nxt
                        frontier.append(nxt)
            idx = len(orbits)
            orbits.append(orbit)
            for key in orbit:
                seen[key] = idx
        tags_per_orbit = [
            {classify_invertible_symmetric(m).tag for m in orbit.values()}
            for orbit in orbits]
        assert all(len(tags) == 1 for tags in tags_per_orbit)
        flat = [next(iter(t)) for t in tags_per_orbit]
        assert len(set(flat)) == len(flat) == 2


def test_classify_invariant_under_congruence(rng):
    for q in (2, 3, 4, 5):
        f = field_from_order(q)
        for _ in range(60):
            n = rng.randrange(1, 5)
            b = random_symmetric(f, n, rng)
            if rank(b) != n:
                continue
            tag = classify_invertible_symmetric(b).tag
            for _ in range(10):
                c = random_invertible(f, n, rng)
                assert classify_invertible_symmetric(congruence_form(c, b)).tag is tag


def test_zero_diagonal_preserved_even_q(rng):
    for q in (2, 4):
        f = field_from_order(q)
        for _ in range(100):
            n = rng.randrange(1, 6)
            b = random_symmetric(f, n, rng)
            b = MatrixFq(f, [[0 if i == j else x for j, x in enumerate(row)]
                             for i, row in enumerate(b.entries)], n)
            c = random_matrix(f, n, rng)
            out = congruence_form(c, b)
            assert not any(out.entries[i][i] for i in range(n))


def test_rank_decomposition_reference_cases(gf2, gf3):
    ident = MatrixFq.identity(gf2, 4)
    b, u = rank_decomposition(ident)
    assert b == ident and u == ident

    fullhouse_ones = MatrixFq(gf2, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1],
                                    [0, 1, 1, 1, 1], [0, 1, 1, 1, 1]])
    b, u = rank_decomposition(fullhouse_ones)
    assert b.rows == 3
    assert (u.transpose() @ b @ u) == fullhouse_ones

    ones = MatrixFq(gf3, [[1] * 4] * 4)
    b, u = rank_decomposition(ones)
    assert b.to_lists() == [[1]]
    assert u.to_lists() == [[1, 1, 1, 1]]


def _greedy_independent_columns(a: MatrixFq) -> list[int]:
    s: list[int] = []
    for j in range(a.cols):
        if rank(MatrixFq(a.field, [[row[c] for c in s + [j]] for row in a.entries])) > len(s):
            s.append(j)
    return s


def test_rank_decomposition_exhaustive_gf2_4x4(gf2):
    for a in all_symmetric(gf2, 4):
        b, u = rank_decomposition(a)
        assert b.rows == rank(a)
        assert rank(b) == b.rows
        assert (u.transpose() @ b @ u) == a
        s = _greedy_independent_columns(a)
        assert b.to_lists() == [[a.entries[i][j] for j in s] for i in s]


def test_rank_decomposition_randomised(rng):
    for q in (3, 4):
        f = field_from_order(q)
        for _ in range(500):
            n = rng.randrange(0, 6)
            a = random_symmetric(f, n, rng)
            b, u = rank_decomposition(a)
            assert b.rows == rank(a)
            assert (u.transpose() @ b @ u) == a
            s = _greedy_independent_columns(a)
            assert b.to_lists() == [[a.entries[i][j] for j in s] for i in s]


def test_matrix_validation(gf3):
    with pytest.raises(ValueError):
        MatrixFq(gf3, [[0, 3], [1, 0]])
    with pytest.raises(ValueError):
        rank_decomposition(MatrixFq(gf3, [[0, 1], [2, 0]]))


def test_matrix_json_roundtrip(gf9):
    m = MatrixFq(gf9, [[0, 5], [5, 8]])
    assert MatrixFq.from_json(m.to_json()) == m
    bad = m.to_json()
    bad["field"]["modulus"] = [2, 0, 1]
    with pytest.raises(ValueError):
        MatrixFq.from_json(bad)


def test_matrix_json_field_past_the_cap_names_the_range():
    obj = {"field": {"p": 65537 * 65539, "e": 1}, "rows": 1, "cols": 1, "entries": [0]}
    with pytest.raises(ValueError, match=r"2\.\.65536"):
        MatrixFq.from_json(obj)
