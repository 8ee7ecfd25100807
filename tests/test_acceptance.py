"""Acceptance suite: one test per criterion, each printed with its runtime.

All expectations are exact, and each criterion's stated time limit is
asserted.
"""

from __future__ import annotations

import time

from gfminrank import (SimpleGraph, are_isomorphic, check_f2r2_form,
                       classify_invertible_symmetric, field_from_order,
                       generate, member, min_rank, mine,
                       multipartite_bound_check, oracle_min_rank,
                       rank_decomposition, verify_counts)
from gfminrank.matfq import congruence_diagonalize, rank
from gfminrank.miner import enumerate_graphs, enumerate_trees
from gfminrank.patterns import gram_matrix, rank_certificate
from gfminrank.refdata import (F2R3_GRAM, F2R4A_GRAM, F2R4B_GRAM, F3R3_GRAM,
                               FULLHOUSE_EDGES, G2F2_IDENTITY_GRAM,
                               G2F2_SYMPLECTIC_GRAM, G2F2_U, u_columns)
from test_matfq import all_symmetric, random_invertible, random_symmetric


class Criterion:
    def __init__(self, number: int, title: str, limit_s: float):
        self.number = number
        self.title = title
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{status}] {elapsed:8.2f}s "
              f"(limit {self.limit:.0f}s)  {self.title}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s limit")
        return False


def fullhouse() -> SimpleGraph:
    return SimpleGraph.from_edges(5, FULLHOUSE_EDGES)


def test_criterion_01_bit_exact_pattern_regression():
    with Criterion(1, "bit-exact pattern regression", 1.0):
        for q, k, idx, ref in [(2, 3, 0, F2R3_GRAM), (3, 3, 0, F3R3_GRAM),
                               (2, 4, 0, F2R4A_GRAM), (2, 4, 1, F2R4B_GRAM)]:
            ps = generate(q, k)
            assert gram_matrix(ps.points, ps.patterns[idx].form).to_lists() == ref
        ps = generate(2, 2)
        cols = u_columns(G2F2_U)
        pos = [cols.index(p) for p in ps.points]
        for idx, ref in [(0, G2F2_IDENTITY_GRAM), (1, G2F2_SYMPLECTIC_GRAM)]:
            gm = gram_matrix(ps.points, ps.patterns[idx].form)
            assert gm.to_lists() == [[ref[pos[i]][pos[j]] for j in range(3)]
                                     for i in range(3)]


def test_criterion_02_fullhouse_field_dependence():
    with Criterion(2, "fullhouse field dependence", 1.0):
        fh = fullhouse()
        assert min_rank(fh, 2) == 3
        assert min_rank(fh, 3) == 2
        assert oracle_min_rank(fh, 2) == 3
        assert oracle_min_rank(fh, 3) == 2


def test_criterion_03_oracle_equivalence_sweep():
    with Criterion(3, "oracle equivalence sweep", 300.0):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert min_rank(g, 2) == oracle_min_rank(g, 2)
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert min_rank(g, 3) == oracle_min_rank(g, 3)


def test_criterion_04_counting_facts():
    with Criterion(4, "pattern counting facts incl. GF(4)", 10.0):
        for q in (2, 3, 4, 5):
            for k in (1, 2, 3, 4):
                verify_counts(generate(q, k))


def test_criterion_05_rank3_pattern_structure():
    with Criterion(5, "nonlooped clique structure at k=3", 5.0):
        for q in (2, 3, 4, 5):
            report = verify_counts(generate(q, 3))
            assert all(p["nonlooped"] == q + 1 for p in report["patterns"])


def test_criterion_06_multipartite_bounds():
    with Criterion(6, "complete multipartite rank-3 bounds", 30.0):
        assert min_rank(SimpleGraph.complete_multipartite([2, 2, 2]), 2) == 2
        assert not multipartite_bound_check([10, 10, 10, 10], 2)
        assert multipartite_bound_check([10, 10, 10, 10], 3)


def test_criterion_07_classification_completeness(rng):
    with Criterion(7, "congruence classification completeness", 60.0):
        for q, kmax in [(2, 3), (3, 3)]:
            f = field_from_order(q)
            for k in range(1, kmax + 1):
                tags = set()
                for b in all_symmetric(f, k):
                    if rank(b) != k:
                        continue
                    cls = classify_invertible_symmetric(b)
                    _, d = congruence_diagonalize(b)
                    if f.p == 2:
                        has_diag = any(d.entries[i][i] for i in range(k))
                        assert (cls.tag.name == "IDENTITY") == has_diag
                    else:
                        diag_prod = 1
                        for i in range(k):
                            diag_prod = f.mul(diag_prod, d.entries[i][i])
                        assert (cls.tag.name == "SQUARE_DET") == f.is_square(diag_prod)
                    tags.add(cls.projective_tag)
                    for _ in range(100):
                        c = random_invertible(f, k, rng)
                        moved = c.transpose() @ b @ c
                        assert classify_invertible_symmetric(moved).tag is cls.tag
                if k % 2 == 0:
                    assert len(tags) == 2


def test_criterion_08_rank_decomposition_contract(rng):
    with Criterion(8, "rank decomposition contract", 60.0):
        f2 = field_from_order(2)
        for a in all_symmetric(f2, 4):
            b, u = rank_decomposition(a)
            assert b.rows == rank(a)
            assert (u.transpose() @ b @ u) == a
        for q in (3, 4):
            f = field_from_order(q)
            for _ in range(1000):
                a = random_symmetric(f, rng.randrange(0, 6), rng)
                b, u = rank_decomposition(a)
                assert b.rows == rank(a)
                assert (u.transpose() @ b @ u) == a


def test_criterion_09_miner_ground_truth():
    with Criterion(9, "miner ground truth", 120.0):
        run = mine(2, 1, n_max=5)
        assert len(run.found) == 2
        assert any(are_isomorphic(g, SimpleGraph.path(3)) for g in run.found)
        assert any(are_isomorphic(g, SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))
                   for g in run.found)
        run2 = mine(2, 2, n_max=5)
        assert any(g.n == 5 and are_isomorphic(g, fullhouse()) for g in run2.found)
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert check_f2r2_form(g) == member(g, 2, 2)[0]


def test_criterion_10_tree_field_independence():
    with Criterion(10, "tree minimum rank field independence", 60.0):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                assert min_rank(t, 2) == min_rank(t, 3)


def test_pattern_rank_certificates():
    # supporting invariant: every pattern matrix has rank exactly k
    for q in (2, 3, 4, 5):
        for k in (1, 2, 3):
            rank_certificate(generate(q, k))
