"""Built-in regression checks replaying the published reference results.

Each check raises SelftestFailure (an AssertionError) on mismatch.  The
checks use no ``assert`` statements, so they still run under ``python -O``.
The runner reports one line per check.  The CLI exposes this as the
`selftest` subcommand.
"""

from __future__ import annotations

from typing import Callable, Iterator

from . import refdata
from .blowup import is_blowup, member, min_rank, multipartite_bound_check
from .gf import field_new
from .graphs import LoopedGraph, SimpleGraph, are_isomorphic
from .matfq import (ClassTag, MatrixFq, canonical_representatives,
                    classify_invertible_symmetric, congruence_diagonalize,
                    hyperbolic_block, rank)
from .miner import check_f2r2_form, mine
from .oracle import oracle_min_rank
from .patterns import generate, gram_matrix, verify_counts
from .projgeo import count_absolute, enumerate_points

CHECKS: list[tuple[str, Callable[[], None]]] = []


class SelftestFailure(AssertionError):
    """A reference check got a different result."""


def _require(ok: bool, detail: str = "") -> None:
    if not ok:
        raise SelftestFailure(detail)


def _check(name: str):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


def _fullhouse() -> SimpleGraph:
    return SimpleGraph.from_edges(5, refdata.FULLHOUSE_EDGES)


@_check("char-2 squares: every GF(2) and GF(4) element is a square")
def _sq() -> None:
    for f in (field_new(2, 1), field_new(2, 2)):
        _require(all(f.is_square(a) for a in f.elements()))


@_check("fullhouse rank certificate over GF(2)")
def _fh_rank() -> None:
    f2 = field_new(2, 1)
    a = [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1],
         [0, 1, 1, 1, 1], [0, 1, 1, 1, 1]]
    _require(rank(MatrixFq(f2, a)) == 3)


@_check("hyperbolic block diagonalises to diag(2,1) over GF(3)")
def _h_gf3() -> None:
    f3 = field_new(3, 1)
    _, d = congruence_diagonalize(hyperbolic_block(f3))
    _require(d.to_lists() == [[2, 0], [0, 1]])


@_check("hyperbolic block keeps a zero diagonal over GF(2)")
def _h_gf2() -> None:
    f2 = field_new(2, 1)
    _, d = congruence_diagonalize(hyperbolic_block(f2))
    _require(d.to_lists() == [[0, 1], [1, 0]])


@_check("congruence class tags of the reference matrices")
def _classify() -> None:
    f2, f3 = field_new(2, 1), field_new(3, 1)
    _require(classify_invertible_symmetric(hyperbolic_block(f2)).tag is ClassTag.SYMPLECTIC)
    c = classify_invertible_symmetric(MatrixFq(f2, [[1, 1], [1, 0]]))
    _require(c.tag is ClassTag.IDENTITY)
    c = classify_invertible_symmetric(MatrixFq(f3, [[1, 0], [0, 2]]))
    _require(c.tag is ClassTag.NONSQUARE_DET)
    c3 = classify_invertible_symmetric(MatrixFq(f3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    _require(c3.projective_tag is ClassTag.IDENTITY)


@_check("representative sets for (2,3), (2,4), (3,2)")
def _reps() -> None:
    f2, f3 = field_new(2, 1), field_new(3, 1)
    _require([b.to_lists() for b in canonical_representatives(f2, 3)]
             == [MatrixFq.identity(f2, 3).to_lists()])
    reps24 = canonical_representatives(f2, 4)
    _require(reps24[0] == MatrixFq.identity(f2, 4))
    _require(reps24[1].to_lists() == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    reps32 = canonical_representatives(f3, 2)
    _require(reps32[1].to_lists() == [[1, 0], [0, 2]])


@_check("canonical point order matches the stored column matrices")
def _points() -> None:
    for p, k, u in [(2, 3, refdata.F2R3_U), (3, 3, refdata.F3R3_U), (2, 4, refdata.F2R4_U)]:
        _require([list(c) for c in zip(*enumerate_points(field_new(p, 1), k))] == u, f"q={p} k={k}")


@_check("absolute point counts: (2,3,I)=3, (3,3,I)=4, (2,4,HH)=15")
def _absolute() -> None:
    f2, f3 = field_new(2, 1), field_new(3, 1)
    _require(count_absolute(MatrixFq.identity(f2, 3)) == 3)
    _require(count_absolute(MatrixFq.identity(f3, 3)) == 4)
    hh = canonical_representatives(f2, 4)[1]
    _require(count_absolute(hh) == 15)


@_check("pattern matrices regenerate bit-exactly")
def _patterns() -> None:
    for q, k, idx, ref in [(2, 3, 0, refdata.F2R3_GRAM), (3, 3, 0, refdata.F3R3_GRAM),
                           (2, 4, 0, refdata.F2R4A_GRAM), (2, 4, 1, refdata.F2R4B_GRAM)]:
        ps = generate(q, k)
        gm = gram_matrix(ps.points, ps.patterns[idx].form)
        _require(gm.to_lists() == ref, f"q={q} k={k} pattern {idx}")
    # rank-2 GF(2) patterns, stored in their original column order
    ps = generate(2, 2)
    cols = refdata.u_columns(refdata.G2F2_U)
    live = [j for j, c in enumerate(cols) if any(c)]
    perm = [live.index(cols.index(p)) for p in ps.points]
    for idx, ref in [(0, refdata.G2F2_IDENTITY_GRAM), (1, refdata.G2F2_SYMPLECTIC_GRAM)]:
        gm = gram_matrix(ps.points, ps.patterns[idx].form)
        expect = [[ref[live[perm[i]]][live[perm[j]]] for j in range(len(live))]
                  for i in range(len(live))]
        _require(gm.to_lists() == expect, f"q=2 k=2 pattern {idx}")


@_check("pattern counting facts for (2,3), (3,3), (2,4)")
def _counts() -> None:
    for q, k in [(2, 3), (3, 3), (2, 4)]:
        verify_counts(generate(q, k))


@_check("fullhouse minimum rank: 3 over GF(2), 2 over GF(3)")
def _fh_minrank() -> None:
    fh = _fullhouse()
    _require(not member(fh, 2, 2)[0])
    _require(min_rank(fh, 2) == 3)
    _require(min_rank(fh, 3) == 2)


@_check("blowup witnesses: K_{2,2,2} and the looped-path example")
def _blowups() -> None:
    k222 = SimpleGraph.complete_multipartite([2, 2, 2])
    triangle = generate(2, 2).patterns[1].graph
    _require(is_blowup(k222, triangle) is not None)
    looped_path = LoopedGraph.from_parts(
        4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3])
    from .graphs import blow_up
    h = blow_up(looped_path, [3, 1, 2, 0])
    w = is_blowup(h, looped_path)
    _require(w is not None)
    _require(sorted(len(v) for v in w.class_image().values()) == [1, 2, 3])


@_check("complete graphs have minimum rank 1")
def _kn() -> None:
    for n in (2, 4, 6):
        _require(min_rank(SimpleGraph.complete(n), 2) == 1)
        _require(min_rank(SimpleGraph.complete(n), 3) == 1)


@_check("oracle confirms the fullhouse field dependence")
def _oracle_fh() -> None:
    fh = _fullhouse()
    _require(oracle_min_rank(fh, 2) == 3)
    _require(oracle_min_rank(fh, 3) == 2)


@_check("complete multipartite rank-3 bounds")
def _multipartite() -> None:
    _require(multipartite_bound_check([2, 2, 2], 2))
    _require(not multipartite_bound_check([10, 10, 10, 10], 2))
    _require(multipartite_bound_check([10, 10, 10, 10], 3))


@_check("closed-form rank-2 test over GF(2)")
def _f2r2() -> None:
    _require(check_f2r2_form(SimpleGraph.complete_multipartite([2, 2, 2])))
    _require(not check_f2r2_form(_fullhouse()))
    _require(check_f2r2_form(SimpleGraph.complete(6)))


@_check("mining n<=5 over GF(2) at rank 2 finds the fullhouse")
def _mine() -> None:
    run = mine(2, 2, n_max=5)
    fh = _fullhouse()
    _require(any(g.n == 5 and are_isomorphic(g, fh) for g in run.found))


def run_selftest() -> Iterator[tuple[str, bool, str]]:
    """Yield (name, ok, detail) for every registered check."""
    for name, fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            yield name, False, str(exc)
        except Exception as exc:  # noqa: BLE001 - report, do not crash the runner
            yield name, False, f"{type(exc).__name__}: {exc}"
        else:
            yield name, True, ""
