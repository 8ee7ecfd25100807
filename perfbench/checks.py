"""Answer checks, run after the timed section.

Each checker takes the corpus, the worker's outputs (one stdout text per
request) and the stored references, and returns a Verdict.  ``attempted``
counts requests (scanned graphs for ``mine``); ``failed`` counts every
wrong answer or failed request.  A failure is *known* when it is the
documented defect of orbit pruning in characteristic 2 (ROADMAP item 1):
an answer above the true minimum rank over an even q, or, for ``mine`` over
an even q, a differing forbidden list.  Every other failure is *unexpected*
and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import workloads as W


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    counts: dict = field(default_factory=dict)   # how answers were checked
    problems: list = field(default_factory=list)

    def count(self, how: str, n: int = 1) -> None:
        self.counts[how] = self.counts.get(how, 0) + n

    def fail(self, detail: dict, known: bool, n: int = 1) -> None:
        self.failed += n
        if not known:
            self.unexpected += n
        self.problems.append({**detail, "known": known})


def _answer(text: str, key: str):
    """The value under ``key`` of a request's single JSON line, or None."""
    lines = text.splitlines()
    if len(lines) != 1:
        return None
    try:
        return json.loads(lines[0]).get(key)
    except (ValueError, AttributeError):
        return None


def witness_ok(n: int, edges, witness: dict[int, int], pattern) -> bool:
    """A blowup witness against the raw definition: non-isolated vertices map
    to pattern vertices; two vertices are adjacent exactly when they share a
    looped pattern vertex or sit on adjacent distinct ones."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    core = sorted({v for e in adj for v in e})
    if sorted(witness) != core:
        return False
    for i, u in enumerate(core):
        for v in core[i + 1:]:
            pu, pv = witness[u], witness[v]
            want = pattern.has_loop(pu) if pu == pv else pattern.has_edge(pu, pv)
            if ((u, v) in adj) != want:
                return False
    return True


def check_sweep(corpus: list[dict], outputs: list[str], refs: dict) -> Verdict:
    from gfminrank import oracle_min_rank, parse_graph6
    from gfminrank.blowup import member
    from gfminrank.patterns import generate

    v = Verdict()
    for req, text in zip(corpus, outputs):
        v.attempted += 1
        q = req["q"]
        mr = _answer(text, "minrank")
        if mr is None:
            v.fail({"line": req["line"], "q": q, "output": text[:200]}, known=False)
            continue
        n, edges = W.decode_graph6(req["line"])
        ref = req["ref"]
        if q == 2:
            ref = oracle_min_rank(parse_graph6(req["line"]), 2)
            v.count("oracle")
        elif ref is not None:
            v.count("stored_oracle_ref")
        if ref is not None and mr != ref:
            v.fail({"line": req["line"], "q": q, "answer": mr, "ref": ref},
                   known=q % 2 == 0 and mr > ref)
            continue
        if ref is None:
            ok, wit, idx = member(parse_graph6(req["line"]), q, mr)
            if ok and witness_ok(n, edges, wit.assignment, generate(q, mr).patterns[idx].graph):
                v.count("certified_from_above")
            else:
                v.fail({"line": req["line"], "q": q, "answer": mr, "witness": "rejected"},
                       known=False)
    return v


def check_oracle(corpus: list[dict], outputs: list[str], refs: dict) -> Verdict:
    v = Verdict()
    for req, text in zip(corpus, outputs):
        v.attempted += 1
        mr = _answer(text, "minrank")
        if req["stratum"] in refs["oracle_cases"]:
            ref = refs["oracle_cases"][req["stratum"]]
        else:
            key = W.canonical_graph6(req["n"], req["edges"])
            ref = refs["oracle_classes"][str(req["q"])].get(key)
        if ref is None or mr != ref:
            v.fail({"line": req["line"], "q": req["q"], "answer": mr, "ref": ref}, known=False)
        else:
            v.count("stored_oracle_ref")
    return v


def check_mine(corpus: list[dict], outputs: list[str], refs: dict) -> Verdict:
    v = Verdict()
    for req, text in zip(corpus, outputs):
        key = f"{req['q']},{req['k']}"
        ref = refs["mine"][key]
        stats = _answer(text, "stats")
        found = _answer(text, "forbidden")
        if stats is None or found is None:
            v.attempted += 1
            v.fail({"pair": key, "output": text[:200]}, known=False)
            continue
        v.attempted += stats["scanned"]
        wrong = sorted(set(found) ^ set(ref["forbidden"]))
        v.count(f"{ref['source']}", stats["scanned"])
        if wrong:
            v.fail({"pair": key, "misclassified": wrong}, known=req["q"] % 2 == 0, n=len(wrong))
    return v


def check_patterns(corpus: list[dict], outputs: list[str], refs: dict) -> Verdict:
    from gfminrank.gf import field_from_order
    from gfminrank.graphs import looped_from_json
    from gfminrank.patterns import Pattern, PatternSet, PatternPropertyError, verify_counts

    v = Verdict()
    for req, text in zip(corpus, outputs):
        v.attempted += 1
        q, k = req["q"], req["k"]
        problems = []
        if hashlib.sha256(text.encode()).hexdigest() != refs["pattern_digests"][f"{q},{k}"]:
            problems.append("output digest differs from the stored one")
        try:
            graphs = [looped_from_json(json.loads(line)) for line in text.splitlines()]
            verify_counts(PatternSet(q, k, field_from_order(q), None,
                                     tuple(Pattern(None, g) for g in graphs)))
        except (ValueError, KeyError, PatternPropertyError) as exc:
            problems.append(f"verify_counts: {exc}")
        if problems:
            v.fail({"pair": f"{q},{k}", "problems": problems}, known=False)
        else:
            v.count("digest+verify_counts")
    return v


CHECKERS = {"sweep": check_sweep, "oracle": check_oracle,
            "mine": check_mine, "patterns": check_patterns}
