"""In-memory span tracing around gfminrank's layer boundaries.

``Tracer.install`` replaces the module-level bindings listed in BINDINGS
with timing wrappers (nothing under ``src/`` is edited); ``restore`` puts
every original object back.  A span is ``[name, start, end, parent,
request, nested, attrs]``: ``parent`` is the index of the enclosing span
(-1 at the top), ``request`` the id of the request being served, ``nested``
whether a span of the same name encloses it, and ``attrs`` whatever the
binding's extractor pulled from the arguments and result.

A layer is the text of a span name before the first dot.  A span's self
time is its duration minus its direct children's durations; spans nest
strictly (one thread, a call stack), so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LAYERS = ("cli", "graphs", "gf", "matfq", "projgeo", "patterns", "blowup", "oracle", "miner")


def _yes(a, kw, res):
    return {"yes": bool(res[0])}


def _found(a, kw, res):
    return {"yes": res is not None}


def _generate(a, kw, res):
    return {"qk": [res.q, res.k], "vertices": len(res.points), "patterns": len(res.patterns)}


def _twins(a, kw, res):
    return {"core": a[0].n, "classes": res.quotient.n}


def _pairing(a, kw, res):
    return {"n": int(res.shape[0])}


def _oracle(a, kw, res):
    g, q = a[0], a[1]
    return {"n": g.n, "m": g.edge_count(), "q": q, "mr": res}


def _mine(a, kw, res):
    return {"scanned": res.stats["scanned"], "found": res.stats["found"]}


# (module, attribute path, span name, attribute extractor)
BINDINGS = (
    ("gfminrank.cli", "main", "cli.main", None),
    ("gfminrank.cli", "parse_graph6", "graphs.parse_graph6", None),
    ("gfminrank.cli", "emit_graph6", "graphs.emit_graph6", None),
    ("gfminrank.cli", "looped_to_json", "graphs.looped_to_json", None),
    ("gfminrank.cli", "min_rank", "blowup.min_rank", None),
    ("gfminrank.cli", "generate", "patterns.generate", _generate),
    ("gfminrank.cli", "oracle_min_rank", "oracle.oracle_min_rank", _oracle),
    ("gfminrank.cli", "mine", "miner.mine", _mine),
    ("gfminrank.blowup", "member", "blowup.member", _yes),
    ("gfminrank.blowup", "is_blowup", "blowup.is_blowup", _found),
    ("gfminrank.blowup", "generate", "patterns.generate", _generate),
    ("gfminrank.blowup", "twin_reduce", "graphs.twin_reduce", _twins),
    ("gfminrank.miner", "member", "miner.member", _yes),
    ("gfminrank.miner", "enumerate_graphs", "miner.enumerate_graphs", None),
    ("gfminrank.miner", "are_isomorphic", "graphs.are_isomorphic", None),
    ("gfminrank.patterns", "field_from_order", "gf.field_from_order", None),
    ("gfminrank.patterns", "enumerate_points", "projgeo.enumerate_points", None),
    ("gfminrank.patterns", "pairing_matrix", "projgeo.pairing_matrix", _pairing),
    ("gfminrank.patterns", "canonical_representatives", "matfq.canonical_representatives", None),
    ("gfminrank.oracle", "field_from_order", "gf.field_from_order", None),
    ("gfminrank.gf", "FieldCtx.kernel_tables", "gf.kernel_tables", None),
    ("gfminrank._kernels", "scan_min_rank", "oracle.scan_min_rank", None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, orig, name, extract):
        spans, stack, depth = self.spans, self._stack, self._depth

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                   depth[name] > 0, None]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[1] = time.perf_counter()
            try:
                res = orig(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                depth[name] -= 1
                stack.pop()
            if extract is not None:
                rec[6] = extract(args, kwargs, res)
            return res

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self) -> None:
        for module, path, name, extract in BINDINGS:
            owner, attr = _resolve(module, path)
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, extract))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)



def dump(spans: list[list], path) -> None:
    """Write spans as JSON lines; a span's id is its line number from 0."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                                 "request": s[4], "nested": s[5], "attrs": s[6]}) + "\n")


def load(paths, request_offsets) -> list[list]:
    """Spans of several dumps as one list, ids and request ids made unique."""
    spans: list[list] = []
    for path, offset in zip(paths, request_offsets):
        base = len(spans)
        with open(path) as fh:
            for line in fh:
                d = json.loads(line)
                spans.append([d["name"], d["start"], d["end"],
                              d["parent"] + base if d["parent"] >= 0 else -1,
                              d["request"] + offset, d["nested"], d["attrs"]])
    return spans


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-layer metrics (the per_layer list of BENCHMARK.json) from spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)   # outermost spans of a name
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        self_s[s[0].split(".", 1)[0]] += dur - child[i]
        calls[s[0]] += 1
        if not s[5]:
            total[s[0]] += dur
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s)

    m: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}

    m["graphs.parse_graph6.s"] = total["graphs.parse_graph6"]
    twins = by_name["graphs.twin_reduce"]
    m["graphs.twin_reduce.calls"] = len(twins)
    m["graphs.twin_reduce.s"] = total["graphs.twin_reduce"]
    m["graphs.twin_reduce.per_request"] = _ratio(len(twins), requests)
    m["graphs.twin_classes_ratio"] = _ratio(sum(s[6]["classes"] for s in twins),
                                            sum(s[6]["core"] for s in twins))
    m["graphs.are_isomorphic.calls"] = calls["graphs.are_isomorphic"]
    m["graphs.are_isomorphic.s"] = total["graphs.are_isomorphic"]

    mines = by_name["miner.mine"]
    scanned = sum(s[6]["scanned"] for s in mines)
    m["miner.enumerate_graphs.s"] = total["miner.enumerate_graphs"]
    m["miner.member.calls"] = calls["miner.member"]
    m["miner.member.s"] = total["miner.member"]
    m["miner.member_calls_per_graph"] = _ratio(calls["miner.member"], scanned)
    m["miner.found"] = sum(s[6]["found"] for s in mines)

    seen: set[tuple] = set()
    cold_s = hit_s = 0.0
    hits = cold_vertices = 0
    for s in by_name["patterns.generate"]:
        key = tuple(s[6]["qk"])
        if key in seen:
            hits += 1
            hit_s += s[2] - s[1]
        else:
            seen.add(key)
            cold_s += s[2] - s[1]
            cold_vertices += s[6]["vertices"] * s[6]["patterns"]
    m["patterns.generate.calls"] = calls["patterns.generate"]
    m["patterns.generate.hit_ratio"] = _ratio(hits, calls["patterns.generate"])
    m["patterns.generate.cold_s"] = cold_s
    m["patterns.generate.hit_s"] = hit_s
    m["patterns.vertices_per_s"] = _ratio(cold_vertices, cold_s)

    m["projgeo.enumerate_points.s"] = total["projgeo.enumerate_points"]
    m["projgeo.pairing_matrix.s"] = total["projgeo.pairing_matrix"]
    m["projgeo.pairing_bytes"] = sum(8 * s[6]["n"] ** 2 for s in by_name["projgeo.pairing_matrix"])
    m["matfq.canonical_representatives.s"] = total["matfq.canonical_representatives"]
    m["gf.field_from_order.s"] = total["gf.field_from_order"]
    m["gf.kernel_tables.s"] = total["gf.kernel_tables"]

    # per min_rank request: k values tried, and the time of the last "no"
    # (the refutation of k = mr - 1)
    members_of: dict[int, list[list]] = defaultdict(list)
    for s in by_name["blowup.member"]:
        members_of[s[3]].append(s)
    last_no = 0.0
    steps = 0
    for i, s in enumerate(spans):
        if s[0] != "blowup.min_rank":
            continue
        kids = members_of.get(i, [])
        steps += len(kids)
        nos = [k for k in kids if not k[6]["yes"]]
        if nos:
            last_no += nos[-1][2] - nos[-1][1]
    members = by_name["blowup.member"]
    m["blowup.min_rank.s"] = total["blowup.min_rank"]
    m["blowup.member.calls"] = len(members)
    m["blowup.sweep_steps_per_request"] = _ratio(steps, calls["blowup.min_rank"])
    m["blowup.member.yes_s"] = sum(s[2] - s[1] for s in members if s[6]["yes"])
    m["blowup.member.no_s"] = sum(s[2] - s[1] for s in members if not s[6]["yes"])
    m["blowup.last_no_share"] = _ratio(last_no, total["blowup.min_rank"])
    attempts = by_name["blowup.is_blowup"]
    m["blowup.is_blowup.calls"] = len(attempts)
    m["blowup.is_blowup.s"] = total["blowup.is_blowup"]
    m["blowup.is_blowup.yes_ratio"] = _ratio(sum(s[6]["yes"] for s in attempts), len(attempts))

    oracles = by_name["oracle.oracle_min_rank"]
    m["oracle.oracle_min_rank.s"] = total["oracle.oracle_min_rank"]
    size = {id(s): s[6]["q"] ** s[6]["n"] * (s[6]["q"] - 1) ** s[6]["m"] for s in oracles}
    m["oracle.matrices"] = sum(size.values())
    full = [s for s in oracles if s[6]["mr"] >= 2]
    m["oracle.matrices_per_s"] = _ratio(sum(size[id(s)] for s in full),
                                        sum(s[2] - s[1] for s in full))
    m["trace.spans"] = len(spans)
    return m
