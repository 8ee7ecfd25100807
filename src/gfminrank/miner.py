"""Exhaustive small-graph enumeration and minimal-forbidden-subgraph mining.

A graph is a minimal forbidden subgraph for "minimum rank at most k over
GF(q)" when it is not a member but every single-vertex-deleted induced
subgraph is (membership is closed under induced subgraphs, so checking the
n deletions suffices).

Every "have I seen this graph?" check (deduplicating the enumeration's
candidates, and the mined graphs of one run, resumed checkpoints included)
is a set lookup on graphs.canonical_form: g relabelled by the least leaf of
its individualisation-refinement tree, so two graphs get the same key
exactly when they are isomorphic.  The tree tries one vertex per twin class
of a cell, since swapping twins is an automorphism fixing everything
individualised before them and so only repeats leaves.
"""

from __future__ import annotations

import functools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .blowup import InvariantError, member
# are_isomorphic is no longer called here but stays imported: the span
# tracer in perfbench/spans.py rebinds gfminrank.miner.are_isomorphic
# through this module's namespace, and every traced run needs the name
from .graphs import (SimpleGraph, are_isomorphic, canonical_form, emit_graph6,
                     parse_graph6)

CHECKPOINT_EVERY = 10_000

# iso-class counts for n = 0..7, used as enumeration self-checks
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11)  # n = 1..7


def _dedup(graphs) -> list[SimpleGraph]:
    """The first graph of each isomorphism class, in input order."""
    seen: set[SimpleGraph] = set()
    out: list[SimpleGraph] = []
    for g in graphs:
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


@functools.lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """One representative per isomorphism class of simple graphs on n vertices.

    Built by extending every (n-1)-vertex representative with one new vertex
    over all attachment sets, then keeping the first candidate of each
    canonical_form key, so the representatives and their order do not
    depend on how the keys are computed.  n <= 7 (1253 classes from 11,291
    candidates) takes about 0.45 s on a 2-CPU x86 host; n = 8 (12,346
    classes from 133,632 candidates, streamed) about 5.4 s and 36 MB peak RSS.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return (SimpleGraph.empty(0),)

    def candidates():  # streamed, not held: n = 8 has 133,632 of them
        for parent in enumerate_graphs(n - 1):
            for mask in range(1 << (n - 1)):
                rows = [r | (((mask >> i) & 1) << (n - 1)) for i, r in enumerate(parent.rows)]
                rows.append(mask)
                yield SimpleGraph(n, rows)

    return tuple(_dedup(candidates()))


@functools.lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[SimpleGraph, ...]:
    """One representative per isomorphism class of trees on n >= 1 vertices:
    the connected graphs of enumerate_graphs(n) with n - 1 edges.  Like
    enumerate_graphs, practical for n <= 7."""
    if n < 1:
        raise ValueError("trees need at least one vertex")
    return tuple(g for g in enumerate_graphs(n)
                 if g.edge_count() == n - 1 and len(_components(g)) == 1)


# -- closed-form membership check for rank 2 over GF(2) -------------------------

def _components(g: SimpleGraph) -> list[list[int]]:
    seen = 0
    comps = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        stack = [v]
        comp = []
        seen |= 1 << v
        while stack:
            u = stack.pop()
            comp.append(u)
            m = g.rows[u] & ~seen
            while m:
                w = (m & -m).bit_length() - 1
                seen |= 1 << w
                stack.append(w)
                m = g.rows[u] & ~seen
        comps.append(sorted(comp))
    return comps


def _is_clique(g: SimpleGraph, verts: list[int]) -> bool:
    return all(g.has_edge(u, v) for i, u in enumerate(verts) for v in verts[i + 1:])


def _is_complete_bipartite(g: SimpleGraph, verts: list[int]) -> bool:
    if len(verts) < 2:
        return False
    sub = g.induced(verts)
    side = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(sub.n):
            if sub.has_edge(u, v):
                if v not in side:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return False
    if len(side) != sub.n:
        return False  # disconnected
    a = [v for v in side if side[v] == 0]
    b = [v for v in side if side[v] == 1]
    return all(sub.has_edge(u, v) for u in a for v in b)


def check_f2r2_form(g: SimpleGraph) -> bool:
    """Closed-form test for minimum rank <= 2 over GF(2).

    The complement, after peeling the universal vertices (the join part),
    must be a union of at most three cliques, or a clique together with a
    complete bipartite graph; empty parts are allowed, so isolated vertices
    may play the role of a degenerate bipartite side.
    """
    comp = g.complement()
    full = (1 << comp.n) - 1
    keep = [v for v in range(comp.n) if comp.rows[v] | (1 << v) != full]
    r = comp.induced(keep)
    comps = _components(r)
    singles = [c for c in comps if len(c) == 1]
    bigs = [c for c in comps if len(c) >= 2]

    # form: union of <= 3 cliques
    if len(comps) <= 3 and all(_is_clique(r, c) for c in comps):
        return True
    # form: clique plus complete bipartite (either possibly degenerate)
    if not bigs:
        return True  # all isolated: K_1 with an empty-sided bipartite rest
    if len(bigs) == 1:
        c = bigs[0]
        if _is_clique(r, c):
            return True  # singletons absorbed by an empty-sided bipartite part
        if _is_complete_bipartite(r, c) and len(singles) <= 1:
            return True
    if len(bigs) == 2 and not singles:
        a, b = bigs
        for clique, bip in ((a, b), (b, a)):
            if _is_clique(r, clique) and _is_complete_bipartite(r, bip):
                return True
    return False


# -- mining ----------------------------------------------------------------------

@dataclass
class MinerRun:
    q: int
    k: int
    n_max: int | None
    source: str
    found: list[SimpleGraph] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def found_graph6(self) -> list[str]:
        return sorted(emit_graph6(g) for g in self.found)


def _is_member(g: SimpleGraph, q: int, k: int) -> bool:
    return member(g, q, k)[0]


def _is_minimal_forbidden(g: SimpleGraph, q: int, k: int) -> bool:
    if _is_member(g, q, k):
        return False
    for v in range(g.n):
        sub = g.induced([u for u in range(g.n) if u != v])
        if not _is_member(sub, q, k):
            return False
    return True


def _classify_chunk(args: tuple[int, int, list[str]]) -> list[bool]:
    q, k, chunk = args
    return [_is_minimal_forbidden(parse_graph6(s), q, k) for s in chunk]


def _internal_stream(n_max: int):
    for n in range(1, n_max + 1):
        yield from enumerate_graphs(n)


def _load_checkpoint(path: str, q: int, k: int
                     ) -> tuple[int, list[SimpleGraph], str | None]:
    if not path or not os.path.exists(path):
        return 0, [], None
    with open(path) as fh:
        obj = json.load(fh)
    if obj.get("q") != q or obj.get("k") != k:
        raise ValueError("checkpoint was written for different (q, k)")
    return (int(obj["counter"]), [parse_graph6(s) for s in obj["found"]],
            obj.get("source_sha256"))


def _write_checkpoint(path: str, q: int, k: int, n: int, counter: int,
                      found: list[SimpleGraph], source_sha256: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"q": q, "k": k, "n": n, "counter": counter,
                   "source_sha256": source_sha256,
                   "found": [emit_graph6(g) for g in found]}, fh)
    os.replace(tmp, path)


def mine(q: int, k: int, n_max: int | None = None, source=None,
         checkpoint: str | None = None, jobs: int = 1,
         max_graphs: int | None = None,
         checkpoint_every: int = CHECKPOINT_EVERY) -> MinerRun:
    """Collect minimal forbidden subgraphs for membership in G_k over GF(q).

    ``source`` may be an iterable of SimpleGraph (e.g. parsed from a graph6
    stream); otherwise all graphs on up to n_max <= 7 vertices are
    enumerated internally.  Progress is checkpointed so a run can resume.
    The checkpoint keeps a sha256 over the graph6 lines of the graphs it
    covers; resuming against a source that does not start with those graphs
    is a ValueError.
    Work is classified in enumeration order regardless of ``jobs``, so the
    output is independent of the worker count.
    """
    if source is None:
        if n_max is None:
            raise ValueError("n_max is required for internal enumeration")
        if n_max > 7:
            raise ValueError("internal enumeration supports n_max <= 7; "
                             "stream larger graphs from an external generator")
        stream = _internal_stream(n_max)
        source_desc = f"internal:n<={n_max}"
    else:
        stream = iter(source)
        source_desc = "external"

    skip, found, skip_sha256 = _load_checkpoint(checkpoint, q, k)
    source_sha256 = None
    if checkpoint:
        # importing hashlib loads OpenSSL, about 3.6 MB of RSS that only a
        # checkpointed run needs
        import hashlib
        source_sha256 = hashlib.sha256()

    run = MinerRun(q=q, k=k, n_max=n_max, source=source_desc, found=found)
    found_keys = {canonical_form(g) for g in found}
    scanned = skip
    pending: list[SimpleGraph] = []

    def flush_pending():
        nonlocal scanned
        if not pending:
            return
        if jobs > 1:
            chunks = [pending[i::jobs] for i in range(jobs)]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(
                    _classify_chunk,
                    [(q, k, [emit_graph6(g) for g in ch]) for ch in chunks]))
            verdicts = [None] * len(pending)
            for lane, res in enumerate(results):
                for pos, v in enumerate(res):
                    verdicts[lane + pos * jobs] = v
        else:
            verdicts = [_is_minimal_forbidden(g, q, k) for g in pending]
        for g, bad in zip(pending, verdicts):
            if bad:
                key = canonical_form(g)
                if key not in found_keys:
                    found_keys.add(key)
                    run.found.append(g)
        scanned += len(pending)
        pending.clear()
        if checkpoint:
            _write_checkpoint(checkpoint, q, k, max((g.n for g in run.found), default=0),
                              scanned, run.found, source_sha256.hexdigest())

    emitted = 0
    for g in stream:
        if checkpoint:
            source_sha256.update(emit_graph6(g).encode("ascii") + b"\n")
        emitted += 1
        if emitted == skip and source_sha256.hexdigest() != skip_sha256:
            raise ValueError("checkpoint was written for a different source")
        if emitted <= skip:
            continue
        pending.append(g)
        if max_graphs is not None and emitted - skip >= max_graphs:
            break
        if len(pending) >= checkpoint_every:
            flush_pending()
    if emitted < skip:
        raise ValueError(f"checkpoint covers {skip} graphs, the source has {emitted}")
    flush_pending()

    # report-time re-verification of the minimality invariant
    for g in run.found:
        if not _is_minimal_forbidden(g, q, k):
            raise InvariantError(f"mined graph {emit_graph6(g)} failed re-verification")

    run.stats = {
        "scanned": scanned,
        "found": len(run.found),
        "q": q,
        "k": k,
        "source": source_desc,
    }
    if checkpoint:
        _write_checkpoint(checkpoint, q, k, max((g.n for g in run.found), default=0),
                          scanned, run.found, source_sha256.hexdigest())
    return run
