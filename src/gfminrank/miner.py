"""Exhaustive small-graph enumeration and minimal-forbidden-subgraph mining.

A graph is a minimal forbidden subgraph for "minimum rank at most k over
GF(q)" when it is not a member but every single-vertex-deleted induced
subgraph is.  The members are the blowups of the finitely many k-patterns,
and deleting a vertex from a blowup leaves a blowup of the same pattern, so
membership is closed under induced subgraphs: checking the n deletions
suffices, and a graph with a non-member induced subgraph is a non-member
and not minimal.  The enumeration records the classes of each graph's
deletions (deletion_classes), so mine reads them from the verdicts of the
level below and decides each graph by at most one member call.

Most graphs need none.  A member's witness is a blowup of a pattern, and
a graph on n vertices is its first candidate: its first parent, with its
labelling, plus a new last vertex.  So mine keeps the witness of every
representative on one vertex fewer and first tries to extend the first
parent's witness by the new vertex (blowup.extend_blowup); a fit,
re-verified against the blowup definition, is a member witness, and
member runs only when there is none.

The enumeration extends each representative on n - 1 vertices (a parent)
by a new vertex.  Two attachment sets of a parent in one orbit of a group
of its automorphisms give isomorphic candidates, so each orbit is tried
once, by its least mask (McKay, "Isomorph-free exhaustive generation",
1998).  The group is the one the parent's twin transpositions generate,
whose least masks are read off its twin classes in closed form
(_twin_orbit_minima), so no parent is canonically labelled.  Candidates
are told apart not by a canonical labelling but by a vertex invariant
(as nauty refines by one; McKay and Piperno, "Practical graph isomorphism
II", 2014): the profile, each vertex's multiset of (adjacency, common
neighbours) over the other vertices.
Every class occurs among the candidates and isomorphic graphs share a
profile, so the number of profiles is at most the number of classes, and
equal to it, which GRAPH_COUNTS checks, exactly when the profile tells
the classes apart.  Past that table the key is graphs.canonical_form: g
relabelled by the least leaf of its individualisation-refinement tree, so
two graphs get the same key exactly when they are isomorphic.

Mined graphs from the internal enumeration need no deduplication: they are
representatives, which the count check proves pairwise non-isomorphic, and
a resumed run skips the ones its checkpoint covers.  Only graphs from an
external source (resumed checkpoints included) are deduplicated, by a set
lookup on canonical_form.  At the end of a run the mined graphs are
re-verified by the definition through member alone, and a dict local to
that check, keyed by labelled rows, decides each labelled graph once (a
deletion shared by several mined graphs recurs); it starts empty and holds
none of the scan's verdicts, so the check still rests on neither the
enumeration nor the extensions.
"""

from __future__ import annotations

import functools
import json
import os
import struct

from .blowup import InvariantError, extend_blowup, member
# are_isomorphic is no longer called here but stays imported: the span
# tracer in perfbench/spans.py rebinds gfminrank.miner.are_isomorphic
# through this module's namespace, and every traced run needs the name
from .graphs import (SimpleGraph, _components, _least_twins, are_isomorphic, canonical_form,
                     emit_graph6, parse_graph6)
from .patterns import generate

CHECKPOINT_EVERY = 10_000

# iso-class counts for n = 0..8 (OEIS A000088, and sum(n!/|Aut g|) over the
# classes is 2^(n(n-1)/2) in the tests); _enumerate keys candidates by their
# profiles as far as these reach, where reaching the count proves the
# profile exact, and mine enumerates internally only that far
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11)  # n = 1..7


def _twin_orbit_minima(rows) -> list[int]:
    """The least mask of each orbit of the twin group on the subsets of
    the vertices with these adjacency rows, as masks, in increasing order.

    Swapping two twins u and w (N(u) - {w} = N(w) - {u}) is an
    automorphism, so the transpositions of twins generate a subgroup of
    the automorphism group: the product of the symmetric groups on the
    classes of graphs._least_twins.  A mask's orbit under it is fixed by
    how many vertices the mask takes from each class, and its least mask
    takes the lowest that many of each."""
    prefixes: dict[int, list[int]] = {}  # per class: its lowest 0, 1, ... members
    for v, t in enumerate(_least_twins(rows)):
        prefix = prefixes.setdefault(t, [0])
        prefix.append(prefix[-1] | 1 << v)
    masks = [0]
    for prefix in prefixes.values():
        masks = [m | p for p in prefix for m in masks]
    masks.sort()
    return masks


def _extend(parent: SimpleGraph, mask: int) -> SimpleGraph:
    """The candidate of parent and mask: parent plus a new last vertex
    joined to the vertices in mask."""
    n = parent.n
    bit = 1 << n
    rows = [r | bit if mask >> i & 1 else r for i, r in enumerate(parent.rows)]
    rows.append(mask)
    return SimpleGraph._trusted(n + 1, rows)  # the new row and column agree


def _profiles(parent: SimpleGraph, masks):
    """The profile of _extend(parent, mask) for each mask in masks, on at
    most 8 vertices, computed from parent's without building the candidate.

    A vertex v's profile is the multiset of (A[v][u], (A^2)[v][u]) over
    u != v: adjacency and the number of common neighbours.  It is kept as
    one int, the count of each pair (a, c) in the 4-bit slot a * 8 + c
    (c <= 6 and counts <= 7 on 8 vertices, so it fits in 64 bits), and a
    graph's profile is its vertices' ints, sorted and packed as bytes.
    Relabelling permutes the vertices and, for each, the u, so the profile
    is an isomorphism invariant.

    The new vertex x changes parent's pairs only through x itself: a pair
    (u, w) gains x as a common neighbour exactly when both lie in mask,
    which moves its count one slot up (slot * 16 = slot + 15 * slot).  So
    each parent vertex u keeps the sum of its pairs' slots and, per mask,
    the part over w in mask; the new pair (u, x) is (u in mask,
    |N(u) & mask|), and x's profile is the sum of those."""
    rows = parent.rows
    pack = struct.Struct(f"<{parent.n + 1}Q").pack
    # per parent vertex u: its row, its bit, the sum of its pairs' slots
    # and, indexed by mask, the sum over the w in mask
    vertices = []
    for u, r in enumerate(rows):
        slots = [0 if w == u else 1 << ((r >> w & 1) << 5 | (r & s).bit_count() << 2)
                 for w, s in enumerate(rows)]
        within = [0]
        for slot in slots:  # w's slot joins every mask below 1 << w
            within += [p + slot for p in within]
        vertices.append((r, 1 << u, within[-1], within))
    for mask in masks:
        profile, x = [], 0
        for r, bit, whole, within in vertices:
            if mask & bit:
                pair = 1 << (32 | (r & mask).bit_count() << 2)
                profile.append(whole + pair + 15 * within[mask])
            else:
                pair = 1 << ((r & mask).bit_count() << 2)
                profile.append(whole + pair)
            x += pair
        profile.append(x)
        profile.sort()
        yield pack(*profile)


@functools.lru_cache(maxsize=None)
def _enumerate(n: int) -> tuple[tuple[SimpleGraph, ...], tuple[tuple[int, ...], ...]]:
    """(enumerate_graphs(n), deletion_classes(n)), built in one pass.

    A parent's attachment sets in one orbit of a group of its automorphisms
    give isomorphic candidates, so only the least mask of each orbit of
    its twin group is keyed (_twin_orbit_minima).  That keeps the first
    candidate of every class, the least mask m* of the first parent that
    yields it: the masks of a parent that yield one class are closed under
    its automorphisms, the twin swaps among them, so m* is the least of its
    twin orbit.  Every parent of a class still has a kept mask in it, so
    the representatives, their order and the deletion classes are those of
    the full automorphism group's orbits, with more candidates (7,195 on
    1..7 vertices, not 5,759) but no canonical labelling of a parent.

    Candidates are keyed by _profiles as far as GRAPH_COUNTS reaches, and
    past it by canonical_form.  Every class on n vertices has a candidate
    (g minus its last vertex is isomorphic to some parent, and the least
    mask of the twin orbit of the image of g's last row under that
    isomorphism gives a candidate isomorphic to g), and isomorphic
    candidates have one profile, so there are at most GRAPH_COUNTS[n]
    profiles, and exactly that many only when no two classes share one.
    The count check therefore proves the profile exact, and a short count
    raises."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return (SimpleGraph.empty(0),), ((),)
    below = _enumerate(n - 1)[0]
    exact = n < len(GRAPH_COUNTS)
    # per key: the first candidate's parent index and mask, and the
    # indices of all its parents; candidates are streamed, not held (n = 8
    # has 94,956 of them)
    classes: dict[bytes | SimpleGraph, tuple[int, int, set[int]]] = {}
    for j, parent in enumerate(below):
        masks = _twin_orbit_minima(parent.rows)
        keys = (_profiles(parent, masks) if exact
                else (canonical_form(_extend(parent, mask)) for mask in masks))
        for mask, key in zip(masks, keys):
            entry = classes.get(key)
            if entry is None:
                classes[key] = (j, mask, {j})
            else:
                entry[2].add(j)
    if exact and len(classes) != GRAPH_COUNTS[n]:
        raise InvariantError(f"enumeration found {len(classes)} classes on {n} vertices, "
                             f"not {GRAPH_COUNTS[n]}")
    return (tuple(_extend(below[j], mask) for j, mask, _ in classes.values()),
            tuple(tuple(sorted(parents)) for _, _, parents in classes.values()))


def enumerate_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """One representative per isomorphism class of simple graphs on n vertices.

    Built by extending every (n-1)-vertex representative with one new vertex
    over one attachment set per orbit of its twin group (the least mask),
    then keeping the first candidate of each key (the profile up to 8
    vertices, canonical_form past it), so the representatives and their
    order do not depend on how the keys are computed.  n <= 7 (1253
    classes from 7,195 candidates, 11,291 without the orbits) takes about
    0.03 s on a 2-CPU Intel Xeon host (0.26 s by canonical_form); n = 8
    (12,346 classes from 94,956 candidates, streamed) about 0.36-0.46 s
    (3.4 s) and 30 MB peak RSS, of which the interpreter and imports take
    16 MB.
    """
    return _enumerate(n)[0]


def deletion_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """For each representative g of enumerate_graphs(n), the sorted indices
    into enumerate_graphs(n - 1) of the classes of its one-vertex deletions.

    Recorded while enumerating, as the parents of the candidates that fall
    in g's class: a candidate minus its new vertex is its parent, and if
    g - v is isomorphic to parent P by some map s, then P extended by a
    vertex joined to s(N(v)) is a candidate isomorphic to g.  g itself is
    the candidate of the first, so g minus its last vertex is that
    representative, labelling and all."""
    return _enumerate(n)[1]


@functools.lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[SimpleGraph, ...]:
    """One representative per isomorphism class of trees on n >= 1 vertices:
    the connected graphs of enumerate_graphs(n) with n - 1 edges.  Like
    enumerate_graphs, practical for n <= 8 (23 trees; enumerate_graphs(8)
    takes about 0.4 s and 30 MB peak RSS)."""
    if n < 1:
        raise ValueError("trees need at least one vertex")
    return tuple(g for g in enumerate_graphs(n)
                 if g.edge_count() == n - 1 and len(_components(g)) == 1)


# -- closed-form membership check for rank 2 over GF(2) -------------------------

def _is_clique(g: SimpleGraph, verts: list[int]) -> bool:
    mask = sum(1 << v for v in verts)
    return all((g.rows[v] | 1 << v) & mask == mask for v in verts)


def _is_complete_bipartite(g: SimpleGraph, verts: list[int]) -> bool:
    """Whether g on verts is K_{a,b} with a, b >= 1: exactly when the
    complement of g on verts is two cliques with no edge between them."""
    co = g.induced(verts).complement()
    comps = _components(co)
    return len(comps) == 2 and all(_is_clique(co, c) for c in comps)


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

class MinerRun:
    """What mine found (a list of SimpleGraph) and its stats (a dict)."""

    def __init__(self, found: list[SimpleGraph], stats: dict):
        self.found = found
        self.stats = stats

    def found_graph6(self) -> list[str]:
        return sorted(emit_graph6(g) for g in self.found)


# the witness of a member with no blowup to extend: the graph on no
# vertices, or a graph on n <= k vertices that member decides over the
# pattern vertex budget
_BARE = (None, None)


def _member_witness(g: SimpleGraph, q: int, k: int):
    """g's member witness by one member call: (pattern graph, assignment),
    _BARE when member answers yes without one, or None for a non-member."""
    yes, w, idx = member(g, q, k)
    if not yes:
        return None
    if w is None:
        return _BARE
    return generate(q, k).patterns[idx].graph, w.assignment


def _witness(g: SimpleGraph, q: int, k: int, parent):
    """g's member witness as _member_witness gives it, for g whose vertices
    but the last induce a member with witness parent: that blowup extended
    by blowup.extend_blowup when it fits g, else by a member call."""
    h, assignment = parent
    if h is not None:
        fit = extend_blowup(g, h, assignment)
        if fit is not None:
            return h, fit
    return _member_witness(g, q, k)


def _deletions(g: SimpleGraph):
    """The one-vertex-deleted subgraphs g - v, v = 0..n-1, relabelled in
    order: every row but v's keeps its bits below v and moves those above
    v down one, which drops bit v."""
    rows = g.rows
    for v in range(g.n):
        low = (1 << v) - 1
        yield SimpleGraph._trusted(g.n - 1, [(r & low) | (r >> 1 & ~low)
                                             for r in rows[:v] + rows[v + 1:]])


def _check_minimal_forbidden(g: SimpleGraph, q: int, k: int,
                             verdicts: dict[tuple[int, ...], bool] | None = None) -> bool:
    """Whether g is a non-member each of whose one-vertex deletions is a
    member, with every verdict from member.  verdicts maps labelled rows to
    member's verdict; it is read before each member call and filled by it,
    so a labelled graph met again (in g's deletions, or in those of another
    graph checked with the same dict) is not decided again."""
    if verdicts is None:
        verdicts = {}

    def decided(h: SimpleGraph) -> bool:
        verdict = verdicts.get(h.rows)
        if verdict is None:
            verdict = verdicts[h.rows] = member(h, q, k)[0]
        return verdict

    return not decided(g) and all(map(decided, _deletions(g)))


def _is_minimal_forbidden(g: SimpleGraph, q: int, k: int,
                          deletions_are_members: bool | None, parent=None):
    """(whether g is minimal forbidden, g's member witness or None), given
    whether its one-vertex deletions are all members, or None when that is
    not known, and the member witness parent of g minus its last vertex.

    A non-member deletion decides at once, with no witness.  Members decide
    by _witness, which extends parent or else makes one member call, and
    None leaves _check_minimal_forbidden, again with no witness.  mine calls
    this exactly once per scanned graph and for nothing else, so a clock on
    this name times the scanned graphs.
    """
    if deletions_are_members is None:
        return _check_minimal_forbidden(g, q, k), None
    if not deletions_are_members:
        return False, None
    witness = _witness(g, q, k, parent)
    return witness is None, witness


def _internal_stream(n_max: int):
    """(graph, its deletion classes) for every representative on 1..n_max
    vertices, level by level."""
    for n in range(1, n_max + 1):
        yield from zip(enumerate_graphs(n), deletion_classes(n))


def _load_checkpoint(path: str, q: int, k: int
                     ) -> tuple[int, list[SimpleGraph], str | None]:
    """(graphs covered, graphs found, source sha256) of the checkpoint at
    path, or nothing covered when there is none.  Anything but an object
    with an int counter >= 0 (not a bool), a list of strings found and a
    string source_sha256, which only a counter of 0 may leave out, is a
    ValueError naming the field.  Other keys are ignored, so a checkpoint
    that also stores "n" still loads."""
    if not path or not os.path.exists(path):
        return 0, [], None
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("checkpoint is not a JSON object")
    if obj.get("q") != q or obj.get("k") != k:
        raise ValueError("checkpoint was written for different (q, k)")
    counter, found, sha256 = obj.get("counter"), obj.get("found"), obj.get("source_sha256", "")
    if not isinstance(counter, int) or isinstance(counter, bool) or counter < 0:
        raise ValueError(f"checkpoint counter {counter!r} is not a nonnegative integer")
    if not isinstance(found, list) or not all(isinstance(s, str) for s in found):
        raise ValueError("checkpoint found is not a list of graph6 strings")
    if not isinstance(sha256, str):
        raise ValueError(f"checkpoint source_sha256 {sha256!r} is not a string")
    if counter and "source_sha256" not in obj:
        raise ValueError(f"checkpoint covers {counter} graphs but has no source_sha256")
    return counter, [parse_graph6(s) for s in found], sha256


def _write_checkpoint(path: str, q: int, k: int, counter: int,
                      found: list[SimpleGraph], source_sha256: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"q": q, "k": k, "counter": counter,
                   "source_sha256": source_sha256,
                   "found": [emit_graph6(g) for g in found]}, fh)
    os.replace(tmp, path)


def mine(q: int, k: int, n_max: int | None = None, source=None,
         checkpoint: str | None = None, max_graphs: int | None = None) -> MinerRun:
    """Collect minimal forbidden subgraphs for membership in G_k over GF(q).

    ``source`` may be an iterable of SimpleGraph (e.g. parsed from a graph6
    stream); otherwise all graphs on up to n_max <= 8 vertices are
    enumerated internally, as far as GRAPH_COUNTS checks the class counts.
    Progress is checkpointed every CHECKPOINT_EVERY graphs so a run can
    resume, and ``max_graphs`` (at least 1) caps the graphs scanned after
    the ones a checkpoint covers.
    The checkpoint keeps a sha256 over the graph6 lines of the graphs it
    covers; resuming against a source that does not start with those graphs
    is a ValueError.

    Verdicts follow heredity (see the module docstring).  The internal
    enumeration gives each graph its deletion classes (deletion_classes),
    and the run keeps the member witness of every representative on one
    vertex fewer than the graph being scanned (and builds those of its
    level): a graph with a non-member deletion class is a non-member and
    not minimal, at no member call.  Any other graph is a member when the
    witness of its first parent extends to it (blowup.extend_blowup), at
    no member call either, and otherwise costs one member call, whose
    witness is kept.  The graphs a checkpoint covers get their witnesses
    the same way, so a run resumed partway through a level still knows the
    level below.  Graphs from ``source`` have no deletion classes and are
    checked by the definition (_check_minimal_forbidden), and a graph
    found is kept unless canonical_form shows an isomorphic copy already
    found; internal representatives are pairwise non-isomorphic and are
    kept with no key.  The mined graphs are re-verified at the end by the
    definition, through member alone, with each distinct labelled graph
    decided once by a dict of that check's own verdicts, so that check
    rests neither on the enumeration nor on the extensions.
    """
    if max_graphs is not None and max_graphs < 1:
        raise ValueError(f"max_graphs must be at least 1, not {max_graphs}")
    if source is None:
        if n_max is None:
            raise ValueError("n_max is required for internal enumeration")
        if n_max >= len(GRAPH_COUNTS):
            raise ValueError(f"internal enumeration supports n_max <= {len(GRAPH_COUNTS) - 1}; "
                             "stream larger graphs from an external generator")
        stream = _internal_stream(n_max)
        source_desc = f"internal:n<={n_max}"
    else:
        stream = ((g, None) for g in source)
        source_desc = "external"

    skip, found, skip_sha256 = _load_checkpoint(checkpoint, q, k)
    source_sha256 = None
    if checkpoint:
        # importing hashlib loads OpenSSL, about 3.6 MB of RSS that only a
        # checkpointed run needs
        import hashlib
        source_sha256 = hashlib.sha256()
        # rewrite what was loaded (or an empty start), so that a path that
        # cannot be written fails now and not after the scan, and no
        # progress is lost
        _write_checkpoint(checkpoint, q, k, skip, found,
                          source_sha256.hexdigest() if skip_sha256 is None else skip_sha256)

    # the internal representatives are pairwise non-isomorphic (the class
    # count check in _enumerate proves it) and a resumed run skips the ones
    # its checkpoint covers, so only an external source needs keys
    found_keys = None if source is None else {canonical_form(g) for g in found}
    # member witnesses (see _member_witness) of the enumerated
    # representatives, by index, on one vertex fewer than the graphs being
    # scanned (below) and on as many (level); the graph on no vertices is
    # a member with no blowup to extend
    below, level, depth = [], [_BARE], 0
    scanned = 0

    def save():
        _write_checkpoint(checkpoint, q, k, scanned, found, source_sha256.hexdigest())

    for g, classes in stream:
        if checkpoint:
            source_sha256.update(emit_graph6(g).encode("ascii") + b"\n")
        scanned += 1
        deletions_are_members = parent = None
        if classes is not None:
            if g.n > depth:
                below, level, depth = level, [], g.n
            deletions_are_members = all(below[j] is not None for j in classes)
            parent = below[classes[0]]
        if scanned <= skip:
            if scanned == skip and source_sha256.hexdigest() != skip_sha256:
                raise ValueError("checkpoint was written for a different source")
            if classes is not None:
                level.append(_witness(g, q, k, parent) if deletions_are_members else None)
            continue
        minimal, witness = _is_minimal_forbidden(g, q, k, deletions_are_members, parent)
        if classes is not None:
            level.append(witness)
        if minimal and found_keys is not None:
            key = canonical_form(g)
            minimal = key not in found_keys
            found_keys.add(key)
        if minimal:
            found.append(g)
        if checkpoint and (scanned - skip) % CHECKPOINT_EVERY == 0:
            save()
        if max_graphs is not None and scanned - skip >= max_graphs:
            break
    if scanned < skip:
        raise ValueError(f"checkpoint covers {skip} graphs, the source has {scanned}")

    # report-time re-verification of the minimality invariant, by the
    # definition; its verdicts are its own, never the scan's, so that it
    # checks the scan and the extensions
    verdicts: dict[tuple[int, ...], bool] = {}
    for g in found:
        if not _check_minimal_forbidden(g, q, k, verdicts):
            raise InvariantError(f"mined graph {emit_graph6(g)} failed re-verification")

    if checkpoint:
        save()
    return MinerRun(found, {"scanned": scanned, "found": len(found), "q": q, "k": k,
                            "source": source_desc})
