"""Workload definitions and seeded corpus builders.

Every request is one ``gfminrank`` command line plus the text it reads on
stdin.  The program only ever sees graph6 lines and CLI arguments; all graph
handling here (graph6 encoding, relabelling, canonical forms) is the
benchmark's own code, so the corpus does not depend on the code under test.

Corpus rules, per workload:

* ``sweep``: the first SWEEP_SHARE of every stored G(n, 1/2) pool (drawn
  once from a fixed master seed, unfiltered, served in the order drawn), in
  seeded order, plus the known-bad line ``F{czG`` over GF(2).  The seed picks
  only the order: per-graph cost is heavy-tailed and depends on the vertex
  labelling, so neither seeded subsampling nor seeded relabelling of the
  pools kept wall time steady between seeds (see README.md).
* ``oracle``: fresh seeded G(n, M) draws.  The oracle's cost depends only on
  (n, M, q) when no draw can be a clique, so fixing such an M keeps the work
  per seed steady while the graphs change; references are stored per
  isomorphism class.  Plus the four fixed cases of the retired
  ``benchmarks/bench_backends.py`` timing script.
* ``mine``: all graphs on up to 7 vertices for four (q, k); seeded order.
* ``patterns``: a fixed list of pattern sets, each generated cold in its own
  forked process; seeded order.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "data" / "refs.json"

# --seconds the pool shares and stratum sizes below are tuned for: ROUNDS
# rounds of the corpus take about this long at the seed commit on a 2-CPU
# host.  A run asked for fewer seconds takes a proportional prefix of each
# sweep pool and oracle stratum.
NOMINAL_SECONDS = 20

# Each run serves its corpus this many times, each round in a fresh worker
# and its own seeded order, and reports medians over the rounds (run.py).
ROUNDS = {"sweep": 4, "oracle": 2, "mine": 3, "patterns": 3}
# The calibration chunk whose speed scales each workload's times (calib.py).
CHUNK_KIND = {"sweep": "py", "oracle": "np", "mine": "py", "patterns": "py"}

# (q, n, pool size) for the sweep pools of G(n, 1/2) graphs.  Larger n
# (GF(2) n = 9-10, GF(3) n = 8, GF(4) n = 7) is left out: a single draw there
# can take 7 s to over 200 s, longer than a round.
SWEEP_POOLS = ((2, 8, 150), (3, 6, 40), (3, 7, 60), (4, 6, 40))
SWEEP_SHARE = 0.4  # of each pool, from its first draw, at NOMINAL_SECONDS
SWEEP_MASTER_SEED = 2008
KNOWN_BAD = ("F{czG", 2)  # GF(2) answer 4, oracle 3 (orbit pruning in char 2)

# (q, n, M, count) for the oracle strata of G(n, M) graphs.  No M is a
# triangular number, so no draw is a clique plus isolated vertices, the one
# shape at which the oracle's scan stops early: every draw of a stratum
# scans the same q^n (q-1)^M matrices, and a seed changes the graphs, not
# the work.  The counts put latency_p50_s inside the GF(4) stratum and
# latency_p90_s inside the GF(3) n = 5 one, not at a boundary between strata.
ORACLE_STRATA = ((3, 4, 4, 40), (4, 4, 2, 30), (3, 5, 5, 20), (5, 4, 2, 10), (3, 6, 7, 1))
# the cases the retired bench_backends.py timed: (name, q, n, edges)
ORACLE_CASES = (
    ("K5", 3, 5, tuple(itertools.combinations(range(5), 2))),
    ("C6", 3, 6, tuple((i, (i + 1) % 6) for i in range(6))),
    ("P5", 5, 5, tuple((i, i + 1) for i in range(4))),
    ("K22", 4, 4, ((0, 2), (0, 3), (1, 2), (1, 3))),
)

# (2, 2) adds many cheap graphs, so that the latency median does not fall in
# the gap between the fast GF(2)/GF(3) graphs and the slow GF(4) ones.
MINE_PAIRS = ((2, 3), (3, 3), (4, 3), (2, 2))
MINE_MAX_N = 7

# Each set is served cold in its own process (a child forked after the
# import, so no cache or garbage-collector history from earlier sets).  Set
# costs spread over three decades, which leaves a latency percentile among
# few, far-apart values; so the list has a cluster of five near-equal k = 2
# sets (about 20 ms) with as many sets below it as above, where the median
# falls.  (2, 11), with 2047 vertices, is about 70 % of the work; larger sets
# do not fit three rounds in a run.
PATTERN_SETS = (
    (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (5, 3), (7, 3),
    (101, 2), (103, 2), (107, 2), (109, 2), (113, 2),
    (16, 3), (17, 3), (19, 3), (2, 8), (3, 6), (4, 5),
    (2, 9), (7, 4), (2, 11),
)

WORKLOADS = ("sweep", "oracle", "mine", "patterns")


# -- graph6 and small-graph helpers ------------------------------------------

def encode_graph6(n: int, edges) -> str:
    """graph6 line of a simple graph with n <= 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError("graph6 helper supports 0 <= n <= 62")
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[t:t + 6])), 2) for t in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(map(chr, body))


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        val = ord(ch) - 63
        bits.extend((val >> s) & 1 for s in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [p for p, b in zip(pairs, bits) if b]


def relabel(edges, perm) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in edges]


def canonical_graph6(n: int, edges) -> str:
    """Lexicographically least graph6 over all vertex orders (n <= 7)."""
    return min(encode_graph6(n, relabel(edges, perm))
               for perm in itertools.permutations(range(n)))


def gnp_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]


def gnm_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


def load_refs(path: Path = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _scaled(count: int, seconds: float) -> int:
    return max(1, min(count, round(count * seconds / NOMINAL_SECONDS)))


# -- corpus builders -----------------------------------------------------------

def sweep_corpus(seed: int, seconds: float, refs: dict) -> list[dict]:
    rng = random.Random(f"sweep:{seed}")
    out = [{"q": pool["q"], "line": item["g6"], "ref": item["mr"],
            "stratum": f"q{pool['q']}n{pool['n']}"}
           for pool in refs["sweep_pools"]
           for item in pool["graphs"][:_scaled(round(SWEEP_SHARE * len(pool["graphs"])), seconds)]]
    rng.shuffle(out)
    line, q = KNOWN_BAD
    out.insert(rng.randrange(len(out) + 1),
               {"q": q, "line": line, "ref": None, "stratum": "known-bad"})
    for req in out:
        req["argv"] = ["minrank", "--q", str(req["q"])]
        req["stdin"] = req["line"] + "\n"
    return out


def oracle_corpus(seed: int, seconds: float) -> list[dict]:
    rng = random.Random(f"oracle:{seed}")
    out = [{"q": q, "n": n, "edges": list(edges), "stratum": name}
           for name, q, n, edges in ORACLE_CASES]
    for q, n, m, count in ORACLE_STRATA:
        for _ in range(_scaled(count, seconds)):
            out.append({"q": q, "n": n, "edges": gnm_edges(rng, n, m),
                        "stratum": f"q{q}n{n}m{m}"})
    rng.shuffle(out)
    for req in out:
        req["line"] = encode_graph6(req["n"], req["edges"])
        req["argv"] = ["oracle", "--q", str(req["q"])]
        req["stdin"] = req["line"] + "\n"
    return out


def mine_corpus(seed: int) -> list[dict]:
    pairs = list(MINE_PAIRS)
    random.Random(f"mine:{seed}").shuffle(pairs)
    return [{"q": q, "k": k, "stdin": "",
             "argv": ["mine", "--q", str(q), "--k", str(k), "--max-n", str(MINE_MAX_N)]}
            for q, k in pairs]


def patterns_corpus(seed: int) -> list[dict]:
    sets = list(PATTERN_SETS)
    random.Random(f"patterns:{seed}").shuffle(sets)
    return [{"q": q, "k": k, "stdin": "",
             "argv": ["patterns", "--q", str(q), "--k", str(k), "--format", "json"]}
            for q, k in sets]


def build_corpus(workload: str, seed: int, seconds: float, refs: dict) -> list[dict]:
    if workload == "sweep":
        return sweep_corpus(seed, seconds, refs)
    if workload == "oracle":
        return oracle_corpus(seed, seconds)
    if workload == "mine":
        return mine_corpus(seed)
    if workload == "patterns":
        return patterns_corpus(seed)
    raise ValueError(f"unknown workload {workload!r}")
