"""Regenerate perfbench/data/refs.json: the sweep pools and every stored reference.

Run from the repository root (takes about ten minutes on a 2-CPU host):

    PYTHONPATH=src python3 perfbench/make_refs.py [--commit HASH]

What is stored, and how independent it is of the code under test:

* sweep pools: G(n, 1/2) draws from a fixed master seed, unfiltered.  For
  q != 2 the minimum rank comes from the brute-force oracle wherever its
  enumeration has at most ORACLE_REF_CAP matrices (null otherwise; those
  answers are certified from above at check time).  GF(2) answers are
  checked against the oracle at check time, so none are stored.
* oracle references: the oracle's answer for every isomorphism class the
  oracle strata can draw, keyed by canonical graph6, plus the four named
  cases.  The blowup route is run too and any disagreement is recorded.
* mine references: GF(2) from the oracle (a graph is minimal forbidden when
  its minimum rank exceeds k and every single-vertex deletion's is at most
  k).  Other q: the output of ``gfminrank mine`` at the commit named by
  --commit, which is NOT independent of the code under test.
* pattern digests: sha256 of ``gfminrank patterns --format json`` output at
  that commit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import time

from gfminrank import cli, enumerate_graphs, min_rank, oracle_min_rank
from gfminrank.graphs import SimpleGraph
from gfminrank.oracle import enumeration_size

import workloads as W

ORACLE_REF_CAP = 1 << 22


def _log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def sweep_pools() -> list[dict]:
    pools = []
    for q, n, size in W.SWEEP_POOLS:
        rng = random.Random(f"pool:{W.SWEEP_MASTER_SEED}:{q}:{n}")
        graphs = []
        for _ in range(size):
            edges = W.gnp_edges(rng, n)
            mr = None
            if q != 2 and enumeration_size(n, len(edges), q) <= ORACLE_REF_CAP:
                mr = oracle_min_rank(SimpleGraph.from_edges(n, edges), q)
            graphs.append({"g6": W.encode_graph6(n, edges), "mr": mr})
        exact = sum(g["mr"] is not None for g in graphs)
        _log(f"sweep pool q={q} n={n}: {size} graphs, {exact} with oracle references")
        pools.append({"q": q, "n": n, "graphs": graphs})
    return pools


def oracle_refs() -> tuple[dict, dict, list]:
    by_class: dict[str, dict[str, int]] = {}
    disagreements = []
    for q, n, m, _ in W.ORACLE_STRATA:
        table = by_class.setdefault(str(q), {})
        for g in enumerate_graphs(n):
            if g.edge_count() != m:
                continue
            key = W.canonical_graph6(n, list(g.edges()))
            table[key] = oracle_min_rank(g, q)
            if min_rank(g, q) != table[key]:
                disagreements.append({"q": q, "g6": key})
        _log(f"oracle classes q={q} n={n} m={m}: {len(table)} so far")
    cases = {}
    for name, q, n, edges in W.ORACLE_CASES:
        g = SimpleGraph.from_edges(n, edges)
        cases[name] = oracle_min_rank(g, q)
        if min_rank(g, q) != cases[name]:
            disagreements.append({"q": q, "case": name})
    return by_class, cases, disagreements


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gfminrank {' '.join(argv)} exited {code}")
    return out.getvalue()


def mine_refs() -> dict:
    refs = {}
    for q, k in W.MINE_PAIRS:
        if q == 2:
            found = []
            for n in range(1, W.MINE_MAX_N + 1):
                for g in enumerate_graphs(n):
                    if oracle_min_rank(g, q) > k and all(
                            oracle_min_rank(g.induced([u for u in range(n) if u != v]), q) <= k
                            for v in range(n)):
                        found.append(W.encode_graph6(n, list(g.edges())))
            refs[f"{q},{k}"] = {"forbidden": sorted(found), "source": "oracle"}
        else:
            argv = ["mine", "--q", str(q), "--k", str(k), "--max-n", str(W.MINE_MAX_N)]
            obj = json.loads(_cli_stdout(argv))
            refs[f"{q},{k}"] = {"forbidden": obj["forbidden"], "source": "seed-commit output"}
        _log(f"mine q={q} k={k}: {len(refs[f'{q},{k}']['forbidden'])} forbidden")
    return refs


def pattern_digests() -> dict:
    out = {}
    for q, k in W.PATTERN_SETS:
        text = _cli_stdout(["patterns", "--q", str(q), "--k", str(k), "--format", "json"])
        out[f"{q},{k}"] = hashlib.sha256(text.encode()).hexdigest()
    _log(f"pattern digests: {len(out)} sets")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", default="unknown",
                    help="commit whose output the non-independent references record")
    args = ap.parse_args()
    classes, cases, disagreements = oracle_refs()
    refs = {
        "provenance": {"commit": args.commit, "oracle_ref_cap": ORACLE_REF_CAP,
                       "sweep_master_seed": W.SWEEP_MASTER_SEED},
        "oracle_classes": classes,
        "oracle_cases": cases,
        "oracle_blowup_disagreements": disagreements,
        "mine": mine_refs(),
        "pattern_digests": pattern_digests(),
        "sweep_pools": sweep_pools(),
    }
    W.REFS_PATH.parent.mkdir(exist_ok=True)
    with open(W.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _log(f"wrote {W.REFS_PATH}")


if __name__ == "__main__":
    main()
