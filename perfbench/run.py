"""Seeded end-to-end benchmark of the gfminrank CLI, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, oracle, mine, patterns (see README.md in this directory).
Each run builds its corpus from --seed and serves it in two to four rounds
(ROUNDS in workloads.py), each in a fresh worker process and its own seeded
order, through ``gfminrank.cli.main`` (one client, one request at a time,
one thread).  The worker scales its times to a reference host speed
(calib.py), and the reported times are medians over the rounds.  The run
checks every answer after the timed sections, prints each metric by name
with its unit, writes the full result under perfbench/results/, and prints
one JSON object as its last line.

--trace 0 reports the end-to-end metrics.  --trace 1 serves the same corpus
twice, once untraced and once with span wrappers on gfminrank's layer
bindings, both unscaled, and reports the per-layer metrics with the tracing
overhead.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from spans import dump as dump_spans, layer_metrics, load as load_spans  # noqa: E402

DEADLINE_S = 170        # the whole run, checks included, ends within this
SETUP_SAMPLES = 6       # fresh imports behind setup_s: workers, then import-only probes
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "latency_p50_s": "s",
                    "latency_p90_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer units by name suffix, first match wins
LAYER_UNITS = (("per_s", "1/s"), ("_s", "s"), (".s", "s"), ("ratio", "1"), ("share", "1"),
               ("frac", "1"), ("pairing_bytes", "bytes-computed"),
               ("matrices", "matrices-bound"), ("", "count"))


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "GFMINRANK_BACKEND": os.environ.get("GFMINRANK_BACKEND"),
        "thread_pins": THREAD_PINS,
    }


def spawn(job: dict, deadline: float) -> dict:
    """Run worker.py in a fresh process on one job; wait for it to end."""
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONOPTIMIZE", None)  # keep the library's asserts in the measured path
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.terminate()  # the worker ends the child it forked, if any, then itself
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise BenchError("worker did not finish before the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def tail_percentile(samples: list[float], want: int = 90, tail: int = 10) -> tuple[float, int]:
    """Nearest-rank percentile ``want``, lowered until ``tail`` samples lie
    beyond it (not below the median): (value, percentile used)."""
    xs = sorted(samples)
    n = len(xs)
    p = want
    while p > 50 and n - math.ceil(p * n / 100) < tail:
        p -= 1
    return xs[max(0, math.ceil(p * n / 100) - 1)], p


def serve_round(workload: str, corpus: list[dict], tag: str, trace: bool, deadline: float,
                scaled: bool = True):
    """Serve the corpus once in a fresh worker process (each ``patterns`` set
    in its own child of it), with times scaled by calibration unless
    ``trace`` or not ``scaled``.  Returns the worker result and the stdout
    text of each request."""
    spool = RESULTS / f"{tag}.spool"
    job = {"mode": "run", "requests": [{"argv": r["argv"], "stdin": r["stdin"]} for r in corpus],
           "trace": trace, "per_graph": workload == "mine", "fork_each": workload == "patterns",
           "calibrate": W.CHUNK_KIND[workload] if scaled and not trace else None,
           "spool_path": str(spool), "spans_path": str(RESULTS / f"{tag}-spans.part")}
    res = spawn(job, deadline)
    with open(spool, "rb") as fh:
        data = fh.read()
    spool.unlink()
    outputs = [data[r["offset"]:r["offset"] + r["length"]].decode() for r in res["records"]]
    if trace:
        files = [Path(path) for path, _ in res["span_files"]]
        spans = load_spans(files, [offset for _, offset in res["span_files"]])
        res["layers"] = layer_metrics(spans, len(corpus))
        dump_spans(spans, RESULTS / f"{tag}-spans.jsonl")
        for path in files:
            path.unlink()
    return res, outputs


def serve(workload: str, corpus: list[dict], tag: str, rounds: int, seed: int, deadline: float,
          scaled: bool = True):
    """Serve the corpus ``rounds`` times, each round in a fresh worker and in
    its own seeded order (the first in corpus order), and take medians over
    the rounds: of each request's latency (and, for ``mine``, of each graph's),
    and of the round walls.  Orders differ between rounds so that what a
    request costs after its particular predecessors averages out.  Returns
    the merged result and the outputs of the first round, in corpus order;
    ``round_mismatches`` counts requests whose output or exit code differed in
    a later round."""
    runs, outputs, mismatches = [], None, 0
    for r in range(rounds):
        order = list(range(len(corpus)))
        if r:
            random.Random(f"round:{seed}:{r}").shuffle(order)
        res, outs = serve_round(workload, [corpus[i] for i in order], tag, False, deadline,
                                scaled)
        records, outs_in_corpus_order = [None] * len(corpus), [None] * len(corpus)
        for pos, i in enumerate(order):
            records[i], outs_in_corpus_order[i] = res["records"][pos], outs[pos]
        res["records"] = records
        if outputs is None:
            outputs = outs_in_corpus_order
        else:
            mismatches += sum(a != b or ra["code"] != rb["code"] for a, b, ra, rb in
                              zip(outputs, outs_in_corpus_order, runs[0]["records"], records))
        runs.append(res)
    merged_records = []
    for i, rec in enumerate(runs[0]["records"]):
        per_round = [r["records"][i] for r in runs]
        graphs = [p["graph_latencies"] for p in per_round]
        if len({len(g) for g in graphs}) != 1:
            raise BenchError(f"rounds classified different numbers of graphs in request {i}")
        merged_records.append({**rec, "latency": statistics.median(p["latency"] for p in per_round),
                               "graph_latencies": [statistics.median(g) for g in zip(*graphs)]})
    merged = {
        "records": merged_records,
        "wall_s": statistics.median(sum(rec["latency"] for rec in r["records"]) for r in runs),
        "raw_wall_s": statistics.median(sum(rec["raw_latency"] for rec in r["records"])
                                        for r in runs),
        "round_wall_s": [r["wall_s"] for r in runs],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup": [r["setup_s"] for r in runs],
        "raw_setup": [r["raw_setup_s"] for r in runs],
        "optimize": max(r["optimize"] for r in runs),
        "round_mismatches": mismatches,
    }
    return merged, outputs


def verdict_for(workload: str, corpus, res, outputs, refs):
    from checks import CHECKERS
    v = CHECKERS[workload](corpus, outputs, refs)
    for req, rec in zip(corpus, res["records"]):
        if rec["code"] != 0:
            v.problems.append({"argv": req["argv"], "exit": rec["code"], "error": rec["error"]})
    return v


def end_to_end(workload: str, res: dict, verdict, setup: list[float]) -> tuple[dict, dict]:
    if workload == "mine":
        samples = [lat for rec in res["records"] for lat in rec["graph_latencies"]]
    else:
        samples = [rec["latency"] for rec in res["records"]]
    p90, used = tail_percentile(samples)
    items = verdict.attempted if workload == "mine" else len(res["records"])
    metrics = {
        "wall_s": res["wall_s"],
        "items_per_s": items / res["wall_s"],
        "latency_p50_s": statistics.median(samples),
        "latency_p90_s": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"latency_samples": len(samples), "latency_p90_percentile": used,
             "latency_p90_beyond": len(samples) - math.ceil(used * len(samples) / 100),
             "setup_samples": len(setup), "items": items,
             "fail_frac": verdict.failed / verdict.attempted}
    return metrics, notes


def cost_by_stratum(corpus: list[dict], records: list[dict]) -> dict:
    """Per-stratum request count and latency summary, for the cost-spread docs."""
    groups: dict[str, list[float]] = {}
    for req, rec in zip(corpus, records):
        key = req.get("stratum") or f"q{req['q']}k{req['k']}"
        groups.setdefault(key, []).append(rec["latency"])
    return {k: {"n": len(v), "sum_s": sum(v), "median_s": statistics.median(v), "max_s": max(v)}
            for k, v in sorted(groups.items())}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    refs = W.load_refs()
    corpus = W.build_corpus(args.workload, args.seed, args.seconds, refs)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = 1 if args.trace else W.ROUNDS[args.workload]
    res, outputs = serve(args.workload, corpus, tag, rounds, args.seed, deadline,
                         scaled=not args.trace)
    verdict = verdict_for(args.workload, corpus, res, outputs, refs)
    verdict.failed += res["round_mismatches"]
    verdict.unexpected += res["round_mismatches"]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": {**host_info(), "python_optimize": res["optimize"]},
              "requests": len(corpus), "rounds": rounds, "round_wall_s": res["round_wall_s"],
              "round_mismatches": res["round_mismatches"],
              "cost_by_stratum": cost_by_stratum(corpus, res["records"]),
              "checks": verdict.counts, "problems": verdict.problems}
    if args.trace:
        traced, traced_outputs = serve_round(args.workload, corpus, tag, True, deadline)
        layers = traced["layers"]
        untraced_wall = res["round_wall_s"][0]
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1
        layers["trace.answer_mismatches"] = sum(a != b for a, b in zip(outputs, traced_outputs))
        verdict.failed += layers["trace.answer_mismatches"]
        verdict.unexpected += layers["trace.answer_mismatches"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        result["spans_file"] = str((RESULTS / f"{tag}-spans.jsonl").relative_to(ROOT))
    else:
        probes = [spawn({"mode": "setup"}, deadline)
                  for _ in range(SETUP_SAMPLES - len(res["setup"]))]
        setup = res["setup"] + [p["setup_s"] for p in probes]
        values, notes = end_to_end(args.workload, res, verdict, setup)
        notes["raw_wall_s"] = res["raw_wall_s"]
        notes["raw_setup_s"] = statistics.median(res["raw_setup"] +
                                                 [p["raw_setup_s"] for p in probes])
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        result["notes"] = notes
    result.update(metrics=metrics, attempted=verdict.attempted, failed=verdict.failed,
                  unexpected_failures=verdict.unexpected)
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    h = result["host"]
    print(f"host: nproc={h['nproc']} cpu={h['cpu']!r} python={h['python']} numpy={h['numpy']} "
          f"numba_importable={h['numba_importable']} GFMINRANK_BACKEND={h['GFMINRANK_BACKEND']} "
          f"pins={','.join(f'{k}={v}' for k, v in h['thread_pins'].items())}")
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"requests={result['requests']} checks={json.dumps(result['checks'])}")
    print(f"rounds={result['rounds']} (times are medians over rounds); raw round walls "
          f"{', '.join(f'{w:.3f}' for w in result['round_wall_s'])} s")
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")
    notes = result.get("notes")
    if notes:
        print(f"  latency samples={notes['latency_samples']}; latency_p90_s is "
              f"p{notes['latency_p90_percentile']} ({notes['latency_p90_beyond']} beyond); "
              f"setup_s is the median of {notes['setup_samples']} fresh imports")
        print(f"  raw (unscaled) wall_s {notes['raw_wall_s']:.6g} s, setup_s "
              f"{notes['raw_setup_s']:.6g} s")
        print(f"  fail_frac {notes['fail_frac']:.6f} = {result['failed']} of "
              f"{result['attempted']} ({result['unexpected_failures']} not the known "
              f"characteristic-2 defect)")
    for p in result["problems"][:5]:
        print(f"  problem: {json.dumps(p)[:300]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=W.NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gfminrank" / "__init__.py").is_file():
        print(f"error: no gfminrank sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without python -O; the library's asserts are part of the work",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result)
    print(json.dumps({"correct": result["unexpected_failures"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
