"""Tests of the benchmark's own code.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import random
import signal
import subprocess
import time
import sys
from pathlib import Path

import pytest

import calib
import checks
import run
import spans
import worker
import workloads as W
from run import tail_percentile


@pytest.fixture(scope="module")
def refs():
    return W.load_refs()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload, refs):
    a = W.build_corpus(workload, 1, 2, refs)
    assert a == W.build_corpus(workload, 1, 2, refs)
    assert a != W.build_corpus(workload, 2, 2, refs)


def test_graph6_helpers_match_the_library():
    from gfminrank import SimpleGraph, emit_graph6, parse_graph6
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(0, 12)
        edges = W.gnp_edges(rng, n)
        line = W.encode_graph6(n, edges)
        assert line == emit_graph6(SimpleGraph.from_edges(n, edges))
        assert sorted(parse_graph6(line).edges()) == sorted(W.decode_graph6(line)[1])


def test_canonical_form_ignores_labelling():
    rng = random.Random(3)
    edges = W.gnm_edges(rng, 6, 7)
    perm = list(range(6))
    rng.shuffle(perm)
    assert W.canonical_graph6(6, edges) == W.canonical_graph6(6, W.relabel(edges, perm))


def _serve(corpus, tracer=None):
    spool = io.BytesIO()
    res = worker.run_requests(corpus, spool, tracer)
    data = spool.getvalue()
    return [data[r["offset"]:r["offset"] + r["length"]].decode() for r in res["records"]]


def _bindings():
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr in (spans._resolve(m, p) for m, p, _, _ in spans.BINDINGS)]


def test_traced_answers_equal_untraced_and_bindings_are_restored(refs):
    sweep = W.sweep_corpus(5, 0.4, refs)
    corpus = sweep + W.oracle_corpus(5, 0.2)[:6] + W.patterns_corpus(5)[:3]
    before = _bindings()
    plain = _serve(corpus)
    tracer = spans.Tracer()
    traced = _serve(corpus, tracer)
    assert traced == plain
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in before)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "blowup.min_rank", "blowup.member", "graphs.twin_reduce",
            "oracle.oracle_min_rank", "patterns.generate"} <= names
    m = spans.layer_metrics(tracer.spans, len(corpus))
    assert m["blowup.member.calls"] >= len(sweep) and m["oracle.matrices"] > 0
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[4] for s in roots] == list(range(len(corpus)))


def test_bindings_are_restored_after_a_failing_request():
    before = _bindings()
    tracer = spans.Tracer()
    out = _serve([{"argv": ["minrank", "--q", "2"], "stdin": "not graph6\n"}], tracer)
    assert out == [""]
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in before)


def test_self_time_subtracts_children():
    spans_ = [["cli.main", 0.0, 10.0, -1, 0, False, None],
              ["blowup.min_rank", 1.0, 9.0, 0, 0, False, None],
              ["graphs.twin_reduce", 2.0, 3.0, 1, 0, False, {"core": 4, "classes": 2}]]
    m = spans.layer_metrics(spans_, 1)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["blowup.self_s"] == pytest.approx(7.0)
    assert m["graphs.self_s"] == pytest.approx(1.0)
    assert m["graphs.twin_classes_ratio"] == pytest.approx(0.5)


def test_fail_frac_counts_an_injected_wrong_reference(refs):
    corpus = [r for r in W.sweep_corpus(3, 20, refs) if r["q"] == 3 and r["ref"] is not None][:4]
    outputs = _serve(corpus)
    assert checks.check_sweep(corpus, outputs, refs).failed == 0
    corpus[0] = {**corpus[0], "ref": corpus[0]["ref"] + 1}
    v = checks.check_sweep(corpus, outputs, refs)
    assert (v.attempted, v.failed, v.unexpected) == (4, 1, 1)


def test_witness_check_rejects_a_bad_witness():
    from gfminrank import parse_graph6
    from gfminrank.blowup import member
    from gfminrank.patterns import generate
    line = W.encode_graph6(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    ok, wit, idx = member(parse_graph6(line), 3, 4)   # a path on 5 vertices has mr 4
    pattern = generate(3, 4).patterns[idx].graph
    n, edges = W.decode_graph6(line)
    assert ok and checks.witness_ok(n, edges, wit.assignment, pattern)
    bad = dict(wit.assignment)
    bad[0] = bad[4]
    assert not checks.witness_ok(n, edges, bad, pattern)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1, 201))) == (180, 90)
    value, used = tail_percentile(list(range(1, 42)))
    assert used == 75 and 41 - value >= 10


def test_exits_nonzero_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    (tmp_path / "perfbench").mkdir()
    for f in bench.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_spans_of_several_workers_load_as_one_tree(tmp_path):
    one = [["cli.main", 0.0, 2.0, -1, 0, False, None],
           ["blowup.min_rank", 0.5, 1.5, 0, 0, False, None]]
    spans.dump(one, tmp_path / "a.jsonl")
    spans.dump(one, tmp_path / "b.jsonl")
    both = spans.load([tmp_path / "a.jsonl", tmp_path / "b.jsonl"], [0, 1])
    assert [s[3] for s in both] == [-1, 0, -1, 2]
    assert [s[4] for s in both] == [0, 0, 1, 1]
    assert spans.layer_metrics(both, 2)["cli.self_s"] == pytest.approx(2.0)


def test_calibration_takes_chunks_out_and_scales_each_stretch(monkeypatch):
    monkeypatch.setitem(calib.REF_S, "py", 1.0)
    cal = calib.Calibrator()
    # chunks of 2 s (half the reference speed) around t = 10, of 1 s around t = 30
    for start, dt in [(0, 2), (3, 2), (6, 2), (9, 2), (12, 2), (15, 2), (18, 2),
                      (25, 1), (27, 1), (29, 1), (31, 1), (33, 1), (35, 1), (37, 1)]:
        cal.starts.append(start)
        cal.ends.append(start + dt)
        cal.mids.append(start + dt / 2)
        cal.times.append(dt)
    assert cal.spent(8, 15) == 4          # the chunks at 9 and 12
    assert cal.scaled(8, 9) == pytest.approx(0.5)
    assert cal.scaled(8, 15) == pytest.approx((1 + 1 + 1) * 0.5)
    assert cal.scaled(32.5, 33) == pytest.approx(0.5)


def test_calibration_timer_runs_chunks_and_is_removed():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Calibrator() as cal:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            sum(range(1000))
        end = time.perf_counter()
    assert len(cal._inside(t, end)) >= 3
    assert 0 < cal.spent(t, end) < end - t
    assert cal.scaled(t, end) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_rounds_merge_in_corpus_order(refs, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    corpus = W.sweep_corpus(9, 0.4, refs)[:6]
    res, outputs = run.serve("sweep", corpus, "t", 3, 9, time.monotonic() + 120)
    assert outputs == _serve(corpus)
    assert res["round_mismatches"] == 0 and len(res["round_wall_s"]) == 3
    assert all(rec["code"] == 0 and rec["latency"] > 0 for rec in res["records"])
    assert len(res["setup"]) == 3 and res["wall_s"] > 0


def test_forked_requests_match_in_process_ones(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    corpus = [r for r in W.patterns_corpus(4) if r["k"] <= 3 and r["q"] < 10][:3]
    res, outputs = run.serve_round("patterns", corpus, "t", False, time.monotonic() + 120)
    assert outputs == _serve(corpus)
    assert res["peak_rss_mb"] > 0 and [r["code"] for r in res["records"]] == [0, 0, 0]
