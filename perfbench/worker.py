"""One fresh benchmark process: import gfminrank, serve requests, report.

Reads a job object from stdin and prints one JSON result line.  Jobs:

* ``{"mode": "setup"}``: import ``gfminrank`` and ``gfminrank.cli`` and
  report how long that took, raw and scaled to the reference speed by
  calibration chunks just before and after the import (see calib.py).
* ``{"mode": "run", "requests": [...], "trace": bool, "per_graph": bool,
  "fork_each": bool, "calibrate": str | None, "spool_path": str,
  "spans_path": str}``: after the import, pass each request's argv and stdin
  text to ``gfminrank.cli.main`` in this process, one at a time (a closed
  loop with one client), and record its exit code and latency (scaled by
  the calibration chunk named by ``calibrate``, if any).  Each request's
  stdout is appended to the spool file as soon as it is complete, so held
  outputs do not inflate peak RSS; records give its offset and length.

With ``fork_each`` every request is served in its own child, forked from
this process after the import and waited for before the next one starts:
each request runs cold (no cache or garbage-collector history from earlier
requests) without paying the import again, and its peak RSS is the child's
own.  The children's spans go to ``<spans_path>.<request>``.

For ``mine`` a request (a scanned graph) ends inside one CLI call, so the
per-graph latency comes from a clock on ``gfminrank.miner._is_minimal_forbidden``,
installed in both traced and untraced runs; each record lists the latencies
of the graphs its CLI call classified.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

from calib import Calibrator


def call_cli(main, argv: list[str], stdin: str) -> tuple[int | None, str, str | None]:
    """Run one CLI request with redirected stdio: (exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    old_in = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        error = err.getvalue().strip() or None
    except Exception:  # a crash fails this request, not the run
        code, error = None, traceback.format_exc(limit=3)
    finally:
        sys.stdin = old_in
    return code, out.getvalue(), error


@contextlib.contextmanager
def graph_clock(spans: list[tuple[float, float]]):
    """Record the start and end of every miner graph classification."""
    import gfminrank.miner as miner
    orig = miner.__dict__["_is_minimal_forbidden"]

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            spans.append((t, time.perf_counter()))

    miner._is_minimal_forbidden = timed
    try:
        yield
    finally:
        miner._is_minimal_forbidden = orig


def run_requests(requests: list[dict], spool, tracer=None, per_graph: bool = False,
                 cal=None) -> dict:
    """Serve requests through gfminrank.cli.main; the timed section of a run.

    With a calibrator (calib.py), calibration chunks run throughout; their
    time is taken out of every latency and of the wall time, and each
    record's ``latency`` is scaled to the reference speed, with the raw one
    kept as ``raw_latency``."""
    import gfminrank.cli as cli
    records = []
    graph_spans: list[tuple[float, float]] = []
    if tracer is not None:
        tracer.install()
    try:
        with graph_clock(graph_spans) if per_graph else contextlib.nullcontext(), \
                cal if cal is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            for i, req in enumerate(requests):
                if tracer is not None:
                    tracer.request = i
                g0 = len(graph_spans)
                t = time.perf_counter()
                code, out, error = call_cli(cli.main, req["argv"], req["stdin"])
                end = time.perf_counter()
                data = out.encode()
                records.append({"code": code, "error": error, "start": t, "end": end,
                                "graphs": (g0, len(graph_spans)),
                                "offset": spool.tell(), "length": len(data)})
                spool.write(data)
            t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    if cal is None:
        for rec in records:
            rec["latency"] = rec["raw_latency"] = rec["end"] - rec["start"]
        graph_latencies = [e - t for t, e in graph_spans]
        wall = t1 - t0
    else:
        for rec in records:
            rec["raw_latency"] = rec["end"] - rec["start"] - cal.spent(rec["start"], rec["end"])
            rec["latency"] = cal.scaled(rec["start"], rec["end"])
        graph_latencies = [cal.scaled(t, e) for t, e in graph_spans]
        wall = t1 - t0 - cal.spent(t0, t1)
    for rec in records:
        rec["graph_latencies"] = graph_latencies[slice(*rec.pop("graphs"))]
    return {"records": records, "wall_s": wall}


def _serve(requests: list[dict], job: dict, spool_mode: str, spans_path: str) -> dict:
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
    with open(job["spool_path"], spool_mode) as spool:
        result = run_requests(requests, spool, tracer, job["per_graph"],
                              Calibrator(job["calibrate"]) if job["calibrate"] else None)
    if tracer is not None:
        spans.dump(tracer.spans, spans_path)
        result["span_files"] = [[spans_path, 0]]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def _ender(pid: int):
    """A SIGTERM handler that kills and reaps the child ``pid``, then exits."""
    def handler(signum, frame):
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os._exit(1)
    return handler


def serve_forked(job: dict) -> dict:
    """Serve each request in its own forked child, one child at a time."""
    merged: dict = {"records": [], "wall_s": 0.0, "peak_rss_mb": 0.0, "span_files": []}
    open(job["spool_path"], "wb").close()
    for i, req in enumerate(job["requests"]):
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: serve one request, send its result, exit at once
            status = 1
            try:
                os.close(rfd)
                res = _serve([req], job, "ab", f"{job['spans_path']}.{i}")
                with os.fdopen(wfd, "w") as pipe:
                    pipe.write(json.dumps(res))
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(wfd)
        signal.signal(signal.SIGTERM, _ender(pid))
        with os.fdopen(rfd) as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if status != 0 or not payload:
            raise RuntimeError(f"the child serving request {i} ended with wait status {status}")
        res = json.loads(payload)
        merged["records"] += res["records"]
        merged["wall_s"] += res["wall_s"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], res["peak_rss_mb"])
        merged["span_files"] += [[path, i] for path, _ in res.get("span_files", [])]
    return merged


def main() -> None:
    job = json.load(sys.stdin)
    with Calibrator() as cal:
        t = time.perf_counter()
        import gfminrank  # noqa: F401
        import gfminrank.cli  # noqa: F401
        end = time.perf_counter()
    result: dict = {"setup_s": cal.scaled(t, end),
                    "raw_setup_s": end - t - cal.spent(t, end),
                    "optimize": sys.flags.optimize}
    if job["mode"] == "run":
        if job["fork_each"]:
            result.update(serve_forked(job))
        else:
            result.update(_serve(job["requests"], job, "wb", job["spans_path"]))
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
