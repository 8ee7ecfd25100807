from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gfminrank import MatrixFq, SimpleGraph, emit_graph6, field_new
from gfminrank import cli
from gfminrank.cli import main, parse_order
from gfminrank.oracle import plan_scan
from gfminrank.refdata import F2R3_GRAM, FULLHOUSE_EDGES


def run_cli(capsys, argv, stdin: str = "") -> tuple[int, str, str]:
    import sys
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdin = old
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fullhouse_g6() -> str:
    return emit_graph6(SimpleGraph.from_edges(5, FULLHOUSE_EDGES))


def test_parse_order_forms():
    assert parse_order("4") == 4
    assert parse_order("2^2") == 4
    assert parse_order("3^2") == 9
    from gfminrank.cli import DomainError
    with pytest.raises(DomainError):
        parse_order("6")
    with pytest.raises(DomainError):
        parse_order("x")


def test_patterns_matrix_output(capsys):
    code, out, _ = run_cli(capsys, ["patterns", "--q", "2", "--k", "3", "--format", "matrix"])
    assert code == 0
    rows = [[int(x) for x in line.split()] for line in out.strip().splitlines()]
    assert rows == F2R3_GRAM


def test_patterns_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, ["patterns", "--q", "2", "--k", "2", "--format", "json"])
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(objs) == 2 and all(o["n"] == 3 for o in objs)
    code, out, _ = run_cli(capsys, ["patterns", "--q", "2^2", "--k", "1", "--format", "dot"])
    assert code == 0 and "fillcolor=black" in out


def test_patterns_rejects_graph6_format(capsys):
    # looped graphs do not fit graph6, so g6 is not a --format choice
    with pytest.raises(SystemExit) as exc:
        main(["patterns", "--q", "2", "--k", "2", "--format", "g6"])
    assert exc.value.code == 2
    assert "invalid choice: 'g6'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["patterns", "--q", "2", "--k", "2"],
    ["minrank", "--q", "2"],
    ["member", "--q", "2", "--k", "2"],
    ["classify"],
    ["selftest"],
])
def test_jobs_only_on_commands_that_use_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_minrank_stream(capsys):
    code, out, _ = run_cli(capsys, ["minrank", "--q", "3"], stdin=fullhouse_g6() + "\n")
    assert code == 0
    assert json.loads(out) == {"graph6": fullhouse_g6(), "minrank": 2}
    code, out, _ = run_cli(capsys, ["minrank", "--q", "2"], stdin=fullhouse_g6() + "\n")
    assert json.loads(out)["minrank"] == 3


def test_minrank_max_k_reports_bound(capsys):
    code, out, _ = run_cli(capsys, ["minrank", "--q", "2", "--max-k", "2"],
                           stdin=fullhouse_g6() + "\n")
    assert code == 0
    assert json.loads(out) == {"graph6": fullhouse_g6(), "minrank_gt": 2}


def test_cached_parser_parses_each_call_afresh(capsys):
    # main reuses one parser; an option given in one call must not leak into
    # the next
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, ["minrank", "--q", "2", "--max-k", "2"],
                           stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out)["minrank_gt"] == 2
    code, out, _ = run_cli(capsys, ["minrank", "--q", "2"], stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out)["minrank"] == 3


def test_member_with_witness(capsys):
    code, out, _ = run_cli(capsys, ["member", "--q", "2", "--k", "3"],
                           stdin=fullhouse_g6() + "\n")
    obj = json.loads(out)
    assert code == 0 and obj["member"] is True and len(obj["witness"]) == 5
    code, out, _ = run_cli(capsys, ["member", "--q", "2", "--k", "2"],
                           stdin=fullhouse_g6() + "\n")
    assert json.loads(out) == {"graph6": fullhouse_g6(), "member": False}


def test_oracle_stream_and_budget(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--q", "3"], stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out)["minrank"] == 2
    code, out, _ = run_cli(capsys, ["oracle", "--q", "3", "--budget", "10"],
                           stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out) == {"graph6": fullhouse_g6(), "error": "budget"}


def test_oracle_jobs_partition(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--q", "2", "--jobs", "2"],
                           stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out)["minrank"] == 3


def test_oracle_jobs_slices_tile_the_reduced_scan(capsys, monkeypatch):
    line = fullhouse_g6() + "\n"
    code, one, _ = run_cli(capsys, ["oracle", "--q", "3"], stdin=line)
    assert code == 0
    code, three, _ = run_cli(capsys, ["oracle", "--q", "3", "--jobs", "3"], stdin=line)
    assert code == 0 and three == one

    slices = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            payloads = list(payloads)
            slices.extend(p[3:] for p in payloads)
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    code, inline, _ = run_cli(capsys, ["oracle", "--q", "3", "--jobs", "3"], stdin=line)
    assert code == 0 and inline == one
    total = plan_scan(SimpleGraph.from_edges(5, FULLHOUSE_EDGES), 3)[2]
    assert len(slices) == 3 and all(lo < hi for lo, hi in slices)
    assert [lo for lo, _ in slices] == [0] + [hi for _, hi in slices[:-1]]
    assert slices[-1][1] == total


def test_mine_command(capsys):
    code, out, _ = run_cli(capsys, ["mine", "--q", "2", "--k", "1", "--max-n", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["stats"]["found"] == len(obj["forbidden"]) == 2


def test_classify_command(capsys):
    f3 = field_new(3, 1)
    payload = json.dumps(MatrixFq(f3, [[1, 0], [0, 2]]).to_json())
    code, out, _ = run_cli(capsys, ["classify"], stdin=payload)
    assert code == 0
    assert json.loads(out) == {"order": 2, "tag": "nonsquare_det",
                               "projective_tag": "nonsquare_det"}


def test_classify_rejects_singular(capsys):
    f3 = field_new(3, 1)
    payload = json.dumps(MatrixFq(f3, [[0, 0], [0, 0]]).to_json())
    code, _, err = run_cli(capsys, ["classify"], stdin=payload)
    assert code == 1 and "error" in err


def test_invalid_order_is_domain_error(capsys):
    code, _, err = run_cli(capsys, ["minrank", "--q", "6"], stdin="@\n")
    assert code == 1 and "prime power" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["minrank"])  # missing required --q
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,key", [(["minrank", "--q", "2"], "minrank"),
                                      (["member", "--q", "2", "--k", "2"], "member"),
                                      (["oracle", "--q", "2"], "minrank")],
                         ids=["minrank", "member", "oracle"])
def test_bad_line_gets_an_error_record_and_the_stream_goes_on(capsys, argv, key):
    code, out, _ = run_cli(capsys, argv, stdin="Dhc\nD@@x\n\nCF\n")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 1
    assert [r["graph6"] for r in records] == ["Dhc", "D@@x", "CF"]
    assert key in records[0] and key in records[2]
    assert set(records[1]) == {"graph6", "error"} and "expected 2" in records[1]["error"]


def test_member_over_the_vertex_budget_answers_every_line(capsys):
    code, out, _ = run_cli(capsys, ["member", "--q", "2", "--k", "9",
                                    "--vertex-budget", "10"], stdin="Dhc\nCF\n")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 1
    assert [r["graph6"] for r in records] == ["Dhc", "CF"]
    assert all(set(r) == {"graph6", "error"} and "over budget 10" in r["error"]
               for r in records)


def test_patterns_over_the_vertex_budget_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, ["patterns", "--q", "2", "--k", "9",
                                      "--vertex-budget", "10"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "over budget 10" in err


def test_mine_input_reports_a_bad_line_and_mines_the_rest(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Dhc\nD@@x\nCF\n")
    ck = tmp_path / "mine.json"
    code, out, _ = run_cli(capsys, ["mine", "--q", "2", "--k", "1",
                                    "--input", str(path), "--resume", str(ck)])
    bad, result = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 1
    assert set(bad) == {"graph6", "error"} and bad["graph6"] == "D@@x"
    assert result["stats"]["scanned"] == 2
    # the checkpoint's source hash covers the graphs that parsed, in order
    state = json.loads(ck.read_text())
    assert state["source_sha256"] == hashlib.sha256(b"Dhc\nCF\n").hexdigest()


def test_input_file_option(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text(fullhouse_g6() + "\n")
    code, out, _ = run_cli(capsys, ["minrank", "--q", "3", "--input", str(path)])
    assert code == 0 and json.loads(out)["minrank"] == 2


def test_selftest_command(capsys):
    code, out, err = run_cli(capsys, ["selftest"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(obj["ok"] for obj in lines)
    assert "checks passed" in err


# Run under python -O: the first assert is stripped there, which shows the
# flag took effect; the checks that depend on the stubbed functions must fail.
SELFTEST_UNDER_O = """
import gfminrank.selftest as s
assert False, "asserts are live"
s.min_rank = s.oracle_min_rank = lambda *args, **kwargs: 99
for name, ok, _ in s.run_selftest():
    if not ok:
        print(name)
"""


def test_selftest_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", SELFTEST_UNDER_O], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "fullhouse minimum rank: 3 over GF(2), 2 over GF(3)",
        "complete graphs have minimum rank 1",
        "oracle confirms the fullhouse field dependence",
    ]
