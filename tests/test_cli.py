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
from gfminrank.graphs import looped_to_json, to_dot
from gfminrank.patterns import generate, gram_matrix
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
    with pytest.raises(ValueError, match="6 is not a prime power"):
        parse_order("6")
    # int() would take a sign, other scripts' digits and underscores
    for text in ["x", "2^20000", "+4", "\u0664", "4_0", "9" * 5000]:
        with pytest.raises(ValueError, match=r"2\.\.65536") as exc:
            parse_order(text)
        assert len(str(exc.value)) < 100


def test_patterns_matrix_output(capsys):
    code, out, _ = run_cli(capsys, ["patterns", "--q", "2", "--k", "3", "--format", "matrix"])
    assert code == 0
    rows = [[int(x) for x in line.split()] for line in out.strip().splitlines()]
    assert rows == F2R3_GRAM


def test_patterns_matrix_blocks_are_separated_by_one_empty_line(capsys):
    code, out, _ = run_cli(capsys, ["patterns", "--q", "2", "--k", "2", "--format", "matrix"])
    assert code == 0
    assert out == "1 1 0\n1 0 1\n0 1 1\n\n0 1 1\n1 0 1\n1 1 0\n"


def test_patterns_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, ["patterns", "--q", "2", "--k", "2", "--format", "json"])
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(objs) == 2 and all(o["n"] == 3 for o in objs)
    code, out, _ = run_cli(capsys, ["patterns", "--q", "2^2", "--k", "1", "--format", "dot"])
    assert code == 0 and "fillcolor=black" in out


STREAMED_SETS = [(2, 0), (3, 1), (2, 3), (4, 3), (16, 3)]


@pytest.mark.parametrize("q, k", STREAMED_SETS)
def test_patterns_streams_the_text_of_each_pattern(capsys, q, k):
    ps = generate(q, k)
    argv = ["patterns", "--q", str(q), "--k", str(k), "--format"]
    code, out, err = run_cli(capsys, argv + ["json"])
    assert (code, err) == (0, "")
    assert out == "".join(looped_to_json(pat.graph, q=q, k=k, pattern=idx) + "\n"
                          for idx, pat in enumerate(ps.patterns))
    code, out, err = run_cli(capsys, argv + ["dot"])
    assert (code, err) == (0, "")
    assert out == "".join(to_dot(pat.graph, name=f"pattern_{idx}") + "\n"
                          for idx, pat in enumerate(ps.patterns))


@pytest.mark.parametrize("q, k", STREAMED_SETS)
def test_patterns_matrix_rows_come_in_blocks(capsys, q, k):
    # one block of U^t B U rows per pattern, the blocks one empty line apart
    ps = generate(q, k)
    whole = "\n".join("".join(" ".join(map(str, row)) + "\n"
                              for row in gram_matrix(ps.points, pat.form).to_lists())
                      for pat in ps.patterns)
    code, out, err = run_cli(capsys, ["patterns", "--q", str(q), "--k", str(k),
                                      "--format", "matrix"])
    assert (code, out, err) == (0, whole, "")


class ClosingReader(io.StringIO):
    """A stdout whose reader goes away after a few writes."""

    def __init__(self, writes: int):
        super().__init__()
        self.left = writes

    def write(self, text: str) -> int:
        if self.left == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.left -= 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "dot", "matrix"])
def test_patterns_to_a_closed_reader_exits_1_quietly(capsys, monkeypatch, fmt):
    stdout = ClosingReader(3)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["patterns", "--q", "4", "--k", "3", "--format", fmt]) == 1
    assert stdout.left == 0 and len(stdout.getvalue()) > 0
    assert capsys.readouterr().err == ""


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
    ["mine", "--q", "2", "--k", "1", "--max-n", "3"],
    ["oracle", "--q", "2"],
])
def test_jobs_only_on_commands_that_use_it(capsys, argv):
    """No command takes --jobs any more, so every command refuses it."""
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


def test_minrank_max_k_below_the_sweep_start_reports_the_bound(capsys):
    # EhCG is P6: its zero forcing bound already proves mr >= 5, so a cap
    # of 2 still reports mr > 4
    code, out, _ = run_cli(capsys, ["minrank", "--q", "3", "--max-k", "2"], stdin="EhCG\n")
    assert code == 0
    assert json.loads(out) == {"graph6": "EhCG", "minrank_gt": 4}


def test_cached_parser_parses_each_call_afresh(capsys, monkeypatch):
    # main reuses one module-level parser and keeps its parses; an option
    # given in one call must not leak into the next
    cli._parse.cache_clear()
    calls = []
    parse_args = cli.PARSER.parse_args
    monkeypatch.setattr(cli.PARSER, "parse_args",
                        lambda argv: calls.append(argv) or parse_args(argv))
    code, out, _ = run_cli(capsys, ["minrank", "--q", "2", "--max-k", "2"],
                           stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out)["minrank_gt"] == 2
    code, out, _ = run_cli(capsys, ["minrank", "--q", "2"], stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out)["minrank"] == 3
    # the first command line again: served from the kept parse
    code, out, _ = run_cli(capsys, ["minrank", "--q", "2", "--max-k", "2"],
                           stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out)["minrank_gt"] == 2
    assert len(calls) == 2


def test_a_usage_error_exits_2_on_every_call(capsys):
    # a usage error raises, and raising keeps no parse to serve later calls
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["member", "--q", "2", "--k", "-1"])
        assert exc.value.code == 2
        assert "invalid nonnegative integer" in capsys.readouterr().err


def test_one_call_cannot_change_the_args_of_the_next(capsys, monkeypatch):
    seen = []

    def record(args):
        seen.append(vars(args).copy())
        args.max_k = 0
        args.stale = True
        return 0

    argv = ["minrank", "--q", "2"]
    # the kept parse serves both calls; teardown restores its command
    monkeypatch.setattr(cli._parse(tuple(argv)), "func", record)
    assert main(argv) == 0 and main(argv) == 0
    assert seen[0] == seen[1] and seen[1]["max_k"] is None and "stale" not in seen[1]


def test_minrank_vertex_budget_reports_bound(capsys):
    # K_{2,2,2,2}: the k = 3 patterns over GF(3) have 13 > 12 vertices
    code, out, _ = run_cli(capsys, ["minrank", "--q", "3", "--vertex-budget", "12"],
                           stdin="G]~v~w\n")
    assert code == 0
    assert json.loads(out) == {"graph6": "G]~v~w", "minrank_gt": 2}
    # over GF(2) minrank searches the diagonal, which no vertex budget limits
    code, out, _ = run_cli(capsys, ["minrank", "--q", "2", "--vertex-budget", "7"],
                           stdin="G]~v~w\n")
    assert code == 0
    assert json.loads(out) == {"graph6": "G]~v~w", "minrank": 4}


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
    # the kernel tables stop at q = 1024: a larger order is refused before
    # any line is read, edgeless and single-edge graphs included
    for q in ("1031", "2048", "2^16"):
        code, out, err = run_cli(capsys, ["oracle", "--q", q], stdin="Dz[\nA_\n@\n")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "1024" in err and len(err.splitlines()) == 1
    code, out, _ = run_cli(capsys, ["oracle", "--q", "3", "--budget", "10"],
                           stdin=fullhouse_g6() + "\n")
    assert code == 0 and json.loads(out) == {"graph6": fullhouse_g6(), "error": "budget"}


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


def test_classify_reads_input_file(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text('{"field":{"p":3,"e":1},"rows":2,"cols":2,"entries":[1,0,0,2]}')
    code, out, _ = run_cli(capsys, ["classify", "--input", str(path)])
    assert code == 0
    assert json.loads(out) == {"order": 2, "tag": "nonsquare_det",
                               "projective_tag": "nonsquare_det"}


def test_classify_rejects_singular(capsys):
    f3 = field_new(3, 1)
    payload = json.dumps(MatrixFq(f3, [[0, 0], [0, 0]]).to_json())
    code, _, err = run_cli(capsys, ["classify"], stdin=payload)
    assert code == 1 and "error" in err


@pytest.mark.parametrize("payload", [
    "{}",
    "[1, 2]",
    '{"field": {"p": 2, "e": 1}, "rows": 2, "cols": 2, "entries": [0, 1, 1, 0.5]}',
    '{"field": {"p": 2, "e": 1}, "rows": 2.5, "cols": 2, "entries": [0, 1, 1, 0]}',
    '{"field": {"p": 2, "e": 1}, "rows": -1, "cols": 2, "entries": [0, 1, 1, 0]}',
    '{"field": {"p": 2.9, "e": 1}, "rows": 2, "cols": 2, "entries": [0, 1, 1, 0]}',
    '{"field": {"p": 2, "e": 1.5}, "rows": 2, "cols": 2, "entries": [0, 1, 1, 0]}',
    '{"field": {"p": "3", "e": 1}, "rows": 2, "cols": 2, "entries": [0, 1, 1, 0]}',
], ids=["empty-object", "not-an-object", "fractional-entry", "fractional-rows",
        "negative-rows", "fractional-p", "fractional-e", "string-p"])
def test_classify_rejects_malformed_json(capsys, payload):
    code, out, err = run_cli(capsys, ["classify"], stdin=payload)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_invalid_order_is_domain_error(capsys):
    code, _, err = run_cli(capsys, ["minrank", "--q", "6"], stdin="@\n")
    assert code == 1 and "prime power" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["minrank"])  # missing required --q
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["patterns", "--q", "2", "--k", "-1"],
    ["patterns", "--q", "2", "--k", "1", "--vertex-budget", "-1"],
    ["minrank", "--q", "2", "--max-k", "-1"],
    ["minrank", "--q", "2", "--vertex-budget", "-5"],
    ["member", "--q", "2", "--k", "-1"],
    ["member", "--q", "2", "--k", "1", "--vertex-budget", "-1"],
    ["oracle", "--q", "2", "--budget", "-1"],
    ["mine", "--q", "2", "--k", "-1", "--max-n", "3"],
    ["mine", "--q", "2", "--k", "1", "--max-n", "-1"],
])
def test_negative_counts_are_usage_errors_before_input_is_read(capsys, monkeypatch, argv):
    stdin = io.StringIO("@\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid nonnegative integer: '-" in err
    assert stdin.tell() == 0


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


UNDECODABLE = b"Dz[\n\xff\xfe\nDz[\n"


def check_undecodable_records(code, out):
    assert code == 1 and out.isascii()
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["graph6"] for r in records] == ["Dz[", "\\xff\\xfe", "Dz["]
    assert records[0] == records[2] == {"graph6": "Dz[", "member": False}
    assert set(records[1]) == {"graph6", "error"}


def test_non_ascii_line_names_the_graph6_range_not_the_codec(capsys):
    old = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(b"\xff\nDz[\n"), encoding="utf-8")
    try:
        code = main(["member", "--q", "2", "--k", "2"])
    finally:
        sys.stdin = old
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert records == [{"graph6": "\\xff", "error": "graph6 byte 255 out of range"},
                       {"graph6": "Dz[", "member": False}]


def test_undecodable_byte_in_input_file_spoils_only_its_line(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_bytes(UNDECODABLE)
    check_undecodable_records(*run_cli(capsys, ["member", "--q", "2", "--k", "2",
                                                "--input", str(path)])[:2])


def test_undecodable_byte_on_strictly_decoded_stdin_spoils_only_its_line(capsys):
    old = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(UNDECODABLE), encoding="utf-8", errors="strict")
    try:
        code = main(["member", "--q", "2", "--k", "2"])
    finally:
        sys.stdin = old
    check_undecodable_records(code, capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["minrank", "--q", "2", "--input", "{missing}"],
    ["classify", "--input", "{missing}"],
    ["minrank", "--q", "2", "--input", "{dir}"],
    ["mine", "--q", "2", "--k", "1", "--input", "{missing}"],
], ids=["minrank-missing", "classify-missing", "minrank-directory", "mine-missing"])
def test_unreadable_input_is_one_error_line(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_mine_unwritable_checkpoint_fails_before_scanning(capsys, tmp_path, monkeypatch):
    from gfminrank import miner
    classified = []
    monkeypatch.setattr(miner, "_is_minimal_forbidden", lambda *args: classified.append(args))
    code, out, err = run_cli(capsys, ["mine", "--q", "2", "--k", "1", "--max-n", "3", "--resume",
                                      str(tmp_path / "missing" / "mine.json")])
    assert code == 1 and out == "" and classified == []
    assert err.startswith("error: ") and err.count("\n") == 1


def test_member_over_the_vertex_budget_answers_every_line(capsys):
    # a 10-vertex path needs the k = 9 patterns (1023 vertices); the
    # 4-vertex CF does not, since mr <= n <= k
    p10 = emit_graph6(SimpleGraph.path(10))
    code, out, _ = run_cli(capsys, ["member", "--q", "2", "--k", "9",
                                    "--vertex-budget", "10"], stdin=f"{p10}\nCF\n{p10}\n")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 1
    assert [r["graph6"] for r in records] == [p10, "CF", p10]
    assert all(set(r) == {"graph6", "error"} and "over budget 10" in r["error"]
               for r in (records[0], records[2]))
    assert records[1] == {"graph6": "CF", "member": True}


def test_member_answers_a_graph_on_at_most_k_vertices_without_patterns(capsys):
    p9 = emit_graph6(SimpleGraph.path(9))
    code, out, _ = run_cli(capsys, ["member", "--q", "2", "--k", "9",
                                    "--vertex-budget", "10"], stdin=f"CF\n{p9}\n")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"graph6": "CF", "member": True}, {"graph6": p9, "member": True}]


def test_patterns_over_the_vertex_budget_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, ["patterns", "--q", "2", "--k", "9",
                                      "--vertex-budget", "10"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "over budget 10" in err


def test_member_answers_small_graphs_when_q_to_the_k_is_too_long_to_print(capsys):
    # 2^20000 has 6021 decimal digits, past Python's default limit for
    # int-to-str conversion; the budget check must neither build nor print it
    code, out, _ = run_cli(capsys, ["member", "--q", "2", "--k", "20000"], stdin="Dhc\nCF\n")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"graph6": "Dhc", "member": True}, {"graph6": "CF", "member": True}]


def test_patterns_refuses_a_k_past_the_budget_without_printing_q_to_the_k(capsys):
    code, out, err = run_cli(capsys, ["patterns", "--q", "2", "--k", "20000"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "over budget 10000" in err
    assert "digits" not in err


@pytest.mark.parametrize("max_graphs", ["0", "-3"])
def test_mine_max_graphs_below_one_is_a_domain_error(capsys, max_graphs):
    code, out, err = run_cli(capsys, ["mine", "--q", "2", "--k", "1", "--max-n", "3",
                                      "--max-graphs", max_graphs])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "max_graphs must be at least 1" in err


def test_mine_input_and_max_n_exclude_each_other(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Dhc\n")
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--q", "2", "--k", "1", "--max-n", "3", "--input", str(path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_mine_needs_input_or_max_n(capsys, monkeypatch):
    stdin = io.StringIO("@\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--q", "2", "--k", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "one of the arguments --input --max-n is required" in err
    assert stdin.tell() == 0


@pytest.mark.parametrize("state,field", [
    ([], "object"),
    ({"q": 2, "k": 1, "found": 3, "counter": 1}, "found"),
    ({"q": 2, "k": 1}, "counter"),
    ({"q": 2, "k": 1, "found": [], "counter": True}, "counter"),
    ({"q": 2, "k": 1, "found": [], "counter": -1}, "counter"),
    ({"q": 2, "k": 1, "found": [1], "counter": 1}, "found"),
    ({"q": 2, "k": 1, "found": [], "counter": 1, "source_sha256": 5}, "source_sha256"),
    ({"q": 2, "k": 1, "found": [], "counter": 3}, "source_sha256"),
], ids=["not-an-object", "found-not-a-list", "no-counter", "bool-counter",
        "negative-counter", "found-not-strings", "sha256-not-a-string",
        "no-sha256-past-zero"])
def test_mine_malformed_checkpoint_is_a_domain_error(capsys, tmp_path, state, field):
    ck = tmp_path / "mine.json"
    ck.write_text(json.dumps(state))
    code, out, err = run_cli(capsys, ["mine", "--q", "2", "--k", "1", "--max-n", "3",
                                      "--resume", str(ck)])
    assert code == 1 and out == ""
    assert err.startswith("error: checkpoint") and field in err


def test_mine_input_reports_a_bad_line_and_mines_the_rest(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"Dhc\nD@@x\n\xff\nCF\n")
    ck = tmp_path / "mine.json"
    code, out, _ = run_cli(capsys, ["mine", "--q", "2", "--k", "1",
                                    "--input", str(path), "--resume", str(ck)])
    *bad, result = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 1
    assert [set(r) for r in bad] == [{"graph6", "error"}] * 2
    assert [r["graph6"] for r in bad] == ["D@@x", "\\xff"]
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
