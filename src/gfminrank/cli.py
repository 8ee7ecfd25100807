"""Command-line interface.

Subcommands: patterns, minrank, member, oracle, mine, classify, selftest.
Graphs stream in as graph6 lines on stdin (or --input), read one at a
time by one reader, which every graph command and mine --input share;
results leave as line-delimited JSON on stdout; diagnostics go to stderr.
A line that does not parse (an undecodable byte spoils only its own line),
or whose member patterns exceed the vertex budget, gets an error record and
the stream goes on; minrank reports a budget it runs out of as minrank_gt.
A field order is written q or p^e in ASCII digits; oracle takes orders up
to 1024 only.  A refused order, matrix or checkpoint and a file that
cannot be read or written end the run with one "error:" line on stderr.
Exit codes: 0 success, 1 domain error (including any bad line), 2 usage
error.  A process that calls main many times parses each distinct command
line once, and every call gets its own copy of the parsed options.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from itertools import chain

from .blowup import MinRankBoundError, member, min_rank
from .gf import Q_MAX, factor_prime_power
from .graphs import dot_chunks, emit_graph6, looped_json_chunks, parse_graph6
# not called here, but perfbench/spans.py wraps gfminrank.cli.looped_to_json
from .graphs import looped_to_json  # noqa: F401
from .matfq import MatrixFq, classify_invertible_symmetric
from .miner import GRAPH_COUNTS, mine
from .oracle import DEFAULT_BUDGET, OracleBudgetError, check_order, oracle_min_rank
from .patterns import DEFAULT_VERTEX_BUDGET, VertexBudgetError, generate
from .projgeo import pairing_rows

# Q_MAX = 65536 has five digits and its largest exponent, 16, has two, so a
# longer number is refused before int() sees it
_ORDER = re.compile(r"([0-9]{1,5})(?:\^([0-9]{1,2}))?")


def parse_order(text: str) -> int:
    """Accept a prime power as '9' or in base-exponent form '3^2'."""
    m = _ORDER.fullmatch(text)
    if m is None:
        raise ValueError(f"field order must be a prime power in 2..{Q_MAX}, written q or p^e")
    q = int(m[1]) ** int(m[2] or 1)
    factor_prime_power(q)
    return q


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _open_input(args):
    """--input, or stdin (which is left open), as text in which an
    undecodable byte becomes a lone surrogate of its own line."""
    if args.input:
        return open(args.input, errors="surrogateescape")
    # a stream that has been read refuses reconfigure, so a second call in
    # one process leaves stdin as the first call set it
    if hasattr(sys.stdin, "reconfigure") and sys.stdin.errors != "surrogateescape":
        sys.stdin.reconfigure(errors="surrogateescape")
    return contextlib.nullcontext(sys.stdin)


def _read_graphs(args, bad: list[str]):
    """The graphs of the non-blank input lines, each parsed as it is asked
    for.  A line that does not parse gets an error record, with any
    undecodable byte shown as \\xNN, is appended to ``bad`` and is left out."""
    with _open_input(args) as fh:
        for line in map(str.strip, fh):
            if not line:
                continue
            try:
                yield parse_graph6(line)
            except ValueError as exc:
                shown = line.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
                _emit({"graph6": shown, "error": str(exc)})
                bad.append(line)


def _serve(args, answer) -> int:
    """Emit one record per input graph: its graph6 and the fields of
    answer(g), or the pattern-budget error.  A bad line does not stop the
    stream; it makes the exit code 1."""
    bad: list[str] = []
    status = 0
    for g in _read_graphs(args, bad):
        try:
            fields = answer(g)
        except VertexBudgetError as exc:
            fields = {"error": str(exc)}
            status = 1
        _emit({"graph6": emit_graph6(g), **fields})
    return 1 if status or bad else 0


def _matrix_lines(b):
    """The lines of --format matrix for the form b: the rows of U^t B U,
    made one row at a time, so no n x n matrix is held."""
    names = list(map(str, range(b.field.q)))
    for row in pairing_rows(b):
        yield " ".join(map(names.__getitem__, row)) + "\n"


def cmd_patterns(args) -> int:
    """Each pattern's text is written piece by piece as it is made, so no
    whole pattern's text is held."""
    q = parse_order(args.q)
    ps = generate(q, args.k, vertex_budget=args.vertex_budget)
    for idx, pat in enumerate(ps.patterns):
        if args.format == "json":
            pieces = chain(looped_json_chunks(pat.graph, q=q, k=args.k, pattern=idx), ["\n"])
        elif args.format == "dot":
            pieces = chain(dot_chunks(pat.graph, name=f"pattern_{idx}"), ["\n"])
        else:  # one empty line between two patterns' matrices
            pieces = chain(["\n"] if idx else [], _matrix_lines(pat.form))
        sys.stdout.writelines(pieces)
    return 0


def cmd_minrank(args) -> int:
    q = parse_order(args.q)

    def answer(g):
        try:
            return {"minrank": min_rank(g, q, max_k=args.max_k,
                                        vertex_budget=args.vertex_budget)}
        except MinRankBoundError as exc:
            return {"minrank_gt": exc.lower_bound}
    return _serve(args, answer)


def cmd_member(args) -> int:
    q = parse_order(args.q)

    def answer(g):
        ok, witness, idx = member(g, q, args.k, vertex_budget=args.vertex_budget)
        obj = {"member": ok}
        if witness is not None:
            obj["pattern"] = idx
            obj["witness"] = {str(v): p for v, p in sorted(witness.assignment.items())}
        return obj
    return _serve(args, answer)


def cmd_oracle(args) -> int:
    q = parse_order(args.q)
    check_order(q)

    def answer(g):
        try:
            return {"minrank": oracle_min_rank(g, q, budget=args.budget)}
        except OracleBudgetError:
            return {"error": "budget"}
    return _serve(args, answer)


def cmd_mine(args) -> int:
    q = parse_order(args.q)
    bad: list[str] = []
    run = mine(q, args.k, n_max=args.max_n,
               source=_read_graphs(args, bad) if args.input else None,
               checkpoint=args.resume, max_graphs=args.max_graphs)
    _emit({"forbidden": run.found_graph6(), "stats": run.stats})
    return 1 if bad else 0


def cmd_classify(args) -> int:
    with _open_input(args) as fh:
        obj = json.load(fh)
    c = classify_invertible_symmetric(MatrixFq.from_json(obj))
    _emit({"order": c.k, "tag": c.tag.value, "projective_tag": c.projective_tag.value})
    return 0


def cmd_selftest(args) -> int:
    # imported here, not at the top: only this command uses selftest and
    # its refdata, and every other command would pay for compiling them
    # when bytecode is not cached
    from . import selftest
    failures = 0
    for name, ok, detail in selftest.run_selftest():
        _emit({"check": name, "ok": ok, **({"detail": detail} if detail else {})})
        if not ok:
            failures += 1
    print(f"selftest: {len(selftest.CHECKS) - failures}/{len(selftest.CHECKS)} checks passed",
          file=sys.stderr)
    return 0 if failures == 0 else 1


def _nonnegative(text: str) -> int:
    """The argparse type of --k, --max-k, --budget, --vertex-budget and
    --max-n, so a negative count is a usage error before any input is read."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid nonnegative integer: {text!r}")
    return value


Q_HELP = "field order, e.g. 4 or 2^2"
INPUT_HELP = "read graphs from a file instead of stdin"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gfminrank", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patterns", help="emit the pattern graphs for (q, k)")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--k", type=_nonnegative, required=True)
    p.add_argument("--format", choices=["json", "dot", "matrix"], default="json")
    p.add_argument("--vertex-budget", type=_nonnegative, default=DEFAULT_VERTEX_BUDGET)
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("minrank", help="minimum rank of each input graph")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--input", help=INPUT_HELP)
    p.add_argument("--max-k", type=_nonnegative, default=None)
    p.add_argument("--vertex-budget", type=_nonnegative, default=DEFAULT_VERTEX_BUDGET,
                   help="pattern vertex limit for q > 2 (GF(2) searches no patterns)")
    p.set_defaults(func=cmd_minrank)

    p = sub.add_parser("member", help="is minimum rank at most k?")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--input", help=INPUT_HELP)
    p.add_argument("--k", type=_nonnegative, required=True)
    p.add_argument("--vertex-budget", type=_nonnegative, default=DEFAULT_VERTEX_BUDGET)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("oracle", help="brute-force minimum rank of each input graph")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--input", help=INPUT_HELP)
    p.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("mine", help="collect minimal forbidden subgraphs")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--k", type=_nonnegative, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help=INPUT_HELP)
    source.add_argument("--max-n", type=_nonnegative, default=None,
                        help="mine all graphs on up to this many vertices, "
                        f"at most {len(GRAPH_COUNTS) - 1}")
    p.add_argument("--max-graphs", type=int, default=None)
    p.add_argument("--resume", help="checkpoint file to write and resume from")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("classify", help="congruence class of a JSON symmetric matrix")
    p.add_argument("--input", help="read the matrix from a file instead of stdin")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("selftest", help="replay the built-in reference checks")
    p.set_defaults(func=cmd_selftest)

    return top


# parsing leaves the parser unchanged, so this one serves every call; built
# at import, the processes forked from one that has imported this module do
# not each build it (argparse's gettext lookups included)
PARSER = _build_parser()

# distinct command lines whose parses one process keeps
PARSE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse(argv: tuple[str, ...]) -> argparse.Namespace:
    """PARSER's parse of argv, once per distinct argv; a usage error raises
    SystemExit, which is not cached, so it exits 2 on every call."""
    return PARSER.parse_args(list(argv))


def main(argv=None) -> int:
    # a copy of the kept parse, so a command cannot change the next call's args
    args = argparse.Namespace(**vars(_parse(tuple(sys.argv[1:] if argv is None else argv))))
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError: a closed reader ends the run quietly
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
