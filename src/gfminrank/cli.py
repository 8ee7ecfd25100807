"""Command-line interface.

Subcommands: patterns, minrank, member, oracle, mine, classify, selftest.
Graphs stream in as graph6 lines on stdin (or --input), read one at a
time by one reader, which every graph command and mine --input share;
results leave as line-delimited JSON on stdout; diagnostics go to stderr.
A line that does not parse, or whose patterns exceed the vertex budget,
gets an error record and the stream goes on.  Exit codes: 0 success, 1
domain error (including any such line), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import selftest
from .blowup import MinRankBoundError, member, min_rank
from .gf import Q_MAX, factor_prime_power
from .graphs import emit_graph6, looped_to_json, parse_graph6, to_dot
from .matfq import MatrixFq, classify_invertible_symmetric
from .miner import mine
from .oracle import DEFAULT_BUDGET, OracleBudgetError, oracle_min_rank
from .patterns import DEFAULT_VERTEX_BUDGET, VertexBudgetError, generate, gram_matrix


class DomainError(Exception):
    pass


def parse_order(text: str) -> int:
    """Accept a prime power as '9' or in base-exponent form '3^2'."""
    text = text.strip()
    base, caret, exp = text.partition("^")
    try:
        b, e = int(base), int(exp) if caret else 1
    except ValueError as exc:
        raise DomainError(f"cannot parse field order {text!r}") from exc
    # an exponent past Q_MAX.bit_length() leaves 2..Q_MAX for every base,
    # so it is sent to the gate as 0 without computing the power
    q = b ** e if 1 <= e <= Q_MAX.bit_length() else 0
    try:
        factor_prime_power(q)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    return q


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _read_graphs(args, bad: list[str]):
    """The graphs of the non-blank input lines, each parsed as it is asked
    for.  A line that does not parse gets an error record, is appended to
    ``bad`` and is left out."""
    with open(args.input) if args.input else contextlib.nullcontext(sys.stdin) as fh:
        for line in map(str.strip, fh):
            if not line:
                continue
            try:
                yield parse_graph6(line)
            except ValueError as exc:
                _emit({"graph6": line, "error": str(exc)})
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


def cmd_patterns(args) -> int:
    q = parse_order(args.q)
    ps = generate(q, args.k, vertex_budget=args.vertex_budget)
    for idx, pat in enumerate(ps.patterns):
        if args.format == "json":
            sys.stdout.write(looped_to_json(pat.graph, q=q, k=args.k, pattern=idx) + "\n")
        elif args.format == "dot":
            sys.stdout.write(to_dot(pat.graph, name=f"pattern_{idx}") + "\n")
        else:  # matrix
            gm = gram_matrix(ps.points, pat.form)
            for row in gm.to_lists():
                sys.stdout.write(" ".join(str(x) for x in row) + "\n")
            if idx + 1 < len(ps.patterns):
                sys.stdout.write("\n")
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
    if args.input:
        with open(args.input) as fh:
            obj = json.load(fh)
    else:
        obj = json.load(sys.stdin)
    c = classify_invertible_symmetric(MatrixFq.from_json(obj))
    _emit({"order": c.k, "tag": c.tag.value, "projective_tag": c.projective_tag.value})
    return 0


def cmd_selftest(args) -> int:
    failures = 0
    for name, ok, detail in selftest.run_selftest():
        _emit({"check": name, "ok": ok, **({"detail": detail} if detail else {})})
        if not ok:
            failures += 1
    print(f"selftest: {len(selftest.CHECKS) - failures}/{len(selftest.CHECKS)} checks passed",
          file=sys.stderr)
    return 0 if failures == 0 else 1


Q_HELP = "field order, e.g. 4 or 2^2"
INPUT_HELP = "read graphs from a file instead of stdin"


# parsing leaves the parser unchanged, so one instance serves every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gfminrank", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patterns", help="emit the pattern graphs for (q, k)")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot", "matrix"], default="json")
    p.add_argument("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET)
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("minrank", help="minimum rank of each input graph")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--input", help=INPUT_HELP)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET)
    p.set_defaults(func=cmd_minrank)

    p = sub.add_parser("member", help="is minimum rank at most k?")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--input", help=INPUT_HELP)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("oracle", help="brute-force minimum rank of each input graph")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--input", help=INPUT_HELP)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("mine", help="collect minimal forbidden subgraphs")
    p.add_argument("--q", required=True, help=Q_HELP)
    p.add_argument("--k", type=int, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help=INPUT_HELP)
    source.add_argument("--max-n", type=int, default=None,
                        help="mine all graphs on up to this many vertices")
    p.add_argument("--max-graphs", type=int, default=None)
    p.add_argument("--resume", help="checkpoint file to write and resume from")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("classify", help="congruence class of a JSON symmetric matrix")
    p.add_argument("--input", help="read the matrix from a file instead of stdin")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("selftest", help="replay the built-in reference checks")
    p.set_defaults(func=cmd_selftest)

    return top


# built at import, so that the processes forked from one that has imported
# this module do not each build it (argparse's gettext lookups included)
build_parser()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
