"""gfminrank imports and serves every subcommand with numpy refused, and
its import path leaves out modules it does not need."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r'''
import contextlib, io, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is refused here")

sys.meta_path.insert(0, RefuseNumpy())
import gfminrank, gfminrank.cli
from gfminrank import cli

hyperbolic = '{"field": {"p": 3, "e": 2, "modulus": [1, 0, 1]}, "rows": 2, "cols": 2, "entries": [0, 1, 1, 0]}'
requests = [
    (["patterns", "--q", "3", "--k", "3", "--format", "json"], ""),
    (["patterns", "--q", "4", "--k", "3", "--format", "dot"], ""),
    (["patterns", "--q", "9", "--k", "2", "--format", "matrix"], ""),
    (["minrank", "--q", "3"], "FwC??\n"),
    (["member", "--q", "4", "--k", "3"], "FwC??\n"),
    (["oracle", "--q", "5"], "FwC??\n"),
    (["mine", "--q", "2", "--k", "2", "--max-n", "5"], ""),
    (["classify"], hyperbolic + "\n"),
    (["selftest"], ""),
]
for argv, stdin in requests:
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0 or not out.getvalue():
        raise SystemExit(f"{argv[0]} exited {code} with output {out.getvalue()!r}")
if "numpy" in sys.modules:
    raise SystemExit("numpy was imported")
print("ok")
'''


def test_every_subcommand_runs_with_numpy_refused():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:] + done.stdout[-2000:]
    assert done.stdout.endswith("ok\n")


def test_the_import_path_leaves_dataclasses_out():
    # dataclasses pulls in inspect, ast, dis and tokenize, a few ms of start-up
    script = ("import sys, gfminrank.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "[]\n"
