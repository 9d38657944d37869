"""Smoke runs of the entry points that no other test starts.

Each runs in a fresh interpreter, as a user would start it, with small
arguments, and must exit 0 with the output that says it finished: what it
prints, or the names of the files it writes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lightsectors.scenarios import BUILTIN_NAMES

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
CLI = ["-m", "lightsectors.cli"]
# Every built-in written as a file into the working directory.
EMIT_BUILTINS = [[*CLI, "scenario", name, "--emit", f"{name}.scenario"] for name in BUILTIN_NAMES]


def _run(args, cwd):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "runs,expected",
    [
        ([[*CLI, "selftest"]], "selftest determinism: ok"),
        ([*EMIT_BUILTINS, [*CLI, "analyze", ".", "--batch"]],
         "== light-sector package: quintic_orbits =="),
        ([*EMIT_BUILTINS, [*CLI, "analyze", ".", "--batch", "--format", "machine"]],
         '"scenario": "a1xa1"'),
        ([[SCRIPTS / "block_collapse_experiment.py", "--cases", "5"]],
         "block-structure checks: all pass"),
        (EMIT_BUILTINS, "quintic_orbits.scenario"),
    ],
    ids=["selftest", "analyze-builtins-text", "analyze-builtins-machine",
         "block-collapse", "emit-builtins"],
)
def test_entry_point_runs(runs, expected, tmp_path):
    output = []
    for args in runs:
        done = _run(args, tmp_path)
        assert done.returncode == 0, done.stderr
        output.append(done.stdout)
    output.extend(sorted(p.name for p in tmp_path.iterdir()))
    assert expected in "\n".join(output)


# Selftest with TransportOperator.inverse broken to Id + N, in the interpreter
# the test runs under.
BROKEN_INVERSE_SELFTEST = """
import sys
from lightsectors import cli, transport
from lightsectors.linalg import Matrix
transport.TransportOperator.inverse = lambda op: Matrix.identity(op.dim) + op.n_matrix
sys.exit(cli.main(["selftest"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_selftest_fails_on_a_planted_fault(flags, tmp_path):
    """``python -O`` strips assert statements, so every selftest check must
    raise on its own: a broken inverse fails the transport group either way."""
    done = _run([*flags, "-c", BROKEN_INVERSE_SELFTEST], tmp_path)
    assert done.returncode == 1, done.stderr
    assert "selftest transport invariants: FAILED" in done.stdout
    assert "selftest determinism: ok" in done.stdout
