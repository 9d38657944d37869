"""Smoke runs of the entry points that no other test starts.

Each runs in a fresh interpreter, as a user would start it, with small
arguments, and must exit 0 with the output that says it finished.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(args, cwd):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "args,expected",
    [
        (["-m", "lightsectors.cli", "selftest"], "selftest determinism: ok"),
        ([SCRIPTS / "analyze_builtin_models.py"], "== light-sector package: quintic_orbits =="),
        ([SCRIPTS / "analyze_builtin_models.py", "--format", "machine"], '"scenario": "a1xa1"'),
        ([SCRIPTS / "block_collapse_experiment.py", "--cases", "5"],
         "block-structure checks: all pass"),
        ([SCRIPTS / "emit_builtin_scenarios.py", "out"], "quintic_orbits.scenario"),
    ],
    ids=["selftest", "analyze-builtins-text", "analyze-builtins-machine",
         "block-collapse", "emit-builtins"],
)
def test_entry_point_runs(args, expected, tmp_path):
    done = _run(args, tmp_path)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout

