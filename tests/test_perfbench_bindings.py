"""Every name the benchmark tracer wraps must still exist in the package.

perfbench/tracing.py replaces module attributes by name when a run asks for
--trace 1; a name dropped from the package would only surface there.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


@pytest.mark.parametrize(
    "mod, attr", [(mod, attr) for mod, attr, _ in tracing.WRAPPED],
    ids=[f"{mod.__name__}.{attr}" for mod, attr, _ in tracing.WRAPPED],
)
def test_traced_name_resolves(mod, attr):
    assert callable(getattr(mod, attr))

