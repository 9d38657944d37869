"""Seeded mutation fuzzing of the scenario parser and the pipeline past it.

Valid scenario texts (the built-ins and the four-node fixture) are mutated:
lines cut off or dropped from grids, tokens replaced by 4301-digit numbers
or ``1/0``, rows made ragged, and ``dim`` set to disagree with the rows.
Semantic mutations keep the text well formed but change its meaning: grid
tokens replaced by ``0``, ``1``, ``-1`` or ``1/2`` (non-skew grams, bad
partition entries), a duplicated grid row, a ``corrected_class`` of the
wrong length, and no cycles at all.

The parser may accept a mutated text, or reject it with a ``ScenarioError``
that names the line or the field.  An accepted text must assemble, and the
CLI's ``analyze`` and ``verify`` must end with exit 0, exit 1 (verification
fails), or exit 2 with a message that names a line or field.  Exit 3 or any
other exception fails the test.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lightsectors.cli import main
from lightsectors.scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
    to_package,
)

DATA = Path(__file__).parent / "data"
BASES = tuple(serialize_scenario(builtin_scenario(name)) for name in BUILTIN_NAMES) + (
    (DATA / "four_node_blocks.scenario").read_text(),
)
OVERSIZED = "9" * 4301  # one past the interpreter's default int-from-text limit


def _truncate(draw, lines):
    return lines[: draw(st.integers(0, len(lines)))]


def _drop_line(draw, lines):
    if not lines:
        return lines
    k = draw(st.integers(0, len(lines) - 1))
    return lines[:k] + lines[k + 1:]


def _replace_token(token):
    def mutate(draw, lines):
        rows = [k for k, line in enumerate(lines) if line.split()]
        if not rows:
            return lines
        k = draw(st.sampled_from(rows))
        tokens = lines[k].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = token
        return lines[:k] + [" ".join(tokens)] + lines[k + 1:]

    return mutate


def _grid_rows(lines):
    return [k for k, line in enumerate(lines) if line.split() and ":" not in line]


def _replace_grid_token(token):
    def mutate(draw, lines):
        rows = _grid_rows(lines)
        if not rows:
            return lines
        k = draw(st.sampled_from(rows))
        tokens = lines[k].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = token
        return lines[:k] + [" ".join(tokens)] + lines[k + 1:]

    return mutate


def _ragged(draw, lines):
    rows = _grid_rows(lines)
    if not rows:
        return lines
    k = draw(st.sampled_from(rows))
    tokens = lines[k].split()
    tokens = tokens + ["1"] if draw(st.booleans()) else tokens[:-1]
    return lines[:k] + [" ".join(tokens)] + lines[k + 1:]


def _duplicate_row(draw, lines):
    rows = _grid_rows(lines)
    if not rows:
        return lines
    k = draw(st.sampled_from(rows))
    return lines[:k + 1] + [lines[k]] + lines[k + 1:]


def _corrected_class_length(draw, lines):
    kept = [line for line in lines if not line.startswith("corrected_class:")]
    tokens = draw(st.lists(st.sampled_from(["0", "1", "-1", "1/2"]), max_size=6))
    return kept + ["corrected_class: " + " ".join(tokens)]


def _no_cycles(draw, lines):
    if "cycles:" not in lines:
        return lines
    start = lines.index("cycles:") + 1
    end = start
    while end < len(lines) and ":" not in lines[end]:
        end += 1
    return lines[:start] + lines[end:]


def _wrong_dim(draw, lines):
    return [f"dim: {draw(st.integers(0, 12))}" if line.startswith("dim:") else line
            for line in lines]


MUTATIONS = (
    _truncate,
    _drop_line,
    _replace_token(OVERSIZED),
    _replace_token("-" + OVERSIZED),
    _replace_token("1/" + OVERSIZED),
    _replace_token("1/0"),
    _ragged,
    _wrong_dim,
    *(_replace_grid_token(token) for token in ("0", "1", "-1", "1/2")),
    _duplicate_row,
    _corrected_class_length,
    _no_cycles,
)


@st.composite
def mutated_scenarios(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(st.sampled_from(MUTATIONS))(draw, lines)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=600, deadline=None)
@given(text=mutated_scenarios())
def test_mutated_scenarios_parse_or_name_line_or_field(text):
    try:
        parse_scenario(text)
    except ScenarioError as exc:
        assert exc.line is not None or exc.field is not None, str(exc)


def _names_line_or_field(message):
    return "line " in message or "field '" in message


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=mutated_scenarios())
def test_accepted_mutants_run_through_the_cli(text):
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        return
    try:
        to_package(scenario)
    except ScenarioError as exc:
        assert exc.line is not None or exc.field is not None, str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "mutant.scenario", Path(tmp) / "report"
        path.write_text(text, encoding="utf-8")
        for verb in ("analyze", "verify"):
            for fmt in ("text", "machine"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([verb, str(path), "--format", fmt, "--out", str(out)])
                message = err.getvalue()
                assert code in (0, 1, 2), (verb, fmt, code, message)
                assert code != 2 or _names_line_or_field(message), message
