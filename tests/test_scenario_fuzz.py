"""Seeded mutation fuzzing of the scenario parser.

Valid scenario texts (the built-ins and the four-node fixture) are mutated:
lines cut off or dropped from grids, tokens replaced by 4301-digit numbers
or ``1/0``, rows made ragged, and ``dim`` set to disagree with the rows.
The parser may accept a mutated text, or reject it with a ``ScenarioError``
that names the line or the field.  Any other exception fails the test.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lightsectors.scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
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


def _ragged(draw, lines):
    rows = [k for k, line in enumerate(lines) if line.split() and ":" not in line]
    if not rows:
        return lines
    k = draw(st.sampled_from(rows))
    tokens = lines[k].split()
    tokens = tokens + ["1"] if draw(st.booleans()) else tokens[:-1]
    return lines[:k] + [" ".join(tokens)] + lines[k + 1:]


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
