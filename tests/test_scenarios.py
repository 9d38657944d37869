import random
from fractions import Fraction
from pathlib import Path

import pytest

from lightsectors.linalg import Matrix
from lightsectors.scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
    to_package,
)
from lightsectors.modelgen import random_block_scenario

DATA = Path(__file__).parent / "data"


def test_builtin_names():
    assert BUILTIN_NAMES == ("a1xa1", "a2", "three_node", "quintic_orbits")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_round_trip(name):
    scenario = builtin_scenario(name)
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_fixture_file_parses():
    scenario = parse_scenario((DATA / "four_node_blocks.scenario").read_text())
    assert scenario.name == "four_node_blocks"
    assert scenario.r == 4
    assert scenario.partition == ((1, 2), (3, 4))
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_random_scenarios_round_trip():
    rng = random.Random(2024)
    for i in range(25):
        scenario = random_block_scenario(rng, name=f"roundtrip_{i}")
        assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_a2_scenario_contents():
    scenario = builtin_scenario("a2")
    assert scenario.dim == 2
    assert scenario.cycles == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert scenario.incidence == Matrix.from_columns([(1, 1)], rows=2)


def test_a2_coupling_parameter():
    scenario = builtin_scenario("a2", coupling=Fraction(2, 3))
    pkg = to_package(scenario)
    assert pkg.interaction.entry(0, 1) == Fraction(2, 3)
    with pytest.raises(ValueError):
        builtin_scenario("a2", coupling=0)


def test_quintic_orbits_shape():
    scenario = builtin_scenario("quintic_orbits")
    assert scenario.r == 125
    assert len(scenario.partition) == 5
    assert all(len(block) == 25 for block in scenario.partition)
    with pytest.raises(ValueError):
        builtin_scenario("quintic_orbits", orbit_sizes=[25, 25])
    with pytest.raises(ValueError):
        builtin_scenario("quintic_orbits", orbit_sizes=[125, 0])


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_scenario("a3")


def test_unexpected_params_rejected():
    with pytest.raises(ValueError):
        builtin_scenario("a1xa1", coupling=2)
    with pytest.raises(ValueError):
        builtin_scenario("quintic_orbits", coupling=1)


# -- parser diagnostics -------------------------------------------------------


def _minimal_text(**overrides):
    fields = {
        "format_version": "1",
        "name": "t",
        "dim": "2",
        "gram": "0 1\n-1 0",
        "cycles": "1 0\n0 1",
    }
    fields.update(overrides)
    lines = [
        f"format_version: {fields['format_version']}",
        f"name: {fields['name']}",
        f"dim: {fields['dim']}",
        "gram:",
        fields["gram"],
        "cycles:",
        fields["cycles"],
    ]
    return "\n".join(lines) + "\n"


def test_parse_minimal():
    scenario = parse_scenario(_minimal_text())
    assert scenario.r == 2
    assert scenario.incidence is None and scenario.partition is None


def test_parse_rejects_unknown_field_strict():
    text = _minimal_text() + "grm:\n0 1\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.field == "grm"


def test_lax_mode_ignores_unknown_fields():
    text = _minimal_text() + "extra: hello\nmore_grid:\n1 2 3\n"
    scenario = parse_scenario(text, strict=False)
    assert scenario.name == "t"


def test_parse_rejects_non_skew_gram():
    text = _minimal_text(gram="0 1\n1 0")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert "(1,2)" in str(info.value)


def test_parse_rejects_malformed_rational():
    text = _minimal_text(cycles="1 0\n0 1/-2")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.field == "cycles"
    assert info.value.line is not None


def test_parse_canonicalizes_reducible_fraction():
    text = _minimal_text(cycles="2/4 0\n0 1")
    scenario = parse_scenario(text)
    assert scenario.cycles[0][0] == Fraction(1, 2)
    assert "1/2" in serialize_scenario(scenario)


def test_parse_rejects_bad_partition():
    text = _minimal_text() + "partition:\n1\n1 2\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.field == "partition"


def test_parse_rejects_shape_mismatch():
    with pytest.raises(ScenarioError):
        parse_scenario(_minimal_text(gram="0 1"))
    with pytest.raises(ScenarioError):
        parse_scenario(_minimal_text(cycles="1 0 0\n0 1 0"))


def test_parse_rejects_duplicate_field():
    text = _minimal_text() + "name: again\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.field == "name"


def test_parse_rejects_missing_required():
    text = "format_version: 1\nname: x\ndim: 0\ngram:\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.field == "cycles"


@pytest.mark.parametrize("dim", ["\u00b2", "\u0663", "9" * 4301])
def test_parse_rejects_non_ascii_or_oversized_dim(dim):
    # Superscript two and Arabic-Indic three pass str.isdigit(); 4301 digits
    # is one past the interpreter's default limit for int() on a string.
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_minimal_text(dim=dim))
    assert (info.value.line, info.value.field) == (3, "dim")
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("token", ["+3", "1_0", "\u0663", "9" * 4301, "x" * 4301])
def test_parse_rejects_signed_non_ascii_or_oversized_partition_entry(token):
    # int() would read +3 and Arabic-Indic three as 3, and 1_0 as 10.
    text = _minimal_text(cycles="1 0\n0 1\n1 1") + f"partition:\n1 2\n{token}\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.field) == (13, "partition")
    assert len(str(info.value)) < 200


def test_parse_rejects_wrong_version():
    with pytest.raises(ScenarioError):
        parse_scenario(_minimal_text(format_version="2"))


def test_parse_corrected_class_length():
    text = _minimal_text() + "corrected_class: 1\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n" + _minimal_text() + "\n# trailing\n"
    assert parse_scenario(text).name == "t"


def test_serialization_is_canonical():
    scenario = builtin_scenario("three_node")
    once = serialize_scenario(scenario)
    assert serialize_scenario(parse_scenario(once)) == once


def test_empty_scenario_analyzes():
    scenario = parse_scenario("format_version: 1\nname: empty\ndim: 0\ngram:\ncycles:\n")
    assert scenario.r == 0 and scenario.dim == 0
    pkg = to_package(scenario)
    assert pkg.r == 0 and pkg.atom.is_split
    assert parse_scenario(serialize_scenario(scenario)) == scenario
