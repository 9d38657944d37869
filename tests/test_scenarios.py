import hashlib
import random
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightsectors import cli, pairing, scenarios
from lightsectors.linalg import Matrix, format_rational, parse_rational, rational_parts
from lightsectors.scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    ScenarioFile,
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


@pytest.mark.parametrize("fields", [
    {"partition": ((1,), [2])},
    {"partition": [(1,), (2,)]},
    {"corrected_class": [1, 2]},
], ids=["partition-inner-list", "partition-outer-list", "corrected-class-list"])
def test_list_fields_round_trip(fields):
    # A hand-built file may give these fields as lists; reading returns tuples.
    s = _two_node(**fields)
    assert parse_scenario(serialize_scenario(s)) == s


def test_random_scenarios_round_trip():
    rng = random.Random(2024)
    for i in range(25):
        scenario = random_block_scenario(rng, name=f"roundtrip_{i}")
        assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_a2_scenario_contents():
    scenario = builtin_scenario("a2")
    assert scenario.dim == 2
    assert scenario.cycles.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert scenario.incidence == Matrix.from_columns([(1, 1)], rows=2)


def test_a2_coupling_parameter():
    scenario = builtin_scenario("a2", coupling=Fraction(2, 3))
    pkg = to_package(scenario)
    assert pkg.interaction.entries.entries[0][1] == Fraction(2, 3)
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


# One value of each parameter that the models taking it accept.
_PARAM_VALUES = {"coupling": 2, "orbit_sizes": [125], "orbit_classes": [(1, 0)]}


@pytest.mark.parametrize("name, param", [
    ("a1xa1", "coupling"), ("a1xa1", "orbit_sizes"), ("a1xa1", "orbit_classes"),
    ("a2", "orbit_sizes"), ("a2", "orbit_classes"),
    ("three_node", "orbit_sizes"), ("three_node", "orbit_classes"),
    ("quintic_orbits", "coupling"),
])
def test_a_parameter_the_model_does_not_take_is_named(name, param):
    with pytest.raises(ValueError, match=f"^{name} does not take the {param} parameter$"):
        builtin_scenario(name, **{param: _PARAM_VALUES[param]})


@pytest.mark.parametrize("name", ["a2", "three_node"])
@pytest.mark.parametrize("coupling", [0, "0", Fraction(0)])
def test_zero_coupling_rejected(name, coupling):
    with pytest.raises(ValueError, match=f"^{name} coupling must be nonzero$"):
        builtin_scenario(name, coupling=coupling)


@pytest.mark.parametrize("name", ["a3", "", "A2"])
def test_unknown_builtin_names_the_choices(name):
    with pytest.raises(ValueError, match=f"^unknown builtin scenario {name!r} "
                                         r"\(choose from a1xa1, a2, three_node, quintic_orbits\)$"):
        builtin_scenario(name, coupling=1)


def test_taken_parameters_are_accepted():
    classes = [(1, k) for k in range(5)]
    assert builtin_scenario("quintic_orbits", orbit_classes=classes) == \
        builtin_scenario("quintic_orbits")
    assert builtin_scenario("three_node", coupling="2/3").cycles.entries[1][1] == Fraction(2, 3)


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


# The minimal text with an unknown grid field between gram: and cycles: (lines 7-9).
_UNKNOWN_BETWEEN = _minimal_text().replace("cycles:", "extra_grid:\n1 2 3\n4 5\ncycles:")


def test_lax_mode_drops_an_unknown_grid_field_between_grids():
    assert parse_scenario(_UNKNOWN_BETWEEN, strict=False) == parse_scenario(_minimal_text())
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_UNKNOWN_BETWEEN)
    assert (info.value.line, info.value.field) == (7, "extra_grid")
    assert str(info.value) == "line 7, field 'extra_grid': unknown field"


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("text, line", [
    (_minimal_text().replace("dim: 2\n", "dim: 2\n1 0\n"), 4),
    # After a grid field, the scalar field ends it.
    (_minimal_text() + "notes: n\n1 0\n", 11),
], ids=["before-any-grid", "after-a-grid"])
def test_a_row_after_a_scalar_field_is_unexpected(text, line, strict):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text, strict=strict)
    assert (info.value.line, info.value.field) == (line, None)
    assert str(info.value) == f"line {line}: unexpected content '1 0'"


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
    assert scenario.cycles.entries[0][0] == Fraction(1, 2)
    assert "1/2" in serialize_scenario(scenario)


def test_parse_rejects_bad_partition():
    text = _minimal_text() + "partition:\n1\n1 2\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.field == "partition"


@pytest.mark.parametrize(
    "rows,line,message",
    [
        ("1 1\n2", 11, "not a partition of 1..2: node 1 appears more than once"),
        ("1 2\n3", 12, "not a partition of 1..2: node 3 out of range"),
        # An uncovered node has no row to point at.
        ("1", None, "not a partition of 1..2: does not cover nodes [2]"),
    ],
)
def test_partition_errors_name_nodes_one_based_with_their_row(rows, line, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_minimal_text() + f"partition:\n{rows}\n")
    assert (info.value.line, info.value.field) == (line, "partition")
    assert str(info.value).endswith(f"field 'partition': {message}")


OVERSIZED = "9" * 4301  # one past the interpreter's default int-from-text limit
try:
    int(OVERSIZED)
except ValueError as exc:
    # A token past the limit reports the interpreter's own message.
    OVERSIZED_MESSAGE = str(exc)

# One grid row of each rational field with a token slot {t}, and that row's line.
_TOKEN_SITES = [
    (_minimal_text(gram="0 {t}\n-1 0"), 5, "gram"),
    (_minimal_text(cycles="1 0\n0 {t}"), 9, "cycles"),
    (_minimal_text() + "incidence:\n1\n{t}\n", 12, "incidence"),
    (_minimal_text() + "corrected_class: 1 {t}\n", 10, "corrected_class"),
]
_TOKEN_FAULTS = [
    ("malformed", "x", "malformed rational 'x'"),
    ("negative-denominator", "1/-2", "malformed rational '1/-2'"),
    ("zero-denominator", "1/0", "zero denominator in rational '1/0'"),
    ("4301-digits", OVERSIZED, OVERSIZED_MESSAGE),
]


@pytest.mark.parametrize(
    "text,line,field,message",
    [
        # A missing row has no line: the grid's header line is named.
        (_minimal_text(gram="0 1"), 4, "gram", "expected 2 gram rows, found 1"),
        (_minimal_text() + "incidence:\n1\n", 10, "incidence",
         "expected 2 incidence rows (one per node), found 1"),
        # A non-skew entry names the line of its gram row.
        (_minimal_text(gram="0 1\n1 0"), 5, "gram",
         "gram matrix is not skew-symmetric at entry (1,2)"),
        (_minimal_text(dim="3", gram="0 1 0\n-1 0 0\n0 0 2", cycles="1 0 0"), 7, "gram",
         "gram matrix is not skew-symmetric at entry (3,3)"),
        *(pytest.param(site.replace("{t}", token), line, field, message, id=f"{field}-{name}")
          for site, line, field in _TOKEN_SITES for name, token, message in _TOKEN_FAULTS),
        pytest.param(_minimal_text(gram="0 1\n-1"), 6, "gram",
                     "gram row has 1 entries, expected 2", id="gram-short-row"),
        pytest.param(_minimal_text(dim="3", gram="0 1\n-1 0", cycles="1 0 0"), 4, "gram",
                     "expected 3 gram rows, found 2", id="gram-rows-for-another-dim"),
        pytest.param(_minimal_text(cycles="1 0\n0"), 9, "cycles",
                     "cycle row has 1 entries, expected 2", id="cycles-short-row"),
        # A repeated row is read once, and its first line is named.
        pytest.param(_minimal_text(cycles="1 1/0\n0 1\n1 1/0"), 8, "cycles",
                     "zero denominator in rational '1/0'", id="cycles-bad-token-twice"),
        pytest.param(_minimal_text(cycles="1 0\n0\n1 0\n0"), 9, "cycles",
                     "cycle row has 1 entries, expected 2", id="cycles-short-row-twice"),
        pytest.param(_minimal_text() + "incidence:\n1 0\n1\n1 0\n1\n", 12, "incidence",
                     "ragged incidence rows", id="incidence-ragged-twice"),
        pytest.param(_minimal_text() + "incidence:\n1 0\n1\n", 12, "incidence",
                     "ragged incidence rows", id="incidence-ragged"),
        pytest.param(_minimal_text() + "corrected_class: 1\n", 10, "corrected_class",
                     "corrected_class has 1 entries, expected 2", id="corrected_class-short-row"),
    ],
)
def test_grid_errors_name_line_and_field(text, line, field, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.field) == (line, field)
    assert str(info.value).endswith(f"field '{field}': {message}")


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


def _token_grids(rows, cols):
    token = st.one_of(
        st.sampled_from(["0", "-0", "0/5", "2/4", "-3/6", "1", "-1"]),
        st.builds("{}/{}".format, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 7, 12])),
        st.integers(-10**30, 10**30).map(str),
        st.builds("{}/{}".format, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
    )
    return st.lists(st.lists(token, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _negated(token):
    return token[1:] if token.startswith("-") else "-" + token


@st.composite
def _token_scenarios(draw):
    r, dim, width = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    gram = [["0"] * dim for _ in range(dim)]
    for i, row in enumerate(draw(_token_grids(dim, dim))):
        gram[i][i] = row[i] if row[i] in ("0", "-0", "0/5") else "0"
        for j in range(i + 1, dim):
            gram[i][j], gram[j][i] = row[j], _negated(row[j])
    return (gram, draw(_token_grids(r, dim)), draw(_token_grids(r, width)),
            draw(_token_grids(1, r))[0])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_token_scenarios())
def test_grid_reader_matches_fraction_path(grids):
    """Each rational grid parses to the Matrix of its tokens read one by one."""
    gram, cycles, incidence, corrected = grids
    text = "\n".join([
        "format_version: 1", "name: t", f"dim: {len(gram)}",
        "gram:", *map(" ".join, gram),
        "cycles:", *map(" ".join, cycles),
        "incidence:", *map(" ".join, incidence),
        "corrected_class: " + " ".join(corrected),
    ]) + "\n"
    s = parse_scenario(text)

    def fractions(rows):
        return [[parse_rational(token) for token in row] for row in rows]

    assert s.gram == Matrix.from_rows(fractions(gram), cols=len(gram))
    assert s.cycles == Matrix.from_rows(fractions(cycles), cols=len(gram))
    assert s.incidence == Matrix.from_rows(fractions(incidence), cols=len(incidence[0]) if incidence else 0)
    assert s.corrected_class == tuple(fractions([corrected])[0])

    # The serializer writes each drawn token in lowest terms, one by one.
    def lines(rows):
        return [" ".join(format_rational(parse_rational(t)) for t in row) for row in rows]

    assert serialize_scenario(s) == "\n".join([
        "format_version: 1", "name: t", f"dim: {len(gram)}",
        "gram:", *lines(gram), "cycles:", *lines(cycles), "incidence:", *lines(incidence),
        "corrected_class: " + lines([corrected])[0],
    ]) + "\n"


def test_serialize_past_the_int_text_limit():
    """A 4301-digit cycle entry over a denominator it shares a factor with is
    written as its Decimal digits in lowest terms, with the interpreter's
    4300-digit limit in force."""
    num = 6 * (10 ** 4300 + 7)  # 4301 digits
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        half = str(num // 2)
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str(num)
        # The coprime 1 keeps the Matrix over 4, so the cell reduces alone.
        s = ScenarioFile(name="t", dim=2, gram=Matrix.from_rows([[0, 1], [-1, 0]]),
                         cycles=Matrix(1, 2, ((num, 1),), 4))
        text = serialize_scenario(s)
        assert text.splitlines()[6:8] == ["cycles:", f"{half}/2 1/4"]
        sys.set_int_max_str_digits(0)
        assert parse_scenario(text) == s
    finally:
        sys.set_int_max_str_digits(saved)


def _two_node(name="t", **fields):
    return ScenarioFile(name=name, dim=2, gram=Matrix.from_rows([[0, 1], [-1, 0]]),
                        cycles=((1, 0), (0, 1)), **fields)


@pytest.mark.parametrize("scenario,field", [
    (ScenarioFile(name="t", dim=0, gram=Matrix.zero(0, 0), cycles=((), ())), "cycles"),
    (_two_node(incidence=Matrix.zero(2, 0)), "incidence"),
    (_two_node(name="a\nb"), "name"),
    (_two_node(notes="one\ntwo"), "notes"),
    (_two_node(name=" x"), "name"),
    (_two_node(notes=" padded "), "notes"),
    (_two_node(name=""), "name"),
    (_two_node(partition=((1,), (), (2,))), "partition"),
    (_two_node(corrected_class=(Fraction(1),)), "corrected_class"),
    (_two_node(format_version=2), "format_version"),
    (_two_node(partition=((2,), (1,))), "partition"),
    (_two_node(partition=((2, 1),)), "partition"),
    (_two_node(partition=((1,), (2, 3))), "partition"),
    (_two_node(partition=((1,), (1, 2))), "partition"),
    (_two_node(partition=((1,),)), "partition"),
    (ScenarioFile(name="t", dim=2, gram=Matrix.zero(2, 3), cycles=((1, 0),)), "gram"),
    (ScenarioFile(name="t", dim=2, gram=Matrix.from_rows([[0, 1], [1, 0]]),
                  cycles=((1, 0),)), "gram"),
    (ScenarioFile(name="t", dim=2, gram=Matrix.from_rows([[0, 1], [-1, 0]]),
                  cycles=Matrix.from_rows([[1, 0, 0], [0, 1, 0]])), "cycles"),
    (_two_node(incidence=Matrix.identity(3)), "incidence"),
    (ScenarioFile(name="t", dim=-1, gram=Matrix.zero(0, 0), cycles=Matrix.zero(0, 0)), "dim"),
    (ScenarioFile(name="t", dim=2, gram=Matrix.from_rows([[0, 1], [-1, 0]]),
                  cycles=Matrix.zero(0, 2), incidence=Matrix.zero(0, 3)), "incidence"),
], ids=["cycles", "incidence", "name-two-lines", "notes-two-lines", "name-padded",
        "notes-padded", "name-empty", "partition-empty-block", "corrected-class-short",
        "format-version-2", "partition-blocks-unsorted", "partition-members-unsorted",
        "partition-node-out-of-range", "partition-node-twice", "partition-node-missing",
        "gram-not-dim-square", "gram-not-skew", "cycles-not-dim-wide",
        "incidence-not-r-rows", "dim-negative", "incidence-columns-without-rows"])
def test_serialize_rejects_rows_of_no_entries(scenario, field):
    # Each of these would not read back: a row is a line of entries, and a
    # name or notes is the rest of one line, stripped; a name is nonempty.
    # An empty block is a blank line, which reading skips; reading rejects a
    # corrected class of another length than r, and any other version.
    # Reading sorts a partition's blocks and members, and rejects one that
    # does not name each node of 1..r exactly once.  Reading also rejects a
    # negative dim, a gram not dim x dim or not skew, cycles not dim wide and
    # an incidence without r rows; it takes an incidence's width from its
    # rows, so one with columns and no rows reads back 0 x 0.
    with pytest.raises(ValueError, match=f"field '{field}'"):
        serialize_scenario(scenario)


def _is_sorted_partition(blocks, r):
    """The plain definition: nonempty blocks, members ascending, blocks by
    least member, and every node of 1..r named exactly once."""
    return (all(blocks)
            and all(list(block) == sorted(set(block)) for block in blocks)
            and [block[0] for block in blocks] == sorted(block[0] for block in blocks)
            and sorted(k for block in blocks for k in block) == list(range(1, r + 1)))


def _random_blocks(rng, r):
    """A sorted partition of 1..r, then at random shuffled, given a duplicate,
    a missing, an out-of-range node or an empty block."""
    owners = [rng.randrange(rng.randint(1, r)) for _ in range(r)]
    groups: dict[int, list[int]] = {}
    for node, owner in enumerate(owners, start=1):
        groups.setdefault(owner, []).append(node)
    blocks = sorted(groups.values())
    for _ in range(rng.choice((0, 0, 1, 2))):
        block = rng.choice(blocks)
        mutation = rng.randrange(6)
        if mutation == 0:
            rng.shuffle(blocks)
        elif mutation == 1:
            rng.shuffle(block)
        elif mutation == 2:
            block.insert(rng.randint(0, len(block)), rng.randint(1, r))
        elif mutation == 3:
            if block:
                del block[rng.randrange(len(block))]
        elif mutation == 4:
            block.insert(rng.randint(0, len(block)), rng.choice((0, -1, r + 1, r + 7)))
        else:
            blocks.insert(rng.randint(0, len(blocks)), [])
    return tuple(map(tuple, blocks))


def test_serialize_partition_agrees_with_the_plain_definition():
    """Seeded: the serializer raises exactly on the tuples that are not a
    sorted partition of 1..r, and every other tuple reads back equal."""
    rng = random.Random(20261020)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        r = rng.randint(1, 9)
        blocks = _random_blocks(rng, r)
        s = ScenarioFile(name="t", dim=2, gram=Matrix.from_rows([[0, 1], [-1, 0]]),
                         cycles=((1, 0),) * r, partition=blocks)
        valid = _is_sorted_partition(blocks, r)
        outcomes[valid] += 1
        if valid:
            assert parse_scenario(serialize_scenario(s)) == s, blocks
        else:
            with pytest.raises(ValueError, match="field 'partition'"):
                serialize_scenario(s)
    assert min(outcomes.values()) > 100


def test_indicator_incidences_are_built_from_int_rows(monkeypatch):
    """Every built-in and modelgen write the 0/1 incidence as integer rows,
    not through from_columns, which makes a Fraction of every cell."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("indicator incidence built through from_columns")

    monkeypatch.setattr(Matrix, "from_columns", refuse)
    expected = {"a1xa1": ((1, 0), (0, 1)), "a2": ((1,), (1,)),
                "three_node": ((1, 0), (1, 0), (0, 1))}
    for name, rows in expected.items():
        s = builtin_scenario(name)
        assert (s.incidence.num, s.incidence.den) == (rows, 1), name
    s = builtin_scenario("quintic_orbits", orbit_sizes=(70, 20, 15, 10, 10))
    assert s.incidence.num[69:71] == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    m = random_block_scenario(random.Random(3)).incidence
    assert all(sorted(row) == [0] * (m.cols - 1) + [1] for row in m.num)


def test_serializing_builds_no_fraction_view():
    s = builtin_scenario("quintic_orbits")
    serialize_scenario(s)
    assert not any("entries" in vars(m) for m in (s.gram, s.cycles, s.incidence))


# `lightsectors scenario ARGS --emit FILE` for each file the digests name.
EMITTED = {
    "a1xa1.scenario": ["a1xa1"],
    "a2.scenario": ["a2"],
    "three_node.scenario": ["three_node"],
    "quintic_orbits.scenario": ["quintic_orbits"],
    "a2.coupling_2_3.scenario": ["a2", "--coupling", "2/3"],
    "quintic_orbits.orbits_70_20_15_10_10.scenario":
        ["quintic_orbits", "--orbits", "70,20,15,10,10"],
}


def test_emitted_scenarios_match_their_digests(tmp_path):
    """The bytes of each emitted built-in against tests/data (the file
    `sha256sum -c` reads)."""
    digests = dict(line.split()[::-1] for line in
                   (DATA / "builtin_scenarios.sha256").read_text().splitlines())
    assert digests.keys() == EMITTED.keys()
    for name, args in EMITTED.items():
        assert cli.main(["scenario", *args, "--emit", str(tmp_path / name)]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digests[name], name


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


# -- the grid reader against the per-token reader -------------------------------


def _per_token_grid(rows, field, width=None):
    """The grid reader with every token read through rational_parts, as each
    was before rows of plain integers were read whole."""
    grid, ragged = [], width is None
    for ln, text in rows:
        try:
            row = [rational_parts(tok) for tok in text.split()]
        except ValueError as exc:
            raise ScenarioError(str(exc), line=ln, field=field) from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            what = f"{scenarios._ROW_NAMES.get(field, field)} has {len(row)} entries, expected {width}"
            raise ScenarioError(f"ragged {field} rows" if ragged else what, line=ln, field=field)
        grid.append(row)
    den = lcm(*(d for row in grid for _, d in row))
    num = tuple(tuple(n * (den // d) for n, d in row) for row in grid)
    return Matrix(len(grid), width or 0, num, den)


def _read_both(rows, field, width):
    """(Matrix, None) or (None, (message, line, field)) from each reader."""
    results = []
    for reader in (scenarios._read_grid, _per_token_grid):
        try:
            results.append((reader(rows, field, width), None))
        except ScenarioError as exc:
            results.append((None, (str(exc), exc.line, exc.field)))
    return results


WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
grid_tokens = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["0", "-0", "007", "-12", "3/4", "-6/8", "1/0", "5/-2", "+5", "1_0",
                     "٣", "１", "1-2", "--1", "1.5", "-", "/", "1/", "x",
                     "9" * 4301, "-" + "9" * 4300, "9" * 4300 + "/7"]),
)
separators = st.one_of(st.just(" "), st.sampled_from(WHITESPACE), st.sampled_from(["", "-", "/"]),
                       st.lists(st.sampled_from(WHITESPACE), min_size=2, max_size=3).map("".join))


@st.composite
def grid_rows(draw):
    """Rows of drawn tokens and separators; a row may repeat an earlier row's
    text, so that a bad token or a ragged row can occur twice."""
    texts = []
    for _ in range(draw(st.integers(1, 5))):
        if texts and draw(st.booleans()):
            texts.append(draw(st.sampled_from(texts)))
            continue
        tokens = draw(st.lists(grid_tokens, max_size=5))
        text = "".join(tok + draw(separators) for tok in tokens[:-1]) + "".join(tokens[-1:])
        if draw(st.booleans()):
            text = draw(st.sampled_from(WHITESPACE)) + text + draw(st.sampled_from(WHITESPACE))
        texts.append(text)
    return list(enumerate(texts, start=1))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rows=grid_rows(), field=st.sampled_from(["gram", "cycles", "incidence"]),
       width=st.one_of(st.none(), st.integers(0, 5)))
def test_grid_reader_matches_per_token_reader(rows, field, width):
    """The same Matrix, or the same ScenarioError message, line and field."""
    fast, slow = _read_both(rows, field, width)
    assert fast == slow


def test_equal_row_texts_share_one_integer_row():
    cycles = parse_scenario(_minimal_text(cycles="1/2 1\n0 1\n1/2 1\n0 1")).cycles
    assert cycles == Matrix.from_rows([["1/2", 1], [0, 1], ["1/2", 1], [0, 1]])
    assert cycles.num[0] is cycles.num[2] and cycles.num[1] is cycles.num[3]


def test_integer_row_pattern_splits_where_split_does():
    """The whole-row pattern joins two integers across exactly the
    characters str.split() splits on, and rejects what int() alone would
    take or what is not two tokens."""
    for c in map(chr, range(sys.maxunicode + 1)):
        text = f"1{c}-2"
        assert bool(scenarios._INT_ROW.fullmatch(text)) == (text.split() == ["1", "-2"])
    for text in ("1-2", "+5", "1_0", "٣", "1 １", "-", "1 2 ", ""):
        assert not scenarios._INT_ROW.fullmatch(text)
    for text in ("1-2", "+5", "1_0", "٣"):
        fast, slow = _read_both([(7, text)], "cycles", 1)
        assert fast == slow and fast[1][1:] == (7, "cycles")


def test_gram_is_skew_checked_once_per_case(monkeypatch):
    """parse_scenario hands the PairingSpace it checked on to to_package; a
    hand-built ScenarioFile is checked once, when to_package or
    serialize_scenario first reads it."""
    calls = []
    real = pairing.first_skew_violation

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(pairing, "first_skew_violation", counted)
    rng = random.Random(11)
    built = [builtin_scenario(name) for name in BUILTIN_NAMES]
    built += [random_block_scenario(rng, name=f"draw_{k}") for k in range(5)]
    for s in built:
        calls.clear()
        to_package(s)
        to_package(s)
        serialize_scenario(s)
        assert len(calls) == 1, s.name
    texts = [serialize_scenario(s) for s in built]
    texts.append((DATA / "four_node_blocks.scenario").read_text())
    for text in texts:
        calls.clear()
        to_package(parse_scenario(text))
        assert len(calls) == 1


def test_grid_rows_skip_the_field_pattern(monkeypatch):
    """Only a line holding a ':' can be a field line, so no grid row is
    matched against the field pattern."""
    matched = []
    real = scenarios._FIELD_LINE

    class Counted:
        def match(self, line):
            matched.append(line)
            return real.match(line)

    monkeypatch.setattr(scenarios, "_FIELD_LINE", Counted())
    text = serialize_scenario(builtin_scenario("quintic_orbits"))
    parse_scenario(text)
    assert matched == [line for line in text.splitlines() if ":" in line]
    assert len(matched) == 8
