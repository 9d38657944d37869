import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lightsectors.report as report_module
import reference
from lightsectors.atoms import AtomSplittingReport, EdgeRows, atom_splitting
from lightsectors.cli import main
from lightsectors.linalg import Matrix, format_rational
from lightsectors.package import BlockSeparationRequiredError, verify_block_structure
from lightsectors.report import (
    analysis_document,
    render_report,
    verification_document,
    verification_unavailable_document,
)
from lightsectors.modelgen import random_block_scenario
from lightsectors.transport import InteractionMatrix
from lightsectors.scenarios import (
    BUILTIN_NAMES,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
    to_package,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from test_atoms import class_forms  # noqa: E402
from workloads import deck  # noqa: E402

DATA = Path(__file__).parent / "data"

# Machine-format key names are frozen; renaming any of these is a breaking
# format change and must fail loudly here.
TOP_LEVEL_KEYS = {
    "report_format",
    "report_version",
    "scenario",
    "nodes",
    "pairing_dim",
    "word_convention",
    "interaction_matrix",
    "extension",
    "transport",
    "atom",
    "blocks",
    "verification",
    "flags",
}


def _doc(name):
    scenario = builtin_scenario(name)
    return analysis_document(to_package(scenario), scenario.name)


def test_machine_format_field_names_frozen():
    doc = _doc("a2")
    assert set(doc.keys()) == TOP_LEVEL_KEYS
    assert set(doc["extension"].keys()) == {
        "ambient_dim",
        "realized_dim",
        "realized_basis",
        "ambient_default",
        "verdict",
        "relation_collapse",
        "corrected_class",
        "corrected_class_member",
    }
    assert set(doc["transport"].keys()) == {"verdict", "nilpotent_ranks"}
    assert set(doc["atom"].keys()) == {"verdict", "mixing_edges", "mixing_clusters"}
    assert set(doc["blocks"].keys()) == {
        "incidence_blocks",
        "block_adapted",
        "not_block_adapted_reason",
        "partition",
        "partition_matches_incidence",
        "separation",
        "separation_violation",
        "block_count",
        "reduced_matrix",
        "residual_verdict",
    }


def test_a2_report_golden_file():
    rendered = render_report(_doc("a2"), "machine")
    golden = (DATA / "a2_report.golden.json").read_bytes()
    assert rendered == golden


def test_four_node_blocks_report_golden_file():
    """The block path: partition, reduced matrix, nilpotent ranks of a
    block-separated package and the block verification totals."""
    scenario = parse_scenario((DATA / "four_node_blocks.scenario").read_text(encoding="utf-8"))
    rendered = render_report(analysis_document(to_package(scenario), scenario.name), "machine")
    golden = (DATA / "four_node_blocks.analysis.golden.json").read_bytes()
    assert rendered == golden


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("machine", "json")])
def test_rational_incidence_report_golden_file(fmt, suffix):
    """A realized space whose canonical basis has non-integer entries
    (1/2, -2/3, 3/4, 1/3), from an incidence with a rational entry, and a
    rational corrected class that lies in it."""
    scenario = parse_scenario((DATA / "rational_incidence.scenario").read_text(encoding="utf-8"))
    rendered = render_report(analysis_document(to_package(scenario), scenario.name), fmt)
    golden = (DATA / f"rational_incidence.analysis.golden.{suffix}").read_bytes()
    assert rendered == golden


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("machine", "json")])
def test_interleaved_mixing_report_golden_file(fmt, suffix):
    """Four cycle classes spread over seven nodes out of order: one class
    pairs with nothing and node 7's partners all lie below it, so the
    edges are uneven tails of the class runs."""
    scenario = parse_scenario((DATA / "interleaved_mixing.scenario").read_text(encoding="utf-8"))
    rendered = render_report(analysis_document(to_package(scenario), scenario.name), fmt)
    golden = (DATA / f"interleaved_mixing.analysis.golden.{suffix}").read_bytes()
    assert rendered == golden


def test_machine_reports_byte_deterministic():
    for name in ("a1xa1", "a2", "three_node"):
        assert render_report(_doc(name), "machine") == render_report(_doc(name), "machine")
        assert render_report(_doc(name), "text") == render_report(_doc(name), "text")


def test_a2_text_report_verdicts():
    text = render_report(_doc("a2"), "text").decode()
    assert "extension: Interacting (collapsed 2 -> 1)" in text
    assert "transport: Noncommuting" in text
    assert "atom: NonSplit" in text
    assert "mixing clusters (artifact-derived): {1,2}" in text
    assert "member of realized space: yes" in text


def test_a1xa1_text_report_verdicts():
    text = render_report(_doc("a1xa1"), "text").decode()
    assert "extension: Split (no collapse)" in text
    assert "transport: Commuting" in text
    assert "atom: Split" in text
    assert "verification: PASS" in text


def test_three_node_text_report_verdicts():
    text = render_report(_doc("three_node"), "text").decode()
    assert "extension: Interacting (collapsed 3 -> 2)" in text
    assert "relation blocks (incidence side): {1,2} {3}" in text
    assert "block separation (transport side): VIOLATED" in text
    assert "mixing clusters (artifact-derived): {1,2} {3}" in text


def test_machine_report_is_valid_json():
    payload = json.loads(render_report(_doc("three_node"), "machine"))
    assert payload["nodes"] == 3
    assert payload["interaction_matrix"][0] == ["0", "1", "0"]
    assert payload["blocks"]["separation"] == "violated"


def test_repeated_classes_render_like_separate_rows():
    # quintic_orbits has 125 nodes and 5 cycle classes, so rows repeat.
    doc = _doc("quintic_orbits")
    cells = doc["interaction_matrix"]
    assert len(cells) == 125 and len(set(map(id, cells))) == 125
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    lines = ["  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    text = render_report(doc, "text").decode()
    assert "\ninteraction matrix:\n" + "\n".join(lines) + "\ntransport:" in text


def test_analyze_path_never_builds_the_dense_grid():
    pkg = to_package(builtin_scenario("quintic_orbits"))
    doc = analysis_document(pkg, "quintic_orbits")
    assert verify_block_structure(pkg).overall
    assert "entries" not in vars(pkg.interaction)
    # The cells still read like the dense grid, entry by entry.
    assert doc["interaction_matrix"] == [
        [format_rational(x) for x in row] for row in pkg.interaction.entries.entries
    ]


def test_realized_basis_never_builds_the_fraction_view():
    pkg = to_package(builtin_scenario("quintic_orbits"))
    doc = analysis_document(pkg, "quintic_orbits")
    basis = pkg.realized.v_geom.basis
    assert "entries" not in vars(basis)
    # The cells still read like the Fraction view, entry by entry.
    assert doc["extension"]["realized_basis"] == [
        [format_rational(x) for x in row] for row in basis.entries
    ]


# The report stem each quintic_orbits digest names, and its `scenario` arguments.
ORBIT_REPORTS = {
    "quintic_orbits": [],
    "quintic_orbits.orbits_70_20_15_10_10": ["--orbits", "70,20,15,10,10"],
}


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("machine", "json")])
def test_quintic_orbits_report_digest(tmp_path, fmt, suffix):
    """`lightsectors analyze` of each emitted 125-node scenario, both formats,
    against the digests in tests/data (the file `sha256sum -c` reads)."""
    digests = {}
    for line in (DATA / "quintic_orbits.analysis.sha256").read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    assert digests.keys() == {f"{stem}.analysis.{ext}"
                              for stem in ORBIT_REPORTS for ext in ("txt", "json")}
    for stem, args in ORBIT_REPORTS.items():
        scenario = tmp_path / f"{stem}.scenario"
        out = tmp_path / f"{stem}.analysis.{suffix}"
        assert main(["scenario", "quintic_orbits", *args, "--emit", str(scenario)]) == 0
        assert main(["analyze", str(scenario), "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[out.name], out.name


def _edge_line(text: str) -> str | None:
    lines = [line for line in text.splitlines() if line.startswith("mixing edges: ")]
    assert len(lines) <= 1
    return lines[0] if lines else None


@pytest.mark.parametrize("name, count", [("a1xa1", 0), ("a2", 1), ("quintic_orbits", 6250)])
def test_mixing_edges_line_matches_per_edge_format(name, count):
    doc = _doc(name)
    edges = doc["atom"]["mixing_edges"]
    assert len(edges) == count
    line = _edge_line(render_report(doc, "text").decode())
    if count == 0:
        assert line is None
    else:
        assert line == "mixing edges: " + " ".join(f"({i},{j})" for i, j in edges)


def test_only_the_analysis_document_expands_the_mixing_edges(tmp_path, monkeypatch):
    """`verify` reads only the splitting verdicts, so it builds no edge;
    `analyze` builds them once, for the analysis document."""
    expansions = []
    real = AtomSplittingReport.edge_rows

    def counted(self, base=0):
        expansions.append(base)
        return real(self, base)

    monkeypatch.setattr(AtomSplittingReport, "edge_rows", counted)
    rng = random.Random(5)
    draws = [random_block_scenario(rng, name=f"draw_{k}") for k in range(6)]
    assert any(not to_package(s).atom.is_split for s in draws)
    for s in (builtin_scenario("quintic_orbits"), *draws):
        path = tmp_path / f"{s.name}.scenario"
        path.write_text(serialize_scenario(s))
        expansions.clear()
        for fmt in ("text", "machine"):
            out = tmp_path / f"{s.name}.verify.{fmt}"
            assert main(["verify", str(path), "--format", fmt, "--out", str(out)]) == 0
        assert expansions == [], s.name
        out = tmp_path / f"{s.name}.analysis.json"
        assert main(["analyze", str(path), "--format", "machine", "--out", str(out)]) == 0
        assert expansions == [1], s.name
        lam = to_package(s).interaction
        expected = [[i + 1, j + 1] for i, j in reference.atom_splitting(lam).mixing_edges]
        assert json.loads(out.read_text())["atom"]["mixing_edges"] == expected, s.name


@pytest.mark.parametrize("edges", [[[1, 2, 3], [4]], [[1, 2], [3]], [[1, 2, 3]]])
def test_mixing_edge_that_is_not_a_pair_raises(edges):
    doc = _doc("a2")
    doc["atom"]["mixing_edges"] = edges
    with pytest.raises(ValueError):
        render_report(doc, "text")


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("at", [0, -1])
def test_loaded_mixing_edges_render_and_reject_a_row_that_is_not_a_pair(width, at):
    """A JSON-loaded document holds mixing_edges as plain lists: it renders,
    in both formats, to the bytes of the document it was loaded from, and a
    1-cell or 3-cell row, first or last, raises ValueError in the text render."""
    doc = _doc("quintic_orbits")
    loaded = json.loads(render_report(doc, "machine"))
    for fmt in ("text", "machine"):
        assert render_report(loaded, fmt) == render_report(doc, fmt)
    edges = loaded["atom"]["mixing_edges"]
    edges[at] = [*edges[at], 7][:width]
    with pytest.raises(ValueError):
        render_report(loaded, "text")


_UNEVEN_RUNS = InteractionMatrix(
    Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), (0, 2, 1, 0, 1, 2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lam=class_forms())
@example(lam=InteractionMatrix(Matrix.zero(0, 0), ()))
@example(lam=InteractionMatrix(Matrix.zero(1, 1), (0,)))
@example(lam=InteractionMatrix(Matrix.zero(2, 2), (0, 1)))
# Class 2 pairs with nothing, and node 5's run (nodes 1 and 4) lies below it.
@example(lam=_UNEVEN_RUNS)
def test_edge_runs_render_like_plain_rows(lam):
    """A document holding edge_rows(1) renders, in both formats, to the
    bytes of the same document with the edges as plain lists, which take
    the generic paths; its machine bytes are json.dumps's."""
    doc = _doc("a2")
    doc["atom"]["mixing_edges"] = atom_splitting(lam).edge_rows(1)
    plain = _doc("a2")
    plain["atom"]["mixing_edges"] = [list(edge) for edge in doc["atom"]["mixing_edges"]]
    for fmt in ("text", "machine"):
        assert render_report(doc, fmt) == render_report(plain, fmt)
    assert render_report(doc, "machine") == _json_oracle(doc)


def test_split_report_writes_no_edge():
    doc = _doc("a1xa1")
    edges = doc["atom"]["mixing_edges"]
    assert type(edges) is EdgeRows and edges == ()
    assert _edge_line(render_report(doc, "text").decode()) is None
    assert json.loads(render_report(doc, "machine"))["atom"]["mixing_edges"] == []


def test_uneven_runs_render_every_edge():
    doc = _doc("a2")
    doc["atom"]["mixing_edges"] = atom_splitting(_UNEVEN_RUNS).edge_rows(1)
    line = "mixing edges: (1,3) (1,5) (3,4) (4,5)"
    assert _edge_line(render_report(doc, "text").decode()) == line
    machine = json.loads(render_report(doc, "machine"))
    assert machine["atom"]["mixing_edges"] == [[1, 3], [1, 5], [3, 4], [4, 5]]


def test_equal_string_rows_are_written_once(monkeypatch):
    encoded = []

    def counted(name):
        real = getattr(report_module, name)

        def encode(s):
            encoded.append((name, s))
            return real(s)

        return encode

    for name in ("_encode", "_encode_str"):
        monkeypatch.setattr(report_module, name, counted(name))
    row = ["0", "-1/2", "3"]
    # Shared row objects and equal-content copies alike are one distinct row;
    # the key takes the full encoder and each cell the string encoder.
    doc = {"m": [row] * 40 + [list(row) for _ in range(40)] + [["7"]]}
    assert render_report(doc, "machine") == _json_oracle(doc)
    assert sorted(encoded) == sorted([("_encode", "m"),
                                      *(("_encode_str", cell) for cell in [*row, "7"])])


def test_verification_document_render():
    scenario = parse_scenario((DATA / "four_node_blocks.scenario").read_text())
    report = verify_block_structure(to_package(scenario))
    doc = verification_document(scenario.name, report)
    assert doc["overall"] is True
    text = render_report(doc, "text").decode()
    assert "verification: PASS" in text
    machine = json.loads(render_report(doc, "machine"))
    assert machine["checks_failed"] == 0


def test_flags_for_trivial_node():
    from lightsectors.package import assemble
    from lightsectors.pairing import standard_symplectic

    pkg = assemble(standard_symplectic(1), [(0, 0), (1, 1)])
    doc = analysis_document(pkg, "degenerate")
    assert any("homologically trivial" in f for f in doc["flags"])
    assert any("ambient default" in f for f in doc["flags"])


def test_flags_for_cycle_in_radical():
    from lightsectors.linalg import Matrix
    from lightsectors.package import assemble
    from lightsectors.pairing import PairingSpace

    space = PairingSpace(Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    pkg = assemble(space, [(0, 0, 2), (0, 0, 0), (1, 0, 0), (0, 0, -1), (0, 0, 0)])
    doc = analysis_document(pkg, "radical")
    assert doc["transport"]["nilpotent_ranks"] == [0, 0, 1, 0, 0]
    assert doc["flags"] == [
        "node 2: homologically trivial (zero cycle)",
        "node 5: homologically trivial (zero cycle)",
        "node 1: cycle pairs trivially (identity transport)",
        "node 4: cycle pairs trivially (identity transport)",
        "no gluing data supplied; extension side uses the ambient default",
    ]


def test_flags_scan_the_cycles_once(monkeypatch):
    from lightsectors.linalg import Matrix
    from lightsectors.package import assemble
    from lightsectors.pairing import CycleConfiguration, PairingSpace

    space = PairingSpace(Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    # Forty nodes in the radical of the Gram matrix, half of them zero cycles.
    pkg = assemble(space, [(0, 0, k % 2) for k in range(40)])
    scans = []
    real = CycleConfiguration.trivial_nodes.fget

    def counted(cfg):
        scans.append(cfg)
        return real(cfg)

    monkeypatch.setattr(CycleConfiguration, "trivial_nodes", property(counted))
    doc = analysis_document(pkg, "radical")
    assert len(scans) == 1
    assert len(doc["flags"]) == 41


def test_unknown_render_format():
    with pytest.raises(ValueError):
        render_report(_doc("a2"), "pdf")


def _json_oracle(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


# Quote, backslash, control, non-ASCII and astral characters, then anything.
_awkward = st.sampled_from('"\\/\b\n\t\x00\x1f\x7f\xe9\u2603\U0001f600')
_text = st.text(st.one_of(_awkward, st.characters()), max_size=4)
_ints = st.one_of(
    st.integers(-3, 3),
    st.integers(10**30 - 2, 10**30 + 2),
    st.integers(-(10**30) - 2, -(10**30) + 2),
)
_int_or_bool = st.one_of(_ints, st.booleans())
_str_row = st.lists(_text, min_size=1, max_size=3)
# One string row per example, drawn wherever the tree holds a shared row.
_row = st.shared(_str_row, key="row")


@st.composite
def _fixed_width_int_rows(draw):
    """Plain-int rows of one width, now and then with one bool, float or None
    cell, which json writes differently from an int's str."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_ints, min_size=width, max_size=width), min_size=1, max_size=5))
    if draw(st.booleans()):
        k, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        rows[k] = rows[k][:j] + [draw(st.one_of(st.booleans(), st.floats(), st.none()))] + rows[k][j + 1:]
    return rows


@st.composite
def _repeated_str_rows(draw):
    """A few string rows, repeated as shared objects and as equal copies."""
    rows = draw(st.lists(_str_row, min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.sampled_from(rows), st.booleans()), min_size=1, max_size=6))
    return [list(row) if copy else row for row, copy in picks]


@st.composite
def _str_rows_with_odd_cell(draw):
    """String rows, then a copy of one with an int, None, list, dict or tuple
    cell: unhashable or not a str, so the rows must go item by item."""
    rows = draw(st.lists(_str_row, min_size=1, max_size=3))
    odd = draw(st.one_of(
        _ints,
        st.none(),
        st.lists(_text, max_size=2),
        st.dictionaries(_text, _ints, max_size=2),
        st.tuples(_text),
    ))
    later = list(draw(st.sampled_from(rows)))
    later.insert(draw(st.integers(0, len(later))), odd)
    return rows + [later]


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(),
    _text,
    _row,
    st.lists(_text, max_size=3),
    st.lists(_int_or_bool, max_size=4),
    st.lists(st.lists(_int_or_bool, max_size=3), max_size=4),
    _fixed_width_int_rows(),
    _repeated_str_rows(),
    _str_rows_with_odd_cell(),
    st.lists(st.one_of(st.lists(_ints, min_size=1, max_size=3), _str_row), min_size=1, max_size=1),
    st.lists(st.lists(_ints, min_size=1, max_size=3), min_size=2, max_size=4),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tree=_trees, row=_row)
@example(tree=[[]], row=["a"])
@example(tree=[[1], []], row=["a"])
@example(tree={"b": {}, "a": [[], {}, [[]]], "c": [1, True, 0, False]}, row=["a"])
@example(tree=[[1, 2], [3, True]], row=["a"])
@example(tree=[["a"], ["a", ["b"]]], row=["a"])
def test_machine_writer_matches_json_dumps(tree, row):
    # The shared row also sits at two fixed depths, written at two indents.
    doc = {"row": row, "deeper": [{"row": row}], "tree": tree}
    assert render_report(doc, "machine") == _json_oracle(doc)


def _shipped_documents():
    for name in BUILTIN_NAMES:
        scenario = builtin_scenario(name)
        pkg = to_package(scenario)
        yield f"{name}-analysis", analysis_document(pkg, scenario.name)
        try:
            report = verify_block_structure(pkg)
        except BlockSeparationRequiredError as exc:
            yield f"{name}-unavailable", verification_unavailable_document(scenario.name, exc)
        else:
            yield f"{name}-verification", verification_document(scenario.name, report)
    scenario = parse_scenario((DATA / "four_node_blocks.scenario").read_text())
    pkg = to_package(scenario)
    yield "four_node_blocks-analysis", analysis_document(pkg, scenario.name)
    yield "four_node_blocks-verification", verification_document(
        scenario.name, verify_block_structure(pkg)
    )
    scenario = builtin_scenario("quintic_orbits", orbit_sizes=[70, 20, 15, 10, 10])
    yield "quintic_orbits-70,20,15,10,10", analysis_document(to_package(scenario), scenario.name)
    for case in deck("orbit_analyze", 1):
        scenario = parse_scenario(case.text)
        yield f"orbit_analyze-1-{case.name}", analysis_document(to_package(scenario), scenario.name)


def test_machine_writer_matches_json_dumps_on_shipped_documents():
    names = []
    for name, doc in _shipped_documents():
        assert render_report(doc, "machine") == _json_oracle(doc), name
        names.append(name)
    assert "three_node-unavailable" in names and len(names) == 14
