"""One rule for every rational cell a caller hands in: an int, a Fraction or
canonical text, read at every entry point by linalg's one cell reader."""

import json
import operator
import re
from fractions import Fraction

import pytest

from lightsectors.linalg import Matrix
from lightsectors.package import assemble
from lightsectors.pairing import standard_symplectic
from lightsectors.report import analysis_document, render_report
from lightsectors.scenarios import (
    ScenarioFile,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
    to_package,
)

GRAM = standard_symplectic(1).gram

# Each entry point reads the cell x and returns the Fraction it became.
ENTRY_POINTS = {
    "Matrix.from_rows": lambda x: Matrix.from_rows([[1, x]]).entries[0][1],
    "builtin_scenario(coupling)": lambda x: builtin_scenario("a2", coupling=x).cycles.entries[1][1],
    "builtin_scenario(orbit_classes)":
        lambda x: builtin_scenario("quintic_orbits", orbit_classes=[(1, x)] * 5).cycles.entries[0][1],
    "ScenarioFile(corrected_class)":
        lambda x: ScenarioFile("t", 2, GRAM, ((1, 0), (0, 1)), corrected_class=(x, 1)).corrected_class[0],
    "assemble(corrected_class)":
        lambda x: assemble(standard_symplectic(1), [(1, 0), (0, 1)], corrected_class=(x, 1)).corrected_class[0],
}

# (cell, the Fraction it reads as, or the error it raises and its message)
CELLS = [
    (3, Fraction(3)),
    (Fraction(2, 3), Fraction(2, 3)),
    ("2/3", Fraction(2, 3)),
    ("4/6", Fraction(2, 3)),
    ("1/0", (ValueError, "zero denominator in rational '1/0'")),
    ("1.5", (ValueError, "malformed rational '1.5'")),
    (" 2 ", (ValueError, "malformed rational ' 2 '")),
    (0.5, (TypeError, "cannot interpret 0.5 as a rational")),
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("cell, outcome", CELLS, ids=[repr(c) for c, _ in CELLS])
def test_every_entry_point_reads_a_cell_by_one_rule(entry, cell, outcome):
    read = ENTRY_POINTS[entry]
    if isinstance(outcome, Fraction):
        got = read(cell)
        assert type(got) is Fraction and got == outcome
    else:
        error, message = outcome
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            read(cell)


def test_hand_built_text_corrected_class_round_trips_and_renders():
    s = ScenarioFile("t", 2, GRAM, ((1, 0), (0, 1)),
                     incidence=Matrix.from_rows([[1], [1]]), corrected_class=("1/2", "1/2"))
    assert s.corrected_class == (Fraction(1, 2), Fraction(1, 2))
    text = serialize_scenario(s)
    assert "corrected_class: 1/2 1/2\n" in text
    assert parse_scenario(text) == s
    packages = [to_package(s), assemble(s.space, [(1, 0), (0, 1)], incidence=s.incidence,
                                        corrected_class=("1/2", "2/4"))]
    for pkg in packages:
        doc = analysis_document(pkg, s.name)
        assert b"corrected class: (1/2 1/2)    member of realized space: yes" in render_report(doc, "text")
        ext = json.loads(render_report(doc, "machine"))["extension"]
        assert ext["corrected_class"] == ["1/2", "1/2"] and ext["corrected_class_member"] is True


def test_a_parsed_class_is_not_converted_again():
    s = parse_scenario(serialize_scenario(builtin_scenario("a2")).replace(
        "corrected_class: 3 3", "corrected_class: 1/2 -3"))
    again = ScenarioFile(s.name, s.dim, s.gram, s.cycles, corrected_class=s.corrected_class)
    for other in (again.corrected_class, to_package(s).corrected_class):
        assert all(map(operator.is_, other, s.corrected_class))


@pytest.mark.parametrize("rows", [
    [(1, k % 5) for k in range(125)],
    [("1/2", str(k % 5)) for k in range(125)],
], ids=["int", "text"])
def test_from_rows_builds_no_fraction(monkeypatch, rows):
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    m = Matrix.from_rows(rows, cols=2)
    assert made == []
    assert Fraction(m.num[1][1], m.den) == Fraction(rows[1][1]) and made


@pytest.mark.parametrize("size", [125.0, "125", Fraction(125)])
def test_orbit_sizes_must_be_ints(size):
    message = f"orbit sizes must be positive integers, got {size!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        builtin_scenario("quintic_orbits", orbit_sizes=[size])
