"""Scenario files: a hand-writable exact-input format, plus built-in models.

A scenario is a line-oriented text document.  Scalar fields are single
``key: value`` lines; grid fields (``gram``, ``cycles``, ``incidence``,
``partition``) are a bare ``key:`` line followed by one row per line,
entries whitespace-separated.  Blank lines and ``#`` comments are ignored.
Rationals use the canonical text form (``-3/7``, ``0``, ``5``; ``2/4`` is
accepted and reduced).  Node indices in files are 1-based; conversion to
0-based internals happens here and only here.

Unknown fields are rejected unless parsing in lax mode, so a typo in a
field name cannot silently drop mathematical input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Matrix, Vector, format_rational, parse_rational
from .pairing import NotSkewSymmetricError, PairingSpace, standard_symplectic
from .blocks import BlockDecomposition
from .package import LightSectorPackage, assemble

FORMAT_VERSION = 1

BUILTIN_NAMES = ("a1xa1", "a2", "three_node", "quintic_orbits")

_SCALAR_FIELDS = ("format_version", "name", "dim", "corrected_class", "notes")
_GRID_FIELDS = ("gram", "cycles", "incidence", "partition")
_FIELD_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:(.*)$")
_UINT = re.compile(r"[0-9]+")


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate; carries line/field context."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed and canonicalized scenario data (partition kept 1-based, as in files)."""

    name: str
    dim: int
    gram: Matrix
    cycles: tuple[Vector, ...]
    incidence: Matrix | None = None
    partition: tuple[tuple[int, ...], ...] | None = None
    corrected_class: Vector | None = None
    notes: str | None = None
    format_version: int = FORMAT_VERSION

    @property
    def r(self) -> int:
        return len(self.cycles)


def _parse_grid(rows: list[tuple[int, str]]) -> list[tuple[int, list[str]]]:
    return [(ln, text.split()) for ln, text in rows]


def _rational_row(tokens: list[str], line: int, field: str) -> Vector:
    out = []
    for tok in tokens:
        try:
            out.append(parse_rational(tok))
        except ValueError as exc:
            raise ScenarioError(str(exc), line=line, field=field) from exc
    return tuple(out)


def _uint(text: str, line: int, field: str, what: str) -> int:
    # int() alone also takes signs, underscores and non-ASCII digits.
    if not _UINT.fullmatch(text):
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ScenarioError(f"{what} must be a nonnegative integer, got {shown!r}",
                            line=line, field=field)
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise ScenarioError(f"{what} is too large ({len(text)} digits)",
                            line=line, field=field) from exc


def parse_scenario(text: str, strict: bool = True) -> ScenarioFile:
    """Parse scenario text, reporting the line and field of the first error."""
    scalars: dict[str, tuple[int, str]] = {}
    grids: dict[str, list[tuple[int, str]]] = {}
    headers: dict[str, int] = {}  # line of each grid's "key:" line
    current_grid: str | None = None
    skipping_unknown = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _FIELD_LINE.match(line)
        if m:
            key, rest = m.group(1), m.group(2).strip()
            skipping_unknown = False
            current_grid = None
            if key in _GRID_FIELDS:
                if key in grids:
                    raise ScenarioError("duplicate field", line=lineno, field=key)
                if rest:
                    raise ScenarioError(
                        "grid field takes rows on following lines", line=lineno, field=key
                    )
                grids[key] = []
                headers[key] = lineno
                current_grid = key
            elif key in _SCALAR_FIELDS:
                if key in scalars:
                    raise ScenarioError("duplicate field", line=lineno, field=key)
                scalars[key] = (lineno, rest)
            else:
                if strict:
                    raise ScenarioError("unknown field", line=lineno, field=key)
                skipping_unknown = True
        else:
            if skipping_unknown:
                continue
            if current_grid is None:
                raise ScenarioError(f"unexpected content {line!r}", line=lineno)
            grids[current_grid].append((lineno, line))

    for required in ("format_version", "name", "dim", "gram", "cycles"):
        if required not in scalars and required not in grids:
            raise ScenarioError("required field missing", field=required)

    ver_line, ver_text = scalars["format_version"]
    if ver_text != str(FORMAT_VERSION):
        raise ScenarioError(
            f"unsupported format_version {ver_text!r} (expected {FORMAT_VERSION})",
            line=ver_line,
            field="format_version",
        )

    name_line, name = scalars["name"]
    if not name:
        raise ScenarioError("name must be nonempty", line=name_line, field="name")

    dim_line, dim_text = scalars["dim"]
    dim = _uint(dim_text, dim_line, "dim", "dim")

    gram_rows = [
        _rational_row(tokens, ln, "gram")
        for ln, tokens in _parse_grid(grids["gram"])
    ]
    if len(gram_rows) != dim:
        raise ScenarioError(f"expected {dim} gram rows, found {len(gram_rows)}",
                            line=headers["gram"], field="gram")
    for (ln, _), row in zip(grids["gram"], gram_rows):
        if len(row) != dim:
            raise ScenarioError(f"gram row has {len(row)} entries, expected {dim}",
                                line=ln, field="gram")
    gram = Matrix.from_rows(gram_rows, cols=dim)
    try:
        PairingSpace(gram)
    except NotSkewSymmetricError as exc:
        raise ScenarioError(str(exc), line=grids["gram"][exc.i][0], field="gram") from exc

    cycle_rows = []
    for ln, tokens in _parse_grid(grids["cycles"]):
        row = _rational_row(tokens, ln, "cycles")
        if len(row) != dim:
            raise ScenarioError(f"cycle row has {len(row)} entries, expected {dim}",
                                line=ln, field="cycles")
        cycle_rows.append(row)
    cycles = tuple(cycle_rows)
    r = len(cycles)

    incidence: Matrix | None = None
    if "incidence" in grids:
        inc_rows = []
        width: int | None = None
        for ln, tokens in _parse_grid(grids["incidence"]):
            row = _rational_row(tokens, ln, "incidence")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ScenarioError("ragged incidence rows", line=ln, field="incidence")
            inc_rows.append(row)
        if len(inc_rows) != r:
            raise ScenarioError(
                f"expected {r} incidence rows (one per node), found {len(inc_rows)}",
                line=headers["incidence"], field="incidence",
            )
        incidence = Matrix.from_rows(inc_rows, cols=width or 0)

    partition: tuple[tuple[int, ...], ...] | None = None
    if "partition" in grids:
        # Checked here so that each error names a 1-based node and its row's line.
        raw_blocks = []
        seen: set[int] = set()
        for ln, tokens in _parse_grid(grids["partition"]):
            block = tuple(_uint(t, ln, "partition", "partition entry") for t in tokens)
            for k in block:
                if not 1 <= k <= r:
                    raise ScenarioError(f"not a partition of 1..{r}: node {k} out of range",
                                        line=ln, field="partition")
                if k in seen:
                    raise ScenarioError(f"not a partition of 1..{r}: node {k} appears "
                                        "more than once", line=ln, field="partition")
                seen.add(k)
            raw_blocks.append(tuple(sorted(block)))
        if len(seen) != r:
            missing = [k for k in range(1, r + 1) if k not in seen]
            raise ScenarioError(f"not a partition of 1..{r}: does not cover nodes {missing}",
                                field="partition")
        partition = tuple(sorted(raw_blocks))

    corrected_class: Vector | None = None
    if "corrected_class" in scalars:
        cc_line, cc_text = scalars["corrected_class"]
        corrected_class = _rational_row(cc_text.split(), cc_line, "corrected_class")
        if len(corrected_class) != r:
            raise ScenarioError(
                f"corrected_class has {len(corrected_class)} entries, expected {r}",
                line=cc_line, field="corrected_class",
            )

    notes: str | None = None
    if "notes" in scalars:
        notes = scalars["notes"][1]

    return ScenarioFile(
        name=name,
        dim=dim,
        gram=gram,
        cycles=cycles,
        incidence=incidence,
        partition=partition,
        corrected_class=corrected_class,
        notes=notes,
    )


def _grid_lines(rows: Sequence[Sequence[Fraction]]) -> list[str]:
    return [" ".join(format_rational(x) for x in row) for row in rows]


def serialize_scenario(s: ScenarioFile) -> str:
    """Canonical text form; parse_scenario(serialize_scenario(s)) == s."""
    lines = [
        f"format_version: {s.format_version}",
        f"name: {s.name}",
        f"dim: {s.dim}",
        "gram:",
        *_grid_lines(s.gram.entries),
        "cycles:",
        *_grid_lines(s.cycles),
    ]
    if s.incidence is not None:
        lines.append("incidence:")
        lines.extend(_grid_lines(s.incidence.entries))
    if s.partition is not None:
        lines.append("partition:")
        lines.extend(" ".join(str(k) for k in block) for block in s.partition)
    if s.corrected_class is not None:
        lines.append(
            "corrected_class: " + " ".join(format_rational(x) for x in s.corrected_class)
        )
    if s.notes is not None:
        lines.append(f"notes: {s.notes}")
    return "\n".join(lines) + "\n"


def to_package(s: ScenarioFile) -> LightSectorPackage:
    """Assemble the light-sector package described by a scenario."""
    partition = None
    if s.partition is not None:
        partition = BlockDecomposition.from_blocks(
            s.r, [[k - 1 for k in block] for block in s.partition]
        )
    return assemble(PairingSpace(s.gram), s.cycles, incidence=s.incidence,
                    partition=partition, corrected_class=s.corrected_class)


def builtin_scenario(
    name: str,
    coupling: object | None = None,
    orbit_sizes: Sequence[int] | None = None,
    orbit_classes: Sequence[Sequence[object]] | None = None,
) -> ScenarioFile:
    """Construct one of the shipped model configurations.

    a1xa1           two decoupled nodes: zero interaction, full incidence.
    a2              two coupled nodes (coupling defaults to 1, must be nonzero)
                    glued onto the single direction e1+e2.
    three_node      a coupled pair plus one decoupled node, with indicator
                    incidence for blocks {1,2} and {3}.
    quintic_orbits  125 nodes in symmetry orbits (sizes must sum to 125, default
                    five orbits of 25) sharing one class vector per orbit; model
                    data standing in for geometry that is not computed here.
    """
    if name == "a1xa1":
        if coupling is not None or orbit_sizes is not None or orbit_classes is not None:
            raise ValueError("a1xa1 takes no parameters")
        return ScenarioFile(
            name="a1xa1",
            dim=4,
            gram=standard_symplectic(2).gram,
            cycles=(
                (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
            ),
            incidence=Matrix.identity(2),
            partition=((1,), (2,)),
            notes="split two-node model: zero interaction, full realized space",
        )

    if name == "a2":
        if orbit_sizes is not None or orbit_classes is not None:
            raise ValueError("a2 takes only the coupling parameter")
        c = Fraction(coupling) if coupling is not None else Fraction(1)
        if c == 0:
            raise ValueError("a2 coupling must be nonzero")
        return ScenarioFile(
            name="a2",
            dim=2,
            gram=standard_symplectic(1).gram,
            cycles=(
                (Fraction(1), Fraction(0)),
                (Fraction(0), c),
            ),
            incidence=Matrix.from_columns([(1, 1)], rows=2),
            corrected_class=(Fraction(3), Fraction(3)),
            notes=f"interacting two-node model with coupling {format_rational(c)}",
        )

    if name == "three_node":
        if orbit_sizes is not None or orbit_classes is not None:
            raise ValueError("three_node takes only the coupling parameter")
        c = Fraction(coupling) if coupling is not None else Fraction(1)
        if c == 0:
            raise ValueError("three_node coupling must be nonzero")
        return ScenarioFile(
            name="three_node",
            dim=4,
            gram=standard_symplectic(2).gram,
            cycles=(
                (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                (Fraction(0), c, Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
            ),
            incidence=Matrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3),
            partition=((1, 2), (3,)),
            notes=(
                "coupled pair plus decoupled third node; "
                f"coupling {format_rational(c)}"
            ),
        )

    if name == "quintic_orbits":
        if coupling is not None:
            raise ValueError("quintic_orbits does not take a coupling parameter")
        sizes = tuple(orbit_sizes) if orbit_sizes is not None else (25, 25, 25, 25, 25)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("orbit sizes must be positive")
        if sum(sizes) != 125:
            raise ValueError(f"orbit sizes must sum to 125, got {sum(sizes)}")
        b = len(sizes)
        if orbit_classes is None:
            classes = [(Fraction(1), Fraction(beta)) for beta in range(b)]
        else:
            if len(orbit_classes) != b:
                raise ValueError(
                    f"{len(orbit_classes)} orbit classes for {b} orbits"
                )
            classes = [tuple(Fraction(x) for x in v) for v in orbit_classes]
            if any(len(v) != 2 for v in classes):
                raise ValueError("orbit classes must be length-2 vectors")
        r = sum(sizes)
        cycles = []
        partition = []
        node = 1
        for beta, size in enumerate(sizes):
            cycles.extend([classes[beta]] * size)
            partition.append(tuple(range(node, node + size)))
            node += size
        indicator_columns = [
            [1 if k + 1 in block else 0 for k in range(r)] for block in partition
        ]
        return ScenarioFile(
            name="quintic_orbits",
            dim=2,
            gram=standard_symplectic(1).gram,
            cycles=tuple(cycles),
            incidence=Matrix.from_columns(indicator_columns, rows=r),
            partition=tuple(partition),
            notes=(
                f"125-node symmetry-orbit model, {b} orbits of sizes "
                + ",".join(str(n) for n in sizes)
            ),
        )

    raise ValueError(f"unknown builtin scenario {name!r} (choose from {', '.join(BUILTIN_NAMES)})")
