"""Scenario files: a hand-writable exact-input format, plus built-in models.

A scenario is a line-oriented text document.  Scalar fields are single
``key: value`` lines; grid fields (``gram``, ``cycles``, ``incidence``,
``partition``) are a bare ``key:`` line followed by one row per line,
entries whitespace-separated; one reader takes each rational grid to a
``Matrix``.  Blank lines and ``#`` comments are ignored.
Rationals use the canonical text form (``-3/7``, ``0``, ``5``; ``2/4`` is
accepted and reduced).  Node indices in files are 1-based; conversion between
them and the 0-based internals happens here and only here (``to_package``,
``serialize_scenario`` and ``block_fields``).

Unknown fields are rejected unless parsing in lax mode, so a typo in a
field name cannot silently drop mathematical input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise
from math import lcm
from typing import Sequence

from .linalg import Matrix, Vector, cleared, format_cells, format_rational, vector
from .pairing import CycleConfiguration, NotSkewSymmetricError, PairingSpace, standard_symplectic
from .blocks import BlockDecomposition
from .package import LightSectorPackage, assemble

FORMAT_VERSION = 1

# The parameters each built-in takes, by builtin_scenario's keyword names.
_BUILTIN_PARAMS = {"a1xa1": (), "a2": ("coupling",), "three_node": ("coupling",),
                   "quintic_orbits": ("orbit_sizes", "orbit_classes")}
BUILTIN_NAMES = tuple(_BUILTIN_PARAMS)

_SCALAR_FIELDS = ("format_version", "name", "dim", "corrected_class", "notes")
_GRID_FIELDS = ("gram", "cycles", "incidence", "partition")
_FIELD_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:(.*)$")
_UINT = re.compile(r"[0-9]+")
_INT_ROW = re.compile(r"-?[0-9]+(?:\s+-?[0-9]+)*")
_ROW_NAMES = {"gram": "gram row", "cycles": "cycle row"}  # for row-length errors


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
    """Parsed and canonicalized scenario data (partition kept 1-based, as in files);
    ``cycles`` is the r x dim cycle matrix, converted once if given as rows,
    ``partition`` is converted to tuples if given as lists, and
    ``corrected_class`` is read by ``vector``, as a file's cells are."""

    name: str
    dim: int
    gram: Matrix
    cycles: Matrix
    incidence: Matrix | None = None
    partition: tuple[tuple[int, ...], ...] | None = None
    corrected_class: Vector | None = None
    notes: str | None = None
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        if not isinstance(self.cycles, Matrix):
            object.__setattr__(self, "cycles", Matrix.from_rows(self.cycles, cols=self.dim))
        p = self.partition
        if p is not None and not (type(p) is tuple and all(type(b) is tuple for b in p)):
            object.__setattr__(self, "partition", tuple(map(tuple, p)))
        if self.corrected_class is not None:
            object.__setattr__(self, "corrected_class", vector(self.corrected_class))

    @property
    def r(self) -> int:
        return self.cycles.rows

    @cached_property
    def space(self) -> PairingSpace:
        """The pairing space of gram, checked once: parse_scenario seeds it
        with the space it checked, and a hand-built file checks on first read."""
        return PairingSpace(self.gram)


def _read_row(text: str) -> tuple[tuple[int, ...], int]:
    """One row of a rational grid as integers over the lcm of its denominators.

    A row of plain integers, the common case, is matched whole and read with
    int(); any other row, valid or not, is read token by token by cleared, so
    that every error names the same token with the same message.  The row
    pattern allows only ASCII digits with an optional '-', so int() sees no
    '+', '_' or other digits, and its whitespace class is the characters
    str.split() splits on.
    """
    if _INT_ROW.fullmatch(text):
        return tuple([int(t) for t in text.split()]), 1
    return cleared(text.split())


def _read_grid(rows: list[tuple[int, str]], field: str, width: int | None = None) -> Matrix:
    """The (line, text) rows of a rational grid as one Matrix over the lcm of
    its denominators.  Each row must have width entries, or with no width as
    many as the first row; an error names the row's line and the field.

    Each distinct row text is read once, at its first line, so a read error
    names the line it would name if every line were read; the width check
    runs on every line.  Equal texts share one integer row.
    """
    read: dict[str, tuple[tuple[int, ...], int]] = {}
    ragged = width is None
    for ln, text in rows:
        got = read.get(text)
        if got is None:
            try:
                got = read[text] = _read_row(text)
            except ValueError as exc:
                raise ScenarioError(str(exc), line=ln, field=field) from exc
        n = len(got[0])
        if width is None:
            width = n
        elif n != width:
            what = f"{_ROW_NAMES.get(field, field)} has {n} entries, expected {width}"
            raise ScenarioError(f"ragged {field} rows" if ragged else what, line=ln, field=field)
    den = lcm(*(d for _, d in read.values()))
    scaled = {text: row if d == den else tuple([x * (den // d) for x in row])
              for text, (row, d) in read.items()}
    return Matrix(len(rows), width or 0, tuple([scaled[text] for _, text in rows]), den)


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
    # The rows of the grid field being read: None after a scalar field, and
    # a list that is dropped after an unknown field under lax parsing.
    rows: list[tuple[int, str]] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # A field line holds a ':', a grid row never does.
        m = _FIELD_LINE.match(line) if ":" in line else None
        if m:
            key, rest = m.group(1), m.group(2).strip()
            rows = None
            if key in _GRID_FIELDS:
                if key in grids:
                    raise ScenarioError("duplicate field", line=lineno, field=key)
                if rest:
                    raise ScenarioError(
                        "grid field takes rows on following lines", line=lineno, field=key
                    )
                rows = grids[key] = []
                headers[key] = lineno
            elif key in _SCALAR_FIELDS:
                if key in scalars:
                    raise ScenarioError("duplicate field", line=lineno, field=key)
                scalars[key] = (lineno, rest)
            elif strict:
                raise ScenarioError("unknown field", line=lineno, field=key)
            else:
                rows = []
        elif rows is None:
            raise ScenarioError(f"unexpected content {line!r}", line=lineno)
        else:
            rows.append((lineno, line))

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

    if len(grids["gram"]) != dim:
        raise ScenarioError(f"expected {dim} gram rows, found {len(grids['gram'])}",
                            line=headers["gram"], field="gram")
    gram = _read_grid(grids["gram"], "gram", dim)
    try:
        space = PairingSpace(gram)
    except NotSkewSymmetricError as exc:
        raise ScenarioError(str(exc), line=grids["gram"][exc.i][0], field="gram") from exc

    cycles = _read_grid(grids["cycles"], "cycles", dim)
    r = cycles.rows

    incidence: Matrix | None = None
    if "incidence" in grids:
        incidence = _read_grid(grids["incidence"], "incidence")
        if incidence.rows != r:
            raise ScenarioError(
                f"expected {r} incidence rows (one per node), found {incidence.rows}",
                line=headers["incidence"], field="incidence",
            )

    partition: tuple[tuple[int, ...], ...] | None = None
    if "partition" in grids:
        # Checked here so that each error names a 1-based node and its row's line.
        raw_blocks = []
        seen: set[int] = set()
        for ln, text in grids["partition"]:
            block = tuple([_uint(t, ln, "partition", "partition entry") for t in text.split()])
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
        corrected_class = _read_grid([scalars["corrected_class"]], "corrected_class", r).entries[0]

    notes: str | None = None
    if "notes" in scalars:
        notes = scalars["notes"][1]

    scenario = ScenarioFile(
        name=name,
        dim=dim,
        gram=gram,
        cycles=cycles,
        incidence=incidence,
        partition=partition,
        corrected_class=corrected_class,
        notes=notes,
    )
    vars(scenario)["space"] = space  # seeds the cached_property
    return scenario


def _grid_lines(field: str, m: Matrix) -> list[str]:
    if m.rows and not m.cols:  # a row is a line of entries: no line holds an empty one
        raise ValueError(f"cannot serialize field '{field}': {m.rows} rows of no entries")
    return [f"{field}:", *map(" ".join, format_cells(m))]


def _scalar_line(field: str, text: str) -> str:
    # parse_scenario reads a scalar back as the rest of one line, stripped.
    if len(text.splitlines()) > 1 or text != text.strip():
        raise ValueError(f"cannot serialize field '{field}': {text!r} would not read back")
    return f"{field}: {text}"


def serialize_scenario(s: ScenarioFile) -> str:
    """Canonical text form; parse_scenario(serialize_scenario(s)) == s.  A
    ValueError names a field that would not read back: a format_version
    other than FORMAT_VERSION, an empty name, a name or notes not one
    stripped line, a negative dim, a gram that is not dim x dim or not skew,
    cycles not dim wide, an incidence without one row per node (or with
    columns but no rows, whose width reading cannot recover), a grid whose
    rows have no entries, a partition that is not a BlockDecomposition of
    1..r (sorted members, blocks by least member, each node once), or a
    corrected_class whose length is not r."""
    if s.format_version != FORMAT_VERSION:
        raise ValueError(f"cannot serialize field 'format_version': {s.format_version!r} "
                         f"is not {FORMAT_VERSION}")
    if not s.name:
        raise ValueError("cannot serialize field 'name': it is empty")
    if s.dim < 0:
        raise ValueError(f"cannot serialize field 'dim': {s.dim} is negative")
    if (s.gram.rows, s.gram.cols) != (s.dim, s.dim):
        raise ValueError(f"cannot serialize field 'gram': it is {s.gram.rows}x{s.gram.cols}, "
                         f"not {s.dim}x{s.dim}")
    try:
        s.space  # the reader's own skew check
    except NotSkewSymmetricError as exc:
        raise ValueError(f"cannot serialize field 'gram': {exc}") from exc
    if s.cycles.cols != s.dim:
        raise ValueError(f"cannot serialize field 'cycles': {s.cycles.cols} entries "
                         f"per row, not {s.dim}")
    if s.incidence is not None and (s.incidence.rows != s.r or not s.r and s.incidence.cols):
        raise ValueError(f"cannot serialize field 'incidence': it is {s.incidence.rows}x"
                         f"{s.incidence.cols}, for {s.r} nodes")
    if s.partition is not None:
        try:
            BlockDecomposition(s.r, tuple(tuple(k - 1 for k in block) for block in s.partition))
        except ValueError as exc:
            raise ValueError(f"cannot serialize field 'partition': it is not a sorted "
                             f"partition of 1..{s.r}") from exc
    if s.corrected_class is not None and len(s.corrected_class) != s.r:
        raise ValueError(f"cannot serialize field 'corrected_class': "
                         f"{len(s.corrected_class)} entries for {s.r} nodes")
    lines = [
        f"format_version: {s.format_version}",
        _scalar_line("name", s.name),
        f"dim: {s.dim}",
        *_grid_lines("gram", s.gram),
        *_grid_lines("cycles", s.cycles),
    ]
    if s.incidence is not None:
        lines.extend(_grid_lines("incidence", s.incidence))
    if s.partition is not None:
        lines.append("partition:")
        lines.extend(" ".join(str(k) for k in block) for block in s.partition)
    if s.corrected_class is not None:
        lines.append(
            "corrected_class: " + " ".join(format_rational(x) for x in s.corrected_class)
        )
    if s.notes is not None:
        lines.append(_scalar_line("notes", s.notes))
    return "\n".join(lines) + "\n"


def to_package(s: ScenarioFile) -> LightSectorPackage:
    """Assemble the light-sector package described by a scenario."""
    partition = None if s.partition is None else BlockDecomposition.from_blocks(
        s.r, [[k - 1 for k in block] for block in s.partition])
    return assemble(s.space, CycleConfiguration(s.space, s.cycles), incidence=s.incidence,
                    partition=partition, corrected_class=s.corrected_class)


def block_fields(part: BlockDecomposition) -> dict[str, object]:
    """A partition as a file's fields: its indicator incidence and its blocks, 1-based."""
    return {"incidence": part.indicator,
            "partition": tuple(tuple(k + 1 for k in block) for block in part.blocks)}


def builtin_scenario(
    name: str,
    coupling: object | None = None,
    orbit_sizes: Sequence[int] | None = None,
    orbit_classes: Sequence[Sequence[object]] | None = None,
) -> ScenarioFile:
    """Construct one of the shipped model configurations; _BUILTIN_PARAMS
    names the parameters each takes, and any other given raises ValueError.

    a1xa1           two decoupled nodes: zero interaction, full incidence.
    a2              two coupled nodes (coupling defaults to 1, must be nonzero)
                    glued onto the single direction e1+e2.
    three_node      a coupled pair plus one decoupled node, with indicator
                    incidence for blocks {1,2} and {3}; coupling as for a2.
    quintic_orbits  125 nodes in symmetry orbits (sizes must sum to 125, default
                    five orbits of 25) sharing one class vector per orbit; model
                    data standing in for geometry that is not computed here.
    """
    if name not in _BUILTIN_PARAMS:
        raise ValueError(f"unknown builtin scenario {name!r} "
                         f"(choose from {', '.join(BUILTIN_NAMES)})")
    given = {"coupling": coupling, "orbit_sizes": orbit_sizes, "orbit_classes": orbit_classes}
    for param, value in given.items():
        if value is not None and param not in _BUILTIN_PARAMS[name]:
            raise ValueError(f"{name} does not take the {param} parameter")
    # The coupling of a2 and three_node, read as a file's rational cell.
    (c,) = vector([1 if coupling is None else coupling])
    if c == 0:
        raise ValueError(f"{name} coupling must be nonzero")

    if name == "a1xa1":
        return ScenarioFile(
            name="a1xa1",
            dim=4,
            gram=standard_symplectic(2).gram,
            cycles=((1, 0, 0, 0), (0, 0, 1, 0)),
            **block_fields(BlockDecomposition(2, ((0,), (1,)))),
            notes="split two-node model: zero interaction, full realized space",
        )

    if name == "a2":
        return ScenarioFile(
            name="a2",
            dim=2,
            gram=standard_symplectic(1).gram,
            cycles=((1, 0), (0, c)),
            incidence=block_fields(BlockDecomposition(2, ((0, 1),)))["incidence"],
            corrected_class=(3, 3),
            notes=f"interacting two-node model with coupling {format_rational(c)}",
        )

    if name == "three_node":
        return ScenarioFile(
            name="three_node",
            dim=4,
            gram=standard_symplectic(2).gram,
            cycles=((1, 0, 0, 0), (0, c, 0, 0), (0, 0, 1, 0)),
            **block_fields(BlockDecomposition(3, ((0, 1), (2,)))),
            notes=(
                "coupled pair plus decoupled third node; "
                f"coupling {format_rational(c)}"
            ),
        )

    # quintic_orbits
    sizes = tuple(orbit_sizes) if orbit_sizes is not None else (25, 25, 25, 25, 25)
    bad = next((n for n in sizes if not isinstance(n, int) or n < 1), None)
    if bad is not None:
        raise ValueError(f"orbit sizes must be positive integers, got {bad!r}")
    if sum(sizes) != 125:
        raise ValueError(f"orbit sizes must sum to 125, got {sum(sizes)}")
    b = len(sizes)
    classes = [(1, beta) for beta in range(b)] if orbit_classes is None else list(orbit_classes)
    if len(classes) != b:
        raise ValueError(f"{len(classes)} orbit classes for {b} orbits")
    if any(len(v) != 2 for v in classes):
        raise ValueError("orbit classes must be length-2 vectors")
    bounds = pairwise(accumulate(sizes, initial=0))
    part = BlockDecomposition(125, tuple(tuple(range(lo, hi)) for lo, hi in bounds))
    return ScenarioFile(
        name="quintic_orbits",
        dim=2,
        gram=standard_symplectic(1).gram,
        cycles=tuple(classes[beta] for beta in part.owner),
        **block_fields(part),
        notes=(
            f"125-node symmetry-orbit model, {b} orbits of sizes "
            + ",".join(str(n) for n in sizes)
        ),
    )
