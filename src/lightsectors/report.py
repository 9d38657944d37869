"""Report documents and their text / machine renderings.

An analysis document is a plain dict with frozen key names (listed in the
README); the machine format is its JSON serialization with sorted keys, so
identical inputs yield byte-identical output.  Its bytes equal what
json.dumps writes with an indent of 2 and sorted keys, plus a newline.  A
small writer produces them without the standard library's pure-Python
indent encoder.  It writes a list of string rows (the interaction matrices,
the realized basis) whole, one distinct row at a time, each row written
once however often it repeats, and a list of plain ints as one join, so
each block of a list of blocks is one join.  Nothing is memoized across
sections or calls.
The document's mixing_edges is the atom report's EdgeRows
(AtomSplittingReport.edge_rows(1)), the only place an analysis builds the
edges; the verify path builds none.  Both formats write an EdgeRows node by
node from the runs it keeps: one string per node number, one list of them
per class, and each node's edges one join over the tail of its class's
list, with no cell formatted or type-checked per edge.  A hand-built or
JSON-loaded document's plain list of pairs takes the generic paths.
The text format renders the same data section by section: extension side,
transport side, atom side, blocks.  All node and block indices in documents
and text are 1-based; rationals appear in canonical lowest-terms form.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Sequence

from .atoms import EdgeRows
from .linalg import format_cells, format_rational
from .blocks import (
    BlockDecomposition,
    BlockSeparationViolation,
    NotBlockAdapted,
    VerificationReport,
)
from .package import (
    BlockSeparationRequiredError,
    Classification,
    LightSectorPackage,
    classify,
    verify_block_structure,
)
from .transport import InteractionMatrix

REPORT_VERSION = 1

WORD_CONVENTION = (
    "transport words multiply in word order; acting on column vectors, "
    "the rightmost letter applies first and the leftmost letter last"
)

ReportDocument = dict


def _matrix_cells(lam: InteractionMatrix) -> list[list[str]]:
    # Format each class pairing once, and give each document row its own list.
    rows = [[cells[d] for d in lam.node_class] for cells in format_cells(lam.pairings)]
    return [list(rows[c]) for c in lam.node_class]


def _one_based(blocks: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[k + 1 for k in block] for block in blocks]


def _collapse_text(c: Classification) -> str:
    if c.collapsed_dim is None:
        return "none"
    return f"collapsed to dimension {c.collapsed_dim}"


def _verification_summary(report: VerificationReport) -> dict:
    return {
        "overall": report.overall,
        "checks_total": report.total,
        "checks_failed": len(report.failures),
        "failures": [
            {"name": f.name, "expected": f.expected, "actual": f.actual}
            for f in report.failures
        ],
    }


def analysis_document(pkg: LightSectorPackage, scenario_name: str) -> ReportDocument:
    """Assemble the full analysis report for one package."""
    c = classify(pkg)

    trivial = pkg.cycles.trivial_nodes
    flags = [f"node {k + 1}: homologically trivial (zero cycle)" for k in trivial]
    trivial_set = set(trivial)
    for i, op in enumerate(pkg.transport):
        if op.nilpotent_rank == 0 and i not in trivial_set:
            flags.append(f"node {i + 1}: cycle pairs trivially (identity transport)")
    if pkg.ambient_default:
        flags.append("no gluing data supplied; extension side uses the ambient default")
    if isinstance(pkg.blocks_incidence, NotBlockAdapted):
        flags.append(f"incidence is not block-adapted: {pkg.blocks_incidence.reason}")
    if pkg.partition_matches_incidence is False:
        flags.append(
            "user partition differs from incidence blocks; "
            "block analysis uses the user partition"
        )

    if isinstance(pkg.blocks_incidence, BlockDecomposition):
        incidence_blocks = _one_based(pkg.blocks_incidence.blocks)
        block_adapted: bool | None = True
        not_adapted_reason = None
    elif isinstance(pkg.blocks_incidence, NotBlockAdapted):
        incidence_blocks = None
        block_adapted = False
        not_adapted_reason = pkg.blocks_incidence.reason
    else:
        incidence_blocks = None
        block_adapted = None
        not_adapted_reason = None

    if pkg.partition is None:
        separation = "not attempted"
        violation_text = None
    elif isinstance(pkg.block_classes, BlockSeparationViolation):
        separation = "violated"
        violation_text = pkg.block_classes.describe()
    else:
        separation = "holds"
        violation_text = None

    verification = None
    if pkg.separation_holds:
        verification = _verification_summary(verify_block_structure(pkg))

    doc: ReportDocument = {
        "report_format": "lightsectors.analysis",
        "report_version": REPORT_VERSION,
        "scenario": scenario_name,
        "nodes": pkg.r,
        "pairing_dim": pkg.space.dim,
        "word_convention": WORD_CONVENTION,
        "interaction_matrix": _matrix_cells(pkg.interaction),
        "extension": {
            "ambient_dim": pkg.r,
            "realized_dim": pkg.realized.v_geom.dim,
            "realized_basis": format_cells(pkg.realized.v_geom.basis),
            "ambient_default": pkg.ambient_default,
            "verdict": c.extension_side.value,
            "relation_collapse": _collapse_text(c),
            "corrected_class": (
                None
                if pkg.corrected_class is None
                else [format_rational(x) for x in pkg.corrected_class]
            ),
            "corrected_class_member": pkg.corrected_member,
        },
        "transport": {
            "verdict": c.transport_side.value,
            "nilpotent_ranks": [op.nilpotent_rank for op in pkg.transport],
        },
        "atom": {
            "verdict": c.atom_side.value,
            "mixing_edges": pkg.atom.edge_rows(1),
            "mixing_clusters": _one_based(pkg.atom.clusters),
        },
        "blocks": {
            "incidence_blocks": incidence_blocks,
            "block_adapted": block_adapted,
            "not_block_adapted_reason": not_adapted_reason,
            "partition": (
                None if pkg.partition is None else _one_based(pkg.partition.blocks)
            ),
            "partition_matches_incidence": pkg.partition_matches_incidence,
            "separation": separation,
            "separation_violation": violation_text,
            "block_count": None if pkg.reduced is None else pkg.reduced.r,
            "reduced_matrix": (
                None if pkg.reduced is None else _matrix_cells(pkg.reduced)
            ),
            "residual_verdict": (
                None
                if pkg.blockwise is None
                else ("Split" if pkg.blockwise.is_split else "NonSplit")
            ),
        },
        "verification": verification,
        "flags": flags,
    }
    return doc


def verification_document(
    scenario_name: str, report: VerificationReport
) -> ReportDocument:
    return {
        "report_format": "lightsectors.verification",
        "report_version": REPORT_VERSION,
        "scenario": scenario_name,
        **_verification_summary(report),
    }


def verification_unavailable_document(
    scenario_name: str, exc: BlockSeparationRequiredError
) -> ReportDocument:
    doc = verification_document(scenario_name, VerificationReport(0, ()))
    doc["overall"] = False
    doc["not_applicable"] = str(exc)
    return doc


def _render_matrix_text(cells: list[list[str]]) -> list[str]:
    if not cells or not cells[0]:
        return ["  (empty)"]
    # Rows repeat when cycle classes do: measure and render each distinct row once.
    keys = list(map(tuple, cells))
    distinct = dict.fromkeys(keys)
    widths = [max(map(len, column)) for column in zip(*distinct)]
    for row in distinct:
        distinct[row] = "  " + "  ".join(map(str.rjust, row, widths))
    return list(map(distinct.__getitem__, keys))


def _edge_runs(edges: EdgeRows, head: str, mid: str, tail: str, sep: str) -> str:
    """sep.join(head + str(i) + mid + str(j) + tail for (i, j) in edges),
    written node by node from the runs: each node number is formatted once,
    and each node's edges are one join over the tail of its class's run."""
    base = edges.base
    names = [str(n) for n in range(base, base + len(edges.node_class))]
    runs = [[names[j - base] for j in run] for run in edges.runs]
    pieces = []
    for name, c, k in zip(names, edges.node_class, edges.starts):
        run = runs[c]
        if k < len(run):
            first = head + name + mid
            pieces.append(first + (tail + sep + first).join(run[k:]) + tail)
    return sep.join(pieces)


def _edges_text(edges: Sequence[Sequence[int]]) -> str:
    if isinstance(edges, EdgeRows):
        return _edge_runs(edges, "(", ",", ")", " ")
    # Unpacking raises ValueError for a row that is not a pair.
    return " ".join([f"({i},{j})" for i, j in edges])


def _cluster_text(clusters: Sequence[Sequence[int]]) -> str:
    if not clusters:
        return "(none)"
    return " ".join("{" + ",".join(str(k) for k in c) + "}" for c in clusters)


def _verification_lines(summary: dict) -> list[str]:
    status = "PASS" if summary["overall"] else "FAIL"
    return [
        f"verification: {status} "
        f"({summary['checks_total']} checks, {summary['checks_failed']} failed)",
        *(
            f"  FAIL {f['name']}: expected {f['expected']}, got {f['actual']}"
            for f in summary["failures"]
        ),
    ]


def _render_analysis_text(doc: ReportDocument) -> str:
    ext = doc["extension"]
    trans = doc["transport"]
    atom = doc["atom"]
    blocks = doc["blocks"]
    lines = [
        f"== light-sector package: {doc['scenario']} ==",
        f"nodes: {doc['nodes']}    pairing space dim: {doc['pairing_dim']}",
        f"convention: {doc['word_convention']}",
        "",
        "-- corrected-extension side --",
        f"ambient dim: {ext['ambient_dim']}    realized dim: {ext['realized_dim']}",
    ]
    if ext["realized_basis"]:
        lines.append("realized basis:")
        lines.extend("  (" + " ".join(v) + ")" for v in ext["realized_basis"])
    if ext["ambient_default"]:
        lines.append("extension: ambient (no gluing data supplied)")
    else:
        collapse = ext["relation_collapse"]
        if collapse == "none":
            lines.append(f"extension: {ext['verdict']} (no collapse)")
        else:
            lines.append(
                f"extension: {ext['verdict']} "
                f"(collapsed {ext['ambient_dim']} -> {ext['realized_dim']})"
            )
    if ext["corrected_class"] is not None:
        member = "yes" if ext["corrected_class_member"] else "NO"
        lines.append(
            "corrected class: (" + " ".join(ext["corrected_class"]) + ")"
            f"    member of realized space: {member}"
        )
    lines += [
        "",
        "-- transport side --",
        "interaction matrix:",
        *_render_matrix_text(doc["interaction_matrix"]),
        f"transport: {trans['verdict']}",
        "",
        "-- atom side --",
        f"atom: {atom['verdict']}",
    ]
    if atom["mixing_edges"]:
        lines.append("mixing edges: " + _edges_text(atom["mixing_edges"]))
    lines.append(
        "mixing clusters (artifact-derived): " + _cluster_text(atom["mixing_clusters"])
    )
    lines += ["", "-- blocks --"]
    if blocks["incidence_blocks"] is not None:
        lines.append(
            "relation blocks (incidence side): "
            + _cluster_text(blocks["incidence_blocks"])
        )
    elif blocks["block_adapted"] is False:
        lines.append(
            f"relation blocks (incidence side): not block-adapted "
            f"({blocks['not_block_adapted_reason']})"
        )
    else:
        lines.append("relation blocks (incidence side): no incidence data")
    if blocks["partition"] is None:
        lines.append("block separation (transport side): no partition supplied")
    else:
        lines.append("user partition: " + _cluster_text(blocks["partition"]))
        if blocks["separation"] == "holds":
            lines.append("block separation (transport side): holds")
            lines.append(f"surviving block count: {blocks['block_count']}")
            lines.append("reduced interaction matrix:")
            lines.extend(_render_matrix_text(blocks["reduced_matrix"]))
            lines.append(f"residual block interaction: {blocks['residual_verdict']}")
        else:
            lines.append(
                "block separation (transport side): VIOLATED "
                f"({blocks['separation_violation']})"
            )
    if doc["verification"] is not None:
        lines += ["", "-- block-structure verification --"]
        lines += _verification_lines(doc["verification"])
    if doc["flags"]:
        lines += ["", "-- flags --"]
        lines.extend(f"* {flag}" for flag in doc["flags"])
    return "\n".join(lines) + "\n"


def _render_verification_text(doc: ReportDocument) -> str:
    lines = [f"== block-structure verification: {doc['scenario']} =="]
    if "not_applicable" in doc:
        lines.append(f"not applicable: {doc['not_applicable']}")
        return "\n".join(lines) + "\n"
    lines += _verification_lines(doc)
    return "\n".join(lines) + "\n"


_STR = {str}
_INT = {int}
_LIST = {list}
# json.dumps(x) with its default arguments, without re-reading them per call.
_encode = json.JSONEncoder().encode
# json.dumps(s) of a plain str: the function the encoder calls for one when
# ensure_ascii is on, as it is by default.
_encode_str = json.encoder.encode_basestring_ascii


def _str_rows(rows: list[list], indent: str) -> str | None:
    """The rows, non-empty lists of plain strs, as json writes them nested at
    indent and joined by its separator, each distinct row checked and written
    once; None when a cell is unhashable or not a plain str."""
    keys = list(map(tuple, rows))
    try:
        distinct = dict.fromkeys(keys)
    except TypeError:  # a list or dict cell
        return None
    if set(map(type, chain.from_iterable(distinct))) != _STR:
        return None
    deeper = indent + "  "
    head, join, tail = "[\n" + deeper, (",\n" + deeper).join, "\n" + indent + "]"
    for row in distinct:
        distinct[row] = head + join(map(_encode_str, row)) + tail
    return (",\n" + indent).join(map(distinct.__getitem__, keys))


def _write_json(obj: object, indent: str, out: list[str]) -> None:
    """Append obj as json.dumps writes it with an indent of 2 and sorted keys,
    nested at indent; keys are strings, as in every report document.

    An EdgeRows is written node by node from its runs (_edge_runs).  A list
    of plain ints (bool excluded) is one join.  A list of non-empty lists
    whose first cell is a str is written whole by _str_rows when every cell
    is a plain str.  A list written whole goes to out as three pieces, so its
    body is not copied into a bracketed string.  Any other list goes item by
    item; a list of int rows is thus one join per row.  A plain int is its
    str, as json writes it, and a str in a row of _str_rows goes through the
    library's string encoder; every other scalar and every key goes through
    its full encoder.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            out.append(sep + _encode(key) + ": ")
            _write_json(obj[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        body = None
        if isinstance(obj, EdgeRows):
            deeper = inner + "  "
            body = _edge_runs(obj, "[\n" + deeper, ",\n" + deeper, "\n" + inner + "]", sep)
        else:
            types = set(map(type, obj))
            if types == _INT:
                body = sep.join(map(str, obj))
            elif types == _LIST and all(obj) and type(obj[0][0]) is str:
                body = _str_rows(obj, inner)
        if body is not None:
            out += ("[\n" + inner, body, "\n" + indent + "]")
            return
        out.append("[\n" + inner)
        _write_json(obj[0], inner, out)
        for item in obj[1:]:
            out.append(sep)
            _write_json(item, inner, out)
        out.append("\n" + indent + "]")
    elif type(obj) is int:
        out.append(str(obj))
    else:
        out.append(_encode(obj))


def render_report(doc: ReportDocument, format: str = "text") -> bytes:
    """Render a document as UTF-8 bytes in 'text' or 'machine' (JSON) format."""
    if format == "machine":
        out: list[str] = []
        _write_json(doc, "", out)
        out.append("\n")
        return "".join(out).encode("utf-8")
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    if doc.get("report_format") == "lightsectors.verification":
        return _render_verification_text(doc).encode("utf-8")
    return _render_analysis_text(doc).encode("utf-8")
