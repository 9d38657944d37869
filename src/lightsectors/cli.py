"""Command-line interface.

Verbs:
  analyze <file>     full package report (text or machine format)
  scenario <name>    emit a built-in scenario file
  verify <file>      run the block-structure checks; exit 0 iff all pass
  selftest           run the built-in invariant suite

Exit codes: 0 success / all checks pass, 1 verification failure,
2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .linalg import DimensionMismatchError, InvariantError, parse_rational
from .pairing import NotSkewSymmetricError, NotSquareError
from .package import BlockSeparationRequiredError, verify_block_structure
from .report import (
    analysis_document,
    render_report,
    verification_document,
    verification_unavailable_document,
)
from .scenarios import (
    _UINT,
    BUILTIN_NAMES,
    ScenarioError,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
    to_package,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _emit(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


def _load_package(path: Path, lax: bool):
    """Parse and assemble one scenario file; an input error names the file."""
    try:
        scenario = parse_scenario(path.read_text(encoding="utf-8"), strict=not lax)
        return scenario, to_package(scenario)
    except InvariantError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.batch:
        directory = Path(args.file)
        files = sorted(directory.glob("*.scenario"))
        if not files:
            print(f"no .scenario files in {directory}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        chunks = []
        # The first bad file stops the batch: exit 2, nothing on stdout.
        for path in files:
            scenario, pkg = _load_package(path, args.lax)
            doc = analysis_document(pkg, scenario.name)
            chunks.append(render_report(doc, args.format))
        if args.format == "machine":
            body = b"[\n" + b",\n".join(c.rstrip(b"\n") for c in chunks) + b"\n]\n"
        else:
            body = b"\n".join(chunks)
        _emit(body, args.out)
        return EXIT_OK
    scenario, pkg = _load_package(Path(args.file), args.lax)
    doc = analysis_document(pkg, scenario.name)
    _emit(render_report(doc, args.format), args.out)
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    coupling = parse_rational(args.coupling) if args.coupling is not None else None
    orbit_sizes = None
    if args.orbits is not None:
        tokens = args.orbits.split(",")
        # The digit rule of dim and partition entries in files.
        bad = next((tok for tok in tokens if not _UINT.fullmatch(tok)), None)
        if bad is not None:
            print(f"--orbits expects comma-separated integers, got {bad!r} in "
                  f"{args.orbits!r}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        orbit_sizes = [int(tok) for tok in tokens]
    scenario = builtin_scenario(args.name, coupling=coupling, orbit_sizes=orbit_sizes)
    _emit(serialize_scenario(scenario).encode("utf-8"), args.emit)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario, pkg = _load_package(Path(args.file), args.lax)
    try:
        report = verify_block_structure(pkg)
    except BlockSeparationRequiredError as exc:
        doc = verification_unavailable_document(scenario.name, exc)
        _emit(render_report(doc, args.format), args.out)
        return EXIT_VERIFICATION_FAILED
    doc = verification_document(scenario.name, report)
    _emit(render_report(doc, args.format), args.out)
    return EXIT_OK if report.overall else EXIT_VERIFICATION_FAILED


def _cmd_selftest(args: argparse.Namespace) -> int:
    return EXIT_OK if run_selftest() else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightsectors",
        description="Exact analysis of finite-node light-sector packages.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="analyze a scenario file")
    p.add_argument("file", help="scenario file, or a directory with --batch")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--lax", action="store_true", help="ignore unknown scenario fields")
    p.add_argument("--batch", action="store_true",
                   help="treat FILE as a directory of .scenario files (name-sorted); "
                        "the first bad file stops the run with exit 2 and no output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scenario", help="emit a built-in scenario")
    p.add_argument("name", choices=BUILTIN_NAMES)
    p.add_argument("--coupling", default=None,
                   help="pair coupling for a2 / three_node (rational, default 1)")
    p.add_argument("--orbits", default=None,
                   help="orbit sizes for quintic_orbits, e.g. 25,25,25,25,25")
    p.add_argument("--emit", default=None, help="write the scenario to this path")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("verify", help="run the block-structure checks")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--lax", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except (
        ScenarioError,
        NotSkewSymmetricError,
        NotSquareError,
        DimensionMismatchError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
