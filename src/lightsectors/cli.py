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
from contextlib import contextmanager
from pathlib import Path

from .linalg import InvariantError, parse_rational
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


@contextmanager
def _loaded(path: Path, lax: bool):
    """Parse and assemble one file; an error raised in the block names it: an
    input error stays one (exit 2), any other is internal (exit 3)."""
    data = path.read_bytes()  # an OSError names the file itself
    try:
        scenario = parse_scenario(data.decode("utf-8"), strict=not lax)
        yield scenario, to_package(scenario)
    except InvariantError as exc:
        raise InvariantError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except Exception as exc:
        raise InvariantError(f"{path}: {exc!r}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    path = Path(args.file)
    files = sorted(path.glob("*.scenario")) if args.batch else [path]
    if not files:
        print(f"no .scenario files in {path}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    chunks = []
    # The first bad file stops the batch: exit 2 or 3, nothing on stdout.
    for file in files:
        with _loaded(file, args.lax) as (scenario, pkg):
            chunks.append(render_report(analysis_document(pkg, scenario.name), args.format))
    if args.batch and args.format == "machine":
        body = b"[\n" + b",\n".join(c.rstrip(b"\n") for c in chunks) + b"\n]\n"
    else:
        body = b"\n".join(chunks)
    _emit(body, args.out)
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
    with _loaded(Path(args.file), args.lax) as (scenario, pkg):
        try:
            report = verify_block_structure(pkg)
        except BlockSeparationRequiredError as exc:
            doc = verification_unavailable_document(scenario.name, exc)
            code = EXIT_VERIFICATION_FAILED
        else:
            doc = verification_document(scenario.name, report)
            code = EXIT_OK if report.overall else EXIT_VERIFICATION_FAILED
        data = render_report(doc, args.format)
    _emit(data, args.out)
    return code


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
    except (OSError, ValueError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
