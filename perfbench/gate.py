"""Correctness gate run before timing: reports must be byte-identical to the seed.

Covers the four built-in scenarios and tests/data/four_node_blocks.scenario,
taken in-process through ``cli.main`` exactly as a user runs them; the a2
report must equal tests/data/a2_report.golden.json; and a fixed subset of each
workload's cases (built with DIGEST_SEED) must hash to the digests in
digests.json, recorded from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from lightsectors import cli
from lightsectors.scenarios import BUILTIN_NAMES

from workloads import deck, run_case

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DIGEST_SEED = 0
DIGEST_CASES = {"property_verify": 12, "orbit_analyze": 1, "wide_verify": 1}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_reports(workdir: Path) -> tuple[dict[str, bytes], list[str]]:
    """Machine reports through the CLI, keyed by command; plus exit-code errors."""
    reports, errors = {}, []
    jobs = []
    for name in BUILTIN_NAMES:
        path = workdir / f"{name}.scenario"
        if cli.main(["scenario", name, "--emit", str(path)]) != 0:
            errors.append(f"scenario {name}: nonzero exit")
        jobs.append(("analyze", name, path))
    fixture = DATA / "four_node_blocks.scenario"
    jobs += [("analyze", "four_node_blocks", fixture), ("verify", "four_node_blocks", fixture)]
    for verb, name, path in jobs:
        out = workdir / f"{verb}-{name}.json"
        code = cli.main([verb, str(path), "--format", "machine", "--out", str(out)])
        if code != 0:
            errors.append(f"{verb} {name}: exit {code}")
        reports[f"{verb} {name}"] = out.read_bytes() if out.exists() else b""
    return reports, errors


def subset_digests(workload: str) -> dict[str, list[str]]:
    digests = {}
    for case in deck(workload, DIGEST_SEED)[: DIGEST_CASES[workload]]:
        out = run_case(case)
        digests[case.name] = [sha256(out.text), sha256(out.machine)]
    return digests


def run_gate(workload: str) -> tuple[int, list[str]]:
    """Returns (items checked, mismatches)."""
    recorded = json.loads(DIGESTS.read_text())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        reports, errors = cli_reports(Path(tmp))
    for key, data in reports.items():
        if sha256(data) != recorded["cli"].get(key):
            errors.append(f"{key}: machine report differs from the seed commit")
    golden = (DATA / "a2_report.golden.json").read_bytes()
    if reports.get("analyze a2") != golden:
        errors.append("analyze a2: machine report differs from a2_report.golden.json")
    subset = subset_digests(workload)
    for name, digests in subset.items():
        if digests != recorded[workload].get(name):
            errors.append(f"{workload} {name}: report digests differ from the seed commit")
    return len(reports) + 1 + len(subset), errors
