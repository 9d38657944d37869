#!/usr/bin/env python3
"""Benchmark of the lightsectors pipeline on seeded workloads.

One run:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
      [--trace-out PATH]
All workloads, one process each, with a table of every metric:
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
Exact-count self-check (two traced runs with the same seed must agree):
  python3 perfbench/run.py --check-counts [--workload NAME] [--seed N]

See perfbench/README.md.  The last line of a run's standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lightsectors  # noqa: E402

if not Path(lightsectors.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"benchmark needs lightsectors from {ROOT / 'src'}, "
                     f"found {lightsectors.__file__}")

from speed import SpeedProbe  # noqa: E402
from tracing import EXACT_COUNTS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, check_outcome, run_case  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_PASSES = 3  # every case is timed at least this often
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

# Per-layer metrics: self time per case of these spans, in s/case.
SPAN_METRICS = (
    "linalg.matmul", "linalg.rref", "transport.commutator",
    "transport.commutator_closed_form", "transport.pl_operator",
    "transport.interaction_matrix", "blocks.block_commutator_check",
    "blocks.relation_lattice", "blocks.verify_block_consistency",
    "blocks.check_block_separation", "package.assemble",
    "package.verify_block_structure", "gluing.realized_space", "scenarios.parse",
    "scenarios.to_package", "atoms.atom_splitting", "report.document",
    "report.render_text", "report.render_machine",
)
COUNT_METRICS = ("linalg.matmul.calls", "linalg.matmul.mults", "linalg.rref.calls",
                 "linalg.rref.cells", "blocks.checks_built", "report.bytes_out")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import lightsectors; "
                "print(time.perf_counter() - t)")


def measure_setup(workload: str, seed: int):
    """Import time (fresh processes) plus time to build the deck, over SETUP_REPEATS.

    The plan (which draws to use) is made once and not timed; the build
    (generating and serialising the scenario texts) is timed.  Returns the
    sum of the two medians in wall seconds, the same scaled to the nominal
    machine speed (speed.py), and the deck.
    """
    plan, build = WORKLOADS[workload]
    cases = plan(seed)
    speed = SpeedProbe()
    speed.sample()
    imports, builds, decks = [], [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=120, check=True)
        imports.append((float(proc.stdout), speed.mark))
        start = perf_counter()
        decks.append(build(cases))
        builds.append((perf_counter() - start, speed.mark))
        speed.sample()
    if any(d != decks[0] for d in decks):
        raise RuntimeError(f"{workload}: the same seed built different inputs")
    wall = sum(statistics.median(t for t, _ in timed) for timed in (imports, builds))
    return wall, speed.scaled(imports) + speed.scaled(builds), decks[0]


def run_gate_child(workload: str) -> tuple[int, list[str]]:
    """The gate runs in its own process so that it does not count in peak_rss_mb."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--gate", workload],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"correctness gate crashed with exit {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["checked"], result["errors"]


class Measurement:
    def __init__(self, deck):
        self.deck = deck
        self.times: list[float] = []
        self.pass_seconds: list[float] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._reports: dict[int, tuple[bytes, bytes]] = {}

    def run(self, i: int, tracer=None) -> float:
        """Run case i once and check it after its timed region; returns its time."""
        case = self.deck[i]
        self.attempted += 1
        try:
            if tracer is None:
                out = run_case(case)
            else:
                tracer.case_id = self.attempted  # unique per case run
                with tracer.span("bench.case"):
                    out = run_case(case)
        except Exception as exc:  # a raising case is a failed case; keep measuring
            self.failed += 1
            self.errors.append(f"{case.name}: raised {exc!r}")
            return 0.0
        errors = check_outcome(case, out)
        first = self._reports.setdefault(i, (out.text, out.machine))
        if first != (out.text, out.machine):
            errors.append(f"{case.name}: report bytes differ between passes")
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            return 0.0
        self.times.append(out.seconds)
        return out.seconds

    def one_pass(self, tracer=None) -> None:
        self.pass_seconds.append(sum(self.run(i, tracer) for i in range(len(self.deck))))


def geomean(times: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(t) for t in times))


def tail(times: list[float]):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        k = math.ceil(p / 100 * n) - 1
        if n - 1 - k >= 10:
            return p, ordered[k], n - 1 - k
    return None


def untraced_run(deck, seconds: float, speed: SpeedProbe):
    """Cycle through the deck until time is up and every case ran MIN_PASSES times.

    Returns the measurement and, per case, its (wall seconds, speed mark) repeats.
    """
    m = Measurement(deck)
    timed: dict[int, list[tuple[float, int]]] = {}
    speed.sample()
    start = perf_counter()
    for k in itertools.count():
        if k >= MIN_PASSES * len(deck) and perf_counter() - start >= seconds:
            break
        i = k % len(deck)
        case_seconds = m.run(i)
        if case_seconds:  # 0.0 marks a failed case
            timed.setdefault(i, []).append((case_seconds, speed.mark))
        speed.sample_if_due()
    speed.sample()
    return m, timed


def traced_run(deck, seconds: float):
    """Alternate untraced and traced passes; per-layer numbers from the traced ones."""
    m_plain, m_traced, tracer = Measurement(deck), Measurement(deck), Tracer()
    pass_counts = []
    start = perf_counter()
    while not m_traced.pass_seconds or perf_counter() - start < seconds:
        m_plain.one_pass()
        before = Counter(tracer.counts)
        with tracer.installed():
            m_traced.one_pass(tracer)
        pass_counts.append(dict(tracer.counts - before))
    for k, counts in enumerate(pass_counts[1:], start=2):
        for name in EXACT_COUNTS:
            if counts.get(name) != pass_counts[0].get(name):
                m_traced.errors.append(f"traced pass {k}: {name} differs from pass 1")
                m_traced.failed += 1
    return m_plain, m_traced, tracer, pass_counts


def layer_metrics(m_plain, m_traced, tracer) -> dict[str, tuple[float, str]]:
    cases = len(m_traced.times)
    selfs = tracer.self_times()
    case_total = sum(e - s for name, s, e, _, _ in tracer.spans if name == "bench.case")
    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = (selfs.get(name, 0.0) / cases, "s/case")
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts.get(name, 0) / cases, "count/case")
    for layer in LAYERS:
        total = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
        metrics[f"layer.{layer}_s"] = (total / cases, "s/case")
    layered = sum(v for k, v in selfs.items() if k.split(".")[0] in LAYERS)
    metrics["trace.accounted_frac"] = (layered / case_total, "frac")
    plain = statistics.fmean(m_plain.pass_seconds)
    traced = statistics.fmean(m_traced.pass_seconds)
    metrics["trace_overhead_frac"] = (traced / plain - 1.0, "frac")
    return metrics


def run_one(args) -> int:
    setup_wall, setup_s, deck = measure_setup(args.workload, args.seed)
    checked, gate_errors = run_gate_child(args.workload)
    attempted, failed, errors = checked, len(gate_errors), list(gate_errors)
    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"workload {args.workload}  seed {args.seed}  cases/pass {len(deck)}  "
             f"trace {args.trace}  gate {checked - len(gate_errors)}/{checked} ok  "
             f"python {platform.python_version()}  nproc {os.cpu_count()}"]
    runs: tuple = ()
    if not gate_errors:
        if args.trace:
            m_plain, m, tracer, pass_counts = traced_run(deck, args.seconds)
            if m.times:  # empty only when every case failed
                metrics = layer_metrics(m_plain, m, tracer)
            runs = (m_plain, m)
            if args.trace_out:
                Path(args.trace_out).write_text(json.dumps({
                    "workload": args.workload, "seed": args.seed,
                    "span_fields": ["name", "start", "end", "parent", "case"],
                    "spans": tracer.spans, "counts_per_pass": pass_counts,
                    "self_s": tracer.self_times(),
                }))
        else:
            speed = SpeedProbe()
            m, timed = untraced_run(deck, args.seconds, speed)
            runs = (m,)
            # Per case, the median of its repeats' times relative to the speed
            # unit timed around them, at the nominal machine speed (speed.py).
            scaled = [speed.scaled(t) for t in timed.values()]
            wall = [statistics.median(s for s, _ in t) for t in timed.values()]
            if scaled:  # empty only when every case failed
                metrics = {
                    "cases_per_s": (len(scaled) / sum(scaled), "1/s"),
                    "case_geomean_ms": (geomean(scaled) * 1000, "ms"),
                    "setup_s": (setup_s, "s"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                    "MB"),
                }
                lines.append(f"  case_p50_ms {statistics.median(scaled) * 1000:.6g}; wall "
                             f"time, unscaled: cases_per_s {len(wall) / sum(wall):.6g}, "
                             f"case_geomean_ms {geomean(wall) * 1000:.6g}, "
                             f"case_p50_ms {statistics.median(wall) * 1000:.6g}, "
                             f"setup_s {setup_wall:.6g}")
                lines.append(f"  speed unit: {len(speed.times)} samples, fastest "
                             f"{min(speed.times) * 1000:.4g} ms, median "
                             f"{statistics.median(speed.times) * 1000:.4g} ms")
            t = tail(m.times)
            tail_text = ("omitted: fewer than ten samples beyond p50" if t is None else
                         f"case_tail_ms {t[1] * 1000:.3f} ms (unscaled) at p{t[0]} "
                         f"({t[2]} samples beyond)")
            lines.append(f"  samples {len(m.times)} over {len(deck)} cases; {tail_text}")
    for run in runs:
        attempted += run.attempted
        failed += run.failed
        errors += run.errors
    lines.append(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    lines += [f"  {name:<40} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    for e in errors[:50]:
        print(f"FAILED {e}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        status |= proc.returncode
    return status


def check_counts(args) -> int:
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        counts = []
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            for k in range(2):
                out = Path(tmp) / f"trace{k}.json"
                subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                "--seed", str(args.seed), "--seconds", "0", "--trace", "1",
                                "--trace-out", str(out)],
                               capture_output=True, timeout=900, check=True)
                first = json.loads(out.read_text())["counts_per_pass"][0]
                counts.append({name: first.get(name, 0) for name in EXACT_COUNTS})
        same = counts[0] == counts[1]
        status |= not same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} {counts[0]}"
              + ("" if same else f" vs {counts[1]}"))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write spans and counts of a traced run here")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--check-counts", action="store_true",
                        help="two traced runs with the same seed must count the same work")
    parser.add_argument("--gate", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.gate:
        from gate import run_gate  # only the gate's process loads the CLI

        checked, errors = run_gate(args.gate)
        print(json.dumps({"checked": checked, "errors": errors}))
        return 0
    if args.all:
        return run_all(args)
    if args.check_counts:
        return check_counts(args)
    if args.workload is None:
        parser.error("--workload is required for a single run")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
