"""Built-in invariant suite behind the `selftest` CLI verb.

Seeded and deterministic: reruns exercise identical instances.  Covers the
model regressions, transport operator invariants, the block-structure
checks on generated separated configurations, the criterion equivalences
on a small exhaustive pool, and scenario/report round-trip determinism.
The acceptance suite runs the same check bodies, the model regressions
one body per model, with its own seeds and counts.  Every check raises
AssertionError itself (``_require``), so ``python -O`` runs them too.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable

from .linalg import Matrix, Slots, rank
from .pairing import CycleConfiguration, PairingSpace, pair, standard_symplectic
from .transport import commutator, commutator_bound, commutes_all, interaction_matrix, pl_operator
from .atoms import atom_splitting
from .blocks import BlockSeparationViolation
from .package import (AtomVerdict, Classification, LightSectorPackage, TransportVerdict,
                      classify, verify_block_structure)
from .gluing import ExtensionVerdict
from .report import analysis_document, render_report
from .scenarios import (ScenarioFile, builtin_scenario, parse_scenario, serialize_scenario,
                        to_package)
from .modelgen import random_block_scenario

SELFTEST_SEED = 20250808


def _require(ok: object, what: object) -> None:
    """Raise AssertionError(what) unless ok: a check that ``python -O``
    keeps, where it strips every assert statement."""
    if not ok:
        raise AssertionError(what)


def _random_skew_space(rng: random.Random, dim: int) -> PairingSpace:
    a = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
    return PairingSpace(a - a.transpose())


def _check_a1xa1() -> LightSectorPackage:
    pkg = to_package(builtin_scenario("a1xa1"))
    _require(pkg.interaction.entries == Matrix.zero(2, 2), "a1xa1 interaction matrix")
    _require(pkg.realized.is_full and pkg.realized.v_geom.dim == 2 and pkg.atom.is_split,
             "a1xa1 realized space and atoms")
    ops = pkg.transport
    _require(not any(any(rows) for rows, _ in commutator(ops, Slots(commutator_bound(ops), 2))),
             "a1xa1 commutators")
    _require(classify(pkg) == Classification(
        ExtensionVerdict.SPLIT, TransportVerdict.COMMUTING, AtomVerdict.SPLIT, None),
        "a1xa1 classification")
    return pkg


def _check_a2() -> LightSectorPackage:
    pkg = to_package(builtin_scenario("a2"))
    _require(pkg.interaction.entries == Matrix.from_rows([[0, 1], [-1, 0]]),
             "a2 interaction matrix")
    _require(pkg.realized.v_geom.dim == 1 and pkg.atom.clusters == ((0, 1),),
             "a2 realized space and atoms")
    _require(classify(pkg) == Classification(
        ExtensionVerdict.INTERACTING, TransportVerdict.NONCOMMUTING, AtomVerdict.NON_SPLIT, 1),
        "a2 classification")
    return pkg


def _check_three_node() -> LightSectorPackage:
    pkg = to_package(builtin_scenario("three_node"))
    _require(pkg.interaction.entries == Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
             "three_node interaction matrix")
    _require(pkg.r == 3 and pkg.realized.v_geom.dim == 2 and pkg.atom.clusters == ((0, 1), (2,)),
             "three_node realized space and atoms")
    _require(classify(pkg) == Classification(
        ExtensionVerdict.INTERACTING, TransportVerdict.NONCOMMUTING, AtomVerdict.NON_SPLIT, 2),
        "three_node classification")
    _require(isinstance(pkg.block_classes, BlockSeparationViolation), "three_node separation")
    return pkg


def _check_builtin_regressions() -> str:
    for body in (_check_a1xa1, _check_a2, _check_three_node):
        body()
    return "a1xa1 / a2 / three_node verdicts"


def _check_transport_invariants(rng: random.Random, n_cases: int) -> str:
    for _ in range(n_cases):
        dim = rng.randint(1, 8)
        space = _random_skew_space(rng, dim)
        delta = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        cfg = CycleConfiguration.from_vectors(space, (delta,))
        op = pl_operator(cfg, 0)
        n = op.n_matrix
        _require((n @ n).is_zero(), "N^2 = 0")
        _require(rank(n) == op.nilpotent_rank <= 1, "rank N = nilpotent rank <= 1")
        _require(op.t_matrix @ op.inverse() == Matrix.identity(dim), "T T^-1 = Id")
        alpha = [rng.randint(-4, 4) for _ in range(dim)]
        expected = tuple(pair(space, alpha, delta) * d for d in delta)
        _require(n.apply(alpha) == expected, "N(a) = <a, delta> delta")
    return f"{n_cases} random transport operators"


def _check_block_structure(rng: random.Random, n_cases: int, **gen_kwargs: int) -> str:
    for i in range(n_cases):
        pkg = to_package(random_block_scenario(rng, name=f"block_{i}", **gen_kwargs))
        _require(pkg.separation_holds, "block separation")
        report = verify_block_structure(pkg)
        _require(report.overall, [f.name for f in report.failures])
    return f"{n_cases} generated block-separated configurations"


def _check_criterion_equivalences() -> str:
    space = standard_symplectic(1)
    pool = [(0, 0), (1, 0), (0, 1), (1, 1), (2, -1)]
    count = 0
    for r in range(5):
        for combo in itertools.product(pool, repeat=r):
            cfg = CycleConfiguration.from_vectors(space, combo)
            lam = interaction_matrix(cfg)
            ops = [pl_operator(cfg, i) for i in range(r)]
            slots = Slots(commutator_bound(ops), space.dim)
            brute = not any(any(rows) for rows, _ in commutator(ops, slots))
            report = atom_splitting(lam)
            singles = all(len(c) == 1 for c in report.clusters)
            no_edges = not report.mixing_edges
            _require(commutes_all(lam) == brute == report.is_split == singles == no_edges,
                     f"criteria on {combo}")
            count += 1
    return f"{count} pool configurations, all criteria equivalent"


def _check_determinism(scenarios: Iterable[ScenarioFile]) -> str:
    for scenario in scenarios:
        _require(parse_scenario(serialize_scenario(scenario)) == scenario,
                 f"{scenario.name} round trip")
        pkg = to_package(scenario)
        doc = analysis_document(pkg, scenario.name)
        again = analysis_document(to_package(scenario), scenario.name)
        _require(render_report(doc, "machine") == render_report(again, "machine"),
                 f"{scenario.name} machine report")
        _require(render_report(doc, "text") == render_report(again, "text"),
                 f"{scenario.name} text report")
    return "round trips and byte-identical reports"


GROUPS = (
    ("model regressions", _check_builtin_regressions),
    ("transport invariants",
     lambda: _check_transport_invariants(random.Random(SELFTEST_SEED + 1), 200)),
    ("block structure", lambda: _check_block_structure(random.Random(SELFTEST_SEED + 2), 60)),
    ("criterion equivalences", _check_criterion_equivalences),
    ("determinism",
     lambda: _check_determinism(map(builtin_scenario, ("a1xa1", "a2", "three_node")))),
)


def run_selftest() -> bool:
    ok = True
    for label, fn in GROUPS:
        try:
            detail = fn()
        except AssertionError as exc:
            ok = False
            print(f"selftest {label}: FAILED {exc}")
        else:
            print(f"selftest {label}: ok ({detail})")
    return ok
