import dataclasses
import random
from pathlib import Path

import pytest

import lightsectors.package
from lightsectors.linalg import DimensionMismatchError, Matrix, vector
from lightsectors.pairing import PairingSpace, standard_symplectic
from lightsectors.transport import pl_operator
from lightsectors.gluing import ExtensionVerdict
from lightsectors.blocks import BlockDecomposition, BlockSeparationViolation
from lightsectors.package import (
    AtomVerdict,
    BlockSeparationRequiredError,
    LightSectorPackage,
    TransportVerdict,
    assemble,
    classify,
    verify_block_structure,
)
from lightsectors.report import analysis_document, verification_document
from lightsectors.scenarios import builtin_scenario, parse_scenario, to_package
from lightsectors.modelgen import random_block_scenario

DATA = Path(__file__).parent / "data"


def _four_node_package():
    space = standard_symplectic(1)
    cycles = [(1, 0), (1, 0), (0, 1), (0, 1)]
    incidence = Matrix.from_columns([(1, 1, 0, 0), (0, 0, 1, 1)], rows=4)
    partition = BlockDecomposition.from_blocks(4, [(0, 1), (2, 3)])
    return assemble(space, cycles, incidence=incidence, partition=partition)


def test_assemble_split_pair():
    pkg = to_package(builtin_scenario("a1xa1"))
    c = classify(pkg)
    assert pkg.interaction.entries.is_zero()
    assert pkg.realized.is_full
    assert c.extension_side is ExtensionVerdict.SPLIT
    assert c.transport_side is TransportVerdict.COMMUTING
    assert c.atom_side is AtomVerdict.SPLIT
    assert c.collapsed_dim is None


def test_assemble_coupled_pair():
    pkg = to_package(builtin_scenario("a2"))
    c = classify(pkg)
    assert pkg.realized.v_geom.dim == 1
    assert pkg.realized.v_geom.basis == (vector([1, 1]),)
    assert c.extension_side is ExtensionVerdict.INTERACTING
    assert c.collapsed_dim == 1
    assert c.atom_side is AtomVerdict.NON_SPLIT
    assert pkg.corrected_member is True


def test_assemble_four_node_blocks():
    pkg = _four_node_package()
    assert pkg.separation_holds
    assert pkg.reduced.r == 2
    assert pkg.reduced.entries == Matrix.from_rows([[0, 1], [-1, 0]])
    assert pkg.blockwise is not None
    assert not pkg.blockwise.is_split
    assert analysis_document(pkg, "x")["blocks"]["residual_verdict"] == "NonSplit"


def test_ambient_default_when_no_incidence():
    pkg = assemble(standard_symplectic(1), [(1, 0), (0, 1)])
    c = classify(pkg)
    assert pkg.ambient_default
    assert c.extension_side is ExtensionVerdict.AMBIENT_DEFAULT
    assert c.collapsed_dim is None
    assert c.transport_side is TransportVerdict.NONCOMMUTING


QUINTIC = builtin_scenario("quintic_orbits")


@pytest.mark.parametrize("gram, cycles", [
    (QUINTIC.gram, QUINTIC.cycles),
    (standard_symplectic(2).gram,
     [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 0, 0)]),
], ids=["quintic_orbits", "all_distinct"])
def test_assemble_builds_one_operator_per_class(monkeypatch, gram, cycles):
    built = []

    def counted(cfg, i):
        built.append(i)
        return pl_operator(cfg, i)

    monkeypatch.setattr(lightsectors.package, "pl_operator", counted)
    pkg = assemble(PairingSpace(gram), cycles)
    assert built == []
    transport = pkg.transport
    firsts = {}
    for i, c in enumerate(pkg.cycles.cycles):
        firsts.setdefault(c, i)
    assert built == list(firsts.values())
    assert pkg.transport is transport
    assert built == list(firsts.values())
    for i, op in enumerate(transport):
        fresh = pl_operator(pkg.cycles, i)
        assert op.delta == fresh.delta
        assert op.weights == fresh.weights
        assert op.n_matrix == fresh.n_matrix


# Each derived section and the module-level function that computes it.
SECTIONS = {
    "interaction": "interaction_matrix",
    "transport": "pl_operator",
    "atom": "atom_splitting",
    "realized": "realized_space",
    "blocks_incidence": "blocks_from_indicator_basis",
    "block_classes": "check_block_separation",
    "reduced": "reduced_matrix",
    "blockwise": "blockwise_atom_splitting",
    "corrected_member": "check_membership",
}


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(lightsectors.package, name,
                            counting(name, getattr(lightsectors.package, name)))
    return calls


def test_package_stores_only_its_inputs():
    names = [f.name for f in dataclasses.fields(LightSectorPackage)]
    assert names == ["cycles", "incidence", "partition", "corrected_class"]


def test_sections_are_derived_once_on_first_read(monkeypatch):
    calls = _count_calls(monkeypatch, SECTIONS.values())
    pkg = to_package(parse_scenario((DATA / "four_node_blocks.scenario").read_text()))
    assert set(calls.values()) == {0}
    first = {name: getattr(pkg, name) for name in SECTIONS}
    # Two cycle classes, so two operators; every other section one call.
    once = {**dict.fromkeys(SECTIONS.values(), 1), "pl_operator": 2}
    assert calls == once
    for name, value in first.items():
        assert getattr(pkg, name) is value
    assert calls == once


@pytest.mark.parametrize("scenario", [
    parse_scenario((DATA / "four_node_blocks.scenario").read_text()),
    builtin_scenario("quintic_orbits"),
], ids=["four_node_blocks", "quintic_orbits"])
def test_verify_path_skips_unread_sections(monkeypatch, scenario):
    calls = _count_calls(
        monkeypatch, ["pl_operator", "blocks_from_indicator_basis", "check_membership"])
    pkg = to_package(scenario)
    doc = verification_document(scenario.name, verify_block_structure(pkg))
    assert doc["overall"] is True
    assert pkg.incidence is not None
    assert calls == {"pl_operator": 0, "blocks_from_indicator_basis": 0, "check_membership": 0}


def test_assemble_checks_sizes_before_returning():
    space, cycles = standard_symplectic(1), [(1, 0), (0, 1)]
    with pytest.raises(DimensionMismatchError, match="partition of 3 nodes"):
        assemble(space, cycles, partition=BlockDecomposition.singletons(3))
    with pytest.raises(DimensionMismatchError, match="corrected class of length 3"):
        assemble(space, cycles, corrected_class=vector((1, 0, 0)))


def test_transport_and_atom_verdicts_always_agree():
    rng = random.Random(5)
    for i in range(25):
        pkg = to_package(random_block_scenario(rng, name=f"case_{i}"))
        c = classify(pkg)
        assert (c.transport_side is TransportVerdict.COMMUTING) == (
            c.atom_side is AtomVerdict.SPLIT
        )


def test_classify_is_deterministic():
    scenario = builtin_scenario("three_node")
    assert classify(to_package(scenario)) == classify(to_package(scenario))


def test_partition_incidence_discrepancy_flagged():
    space = standard_symplectic(1)
    cycles = [(1, 0), (1, 0), (0, 1)]
    incidence = Matrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3)
    partition = BlockDecomposition.singletons(3)
    pkg = assemble(space, cycles, incidence=incidence, partition=partition)
    assert pkg.partition_matches_incidence is False
    # The user partition drives block analysis: singletons always separate.
    assert pkg.separation_holds
    assert pkg.reduced.r == 3


def test_corrected_class_rejection_recorded():
    pkg = assemble(
        standard_symplectic(1),
        [(1, 0), (0, 1)],
        incidence=Matrix.from_columns([(1, 1)], rows=2),
        corrected_class=vector((1, 0)),
    )
    assert pkg.corrected_member is False


def test_degenerate_node_counts():
    empty = assemble(standard_symplectic(0), [])
    assert empty.r == 0
    assert classify(empty).atom_side is AtomVerdict.SPLIT

    one = assemble(standard_symplectic(1), [(1, 0)])
    assert one.interaction.entries == Matrix.zero(1, 1)
    c = classify(one)
    assert c.transport_side is TransportVerdict.COMMUTING
    assert c.atom_side is AtomVerdict.SPLIT


def test_verify_block_structure_passes():
    report = verify_block_structure(_four_node_package())
    assert report.overall and report.failures == ()
    # Lattice, surviving and realized dimension; 4 * 3 node pairs; one block
    # pair and the commutation criterion; the atom verdict agreement.
    assert report.total == 3 + 4 * 3 + 2 + 1


def test_verify_requires_partition():
    pkg = to_package(builtin_scenario("a2"))
    with pytest.raises(BlockSeparationRequiredError):
        verify_block_structure(pkg)


def test_verify_requires_separation():
    pkg = to_package(builtin_scenario("three_node"))
    assert isinstance(pkg.block_classes, BlockSeparationViolation)
    with pytest.raises(BlockSeparationRequiredError) as info:
        verify_block_structure(pkg)
    assert info.value.violation is pkg.block_classes


def test_verify_random_block_models():
    rng = random.Random(31337)
    for i in range(30):
        pkg = to_package(random_block_scenario(rng, name=f"case_{i}"))
        report = verify_block_structure(pkg)
        assert report.overall, [f.name for f in report.failures]
