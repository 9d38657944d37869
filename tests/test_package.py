import random

import pytest

from lightsectors.linalg import Matrix, vector
from lightsectors.pairing import standard_symplectic
from lightsectors.gluing import CorrectedClass, ExtensionVerdict, IncidenceDatum
from lightsectors.blocks import BlockDecomposition, BlockSeparationViolation
from lightsectors.package import (
    AtomVerdict,
    BlockSeparationRequiredError,
    TransportVerdict,
    assemble,
    classify,
    verify_block_structure,
)
from lightsectors.scenarios import builtin_scenario, to_package
from lightsectors.modelgen import random_block_scenario


def _four_node_package():
    space = standard_symplectic(1)
    cycles = [(1, 0), (1, 0), (0, 1), (0, 1)]
    incidence = IncidenceDatum.from_columns(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
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
    c = classify(pkg)
    assert c.residual is not None
    assert not c.residual.blockwise.is_split


def test_ambient_default_when_no_incidence():
    pkg = assemble(standard_symplectic(1), [(1, 0), (0, 1)])
    c = classify(pkg)
    assert pkg.ambient_default
    assert c.extension_side is ExtensionVerdict.AMBIENT_DEFAULT
    assert c.collapsed_dim is None
    assert c.transport_side is TransportVerdict.NONCOMMUTING


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
    incidence = IncidenceDatum.from_columns(3, [(1, 1, 0), (0, 0, 1)])
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
        incidence=IncidenceDatum.from_columns(2, [(1, 1)]),
        corrected_class=CorrectedClass.of((1, 0)),
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
    assert report.overall
    names = [c.name for c in report.checks]
    assert "relation lattice quotient dimension" in names
    assert "realized dimension equals block count" in names
    assert "atom verdict agreement (full vs reduced)" in names


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
