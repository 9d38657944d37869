import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightsectors.linalg import (
    DimensionMismatchError,
    Matrix,
    Subspace,
    basis_vector,
    quotient_dim,
    vec_sub,
    vector,
)
from lightsectors.pairing import CycleConfiguration, standard_symplectic
from lightsectors.transport import InteractionMatrix, interaction_matrix
from lightsectors.gluing import IncidenceDatum
from lightsectors.blocks import (
    BlockClasses,
    BlockDecomposition,
    BlockSeparationViolation,
    NotBlockAdapted,
    block_commutator_check,
    check_block_separation,
    infer_blocks_from_incidence,
    reduced_matrix,
    relation_lattice_from_blocks,
    verify_block_consistency,
)
from lightsectors.scenarios import to_package
from lightsectors.modelgen import random_block_scenario


def _four_node_config():
    space = standard_symplectic(1)
    e1, e2 = vector([1, 0]), vector([0, 1])
    cfg = CycleConfiguration(space, (e1, e1, e2, e2))
    part = BlockDecomposition.from_blocks(4, [(0, 1), (2, 3)])
    return space, cfg, part


# -- decomposition type ----------------------------------------------------


def test_decomposition_normalizes_order():
    part = BlockDecomposition.from_blocks(4, [(3, 2), (1, 0)])
    assert part.blocks == ((0, 1), (2, 3))
    assert part.count == 2
    assert part.block_of(3) == 1


@pytest.mark.parametrize(
    "blocks",
    [[(0, 1)], [(0, 1), (1, 2)], [(0,), (2,)], [(0, 1, 2), ()]],
)
def test_invalid_partitions_rejected(blocks):
    with pytest.raises(ValueError):
        BlockDecomposition.from_blocks(3, blocks)


# -- separation ------------------------------------------------------------


def test_separation_holds_on_duplicated_classes():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    assert isinstance(bc, BlockClasses)
    assert bc.classes == (vector([1, 0]), vector([0, 1]))


def test_separation_violation_names_first_offending_pair():
    # Nonzero pairing forces distinct cycles, so grouping them must fail.
    cfg = CycleConfiguration.from_vectors(
        standard_symplectic(2), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    )
    part = BlockDecomposition.from_blocks(3, [(0, 1), (2,)])
    result = check_block_separation(cfg, part)
    assert isinstance(result, BlockSeparationViolation)
    assert (result.block_index, result.node_a, result.node_b) == (0, 0, 1)


def test_singleton_blocks_always_separate():
    cfg = CycleConfiguration.from_vectors(
        standard_symplectic(1), [(1, 0), (0, 1), (1, 1)]
    )
    bc = check_block_separation(cfg, BlockDecomposition.singletons(3))
    assert isinstance(bc, BlockClasses)
    assert bc.classes == cfg.cycles


def test_separation_size_mismatch():
    space, cfg, part = _four_node_config()
    with pytest.raises(DimensionMismatchError):
        check_block_separation(cfg, BlockDecomposition.singletons(3))


# -- reduced matrix ----------------------------------------------------------


def test_reduced_matrix_symplectic_pair():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    lam_blk = reduced_matrix(space, bc)
    assert lam_blk.entries == Matrix.from_rows([[0, 1], [-1, 0]])


def test_reduced_matrix_orthogonal_classes():
    space = standard_symplectic(2)
    part = BlockDecomposition.from_blocks(2, [(0,), (1,)])
    bc = BlockClasses(part, (vector([1, 0, 0, 0]), vector([0, 0, 1, 0])))
    assert reduced_matrix(space, bc).entries.is_zero()


def test_reduced_matrix_single_block():
    space = standard_symplectic(1)
    part = BlockDecomposition.from_blocks(3, [(0, 1, 2)])
    bc = BlockClasses(part, (vector([1, 1]),))
    lam_blk = reduced_matrix(space, bc)
    assert lam_blk.r == 1 and lam_blk.entries.is_zero()


# -- consistency report ------------------------------------------------------


def test_consistency_passes_on_derived_example():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    lam = interaction_matrix(cfg)
    # Exhaustive pair check against the hand-computed full matrix.
    assert lam.entries == Matrix.from_rows(
        [[0, 0, 1, 1], [0, 0, 1, 1], [-1, -1, 0, 0], [-1, -1, 0, 0]]
    )
    report = verify_block_consistency(lam, bc, reduced_matrix(space, bc))
    assert report.overall
    intra = [c for c in report.checks if "[intra-block]" in c.name]
    assert intra and all(c.expected == "0" and c.passed for c in intra)


def test_consistency_fault_injection_names_entry():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    lam_blk = reduced_matrix(space, bc)
    corrupted = [[x for x in row] for row in interaction_matrix(cfg).entries.entries]
    corrupted[0][2] = corrupted[0][2] + 1
    corrupted[2][0] = -corrupted[0][2]
    lam = InteractionMatrix(4, Matrix.from_rows(corrupted))
    report = verify_block_consistency(lam, bc, lam_blk)
    assert not report.overall
    assert report.failures[0].name.startswith("lambda(1,3)")


# -- block commutators -------------------------------------------------------


def test_block_commutators_orthogonal_classes_commute():
    space = standard_symplectic(2)
    part = BlockDecomposition.from_blocks(2, [(0,), (1,)])
    bc = BlockClasses(part, (vector([1, 0, 0, 0]), vector([0, 0, 1, 0])))
    report = block_commutator_check(space, bc, reduced_matrix(space, bc))
    assert report.overall
    verdict = [c for c in report.checks if c.name == "commutation criterion"]
    assert "all zero" in verdict[0].actual


def test_block_commutators_coupled_classes():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    report = block_commutator_check(space, bc, reduced_matrix(space, bc))
    assert report.overall
    verdict = [c for c in report.checks if c.name == "commutation criterion"]
    assert "nonzero" in verdict[0].actual


def test_block_commutators_single_block_vacuous():
    space = standard_symplectic(1)
    part = BlockDecomposition.from_blocks(2, [(0, 1)])
    bc = BlockClasses(part, (vector([1, 1]),))
    report = block_commutator_check(space, bc, reduced_matrix(space, bc))
    assert report.overall


# -- lattice and surviving dimension -----------------------------------------


def test_lattice_two_blocks():
    part = BlockDecomposition.from_blocks(3, [(0, 1), (2,)])
    assert part.count == 2
    lattice = relation_lattice_from_blocks(part)
    assert lattice == Subspace.spanned_by([(1, -1, 0)], 3)
    assert quotient_dim(3, lattice) == 2


def test_lattice_singletons_and_one_block():
    singles = BlockDecomposition.singletons(4)
    assert relation_lattice_from_blocks(singles).dim == 0
    assert quotient_dim(4, relation_lattice_from_blocks(singles)) == 4
    whole = BlockDecomposition.from_blocks(4, [(0, 1, 2, 3)])
    assert quotient_dim(4, relation_lattice_from_blocks(whole)) == 1


@given(st.data())
def test_lattice_quotient_counts_blocks(data):
    r = data.draw(st.integers(1, 8))
    owners = data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
    groups: dict[int, list[int]] = {}
    for node, owner in enumerate(owners):
        groups.setdefault(owner, []).append(node)
    part = BlockDecomposition.from_blocks(r, list(groups.values()))
    assert quotient_dim(r, relation_lattice_from_blocks(part)) == part.count


def test_lattice_matches_chained_differences():
    """The star generators span the lattice of the chained e_a - e_next."""
    rng = random.Random(31337)
    for _ in range(300):
        r = rng.randint(1, 14)
        b = rng.randint(1, r)
        groups: dict[int, list[int]] = {}
        for node in range(r):
            groups.setdefault(rng.randrange(b), []).append(node)
        part = BlockDecomposition.from_blocks(r, list(groups.values()))
        chained = [
            vec_sub(basis_vector(r, a), basis_vector(r, c))
            for block in part.blocks
            for a, c in zip(block, block[1:])
        ]
        assert relation_lattice_from_blocks(part) == Subspace.spanned_by(chained, r)


# -- inference from incidence -------------------------------------------------


def test_infer_blocks_from_indicator_columns():
    inc = IncidenceDatum.from_columns(3, [(1, 1, 0), (0, 0, 1)])
    part = infer_blocks_from_incidence(inc)
    assert part == BlockDecomposition.from_blocks(3, [(0, 1), (2,)])


def test_infer_blocks_identity_gives_singletons():
    inc = IncidenceDatum.from_matrix(Matrix.identity(3))
    assert infer_blocks_from_incidence(inc) == BlockDecomposition.singletons(3)


def test_infer_blocks_rejects_non_indicator():
    inc = IncidenceDatum.from_columns(2, [(1, 2)])
    result = infer_blocks_from_incidence(inc)
    assert isinstance(result, NotBlockAdapted)
    assert result.offending == vector([1, 2])


def test_infer_blocks_rejects_non_covering():
    inc = IncidenceDatum.from_columns(3, [(1, 0, 0)])
    result = infer_blocks_from_incidence(inc)
    assert isinstance(result, NotBlockAdapted)


@given(st.data())
def test_infer_blocks_round_trip(data):
    r = data.draw(st.integers(1, 8))
    owners = data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
    groups: dict[int, list[int]] = {}
    for node, owner in enumerate(owners):
        groups.setdefault(owner, []).append(node)
    part = BlockDecomposition.from_blocks(r, list(groups.values()))
    columns = [[1 if k in block else 0 for k in range(r)] for block in part.blocks]
    inc = IncidenceDatum.from_columns(r, columns)
    assert infer_blocks_from_incidence(inc) == part


# -- randomized separated configurations --------------------------------------


def test_random_separated_configurations_verify():
    rng = random.Random(424242)
    for i in range(40):
        scenario = random_block_scenario(rng, name=f"case_{i}")
        pkg = to_package(scenario)
        assert pkg.separation_holds
        lam = pkg.interaction
        part = pkg.partition
        owner = {k: part.block_of(k) for k in range(pkg.r)}
        for a in range(pkg.r):
            for b in range(pkg.r):
                if a != b and owner[a] == owner[b]:
                    assert lam.entry(a, b) == 0
        report = verify_block_consistency(lam, pkg.block_classes, pkg.reduced)
        assert report.overall
        assert block_commutator_check(pkg.space, pkg.block_classes, pkg.reduced).overall
