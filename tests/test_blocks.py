import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightsectors.linalg import (
    DimensionMismatchError,
    Matrix,
    Slots,
    Subspace,
    column_space,
    quotient_dim,
    vector,
)
from lightsectors.gluing import realized_space
from lightsectors.pairing import CycleConfiguration, standard_symplectic
from lightsectors.transport import (
    InteractionMatrix,
    commutator,
    commutator_bound,
    commutes_all,
    interaction_matrix,
    pl_operator,
)
from lightsectors.blocks import (
    BlockClasses,
    BlockDecomposition,
    BlockSeparationViolation,
    NotBlockAdapted,
    block_commutator_check,
    blocks_from_indicator_basis,
    check_block_separation,
    reduced_matrix,
    relation_lattice_from_blocks,
    verify_block_consistency,
)
from lightsectors.scenarios import to_package
from lightsectors.modelgen import random_block_scenario


def _four_node_config():
    space = standard_symplectic(1)
    e1, e2 = vector([1, 0]), vector([0, 1])
    cfg = CycleConfiguration.from_vectors(space, (e1, e1, e2, e2))
    part = BlockDecomposition.from_blocks(4, [(0, 1), (2, 3)])
    return space, cfg, part


# -- decomposition type ----------------------------------------------------


def test_decomposition_normalizes_order():
    part = BlockDecomposition.from_blocks(4, [(3, 2), (1, 0)])
    assert part.blocks == ((0, 1), (2, 3))
    assert part.count == 2
    assert [3 in block for block in part.blocks].index(True) == 1


@pytest.mark.parametrize(
    "blocks",
    [[(0, 1)], [(0, 1), (1, 2)], [(0,), (2,)], [(0, 1, 2), ()]],
)
def test_invalid_partitions_rejected(blocks):
    with pytest.raises(ValueError):
        BlockDecomposition.from_blocks(3, blocks)


@pytest.mark.parametrize("r,blocks,message", [
    (3, ((0,), (), (1, 2)), "empty block in decomposition"),
    (3, ((1, 0), (2,)), "block members must be sorted ascending"),
    (3, ((0, 1), (3,)), "node index 3 out of range 0..2"),
    (3, ((0, 1), (1, 2)), "node index 1 appears in two blocks"),
    (4, ((0, 2),), "decomposition does not cover nodes [1, 3]"),
    (3, ((1, 2), (0,)), "blocks must be ordered by least member"),
    (-1, (), "decomposition does not cover nodes []"),
])
def test_invalid_partition_messages(r, blocks, message):
    with pytest.raises(ValueError) as info:
        BlockDecomposition(r, blocks)
    assert str(info.value) == message


def test_owner_is_not_compared():
    part = BlockDecomposition(3, ((0, 2), (1,)))
    assert part.owner == (0, 1, 0)
    assert repr(part) == "BlockDecomposition(r=3, blocks=((0, 2), (1,)))"
    same = BlockDecomposition.from_blocks(3, [(1,), (2, 0)])
    assert part == same and hash(part) == hash(same)


def test_indicator_inverts_blocks_from_indicator_basis():
    """Seeded partitions of up to 40 nodes: the realized space of the
    indicator recovers the partition, and owner[k] == b exactly when node k
    lies in block b."""
    rng = random.Random(24)
    for _ in range(150):
        r = rng.randint(1, 40)
        owners = [rng.randrange(rng.randint(1, r)) for _ in range(r)]
        groups: dict[int, list[int]] = {}
        for node, owner in enumerate(owners):
            groups.setdefault(owner, []).append(node)
        part = BlockDecomposition.from_blocks(r, list(groups.values()))
        assert blocks_from_indicator_basis(realized_space(part.indicator).v_geom) == part
        assert all((part.owner[k] == b) == (k in block)
                   for b, block in enumerate(part.blocks) for k in range(r))
        assert part.indicator.num == tuple(tuple(int(k in block) for block in part.blocks)
                                           for k in range(r))


# -- separation ------------------------------------------------------------


def test_separation_holds_on_duplicated_classes():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    assert isinstance(bc, BlockClasses)
    assert bc.classes.matrix.entries == (vector([1, 0]), vector([0, 1]))


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
    bc = check_block_separation(cfg, BlockDecomposition.from_blocks(3, [(0,), (1,), (2,)]))
    assert isinstance(bc, BlockClasses)
    assert bc.classes == cfg


def test_separation_size_mismatch():
    space, cfg, part = _four_node_config()
    with pytest.raises(DimensionMismatchError):
        check_block_separation(cfg, BlockDecomposition.from_blocks(3, [(0,), (1,), (2,)]))


# -- reduced matrix ----------------------------------------------------------


def test_reduced_matrix_symplectic_pair():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    lam_blk = reduced_matrix(bc)
    assert lam_blk.entries == Matrix.from_rows([[0, 1], [-1, 0]])


def test_reduced_matrix_orthogonal_classes():
    space = standard_symplectic(2)
    part = BlockDecomposition.from_blocks(2, [(0,), (1,)])
    bc = BlockClasses(part, CycleConfiguration.from_vectors(space, [(1, 0, 0, 0), (0, 0, 1, 0)]))
    assert reduced_matrix(bc).entries.is_zero()


def test_reduced_matrix_single_block():
    space = standard_symplectic(1)
    part = BlockDecomposition.from_blocks(3, [(0, 1, 2)])
    bc = BlockClasses(part, CycleConfiguration.from_vectors(space, [(1, 1)]))
    lam_blk = reduced_matrix(bc)
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
    lam_blk = reduced_matrix(bc)
    report = verify_block_consistency(lam, bc, lam_blk)
    assert report.overall and report.total == 4 * 3
    # Intra-block entries vanish, as do the reduced diagonal entries they equal.
    assert all(lam.entries.entries[i][j] == 0 for i, j in [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert lam_blk.entries.entries[0][0] == lam_blk.entries.entries[1][1] == 0


def test_consistency_fault_injection_names_entry():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    lam_blk = reduced_matrix(bc)
    corrupted = [[x for x in row] for row in interaction_matrix(cfg).entries.entries]
    corrupted[0][2] = corrupted[0][2] + 1
    corrupted[2][0] = -corrupted[0][2]
    lam = InteractionMatrix(Matrix.from_rows(corrupted), tuple(range(4)))
    report = verify_block_consistency(lam, bc, lam_blk)
    assert not report.overall
    assert report.failures[0].name.startswith("lambda(1,3)")


# -- block commutators -------------------------------------------------------


def test_block_commutators_orthogonal_classes_commute():
    space = standard_symplectic(2)
    part = BlockDecomposition.from_blocks(2, [(0,), (1,)])
    bc = BlockClasses(part, CycleConfiguration.from_vectors(space, [(1, 0, 0, 0), (0, 0, 1, 0)]))
    lam_blk = reduced_matrix(bc)
    report = block_commutator_check(bc, lam_blk)
    # One block pair plus the commutation criterion.
    assert report.overall and report.total == 2
    ops = [pl_operator(bc.classes, i) for i in range(2)]
    assert not any(commutator(ops, Slots(commutator_bound(ops), 4))[0][0])
    assert commutes_all(lam_blk)


def test_block_commutators_coupled_classes():
    space, cfg, part = _four_node_config()
    bc = check_block_separation(cfg, part)
    lam_blk = reduced_matrix(bc)
    report = block_commutator_check(bc, lam_blk)
    assert report.overall and report.total == 2
    ops = [pl_operator(bc.classes, i) for i in range(2)]
    assert any(commutator(ops, Slots(commutator_bound(ops), space.dim))[0][0])
    assert not commutes_all(lam_blk)


def test_block_commutators_single_block_vacuous():
    space = standard_symplectic(1)
    part = BlockDecomposition.from_blocks(2, [(0, 1)])
    bc = BlockClasses(part, CycleConfiguration.from_vectors(space, [(1, 1)]))
    report = block_commutator_check(bc, reduced_matrix(bc))
    assert report.overall


# -- lattice and surviving dimension -----------------------------------------


def test_lattice_two_blocks():
    part = BlockDecomposition.from_blocks(3, [(0, 1), (2,)])
    assert part.count == 2
    lattice = relation_lattice_from_blocks(part)
    assert lattice == Subspace.spanned_by([(1, -1, 0)], 3)
    assert quotient_dim(3, lattice) == 2


def test_lattice_singletons_and_one_block():
    singles = BlockDecomposition.from_blocks(4, [(k,) for k in range(4)])
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
            tuple(int(i == a) - int(i == c) for i in range(r))
            for block in part.blocks
            for a, c in zip(block, block[1:])
        ]
        assert relation_lattice_from_blocks(part) == Subspace.spanned_by(chained, r)


# -- inference from incidence -------------------------------------------------


def test_infer_blocks_from_indicator_columns():
    inc = Matrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3)
    part = blocks_from_indicator_basis(column_space(inc))
    assert part == BlockDecomposition.from_blocks(3, [(0, 1), (2,)])


def test_infer_blocks_identity_gives_singletons():
    inc = Matrix.identity(3)
    singles = BlockDecomposition.from_blocks(3, [(0,), (1,), (2,)])
    assert blocks_from_indicator_basis(column_space(inc)) == singles


def test_infer_blocks_rejects_non_indicator():
    inc = Matrix.from_columns([(1, 2)], rows=2)
    result = blocks_from_indicator_basis(column_space(inc))
    assert isinstance(result, NotBlockAdapted)
    assert result.offending == vector([1, 2])


def test_infer_blocks_rejects_non_covering():
    inc = Matrix.from_columns([(1, 0, 0)], rows=3)
    result = blocks_from_indicator_basis(column_space(inc))
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
    inc = Matrix.from_columns(columns, rows=r)
    assert blocks_from_indicator_basis(column_space(inc)) == part


# -- randomized separated configurations --------------------------------------


def test_random_separated_configurations_verify():
    rng = random.Random(424242)
    for i in range(40):
        scenario = random_block_scenario(rng, name=f"case_{i}")
        pkg = to_package(scenario)
        assert pkg.separation_holds
        lam = pkg.interaction
        part = pkg.partition
        owner = {k: b for b, block in enumerate(part.blocks) for k in block}
        grid = lam.entries.entries
        for a in range(pkg.r):
            for b in range(pkg.r):
                if a != b and owner[a] == owner[b]:
                    assert grid[a][b] == 0
        report = verify_block_consistency(lam, pkg.block_classes, pkg.reduced)
        assert report.overall
        assert block_commutator_check(pkg.block_classes, pkg.reduced).overall
