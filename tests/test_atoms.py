import random

from hypothesis import given
from hypothesis import strategies as st

from lightsectors.linalg import Matrix
from lightsectors.pairing import CycleConfiguration, make_pairing_space, standard_symplectic
from lightsectors.transport import InteractionMatrix, commutes_all, interaction_matrix
from lightsectors.atoms import atom_splitting, blockwise_atom_splitting
from lightsectors.scenarios import to_package
from lightsectors.modelgen import random_block_scenario

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def cycle_configurations(draw, max_dim=6, max_r=5):
    dim = draw(st.integers(1, max_dim))
    grid = [[draw(rationals) for _ in range(dim)] for _ in range(dim)]
    a = Matrix.from_rows(grid, cols=dim)
    space = make_pairing_space(a - a.transpose())
    r = draw(st.integers(0, max_r))
    cycles = tuple(
        tuple(draw(rationals) for _ in range(dim)) for _ in range(r)
    )
    return CycleConfiguration(space, cycles)


def test_split_pair():
    cfg = CycleConfiguration.from_vectors(
        standard_symplectic(2), [(1, 0, 0, 0), (0, 0, 1, 0)]
    )
    report = atom_splitting(interaction_matrix(cfg))
    assert report.is_split
    assert report.mixing_edges == ()
    assert report.clusters == ((0,), (1,))


def test_coupled_pair():
    cfg = CycleConfiguration.from_vectors(standard_symplectic(1), [(1, 0), (0, 1)])
    report = atom_splitting(interaction_matrix(cfg))
    assert not report.is_split
    assert report.mixing_edges == ((0, 1),)
    assert report.clusters == ((0, 1),)


def test_partially_coupled_triple():
    cfg = CycleConfiguration.from_vectors(
        standard_symplectic(2), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    )
    report = atom_splitting(interaction_matrix(cfg))
    assert not report.is_split
    assert report.clusters == ((0, 1), (2,))


def test_blockwise_verdicts():
    coupled = InteractionMatrix(2, Matrix.from_rows([[0, 1], [-1, 0]]))
    assert not blockwise_atom_splitting(coupled).is_split
    flat = InteractionMatrix(2, Matrix.zero(2, 2))
    assert blockwise_atom_splitting(flat).is_split
    single = InteractionMatrix(1, Matrix.zero(1, 1))
    assert blockwise_atom_splitting(single).is_split


def test_empty_configuration_splits():
    cfg = CycleConfiguration.from_vectors(standard_symplectic(1), [])
    report = atom_splitting(interaction_matrix(cfg))
    assert report.is_split and report.clusters == ()


@given(cfg=cycle_configurations())
def test_split_iff_commuting(cfg):
    lam = interaction_matrix(cfg)
    assert atom_splitting(lam).is_split == commutes_all(lam)


@given(cfg=cycle_configurations())
def test_clusters_partition_and_refine(cfg):
    lam = interaction_matrix(cfg)
    report = atom_splitting(lam)
    seen = sorted(k for cluster in report.clusters for k in cluster)
    assert seen == list(range(cfg.r))
    assert report.is_split == all(len(c) == 1 for c in report.clusters)
    # Every mixing edge stays within one cluster.
    owner = {k: ci for ci, cluster in enumerate(report.clusters) for k in cluster}
    for i, j in report.mixing_edges:
        assert owner[i] == owner[j]


def test_block_separated_verdict_agreement():
    rng = random.Random(99)
    for i in range(30):
        pkg = to_package(random_block_scenario(rng, name=f"case_{i}"))
        full = atom_splitting(pkg.interaction)
        reduced = blockwise_atom_splitting(pkg.reduced)
        assert full.is_split == reduced.is_split
