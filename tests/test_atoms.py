import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from lightsectors.linalg import InvariantError, Matrix
from lightsectors.pairing import CycleConfiguration, PairingSpace, standard_symplectic
from lightsectors.transport import InteractionMatrix, commutes_all, interaction_matrix
from lightsectors.atoms import (
    AtomSplittingReport,
    EdgeRows,
    atom_splitting,
    blockwise_atom_splitting,
)
from lightsectors.scenarios import to_package
from lightsectors.modelgen import random_block_scenario

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def cycle_configurations(draw, max_dim=6, max_r=5):
    dim = draw(st.integers(1, max_dim))
    grid = [[draw(rationals) for _ in range(dim)] for _ in range(dim)]
    a = Matrix.from_rows(grid, cols=dim)
    space = PairingSpace(a - a.transpose())
    r = draw(st.integers(0, max_r))
    cycles = tuple(
        tuple(draw(rationals) for _ in range(dim)) for _ in range(r)
    )
    return CycleConfiguration.from_vectors(space, cycles)


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
    coupled = InteractionMatrix(Matrix.from_rows([[0, 1], [-1, 0]]), (0, 1))
    assert not blockwise_atom_splitting(coupled).is_split
    flat = InteractionMatrix(Matrix.zero(2, 2), (0, 1))
    assert blockwise_atom_splitting(flat).is_split
    single = InteractionMatrix(Matrix.zero(1, 1), (0,))
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


@st.composite
def class_forms(draw, max_classes=5, max_nodes=9):
    """A skew k x k class pairing, some class rows zero, and a node map onto
    every class: the identity, or classes held by several nodes."""
    k = draw(st.integers(0, max_classes))
    a = Matrix.from_rows([[draw(rationals) for _ in range(k)] for _ in range(k)], cols=k)
    zero = draw(st.sets(st.integers(0, max(k - 1, 0)), max_size=k))
    grid = [[0 if c in zero or d in zero else x for d, x in enumerate(row)]
            for c, row in enumerate((a - a.transpose()).entries)]
    node_class = list(range(k))
    if k and draw(st.booleans()):
        node_class += draw(st.lists(st.integers(0, k - 1), max_size=max_nodes - k))
        node_class = draw(st.permutations(node_class))
    return InteractionMatrix(Matrix.from_rows(grid, cols=k), tuple(node_class))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lam=class_forms())
def test_class_form_readers_match_nodewise_reference(lam):
    grid = reference.dense_grid(lam.pairings, lam.node_class)
    assert lam.entries == grid
    assert commutes_all(lam) == reference.commutes_all(lam)
    assert atom_splitting(lam) == reference.atom_splitting(lam)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lam=class_forms())
@example(lam=InteractionMatrix(Matrix.zero(0, 0), ()))
def test_edge_rows_match_nodewise_reference_and_check_the_verdict(lam):
    """The 1-based rows the analysis document writes are the reference's
    edges; runs that contradict the verdict raise wherever they are expanded."""
    report = atom_splitting(lam)
    expected = tuple([(i + 1, j + 1) for i, j in reference.atom_splitting(lam).mixing_edges])
    assert report.edge_rows(1) == expected
    with pytest.raises(InvariantError):
        AtomSplittingReport(lam.r, not report.is_split, report.clusters,
                            report.node_class, report.partners)
    if report.is_split:
        if lam.r < 2:
            return  # no cluster of two nodes to claim mixing with
        broken = AtomSplittingReport(lam.r, False, (tuple(range(lam.r)),),
                                     report.node_class, report.partners)
    else:
        broken = AtomSplittingReport(lam.r, True, tuple((k,) for k in range(lam.r)),
                                     report.node_class, report.partners)
    with pytest.raises(InvariantError):
        broken.edge_rows(1)
    with pytest.raises(InvariantError):
        broken.mixing_edges


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lam=class_forms(), base=st.sampled_from([0, 1]))
def test_edge_rows_are_the_reference_pairs_and_their_runs(lam, base):
    """edge_rows(base) is the reference's pairs shifted by base, as plain
    int 2-tuples, and each node's edges are the tail of its class's run
    from its start on: every earlier run entry is at most the node."""
    report = atom_splitting(lam)
    rows = report.edge_rows(base)
    pairs = tuple([(i + base, j + base) for i, j in reference.atom_splitting(lam).mixing_edges])
    assert type(rows) is EdgeRows and rows == pairs
    assert all(type(p) is tuple and list(map(type, p)) == [int, int] for p in rows)
    assert (rows.base, rows.node_class) == (base, report.node_class)
    assert rows.runs == tuple(tuple(j + base for j in cols) for cols in report.partners)
    for i, (c, k) in enumerate(zip(rows.node_class, rows.starts), base):
        assert all(j <= i for j in rows.runs[c][:k])
        assert all(j > i for j in rows.runs[c][k:])
    assert report.mixing_edges == report.edge_rows(0)


def test_edge_rows_are_immutable_and_copy_whole():
    lam = InteractionMatrix(Matrix.from_rows([[0, 1], [-1, 0]]), (1, 0, 1))
    rows = atom_splitting(lam).edge_rows(1)
    assert rows == ((1, 2), (2, 3))
    for name in ("base", "runs", "node_class", "starts", "other"):
        with pytest.raises(AttributeError):
            setattr(rows, name, None)
    with pytest.raises(AttributeError):
        del rows.runs
    for twin in (copy.copy(rows), copy.deepcopy(rows), pickle.loads(pickle.dumps(rows))):
        assert type(twin) is EdgeRows and twin == rows
        assert (twin.base, twin.runs, twin.node_class, twin.starts) == (
            rows.base, rows.runs, rows.node_class, rows.starts)


def test_reports_with_equal_clusters_differ_by_their_edges():
    """A path and a triangle on three nodes share one cluster and the
    verdict; report equality still tells them apart by their edges."""
    path_lam = InteractionMatrix(Matrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]), (0, 1, 2))
    triangle_lam = InteractionMatrix(Matrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]), (0, 1, 2))
    path, triangle = atom_splitting(path_lam), atom_splitting(triangle_lam)
    assert path.clusters == triangle.clusters == ((0, 1, 2),)
    assert path.mixing_edges == ((0, 1), (1, 2))
    assert path != triangle
    assert path == reference.atom_splitting(path_lam) != triangle
