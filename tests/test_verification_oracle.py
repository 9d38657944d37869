"""Verification reports against the eager reference that recorded every comparison.

A report keeps the number of comparisons it ran and, in run order, the ones
that failed.  ``reference`` keeps the eager builders, which record one check
per comparison with its verdict.  On generated packages, clean and with
faults injected, a report's total must equal the reference's number of
checks, and its failures must equal the failing reference checks, name,
expected and actual text, in order.
"""

import copy
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from lightsectors import blocks
from lightsectors.atoms import atom_splitting
from lightsectors.linalg import Matrix
from lightsectors.modelgen import random_block_scenario
from lightsectors.package import LightSectorPackage, verify_block_structure
from lightsectors.scenarios import to_package
from lightsectors.pairing import CycleConfiguration, standard_symplectic
from lightsectors.transport import InteractionMatrix, interaction_matrix

oracle_settings = settings(derandomize=True, max_examples=40, deadline=None)

FAULTS = (
    "none",
    "intra_block_entry",
    "inter_block_entry",
    "reduced_entry",
    "closed_form",
    "blockwise_verdict",
)

bumps = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def _bumped(lam: InteractionMatrix, i: int, j: int, delta: Fraction) -> InteractionMatrix:
    """lam with delta added at (i, j) and subtracted at (j, i), so still skew."""
    grid = [list(row) for row in lam.entries.entries]
    grid[i][j] += delta
    grid[j][i] -= delta
    return InteractionMatrix(Matrix.from_rows(grid, cols=lam.r), tuple(range(lam.r)))


def _with_sections(pkg: LightSectorPackage, **sections) -> LightSectorPackage:
    """A copy of pkg with the named derived sections overridden and every
    other section keeping its clean value."""
    for name, value in vars(LightSectorPackage).items():
        if isinstance(value, functools.cached_property):
            getattr(pkg, name)
    faulty = copy.copy(pkg)
    vars(faulty).update(sections)
    return faulty


def _closed_form_off_at(bad_calls: set[int], n_pairs: int):
    """The closed form, plus the identity on the calls numbered in bad_calls.

    Calls are numbered modulo n_pairs, one run's worth: every run of the
    commutator check asks for each block pair once, in the same order.
    """
    calls = itertools.count()
    real = blocks.commutator_closed_form

    def closed_form(space, delta_a, delta_b):
        m = real(space, delta_a, delta_b)
        return m + Matrix.identity(space.dim) if next(calls) % n_pairs in bad_calls else m

    return closed_form


def assert_same_record(report, checks):
    assert report.total == len(checks)
    assert report.overall == all(c.passed for c in checks)
    assert all(type(f) is blocks.Check for f in report.failures)
    got = [(f.name, f.expected, f.actual) for f in report.failures]
    assert got == [(c.name, c.expected, c.actual) for c in checks if not c.passed]


def _pairs(pkg, intra: bool) -> list[tuple[int, int]]:
    part = pkg.partition
    return [
        (i, j)
        for i in range(pkg.r)
        for j in range(i + 1, pkg.r)
        if (part.block_of(i) == part.block_of(j)) == intra
    ]


@pytest.mark.parametrize("fault", FAULTS)
@oracle_settings
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_report_matches_eager_reference(fault, seed, data):
    rng = random.Random(seed)
    pkg = to_package(random_block_scenario(rng, max_nodes=9, max_genus=3))
    patched = blocks.commutator_closed_form
    if fault in ("intra_block_entry", "inter_block_entry"):
        pairs = _pairs(pkg, intra=fault == "intra_block_entry")
        assume(pairs)
        i, j = data.draw(st.sampled_from(pairs))
        pkg = _with_sections(pkg, interaction=_bumped(pkg.interaction, i, j, data.draw(bumps)))
    elif fault == "reduced_entry":
        assume(pkg.reduced.r >= 2)
        pairs = list(itertools.combinations(range(pkg.reduced.r), 2))
        beta, gamma = data.draw(st.sampled_from(pairs))
        pkg = _with_sections(pkg, reduced=_bumped(pkg.reduced, beta, gamma, data.draw(bumps)))
    elif fault == "closed_form":
        b = pkg.reduced.r
        assume(b >= 2)
        n_pairs = b * (b - 1) // 2
        bad_calls = data.draw(st.sets(st.integers(0, n_pairs - 1), min_size=1))
        patched = _closed_form_off_at(bad_calls, n_pairs)
    elif fault == "blockwise_verdict":
        grid = [[0]] if not pkg.blockwise.is_split else [[0, 1], [-1, 0]]
        opposite = InteractionMatrix(Matrix.from_rows(grid), tuple(range(len(grid))))
        pkg = _with_sections(pkg, blockwise=atom_splitting(opposite))

    lam, bc, lam_blk = pkg.interaction, pkg.block_classes, pkg.reduced
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "commutator_closed_form", patched)
        report = verify_block_structure(pkg)
        assert_same_record(report, reference.block_structure_checks(pkg))
        assert_same_record(
            blocks.verify_block_consistency(lam, bc, lam_blk),
            reference.block_consistency_checks(lam, bc, lam_blk),
        )
        assert_same_record(
            blocks.block_commutator_check(pkg.space, bc, lam_blk),
            reference.block_commutator_checks(pkg.space, bc, lam_blk),
        )

    # A fault always shows; a clean package always passes.
    assert report.overall == (fault == "none")


@oracle_settings
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_shared_rows_read_like_copied_rows(seed, data):
    """The readers that work once per cycle class give the same reports on
    the package's class-form matrix as on a twin with one class per node,
    with and without a fault in the reduced matrix."""
    rng = random.Random(seed)
    pkg = to_package(random_block_scenario(rng, max_nodes=9, max_genus=3))
    lam, bc, lam_blk = pkg.interaction, pkg.block_classes, pkg.reduced
    twin = InteractionMatrix(lam.entries, tuple(range(lam.r)))
    assert twin.pairings.rows == lam.r and twin.entries == lam.entries
    if lam_blk.r >= 2 and data.draw(st.booleans()):
        beta, gamma = data.draw(st.sampled_from(list(itertools.combinations(range(lam_blk.r), 2))))
        lam_blk = _bumped(lam_blk, beta, gamma, data.draw(bumps))
    assert atom_splitting(lam) == atom_splitting(twin)
    assert (blocks.verify_block_consistency(lam, bc, lam_blk)
            == blocks.verify_block_consistency(twin, bc, lam_blk))


def test_shared_row_checked_against_each_block():
    """Singleton blocks 1 and 2 have one cycle class; a fault in the reduced
    matrix gives the two blocks different expected rows, and the class must
    be compared against each block, the first and the last that hold it."""
    space = standard_symplectic(1)
    cfg = CycleConfiguration.from_vectors(space, [(1, 0), (1, 0), (0, 1)])
    lam = interaction_matrix(cfg)
    assert lam.node_class == (0, 0, 1)
    bc = blocks.check_block_separation(cfg, blocks.BlockDecomposition.singletons(3))
    for block, names in [(0, ["lambda(1,3)", "lambda(3,1)"]), (1, ["lambda(2,3)", "lambda(3,2)"])]:
        lam_blk = _bumped(blocks.reduced_matrix(space, bc), block, 2, Fraction(1))
        report = blocks.verify_block_consistency(lam, bc, lam_blk)
        assert_same_record(report, reference.block_consistency_checks(lam, bc, lam_blk))
        assert [f.name for f in report.failures] == names
