"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact (tolerance zero); time bounds are asserted
where stated.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from lightsectors.linalg import Matrix, Slots, quotient_dim, vector
from lightsectors.pairing import pair
from lightsectors.transport import (closed_form_bound, commutator, commutator_bound,
                                   commutator_closed_form)
from lightsectors.gluing import check_membership
from lightsectors.blocks import relation_lattice_from_blocks
from lightsectors.package import verify_block_structure
from lightsectors.scenarios import (
    BUILTIN_NAMES,
    builtin_scenario,
    parse_scenario,
    to_package,
)
from lightsectors.selftest import (
    _check_a1xa1,
    _check_a2,
    _check_block_structure,
    _check_criterion_equivalences,
    _check_determinism,
    _check_three_node,
    _check_transport_invariants,
)

DATA = Path(__file__).parent / "data"


def _criterion(number, label, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_split_two_node_regression():
    def body():
        start = time.monotonic()
        _check_a1xa1()
        assert time.monotonic() - start < 1.0

    _criterion(1, "split two-node regression", body)


def test_criterion_2_coupled_two_node_regression():
    def body():
        start = time.monotonic()
        pkg = _check_a2()

        d1, d2 = pkg.cycles.matrix.entries
        slots = Slots(max(commutator_bound(pkg.transport), closed_form_bound(pkg.cycles)), 2)
        (rows, den), = commutator(pkg.transport, slots)
        comm = Matrix(2, 2, tuple(slots.unpack(rows)), den)
        assert not comm.is_zero()
        space = pkg.space
        lam12 = pair(space, d1, d2)
        lam21 = -lam12
        for k in range(2):
            e_k = vector([1 if i == k else 0 for i in range(2)])
            expected = tuple(
                pair(space, e_k, d2) * lam21 * x - pair(space, e_k, d1) * lam12 * y
                for x, y in zip(d1, d2)
            )
            assert comm.transpose().entries[k] == expected
        assert (rows, den) == commutator_closed_form(pkg.cycles, 0, 1, slots)

        assert pkg.realized.v_geom.basis.entries == (vector([1, 1]),)
        for c in (0, 1, 3, Fraction(-7, 2)):
            assert check_membership(pkg.realized, vector((c, c)))
        assert not check_membership(pkg.realized, vector((1, 0)))
        assert time.monotonic() - start < 1.0

    _criterion(2, "coupled two-node regression", body)


def test_criterion_3_three_node_regression():
    def body():
        start = time.monotonic()
        pkg = _check_three_node()
        assert pkg.blocks_incidence is not None
        assert pkg.blocks_incidence.blocks == ((0, 1), (2,))
        assert time.monotonic() - start < 1.0

    _criterion(3, "three-node regression", body)


def test_criterion_4_block_structure_property_suite():
    def body():
        start = time.monotonic()
        _check_block_structure(random.Random(600613), 500, max_nodes=12, max_genus=6)
        assert time.monotonic() - start < 30.0

    _criterion(4, "block-structure property suite (500 cases)", body)


def test_criterion_5_transport_invariant_fuzz():
    def body():
        start = time.monotonic()
        _check_transport_invariants(random.Random(271828), 1000)
        assert time.monotonic() - start < 10.0

    _criterion(5, "transport invariant fuzz (1000 cases)", body)


def test_criterion_6_criterion_equivalences_brute_force():
    _criterion(6, "criterion equivalences on the r<=4 pool", _check_criterion_equivalences)


def test_criterion_7_quintic_scale():
    def body():
        start = time.monotonic()
        pkg = to_package(builtin_scenario("quintic_orbits"))
        assert pkg.r == 125
        assert pkg.separation_holds
        assert pkg.partition.count == 5
        assert quotient_dim(125, relation_lattice_from_blocks(pkg.partition)) == 5
        assert pkg.realized.v_geom.dim == 5
        owner = [[k in block for block in pkg.partition.blocks].index(True) for k in range(125)]
        lam, mu = pkg.interaction.entries.entries, pkg.reduced.entries.entries
        for i in range(125):
            for j in range(125):
                assert lam[i][j] == mu[owner[i]][owner[j]]
        report = verify_block_structure(pkg)
        assert report.overall
        assert time.monotonic() - start < 10.0

    _criterion(7, "quintic orbit model at full scale", body)


def test_criterion_8_determinism_and_round_trip():
    def body():
        shipped = [builtin_scenario(name) for name in BUILTIN_NAMES]
        shipped.append(parse_scenario((DATA / "four_node_blocks.scenario").read_text()))
        _check_determinism(shipped)

    _criterion(8, "determinism and round trips", body)
