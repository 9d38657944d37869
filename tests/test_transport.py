import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightsectors.linalg import (
    DimensionMismatchError,
    InvariantError,
    Matrix,
    basis_vector,
    is_zero_vector,
    rank,
    vector,
)
from lightsectors.pairing import (
    CycleConfiguration,
    make_pairing_space,
    pair,
    standard_symplectic,
)
from lightsectors.scenarios import builtin_scenario, parse_scenario, to_package
from lightsectors.transport import (
    InteractionMatrix,
    TransportOperator,
    commutator,
    commutator_closed_form,
    commutes_all,
    interaction_matrix,
    pl_operator,
    transport_word,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def cycle_configurations(draw, max_dim=6, max_r=4):
    dim = draw(st.integers(1, max_dim))
    grid = [[draw(rationals) for _ in range(dim)] for _ in range(dim)]
    a = Matrix.from_rows(grid, cols=dim)
    space = make_pairing_space(a - a.transpose())
    r = draw(st.integers(1, max_r))
    cycles = [
        vector([draw(rationals) for _ in range(dim)]) for _ in range(r)
    ]
    return CycleConfiguration(space, tuple(cycles))


def _a1xa1_config():
    return CycleConfiguration.from_vectors(
        standard_symplectic(2), [(1, 0, 0, 0), (0, 0, 1, 0)]
    )


def _a2_config(coupling=1):
    return CycleConfiguration.from_vectors(
        standard_symplectic(1), [(1, 0), (0, coupling)]
    )


def _three_node_config():
    return CycleConfiguration.from_vectors(
        standard_symplectic(2), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    )


# -- operator construction -------------------------------------------------


def test_zero_cycle_gives_identity_transport():
    cfg = CycleConfiguration.from_vectors(standard_symplectic(1), [(0, 0)])
    op = pl_operator(cfg, 0)
    assert op.t_matrix == Matrix.identity(2)
    assert op.n_matrix.is_zero()
    assert op.nilpotent_rank == 0


def test_transport_of_e1_in_symplectic_plane():
    # Direct evaluation: the operator fixes e1 and sends e2 to e2 - e1.
    cfg = CycleConfiguration.from_vectors(standard_symplectic(1), [(1, 0)])
    op = pl_operator(cfg, 0)
    assert op.t_matrix.apply(vector([1, 0])) == vector([1, 0])
    assert op.t_matrix.apply(vector([0, 1])) == vector([-1, 1])
    assert op.t_matrix == Matrix.from_rows([[1, -1], [0, 1]])


def test_nilpotent_action_matches_pairing_formula():
    rng = random.Random(7)
    space = standard_symplectic(2)
    delta = vector([1, 2, Fraction(1, 2), -1])
    cfg = CycleConfiguration(space, (delta,))
    op = pl_operator(cfg, 0)
    for _ in range(20):
        alpha = vector([Fraction(rng.randint(-5, 5)) for _ in range(4)])
        weight = pair(space, alpha, delta)
        assert op.n_matrix.apply(alpha) == tuple(weight * d for d in delta)


def test_pl_operator_index_range():
    with pytest.raises(IndexError):
        pl_operator(_a2_config(), 2)


def test_rank_one_factor_matches_dense_reference():
    """The lazy matrices and nilpotent_rank agree with the entrywise grid."""
    rng = random.Random(5150)
    # Radical spanned by e3: a cycle there pairs trivially with everything.
    degenerate = make_pairing_space(Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    cases = [
        (standard_symplectic(1), vector([0, 0])),
        (degenerate, vector([0, 0, 2])),
        (degenerate, vector([1, 0, 5])),
    ]
    for _ in range(300):
        dim = rng.randint(1, 6)
        a = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        delta = vector(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.7 else 0
             for _ in range(dim)]
        )
        cases.append((make_pairing_space(a - a.transpose()), delta))
    kinds = set()
    for space, delta in cases:
        op = pl_operator(CycleConfiguration(space, (delta,)), 0)
        weights = [pair(space, basis_vector(space.dim, k), delta) for k in range(space.dim)]
        n_grid = tuple(
            tuple(weights[k] * delta[j] for k in range(space.dim)) for j in range(space.dim)
        )
        t_grid = tuple(
            tuple(x + 1 if j == k else x for k, x in enumerate(row))
            for j, row in enumerate(n_grid)
        )
        reference = Matrix(space.dim, space.dim, n_grid)
        assert op.n_matrix == reference
        assert op.t_matrix == Matrix(space.dim, space.dim, t_grid)
        assert op.nilpotent_rank == rank(reference)
        kinds.add("zero cycle" if is_zero_vector(delta)
                  else "pairs trivially" if op.nilpotent_rank == 0 else "rank one")
    assert kinds == {"zero cycle", "pairs trivially", "rank one"}


def test_transport_factor_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        TransportOperator(0, vector([1, 0]), vector([0, 1, 0]))


@settings(max_examples=150)
@given(cfg=cycle_configurations())
def test_operator_invariants(cfg):
    for i in range(cfg.r):
        op = pl_operator(cfg, i)
        n = op.n_matrix
        assert (n @ n).is_zero()
        assert rank(n) <= 1
        assert op.t_matrix @ op.inverse() == Matrix.identity(cfg.space.dim)
        assert op.t_matrix == Matrix.identity(cfg.space.dim) + n


# -- interaction matrix ----------------------------------------------------


def test_interaction_matrix_split_pair():
    lam = interaction_matrix(_a1xa1_config())
    assert lam.entries == Matrix.zero(2, 2)
    assert commutes_all(lam)


def test_interaction_matrix_coupled_pair():
    lam = interaction_matrix(_a2_config())
    assert lam.entries == Matrix.from_rows([[0, 1], [-1, 0]])
    assert not commutes_all(lam)


def test_interaction_matrix_three_node():
    lam = interaction_matrix(_three_node_config())
    assert lam.entries == Matrix.from_rows(
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    )
    assert not commutes_all(lam)


@given(cfg=cycle_configurations())
def test_interaction_matrix_skew_zero_diagonal(cfg):
    lam = interaction_matrix(cfg)
    assert lam.entries.transpose() == -lam.entries
    assert all(lam.entry(i, i) == 0 for i in range(cfg.r))


@pytest.mark.parametrize(
    "rows, entry",
    [
        ([[0, 1], [1, 0]], "(1,2)"),
        ([[0, 0], [0, 1]], "(2,2)"),
        ([[0, 1, 2], [-1, 0, 5], [-2, 3, 1]], "(2,3)"),
    ],
)
def test_non_skew_interaction_matrix_names_first_entry(rows, entry):
    with pytest.raises(InvariantError) as info:
        InteractionMatrix(len(rows), Matrix.from_rows(rows))
    assert str(info.value) == f"interaction matrix not skew at {entry}"


@pytest.mark.parametrize("name", ["four_node_blocks", "quintic_orbits"])
def test_reduced_matrix_is_an_interaction_matrix(name):
    if name == "quintic_orbits":
        scenario = builtin_scenario(name)
    else:
        path = Path(__file__).parent / "data" / f"{name}.scenario"
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
    pkg = to_package(scenario)
    assert isinstance(pkg.reduced, InteractionMatrix)
    assert pkg.reduced.r == pkg.reduced.b == pkg.partition.count


# -- commutators -----------------------------------------------------------


def test_commutator_with_self_is_zero():
    op = pl_operator(_a2_config(), 0)
    assert commutator(op, op).is_zero()


def test_commutator_split_pair_is_zero():
    cfg = _a1xa1_config()
    assert commutator(pl_operator(cfg, 0), pl_operator(cfg, 1)).is_zero()


def test_commutator_coupled_pair_is_nonzero():
    cfg = _a2_config()
    c = commutator(pl_operator(cfg, 0), pl_operator(cfg, 1))
    assert not c.is_zero()
    # Product oracle, computed by hand from the two nilpotent matrices.
    assert c == Matrix.from_rows([[-1, 0], [0, 1]])


def test_commutator_dimension_mismatch():
    a = pl_operator(_a2_config(), 0)
    b = pl_operator(_a1xa1_config(), 0)
    with pytest.raises(DimensionMismatchError):
        commutator(a, b)


@settings(max_examples=150)
@given(cfg=cycle_configurations())
def test_commutator_matches_closed_form(cfg):
    for i in range(cfg.r):
        for j in range(cfg.r):
            dense = commutator(pl_operator(cfg, i), pl_operator(cfg, j))
            closed = commutator_closed_form(cfg.space, cfg.cycles[i], cfg.cycles[j])
            assert dense == closed


@settings(max_examples=100)
@given(cfg=cycle_configurations(max_r=6))
def test_commutes_all_iff_commutators_vanish(cfg):
    lam = interaction_matrix(cfg)
    ops = [pl_operator(cfg, i) for i in range(cfg.r)]
    brute = all(
        commutator(ops[i], ops[j]).is_zero()
        for i, j in itertools.combinations(range(cfg.r), 2)
    )
    assert commutes_all(lam) == brute


# -- words -----------------------------------------------------------------


def test_empty_word_is_identity():
    assert transport_word(_a2_config(), []) == Matrix.identity(2)


def test_inverse_pair_cancels():
    cfg = _a2_config()
    for i in (1, 2):
        assert transport_word(cfg, [i, -i]) == Matrix.identity(2)
        assert transport_word(cfg, [-i, i]) == Matrix.identity(2)


def test_word_order_matters_for_coupled_pair():
    cfg = _a2_config()
    diff = transport_word(cfg, [1, 2]) - transport_word(cfg, [2, 1])
    assert not diff.is_zero()
    # Independent oracle: multiply the operator matrices directly.
    t1 = pl_operator(cfg, 0).t_matrix
    t2 = pl_operator(cfg, 1).t_matrix
    assert transport_word(cfg, [1, 2]) == t1 @ t2
    assert transport_word(cfg, [2, 1]) == t2 @ t1


def test_word_letter_out_of_range():
    with pytest.raises(IndexError):
        transport_word(_a2_config(), [3])
    with pytest.raises(IndexError):
        transport_word(_a2_config(), [0])


@settings(max_examples=60)
@given(
    cfg=cycle_configurations(max_dim=4, max_r=3),
    data=st.data(),
)
def test_word_concatenation(cfg, data):
    letters = st.integers(-cfg.r, cfg.r).filter(lambda k: k != 0)
    u = data.draw(st.lists(letters, max_size=4))
    v = data.draw(st.lists(letters, max_size=4))
    assert transport_word(cfg, u + v) == transport_word(cfg, u) @ transport_word(cfg, v)
