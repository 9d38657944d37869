import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightsectors.linalg import DimensionMismatchError, Matrix, vector
from lightsectors.pairing import (
    CycleConfiguration,
    NotSkewSymmetricError,
    NotSquareError,
    PairingSpace,
    pair,
    standard_symplectic,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def skew_spaces(draw, max_dim=6):
    dim = draw(st.integers(1, max_dim))
    grid = [[draw(rationals) for _ in range(dim)] for _ in range(dim)]
    a = Matrix.from_rows(grid, cols=dim)
    return PairingSpace(a - a.transpose())


def vectors_in(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(vector)


def test_standard_block_is_valid():
    space = PairingSpace(Matrix.from_rows([[0, 1], [-1, 0]]))
    assert space.dim == 2


def test_symmetric_matrix_rejected():
    with pytest.raises(NotSkewSymmetricError) as info:
        PairingSpace(Matrix.from_rows([[0, 1], [1, 0]]))
    assert "(1,2)" in str(info.value)


def test_non_square_rejected():
    with pytest.raises(NotSquareError):
        PairingSpace(Matrix.from_rows([[0, 1]]))


def test_standard_symplectic_blocks():
    assert standard_symplectic(0).dim == 0
    assert standard_symplectic(1).gram == Matrix.from_rows([[0, 1], [-1, 0]])
    g2 = standard_symplectic(2)
    assert g2.dim == 4
    assert g2.gram.entries[0][1] == 1 and g2.gram.entries[2][3] == 1
    assert g2.gram.entries[0][2] == 0


def test_pair_defining_property():
    space = standard_symplectic(1)
    assert pair(space, (1, 0), (0, 1)) == 1
    assert pair(space, (0, 1), (1, 0)) == -1


def test_pair_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        pair(standard_symplectic(1), (1, 0, 0), (0, 1))


@given(data=st.data(), space=skew_spaces())
def test_self_pairing_vanishes(data, space):
    v = data.draw(vectors_in(space.dim))
    assert pair(space, v, v) == 0


@given(data=st.data(), space=skew_spaces())
def test_pair_antisymmetric(data, space):
    a = data.draw(vectors_in(space.dim))
    b = data.draw(vectors_in(space.dim))
    assert pair(space, a, b) == -pair(space, b, a)


@given(data=st.data(), space=skew_spaces(), lam=rationals)
def test_pair_bilinear(data, space, lam):
    a = data.draw(vectors_in(space.dim))
    b = data.draw(vectors_in(space.dim))
    c = data.draw(vectors_in(space.dim))
    shifted = tuple(x + lam * y for x, y in zip(a, c))
    assert pair(space, shifted, b) == pair(space, a, b) + lam * pair(space, c, b)


@given(m=st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(lambda rows: Matrix.from_rows(rows)))
def test_validation_accepts_exactly_skew(m):
    is_skew = m.transpose() == -m
    if is_skew:
        PairingSpace(m)
    else:
        with pytest.raises(NotSkewSymmetricError):
            PairingSpace(m)


def test_cycle_configuration_flags_trivial_nodes():
    space = standard_symplectic(1)
    cfg = CycleConfiguration.from_vectors(space, [(0, 0), (1, 0)])
    assert cfg.r == 2
    assert cfg.trivial_nodes == (0,)


def test_cycle_configuration_length_check():
    with pytest.raises(DimensionMismatchError):
        CycleConfiguration.from_vectors(standard_symplectic(1), [(1, 0, 0)])


def test_cycle_of_the_wrong_length_is_named():
    with pytest.raises(DimensionMismatchError, match="^vector 3 has 3 entries, expected 2$"):
        CycleConfiguration.from_vectors(standard_symplectic(1), [(1, 0), (0, 1), (1, 1, 0)])


def test_cycles_are_read_once():
    cycles = (vector(v) for v in [(1, 0), (0, 1)])
    cfg = CycleConfiguration.from_vectors(standard_symplectic(1), cycles)
    assert cfg.matrix == Matrix.identity(2)
