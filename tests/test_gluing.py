from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightsectors.linalg import (
    DimensionMismatchError,
    Matrix,
    rank,
    vector,
)
from lightsectors.gluing import (
    ExtensionVerdict,
    RealizedSpace,
    check_membership,
    classify_extension_side,
    realized_space,
)
from lightsectors.package import assemble
from lightsectors.pairing import standard_symplectic

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def incidence_data(draw, max_r=5, max_cols=5):
    r = draw(st.integers(1, max_r))
    cols = draw(st.integers(0, max_cols))
    grid = [[draw(rationals) for _ in range(cols)] for _ in range(r)]
    return Matrix.from_rows(grid, cols=cols)


def test_realized_space_full():
    rs = realized_space(Matrix.identity(2))
    assert rs.is_full
    assert classify_extension_side(rs) is ExtensionVerdict.SPLIT


def test_realized_space_single_column():
    inc = Matrix.from_columns([(1, 1)], rows=2)
    rs = realized_space(inc)
    assert rs.v_geom.dim == 1
    assert rs.v_geom.basis.entries == (vector([1, 1]),)
    assert classify_extension_side(rs) is ExtensionVerdict.INTERACTING


def test_realized_space_two_blocks():
    inc = Matrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3)
    rs = realized_space(inc)
    assert rs.v_geom.dim == 2
    assert classify_extension_side(rs) is ExtensionVerdict.INTERACTING


def test_membership_on_diagonal_line():
    rs = realized_space(Matrix.from_columns([(1, 1)], rows=2))
    assert check_membership(rs, vector((3, 3)))
    assert not check_membership(rs, vector((1, 0)))


def test_membership_blockwise_classes():
    rs = realized_space(Matrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3))
    for a, b in [(0, 0), (1, 2), (Fraction(-1, 3), 5)]:
        assert check_membership(rs, vector((a, a, b)))
    assert not check_membership(rs, vector((1, 2, 0)))


def test_membership_length_mismatch():
    rs = RealizedSpace.ambient(2)
    with pytest.raises(DimensionMismatchError):
        check_membership(rs, vector((1, 2, 3)))


def test_ambient_default_is_full():
    rs = RealizedSpace.ambient(3)
    assert rs.is_full
    assert check_membership(rs, vector((1, 2, 3)))


@given(inc=incidence_data())
def test_realized_dim_is_incidence_rank(inc):
    assert realized_space(inc).v_geom.dim == rank(inc)


@given(inc=incidence_data(max_r=4))
def test_split_iff_every_basis_vector_admitted(inc):
    rs = realized_space(inc)
    admits_all = all(
        check_membership(rs, vector(int(i == k) for i in range(inc.rows)))
        for k in range(inc.rows)
    )
    assert (classify_extension_side(rs) is ExtensionVerdict.SPLIT) == admits_all


@given(inc=incidence_data(max_r=4, max_cols=4), data=st.data())
def test_realized_space_invariant_under_column_permutation(inc, data):
    columns = list(inc.transpose().entries)
    perm = data.draw(st.permutations(range(len(columns))))
    shuffled = Matrix.from_columns([columns[p] for p in perm], rows=inc.rows)
    assert realized_space(inc).v_geom == realized_space(shuffled).v_geom


def test_realized_space_invariant_under_recombination():
    inc = Matrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3)
    recombined = Matrix.from_columns([(1, 1, 2), (2, 2, -1), (1, 1, 1)], rows=3)
    assert realized_space(inc).v_geom == realized_space(recombined).v_geom


def test_from_columns_keeps_the_stated_node_count():
    with pytest.raises(DimensionMismatchError):
        Matrix.from_columns([(1, 1)], rows=3)
    assert Matrix.from_columns([], rows=2).rows == 2


def test_incidence_shape_validation():
    # The incidence has one row per node.
    space, cycles = standard_symplectic(1), [(1, 0), (0, 1), (1, 1)]
    with pytest.raises(DimensionMismatchError):
        assemble(space, cycles, incidence=Matrix.identity(2))
    assert assemble(space, cycles[:2], incidence=Matrix.identity(2)).realized.is_full
