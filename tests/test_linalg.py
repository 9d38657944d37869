import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightsectors.linalg import (
    DimensionMismatchError,
    Matrix,
    Subspace,
    column_space,
    format_rational,
    kernel,
    parse_rational,
    quotient_dim,
    rank,
    rref,
    vector,
)
from lightsectors.blocks import relation_lattice_from_blocks
from lightsectors.scenarios import builtin_scenario, to_package

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_dim=5, min_dim=0):
    rows = draw(st.integers(min_dim, max_dim))
    cols = draw(st.integers(min_dim, max_dim))
    grid = [
        [draw(rationals) for _ in range(cols)] for _ in range(rows)
    ]
    return Matrix.from_rows(grid, cols=cols)


@st.composite
def invertible_matrices(draw, n):
    """L D U with unit-triangular L, U and nonzero diagonal D: always invertible."""
    lower = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = draw(rationals)
            upper[j][i] = draw(rationals)
    diag = [draw(rationals.filter(lambda q: q != 0)) for _ in range(n)]
    d = Matrix.from_rows(
        [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)],
        cols=n,
    )
    return Matrix.from_rows(lower, cols=n) @ d @ Matrix.from_rows(upper, cols=n)


# -- rational text form --------------------------------------------------


def test_parse_rational_canonical_forms():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("0") == 0
    assert parse_rational("5") == 5


def test_parse_rational_reduces_on_input():
    q = parse_rational("2/4")
    assert q == Fraction(1, 2)
    assert format_rational(q) == "1/2"


@pytest.mark.parametrize("bad", ["1/-2", "+3", "1.5", " 1", "1 ", "", "1e3", "a", "1/0"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.sampled_from(["-0", "007", "0/5", "-0/3", "2/4", "-007/0014", "12/1"]),
        st.from_regex(r"\A-?[0-9]{1,30}(/0*[1-9][0-9]{0,30})?\Z"),
    )
)
def test_parse_rational_agrees_with_fraction_text(text):
    got = parse_rational(text)
    want = Fraction(text)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("text", ["9" * 4301, "1/" + "9" * 4301])
def test_parse_rational_keeps_int_digit_limit(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@given(q=rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize(
    "num,den",
    [(10**6000 + 7, 1), (-(10**6000) - 7, 3), (1, 10**4300 + 1), (-(10**4300) - 1, 10**4400 + 3)],
    ids=["integer", "negative-over-3", "huge-denominator", "both-huge"],
)
def test_format_rational_past_int_text_limit(num, den):
    # str(Fraction) raises past the interpreter's 4300-digit limit; the text
    # must still be exact, and the limit itself must stay in force.
    q = Fraction(num, den)
    text = format_rational(q)
    with pytest.raises(ValueError):
        str(q)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert text == str(q)
    finally:
        sys.set_int_max_str_digits(saved)


# -- rref ----------------------------------------------------------------


def test_rref_identity():
    m = Matrix.identity(3)
    reduced, rk = rref(m)
    assert reduced == m and rk == 3


def test_rref_zero():
    m = Matrix.zero(2, 4)
    reduced, rk = rref(m)
    assert reduced == m and rk == 0


def test_rref_dependent_rows():
    # Hand row-reduction: R2 := R2 - 2 R1 leaves a single pivot row.
    m = Matrix.from_rows([[1, 1], [2, 2]])
    reduced, rk = rref(m)
    assert rk == 1
    assert reduced == Matrix.from_rows([[1, 1], [0, 0]])


@given(m=matrices())
def test_rref_idempotent(m):
    reduced, rk = rref(m)
    again, rk2 = rref(reduced)
    assert again == reduced and rk2 == rk


@given(m=matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.cols


@given(m=matrices())
def test_results_stay_in_lowest_terms(m):
    reduced, _ = rref(m)
    for row in reduced.entries:
        for q in row:
            assert q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1


# -- column space / kernel ----------------------------------------------


def test_column_space_single_column():
    sub = column_space(Matrix.from_columns([(1, 1)], rows=2))
    assert sub.basis.entries == (vector([1, 1]),)


def test_column_space_identity_is_full():
    assert column_space(Matrix.identity(3)).is_full()


def test_column_space_two_columns():
    sub = column_space(Matrix.from_columns([(1, 1, 0), (0, 0, 1)], rows=3))
    assert sub.dim == 2
    assert sub.basis.entries == (vector([1, 1, 0]), vector([0, 0, 1]))


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(3)).dim == 0
    assert kernel(Matrix.zero(2, 3)) == Subspace.full(3)


def test_kernel_one_equation():
    # Solving x + y = 0 by hand gives the line through (1, -1).
    sub = kernel(Matrix.from_rows([[1, 1]]))
    assert sub.basis.entries == (vector([1, -1]),)


@settings(max_examples=50)
@given(data=st.data(), m=matrices(max_dim=4, min_dim=1))
def test_column_space_invariant_under_invertible_recombination(data, m):
    if m.cols == 0:
        p = Matrix.identity(0)
    else:
        p = data.draw(invertible_matrices(m.cols))
    assert column_space(m) == column_space(m @ p)


@given(m=matrices(max_dim=4))
def test_kernel_vectors_annihilate(m):
    for v in kernel(m).basis.entries:
        assert all(x == 0 for x in m.apply(v))


# -- subspace operations --------------------------------------------------


def test_subspace_canonical_uniqueness():
    a = Subspace.spanned_by([(1, 1, 0), (0, 0, 1)], 3)
    b = Subspace.spanned_by([(1, 1, 1), (0, 0, 2), (1, 1, 3)], 3)
    assert a == b  # structural equality of canonical bases


def test_subspace_contains_scalar_multiple():
    sub = Subspace.spanned_by([(1, 1)], 2)
    assert sub.contains((2, 2))
    assert not sub.contains((1, 0))


def test_quotient_dim():
    assert quotient_dim(3, Subspace.spanned_by([(1, -1, 0)], 3)) == 2
    assert quotient_dim(4, Subspace.zero(4)) == 4


def test_quotient_dim_ambient_mismatch():
    with pytest.raises(DimensionMismatchError):
        quotient_dim(3, Subspace.zero(2))


def test_contains_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        Subspace.full(2).contains((1, 2, 3))


def test_non_canonical_basis_rejected():
    with pytest.raises(ValueError):
        Subspace(2, Matrix.from_rows([[2, 0]]))


def test_negative_ambient_dimension_rejected():
    with pytest.raises(ValueError, match="negative ambient dimension"):
        Subspace(-1, ())


@pytest.mark.parametrize("basis", [((1.0, 0.5),), [(1, 0)], (vector([1, 0]),)],
                         ids=["floats", "unhashable-list", "fraction-tuple"])
def test_basis_that_is_not_a_matrix_rejected(basis):
    with pytest.raises(TypeError, match="must be a Matrix"):
        Subspace(2, basis)


def test_basis_of_the_wrong_width_rejected():
    with pytest.raises(DimensionMismatchError):
        Subspace(3, Matrix.identity(2))
    with pytest.raises(DimensionMismatchError):
        Subspace(3, Matrix(0, 2, ()))


def test_subspaces_hash_as_values():
    a = Subspace.spanned_by([(2, 4, "2/3")], 3)
    b = Subspace(3, Matrix(1, 3, ((3, 6, 1),), 3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def _drawn_bases():
    rng = random.Random(4242)
    pool = [0, 0, 0, 1, 1, -1, 2, Fraction(1, 2)]
    for _ in range(3000):
        n = rng.randint(0, 4)
        basis = tuple(
            vector([rng.choice(pool) for _ in range(n)]) for _ in range(rng.randint(0, 3))
        )
        if rng.random() < 0.5:
            # Start from an rref basis, then maybe break one entry of it.
            basis = Subspace.spanned_by(basis, n).basis.entries
            if basis and rng.random() < 0.5:
                i, j = rng.randrange(len(basis)), rng.randrange(n)
                row = list(basis[i])
                row[j] = rng.choice(pool)
                basis = basis[:i] + (tuple(row),) + basis[i + 1:]
        yield n, basis


def _orbit_lattice_bases():
    """The 125-node quintic_orbits relation lattice, then a copy with one
    nonzero entry put into the pivot column of the next row."""
    part = to_package(builtin_scenario("quintic_orbits")).partition
    basis = relation_lattice_from_blocks(part).basis.entries
    yield part.r, basis
    lead = next(j for j, x in enumerate(basis[1]) if x)
    row = list(basis[0])
    row[lead] = Fraction(3)
    yield part.r, (tuple(row),) + basis[1:]


def test_canonical_basis_check_matches_rref():
    """Subspace(n, basis) raises exactly when rref would change the basis."""
    outcomes = set()
    for n, basis in itertools.chain(_drawn_bases(), _orbit_lattice_bases()):
        reduced, rk = rref(Matrix.from_rows(basis, cols=n))
        canonical = reduced.entries[:rk] == basis
        try:
            Subspace(n, Matrix.from_rows(basis, cols=n))
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == canonical, basis
        outcomes.add(accepted)
    assert outcomes == {True, False}


def test_from_rows_and_columns_reject_a_size_the_data_disagrees_with():
    with pytest.raises(DimensionMismatchError):
        Matrix.from_rows([[1, 2]], cols=3)
    with pytest.raises(DimensionMismatchError):
        Matrix.from_columns([(1, 1)], rows=3)
    with pytest.raises(DimensionMismatchError):
        Matrix.from_rows([[1, 2], [3]])
    assert Matrix.from_rows([], cols=3) == Matrix.zero(0, 3)
    assert Matrix.from_columns([], rows=2) == Matrix.zero(2, 0)
    assert Matrix.from_columns([(1, 2), (3, 4)], rows=2) == Matrix.from_rows([[1, 3], [2, 4]])


@pytest.mark.parametrize("vectors, message", [
    ([(1, 2, 3), (1, 0), (0, 1)], "vector 1 has 3 entries, expected 2"),
    ([(1, 0), (0, 1), ("1/2", 0, 0)], "vector 3 has 3 entries, expected 2"),
    ([(1, 0), (1,)], "vector 2 has 1 entries, expected 2"),
], ids=["first", "last", "short"])
def test_spanned_by_names_a_vector_of_the_wrong_length(vectors, message):
    with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
        Subspace.spanned_by(vectors, 2)


def test_matrix_names_a_ragged_row():
    with pytest.raises(DimensionMismatchError, match="^vector 2 has 1 entries, expected 2$"):
        Matrix(3, 2, ((1, 2), (3,), (4, 5)))
    with pytest.raises(DimensionMismatchError, match="^vector 1 has 2 entries, expected 3$"):
        Matrix.from_rows([[1, 2]], cols=3)


def test_from_columns_without_rows_names_a_ragged_column():
    with pytest.raises(DimensionMismatchError, match="^vector 2 has 3 entries, expected 2$"):
        Matrix.from_columns([(1, 2), (3, 4, 5), (6, 7)])
    with pytest.raises(DimensionMismatchError, match="^vector 1 has 2 entries, expected 3$"):
        Matrix.from_columns([(1, 1)], rows=3)


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=4))))
@example((2, []))  # no columns: a 2x0 matrix
@example((0, [[], []]))  # two columns of no entries
def test_from_columns_is_the_transpose_of_its_columns(shape):
    n, columns = shape
    m = Matrix.from_columns(columns, rows=n)
    assert (m.rows, m.cols) == (n, len(columns))
    assert m.entries == tuple(tuple(Fraction(c[i]) for c in columns) for i in range(n))


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        Matrix.identity(2) @ Matrix.identity(3)
