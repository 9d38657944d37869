"""The integer matrix kernel against the entrywise Fraction reference.

A ``Matrix`` is integer rows over one denominator in lowest terms, and its
sums, differences, negation, transpose and products run on those integers;
the vector products clear denominators (``linalg.cleared``) and return
Fractions.  ``reference`` keeps the plain Fraction loops.  The two must agree
exactly, entry by entry and in the text form of each entry, on every shape
including empty ones, on zero rows and columns, on pairwise-coprime
denominators, on negative entries and on numerators past Python's 4300-digit
string limit; every result must be in lowest terms, so that equal values give
equal, equally hashed matrices.
"""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lightsectors.linalg import Matrix, cleared, first_skew_violation, vector, zero_vector
from lightsectors.pairing import CycleConfiguration, PairingSpace, pair
from lightsectors.transport import (
    TransportOperator,
    commutator,
    commutator_closed_form,
    interaction_matrix,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
HUGE = 10 ** 4301  # 4302 digits, past the default int-to-str limit of 4300

small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
coprime = st.builds(Fraction, st.integers(-60, 60), st.sampled_from(PRIMES))
huge = st.builds(
    lambda n, d, sign: Fraction(sign * (HUGE + n), d),
    st.integers(0, 10 ** 6),
    st.sampled_from((1,) + PRIMES),
    st.sampled_from((1, -1)),
)
entries = st.one_of(st.just(Fraction(0)), small, coprime, huge)

kernel_settings = settings(derandomize=True, max_examples=200, deadline=None)


@pytest.fixture(autouse=True)
def unlimited_int_text():
    """str() of the huge entries needs the int-to-str digit limit lifted."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=4):
    """A matrix with some rows and columns forced to zero."""
    rows = draw(st.integers(0, max_dim)) if rows is None else rows
    cols = draw(st.integers(0, max_dim)) if cols is None else cols
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols))
    grid = [
        [Fraction(0) if i in zero_rows or j in zero_cols else draw(entries) for j in range(cols)]
        for i in range(rows)
    ]
    return Matrix.from_rows(grid, cols=cols)


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(vector)


@st.composite
def spaces(draw, max_dim=4):
    n = draw(st.integers(0, max_dim))
    a = draw(matrices(rows=n, cols=n))
    return PairingSpace(a - a.transpose())


def assert_same_entries(got, want):
    """Equal entry by entry, each a Fraction with the same text form."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is Fraction
        assert x == y and str(x) == str(y)


def assert_same_matrix(got: Matrix, want: Matrix):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    # Lowest terms: the one stored form of the value.
    assert got.den >= 1 and math.gcd(got.den, *(x for row in got.num for x in row)) == 1
    assert len(got.entries) == len(want.entries)
    for row_got, row_want in zip(got.entries, want.entries):
        assert_same_entries(row_got, row_want)


# -- the helper ----------------------------------------------------------------


@kernel_settings
@given(v=st.lists(entries, max_size=6).map(vector))
def test_cleared_scales_by_least_common_denominator(v):
    ints, den = cleared(v)
    assert all(type(x) is int for x in ints) and type(den) is int and den >= 1
    assert tuple(Fraction(x, den) for x in ints) == v
    # Least: no common factor of den divides every scaled entry as well.
    for p in PRIMES:
        if den % p == 0:
            assert any(x % p for x in ints)


def test_cleared_empty_and_coprime():
    assert cleared(()) == ((), 1)
    assert cleared(vector(["1/2", "-1/3", "1/5", "0", "7"])) == ((15, -10, 6, 0, 210), 30)


# -- products ------------------------------------------------------------------


@pytest.mark.parametrize("m,k,n", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 3), (3, 0, 0)])
def test_matmul_empty_shapes(m, k, n):
    a = Matrix.from_rows([[Fraction(i + j + 1, 2) for j in range(k)] for i in range(m)], cols=k)
    b = Matrix.from_rows([[Fraction(-i - j, 3) for j in range(n)] for i in range(k)], cols=n)
    if k == 0:
        b = Matrix(0, n, ())
    got = a @ b
    assert_same_matrix(got, reference.matmul(a, b))
    assert (got.rows, got.cols) == (m, n) and got.is_zero()


def test_matmul_coprime_denominators_and_zero_lines():
    a = Matrix.from_rows([["1/2", "-1/3", "1/5", "1/7"], [0, 0, 0, 0], ["-1/11", 0, "1/13", 0]])
    b = Matrix.from_rows([["1/17", 0, "-1/19"], ["1/23", 0, 0], ["-1/29", 0, "1/31"],
                          ["1/37", 0, "-1/41"]])
    got = a @ b
    assert_same_matrix(got, reference.matmul(a, b))
    assert got.column(1) == (0, 0, 0) and got.entries[1] == (0, 0, 0)


@kernel_settings
@given(data=st.data())
def test_matmul_matches_reference(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    assert_same_matrix(a @ b, reference.matmul(a, b))


@kernel_settings
@given(data=st.data())
def test_add_sub_neg_transpose_match_reference(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.rows, cols=a.cols))
    assert_same_matrix(a + b, reference.add(a, b))
    assert_same_matrix(a - b, reference.sub(a, b))
    assert_same_matrix(-a, reference.neg(a))
    assert_same_matrix(a.transpose(), reference.transpose(a))
    assert a.is_zero() == all(x == 0 for row in a.entries for x in row)


@kernel_settings
@given(data=st.data())
def test_equal_values_give_equal_hashed_matrices(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.rows, cols=a.cols))
    c = data.draw(matrices(rows=a.cols))
    for got, want in (((a + b) - b, a), (a @ c, reference.matmul(a, c)),
                      (-(-a), a), (a.transpose().transpose(), a)):
        assert got == want and hash(got) == hash(want)


def test_unreduced_text_gives_the_same_matrix():
    half = Matrix.from_rows([["2/4"]])
    assert half == Matrix.from_rows([["1/2"]]) == Matrix(1, 1, ((3,),), 6)
    assert hash(half) == hash(Matrix(1, 1, ((3,),), 6))
    assert (half.num, half.den) == (((1,),), 2)
    assert Matrix(2, 2, ((0, 0), (0, 0)), 7) == Matrix.zero(2, 2)


@kernel_settings
@given(data=st.data())
def test_apply_matches_reference(data):
    m = data.draw(matrices())
    v = data.draw(vectors(m.cols))
    assert_same_entries(m.apply(v), reference.apply(m, v))


@kernel_settings
@given(data=st.data())
def test_pair_matches_reference(data):
    space = data.draw(spaces())
    a, b = data.draw(vectors(space.dim)), data.draw(vectors(space.dim))
    assert_same_entries((pair(space, a, b),), (reference.pair(space, a, b),))


@st.composite
def coupled_spaces(draw):
    """Dimension 2 to 4 with a dense Gram matrix, which is rarely zero."""
    n = draw(st.integers(2, 4))
    a = Matrix.from_rows([[draw(small) for _ in range(n)] for _ in range(n)])
    return PairingSpace(a - a.transpose())


@st.composite
def repeating_cycles(draw, dim):
    """Cycles drawn from a pool of at most three vectors and the zero cycle,
    so classes repeat.  Each pick is a separately built vector, either fresh
    Fractions or parsed from unreduced text (2/4 for 1/2), equal in value."""
    pool = draw(st.lists(vectors(dim), min_size=1, max_size=3)) + [zero_vector(dim)]
    cycles = []
    for k in draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=7)):
        if draw(st.booleans()):
            cycles.append(vector(f"{2 * x.numerator}/{2 * x.denominator}" for x in pool[k]))
        else:
            cycles.append(tuple(Fraction(x.numerator, x.denominator) for x in pool[k]))
    return cycles


@kernel_settings
@given(data=st.data())
def test_interaction_matrix_matches_reference(data):
    if data.draw(st.booleans()):
        space = data.draw(spaces())
        cycles = data.draw(st.lists(vectors(space.dim), max_size=4))
    else:
        space = data.draw(coupled_spaces())
        cycles = data.draw(repeating_cycles(space.dim))
    lam = interaction_matrix(CycleConfiguration(space, tuple(cycles)))
    assert_same_matrix(lam.entries, reference.interaction_grid(space, cycles))
    # Nodes share a class exactly when their cycles are equal, and classes
    # are numbered in order of first occurrence.
    for i, j in itertools.combinations(range(len(cycles)), 2):
        assert (lam.node_class[i] == lam.node_class[j]) == (cycles[i] == cycles[j])
    assert list(dict.fromkeys(lam.node_class)) == list(range(lam.pairings.rows))


@st.composite
def near_skew(draw, max_dim=5):
    """A skew matrix with up to three entries disturbed, some on the diagonal,
    some to 1/p against -1/q: negated numerators over different denominators."""
    n = draw(st.integers(0, max_dim))
    a = draw(matrices(rows=n, cols=n))
    grid = [list(row) for row in (a - a.transpose()).entries]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            grid[i][j] = draw(entries)
        else:
            grid[i][j] = Fraction(1, draw(st.sampled_from(PRIMES)))
            grid[j][i] = Fraction(-1, draw(st.sampled_from(PRIMES)))
    return Matrix.from_rows(grid, cols=n)


@kernel_settings
@given(m=near_skew())
def test_first_skew_violation_matches_reference(m):
    assert first_skew_violation(m) == reference.first_skew_violation(m)


def test_first_skew_violation_compares_denominators():
    m = Matrix.from_rows([[0, "1/2"], ["-1/3", 0]])
    assert first_skew_violation(m) == reference.first_skew_violation(m) == (0, 1)


@kernel_settings
@given(data=st.data())
def test_n_matrix_matches_reference(data):
    n = data.draw(st.integers(0, 5))
    delta, weights = data.draw(vectors(n)), data.draw(vectors(n))
    op = TransportOperator(delta, weights)
    assert_same_matrix(op.n_matrix, reference.n_matrix(delta, weights))


@kernel_settings
@given(data=st.data())
def test_commutator_matches_reference(data):
    n = data.draw(st.integers(0, 5))
    a, b = (TransportOperator(data.draw(vectors(n)), data.draw(vectors(n))) for _ in (0, 1))
    want = reference.commutator(reference.n_matrix(a.delta, a.weights),
                                reference.n_matrix(b.delta, b.weights))
    assert_same_matrix(commutator(a, b), want)


def test_closed_form_never_multiplies_matrices(monkeypatch):
    """The closed form is the independent route of the cross-check: it must
    not reach the dense product it is compared with."""
    space = PairingSpace(Matrix.from_rows([[0, "1/2", 3], ["-1/2", 0, "-2/3"],
                                                 [-3, "2/3", 0]]))
    a, b = vector(["1/3", -1, 2]), vector([5, "1/7", "-1/2"])
    want = reference.commutator_closed_form(space, a, b)

    def refuse(*_):
        raise AssertionError("closed form used the matrix product")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert_same_matrix(commutator_closed_form(space, a, b), want)
    assert not want.is_zero()


@kernel_settings
@given(data=st.data())
def test_closed_form_matches_reference(data):
    space = data.draw(spaces())
    a, b = data.draw(vectors(space.dim)), data.draw(vectors(space.dim))
    assert_same_matrix(commutator_closed_form(space, a, b),
                       reference.commutator_closed_form(space, a, b))
