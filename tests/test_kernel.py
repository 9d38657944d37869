"""The integer matrix kernel against the entrywise Fraction reference.

A ``Matrix`` is integer rows over one denominator in lowest terms, and its
sums, differences, negation, transpose and products run on those integers;
the vector products clear denominators (``linalg.cleared``) and return
Fractions.  ``reference`` keeps the plain Fraction loops.  The two must agree
exactly, entry by entry, on every shape including empty ones, on zero rows and columns, on pairwise-coprime
denominators, on negative entries and on numerators past Python's 4300-digit
string limit; every result must be in lowest terms, so that equal values give
equal, equally hashed matrices.
"""

import itertools
import math
import random
import sys
import types
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lightsectors import blocks, cli, linalg, pairing, transport
from lightsectors.linalg import (DimensionMismatchError, InvariantError, Matrix, Slots, Subspace, cleared,
                                 column_space, first_skew_violation, format_ratio,
                                 format_rational, kernel, rref, vector)
from lightsectors.modelgen import random_block_scenario
from lightsectors.pairing import CycleConfiguration, PairingSpace, pair, standard_symplectic
from lightsectors.scenarios import builtin_scenario, parse_scenario, to_package
from lightsectors.transport import (
    TransportOperator,
    closed_form_bound,
    commutator,
    commutator_bound,
    commutator_closed_form,
    interaction_matrix,
)

DATA = Path(__file__).parent / "data"
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
    """The unreduced text of the huge entries needs the int-to-str digit limit lifted."""
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


ints = st.one_of(st.just(0), st.integers(-60, 60),
                 st.builds(lambda n, sign: sign * (HUGE + n), st.integers(0, 10 ** 6),
                           st.sampled_from((1, -1))))
denominators = st.one_of(st.just(1), st.sampled_from(PRIMES), st.integers(1, 10 ** 6))


@st.composite
def operators(draw, n):
    """A rank-one factor in integers and the Fraction vectors it stands for:
    N = (delta (x) weights) / den equals delta' (x) weights' with delta' =
    delta / den."""
    delta, weights = (tuple(draw(st.lists(ints, min_size=n, max_size=n))) for _ in (0, 1))
    den = draw(denominators)
    op = TransportOperator(delta, weights, den)
    return op, tuple(Fraction(x, den) for x in delta), vector(weights)


@st.composite
def spaces(draw, max_dim=4):
    n = draw(st.integers(0, max_dim))
    a = draw(matrices(rows=n, cols=n))
    return PairingSpace(a - a.transpose())


def assert_same_entries(got, want):
    """Equal entry by entry, each a Fraction.  Fractions are kept in lowest
    terms, so equal values are equal numerators and denominators."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is Fraction
        assert x == y


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
    assert got.transpose().entries[1] == (0, 0, 0) and got.entries[1] == (0, 0, 0)


def _slot_edge_products():
    """Products with entries at the edge of a 1-, 2-, 4- or 8-byte slot.

    The product is plain integer dot products, so these edges are exactness
    edges: each case puts product sums at ±(2^(8w-1) - 1), ±2^(8w-1) and
    ±(2^(8w-1) + 1), the last value a w-byte machine integer holds and one
    past it either way, where an arithmetic that overflowed would show.
    """
    for w in (1, 2, 4, 8):
        edge = 2 ** (8 * w - 1)
        for t in (edge - 1, edge, edge + 1):
            # One term: the slot bound is |t| itself.
            yield f"{w}-byte-edge{t - edge:+d}-one-term", [[1], [-1]], [[t, 1, -t]]
            h = t // 2
            yield (f"{w}-byte-edge{t - edge:+d}-two-terms", [[1, 1], [-1, -1], [1, -1]],
                   [[h, -h, 0], [t - h, h - t, 0]])
    magnitudes = (("3", 3), ("2**40", 2 ** 40), ("2**63", 2 ** 63), ("10**30", 10 ** 30))
    # An all-zero left operand beside large right-hand entries.
    for label, big in magnitudes[2:]:
        yield f"zero-times-{label}", [[0, 0], [0, 0], [0, 0]], [[big, -big, 1], [-1, big - 1, -big]]
    # 1×n, n×1 and rectangular shapes, over several denominators.
    rng = random.Random(11)

    def grid(rows, cols, big):
        return [[Fraction(rng.randint(-big, big), rng.choice((1, 2, 3, 35))) for _ in range(cols)]
                for _ in range(rows)]

    shapes = ((1, 7, 1), (7, 1, 7), (1, 1, 9), (9, 1, 1), (1, 9, 3), (2, 7, 3), (6, 2, 9))
    for m, k, n in shapes:
        for label, big in magnitudes:
            yield f"{m}x{k}x{n}-{label}", grid(m, k, big), grid(k, n, big)
    # Entries 4302 digits long, drawn last so that the draws above do not
    # depend on them.
    for m, k, n in shapes:
        yield f"{m}x{k}x{n}-HUGE", grid(m, k, HUGE), grid(k, n, HUGE)


@pytest.mark.parametrize("left,right", [case[1:] for case in _slot_edge_products()],
                         ids=[case[0] for case in _slot_edge_products()])
def test_matmul_at_slot_edges(left, right):
    a, b = Matrix.from_rows(left), Matrix.from_rows(right)
    assert_same_matrix(a @ b, reference.matmul(a, b))


@pytest.mark.parametrize("scale", [5, 10 ** 6], ids=["small", "near-10**12"])
def test_matmul_of_rank_one_grids(scale):
    """Products of 38×38 grids built as TransportOperator.n_matrix builds them,
    the width of the widest benchmark cases, with numerators up to 25 and up
    to 10^12."""
    rng = random.Random(scale)

    def operator():
        (delta, dd), (weights, dw) = (cleared(vector(Fraction(rng.randint(-scale, scale),
                                                              rng.randint(1, 4))
                                                     for _ in range(38))) for _ in (0, 1))
        return TransportOperator(delta, weights, dd * dw)

    a, b = operator().n_matrix, operator().n_matrix
    assert not a.is_zero() and not b.is_zero()
    assert_same_matrix(a @ b, reference.matmul(a, b))
    assert_same_matrix(b @ a, reference.matmul(b, a))


def test_packed_commutators_on_a_big_endian_host(monkeypatch):
    """Both packed commutator routes read and write slots in native byte
    order; on a host where that is big-endian, arrays and memoryviews hold
    big-endian items, simulated here by swapping bytes around the real ones."""

    class BigEndianArray:
        def __init__(self, code, items):
            self.items = array(code, items)

        def tobytes(self):
            swapped = array(self.items.typecode, self.items)
            swapped.byteswap()
            return swapped.tobytes()

    class BigEndianView:
        def __init__(self, data):
            self.data = data

        def cast(self, code):
            items = array(code)
            items.frombytes(self.data)
            items.byteswap()
            return items

    monkeypatch.setattr(linalg, "sys", types.SimpleNamespace(byteorder="big"))
    monkeypatch.setattr(linalg, "array", BigEndianArray)
    monkeypatch.setattr(linalg, "memoryview", BigEndianView, raising=False)
    rng = random.Random(5)
    n = 10
    space = standard_symplectic(n // 2)
    for c, width in zip(CYCLE_MAGNITUDES, (1, 2, 4, 8, 11)):
        cycles = [vector(_pool_row(rng, n, c)) for _ in (0, 1)]
        cfg = CycleConfiguration.from_vectors(space, cycles)
        ops = [transport.pl_operator(cfg, i) for i in (0, 1)]
        slots = Slots(max(commutator_bound(ops), closed_form_bound(cfg)), n)
        assert slots.width == width
        want = reference.commutator_closed_form(space, *cycles)
        (dense, den), = reference.commutator_grids(ops, slots)
        assert_same_matrix(Matrix(n, n, dense, den), want)
        assert_same_matrix(Matrix(n, n, *reference.closed_form_grid(cfg, 0, 1, slots)), want)


@kernel_settings
@given(data=st.data())
def test_matmul_matches_reference(data):
    # Most draws stay small; one in eight is up to 12 wide, so that a
    # right-hand row spans many slots.
    max_dim = data.draw(st.sampled_from((4,) * 7 + (12,)))
    a = data.draw(matrices(max_dim=max_dim))
    b = data.draw(matrices(rows=a.cols, max_dim=max_dim))
    assert_same_matrix(a @ b, reference.matmul(a, b))


@kernel_settings
@given(data=st.data())
def test_matmul_with_repeated_and_zero_left_rows_matches_reference(data):
    """A left operand whose rows repeat a few distinct ones, zero rows among
    them, gives the reference product exactly."""
    b = data.draw(matrices(max_dim=6))
    pool = data.draw(st.lists(st.lists(entries, min_size=b.rows, max_size=b.rows),
                              min_size=1, max_size=3)) + [[Fraction(0)] * b.rows]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9))
    a = Matrix.from_rows([pool[k] for k in picks], cols=b.rows)
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
    pool = draw(st.lists(vectors(dim), min_size=1, max_size=3)) + [vector([0] * dim)]
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
    lam = interaction_matrix(CycleConfiguration.from_vectors(space, cycles))
    assert_same_matrix(lam.entries, reference.interaction_grid(space, cycles))
    # Nodes share a class exactly when their cycles are equal, and classes
    # are numbered in order of first occurrence.
    for i, j in itertools.combinations(range(len(cycles)), 2):
        assert (lam.node_class[i] == lam.node_class[j]) == (cycles[i] == cycles[j])
    assert list(dict.fromkeys(lam.node_class)) == list(range(lam.pairings.rows))


past_10_30 = st.builds(lambda n, d, sign: Fraction(sign * (10 ** 30 + n), d),
                      st.integers(0, 10 ** 40), st.sampled_from((1,) + PRIMES),
                      st.sampled_from((1, -1)))


@kernel_settings
@given(data=st.data())
def test_interaction_matrix_is_the_reference_c_g_ct(data):
    """The class pairings are dot products of class rows with their Gram
    images, formed once per distinct row; node by node they are the Fraction
    product C G C^T, on cycles that repeat, over several denominators and
    with entries past 10^30."""
    space = data.draw(coupled_spaces())
    cells = st.one_of(entries, past_10_30)
    pool = data.draw(st.lists(st.lists(cells, min_size=space.dim, max_size=space.dim),
                              min_size=1, max_size=3)) + [[Fraction(0)] * space.dim]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9))
    cfg = CycleConfiguration.from_vectors(space, [pool[k] for k in picks])
    c = cfg.matrix
    want = reference.matmul(reference.matmul(c, space.gram), reference.transpose(c))
    assert_same_matrix(interaction_matrix(cfg).entries, want)
    # Equal rows of C share one Gram image.
    images = dict(zip(c.num, cfg.gram_images))
    assert all(image is images[row] for row, image in zip(c.num, cfg.gram_images))


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
    op, delta, weights = data.draw(operators(data.draw(st.integers(0, 5))))
    assert_same_matrix(op.n_matrix, reference.n_matrix(delta, weights))


@kernel_settings
@given(data=st.data())
def test_commutator_matches_reference(data):
    """Every pair i < j of a family of 0-4 operators, in row-major order,
    each over its own denominator: pair (i, j) is over d_i d_j."""
    n = data.draw(st.integers(0, 5))
    family = data.draw(st.lists(operators(n), max_size=4))
    dense = [reference.n_matrix(*f) for _, *f in family]
    got = reference.commutator_grids([op for op, *_ in family])
    pairs = list(itertools.combinations(range(len(family)), 2))
    assert len(got) == len(pairs)
    for (grid, den), (i, j) in zip(got, pairs):
        assert den == family[i][0].den * family[j][0].den
        assert_same_matrix(Matrix(n, n, grid, den), reference.commutator(dense[i], dense[j]))


def test_raw_grid_agreement_is_value_agreement():
    """Both routes put every pair of one configuration over D^2 and pack it
    in one Slots that holds both routes' bounds, so their raw packed rows
    agree exactly when their values do.  On generated block configurations,
    the dense pair (i, j) is compared with the closed form of every ordered
    pair (k, l): raw agreement must equal agreement of the reference
    commutator with the closed form's value, and both verdicts must occur."""
    rng = random.Random(16)
    verdicts = set()
    for _ in range(25):
        cfg = to_package(random_block_scenario(rng, max_nodes=9, max_genus=3)).block_classes.classes
        n, b = cfg.space.dim, cfg.r
        ns = [reference.n_matrix(d, reference.apply(cfg.space.gram, d)) for d in cfg.matrix.entries]
        ops = [transport.pl_operator(cfg, i) for i in range(b)]
        slots = Slots(max(commutator_bound(ops), closed_form_bound(cfg)), n)
        dense = commutator(ops, slots)
        for (i, j), pair in zip(itertools.combinations(range(b), 2), dense):
            want = reference.commutator(ns[i], ns[j])
            for k, l in itertools.product(range(b), repeat=2):
                closed = commutator_closed_form(cfg, k, l, slots)
                raw = pair == closed
                assert raw == (want == Matrix(n, n, tuple(slots.unpack(closed[0])), closed[1]))
                verdicts.add(raw)
    assert verdicts == {True, False}


def test_mixed_denominator_family_matches_reference():
    """Operators of cycles from configurations over different denominators,
    one family: pair (i, j) is over D_i D_j, D = dc^2 dg for each, and as a
    Matrix equals the reference commutator."""
    rng = random.Random(17)
    space = PairingSpace(Matrix.from_rows([[0, "1/2", 3, -1], ["-1/2", 0, "-2/3", 2],
                                           [-3, "2/3", 0, "5/4"], [1, -2, "-5/4", 0]]))
    for dens in [(1, 2), (3, 1, 35), (2, 4, 9, 5)]:
        cycles = [vector(Fraction(rng.randint(-9, 9), d) for _ in range(4)) for d in dens]
        cfgs = [CycleConfiguration.from_vectors(space, [v]) for v in cycles]
        family = [transport.pl_operator(cfg, 0) for cfg in cfgs]
        assert len({op.den for op in family}) > 1
        ns = [reference.n_matrix(v, reference.apply(space.gram, v)) for v in cycles]
        got = reference.commutator_grids(family)
        for (grid, den), (i, j) in zip(got, itertools.combinations(range(len(dens)), 2)):
            assert den == family[i].den * family[j].den
            assert_same_matrix(Matrix(4, 4, grid, den), reference.commutator(ns[i], ns[j]))


def test_denominator_mismatch_is_an_internal_error(monkeypatch, capsys):
    """Within one configuration both routes are over D^2.  A closed form over
    another denominator is a bug in the package, even when its value agrees:
    the check raises InvariantError, and verify exits 3, never reporting a
    disagreement."""
    path = DATA / "four_node_blocks.scenario"
    pkg = to_package(parse_scenario(path.read_text()))
    real = blocks.commutator_closed_form

    def doubled(cfg, a, b, slots):
        rows, den = real(cfg, a, b, slots)
        return [2 * x for x in rows], 2 * den

    monkeypatch.setattr(blocks, "commutator_closed_form", doubled)
    with pytest.raises(InvariantError, match=r"block commutator \(1,2\) over \d+, closed form over"):
        blocks.block_commutator_check(pkg.block_classes, pkg.reduced)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error:")


def test_commutator_rejects_mixed_dimensions():
    a, b = TransportOperator((1, 2), (3, -4), 1), TransportOperator((1, 0, 2), (0, 5, 0), 3)
    for family in ([a, b], [b, a], [a, a, b], [b, b, a]):
        with pytest.raises(DimensionMismatchError):
            commutator(family, Slots(100, 3))


def test_commutator_of_fewer_than_two_operators(monkeypatch):
    def refuse(*_):
        raise AssertionError("a matrix product ran for no pair")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    one = [TransportOperator((1, -2), (3, 4), 5)]
    assert commutator_bound([]) == commutator_bound(one) == 0
    assert commutator([], Slots(0, 0)) == []
    assert commutator(one, Slots(0, 2)) == []
    assert commutator([TransportOperator((), (), 1)], Slots(0, 0)) == []


def test_block_commutator_check_builds_no_matrix(monkeypatch):
    """Both routes of the cross-check compare packed rows: for any block
    count the check runs no matrix product and builds no Matrix, none per
    pair and none for the family."""
    rng = random.Random(15)
    pkgs = [to_package(parse_scenario((DATA / "four_node_blocks.scenario").read_text())),
            to_package(builtin_scenario("quintic_orbits"))]
    pkgs += [to_package(random_block_scenario(rng, max_nodes=9, max_genus=3)) for _ in range(20)]
    one_block = blocks.BlockClasses(blocks.BlockDecomposition.from_blocks(2, [(0, 1)]),
                                    CycleConfiguration.from_vectors(standard_symplectic(1),
                                                                    [(1, 1)]))
    real_init, built = Matrix.__post_init__, []

    def refuse(*_):
        raise AssertionError("the commutator check ran a matrix product")

    def counted_init(m):
        built.append((m.rows, m.cols))
        real_init(m)

    seen = set()
    for bc in [pkg.block_classes for pkg in pkgs] + [one_block]:
        b = bc.decomposition.count
        lam_blk = blocks.reduced_matrix(bc)
        built.clear()
        with monkeypatch.context() as mp:
            mp.setattr(Matrix, "__matmul__", refuse)
            mp.setattr(Matrix, "__post_init__", counted_init)
            report = blocks.block_commutator_check(bc, lam_blk)
        assert report.overall and report.total == b * (b - 1) // 2 + 1
        assert built == []
        seen.add(b)
    assert {1, 2, 5} <= seen


def test_closed_form_never_multiplies_matrices(monkeypatch):
    """The closed form is the independent route of the cross-check: it must
    not reach the dense product it is compared with, nor the operators."""
    space = PairingSpace(Matrix.from_rows([[0, "1/2", 3], ["-1/2", 0, "-2/3"],
                                                 [-3, "2/3", 0]]))
    a, b = vector(["1/3", -1, 2]), vector([5, "1/7", "-1/2"])
    cfg = CycleConfiguration.from_vectors(space, [a, b])
    want = reference.commutator_closed_form(space, a, b)

    def refuse(*_):
        raise AssertionError("closed form used the matrix product or an operator")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(transport, "pl_operator", refuse)
    assert_same_matrix(Matrix(3, 3, *reference.closed_form_grid(cfg, 0, 1)), want)
    assert not want.is_zero()


@kernel_settings
@given(data=st.data())
def test_gram_images_are_formed_once_per_configuration(data):
    """Row i of cfg.gram_images is G delta_i over dg dc, formed on first read
    and shared by every closed-form pair of the configuration."""
    space = data.draw(spaces())
    cycles = [data.draw(vectors(space.dim)) for _ in range(3)]
    cfg = CycleConfiguration.from_vectors(space, cycles)
    images = cfg.gram_images
    scale = space.gram.den * cfg.matrix.den
    assert [tuple(Fraction(x, scale) for x in row) for row in images] == [
        reference.apply(space.gram, c) for c in cycles]
    for i, j in itertools.permutations(range(3), 2):
        reference.closed_form_grid(cfg, i, j)
    assert cfg.gram_images is images


def test_gram_images_multiply_each_distinct_row_once(monkeypatch):
    cfg = CycleConfiguration.from_vectors(
        standard_symplectic(2), [(1, 0, 2, 0), (0, 1, 0, 0), (1, 0, 2, 0), (1, 0, 2, 0)])
    terms = []
    monkeypatch.setattr(pairing, "mul", lambda x, y: terms.append(1) or x * y)
    images = cfg.gram_images
    assert len(terms) == 2 * 4 * 4  # two distinct rows, a 4x4 Gram grid
    assert images == ((0, -1, 0, -2), (1, 0, 0, 0)) + ((0, -1, 0, -2),) * 2
    assert images[0] is images[2] is images[3]


def test_block_classes_share_the_nodewise_gram_images(monkeypatch):
    """On seeded modelgen draws the block classes' images, taken from the
    nodewise ones, equal those of a freshly formed configuration of the
    classes, and forming them multiplies nothing more.  Every row of C is
    some block's class, so the classes keep C's denominator; the selection
    that reduces is the next test's."""
    for seed in range(30):
        pkg = to_package(random_block_scenario(random.Random(seed)))
        pkg.cycles.gram_images
        terms = []
        with monkeypatch.context() as m:
            m.setattr(pairing, "mul", lambda x, y: terms.append(1) or x * y)
            classes = pkg.block_classes.classes
            images = classes.gram_images
        assert not terms, seed
        assert classes.matrix.den == pkg.cycles.matrix.den, seed
        fresh = CycleConfiguration(classes.space, classes.matrix)
        assert images == fresh.gram_images, seed
        nodes = [block[0] for block in pkg.partition.blocks]
        assert all(images[b] is pkg.cycles.gram_images[k] for b, k in enumerate(nodes)), seed


def test_selected_images_divide_by_the_reduced_denominator():
    """Rows 1/2 e1 and e3 over 2 are (1,0,0,0) and (0,0,2,0); selecting the
    second alone reduces it to (0,0,1,0) over 1, and its image by 2."""
    cfg = CycleConfiguration.from_vectors(
        standard_symplectic(2), [("1/2", 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0), ("1/2", 0, 0, 0)])
    assert cfg.matrix.den == 2
    for nodes in ([1], [2, 1], [1, 0, 3], []):
        sub = cfg.select(nodes)
        fresh = CycleConfiguration(sub.space, sub.matrix)
        assert sub.matrix == Matrix.from_rows([cfg.matrix.entries[k] for k in nodes], cols=4)
        assert sub.gram_images == fresh.gram_images, nodes
    assert cfg.select([1]).matrix.den == 1 and cfg.select([1]).gram_images == ((0, 0, 0, -1),)
    shared = cfg.select([2, 1]).gram_images
    assert shared[0] == shared[1] == (0, 0, 0, -1)


@kernel_settings
@given(data=st.data())
def test_closed_form_matches_reference(data):
    space = data.draw(spaces())
    cycles = [data.draw(vectors(space.dim)) for _ in (0, 1)]
    cfg = CycleConfiguration.from_vectors(space, cycles)
    i, j = data.draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
    assert_same_matrix(Matrix(space.dim, space.dim, *reference.closed_form_grid(cfg, i, j)),
                       reference.commutator_closed_form(space, cycles[i], cycles[j]))



# -- packed commutators ---------------------------------------------------------

# Largest cycle entries c that put the packed commutators of a symplectic
# configuration of integer cycles, slot bound 2 n c^4, into 1-, 2-, 4-,
# 8-byte and wider slots for 8 <= n <= 16.
CYCLE_MAGNITUDES = (1, 3, 20, 1000, 10 ** 6, HUGE)


def _pool_row(rng, n, c):
    """n entries from {0, c, -c, one draw}: largest absolute entry c (for
    n >= 4 or so), and rows that repeat."""
    pool = (0, c, -c, rng.randint(-c, c))
    return [rng.choice(pool) for _ in range(n)]


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
def test_slots_round_trip_at_their_edges(width):
    """Rows with entries at the slot bound +-(2^(8w-1) - 1) unpack as packed,
    and so does a combination of packed rows whose slots stay in bound."""
    top = 2 ** (8 * width - 1) - 1
    slots = linalg.Slots(top, 4)
    assert slots.width == width
    rows = [(top, -top, 0, -1), (-top, 1, top, 0), (0, 0, 0, 0)]
    packed = slots.pack(rows)
    assert list(slots.unpack(packed)) == rows
    half = (top // 2, -(top // 2), 1, -1)
    (p,) = slots.pack([half])
    assert list(slots.unpack([2 * p - packed[2], -p])) == [
        tuple(2 * x for x in half), tuple(-x for x in half)]
    assert list(linalg.Slots(top, 0).unpack([0, 0])) == [(), ()]


def test_packed_closed_form_matches_reference(monkeypatch):
    """The closed form against the reference in dimensions 0 to 16, slots of
    1, 2, 4, 8 and more bytes with 4302-digit entries among the widest,
    pairs with pairing p = 0 (a cycle with itself, with its negative and
    with zero), and repeated rows.  Each pair packs its two images in one
    call and unpacks nothing, and no matrix product or operator is used."""
    def refuse(*_):
        raise AssertionError("closed form used the matrix product or an operator")

    calls, real_pack, real_unpack = [], linalg.Slots.pack, linalg.Slots.unpack

    def pack(slots, rows):
        calls.append(("pack", len(rows)))
        return real_pack(slots, rows)

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(transport, "pl_operator", refuse)
    monkeypatch.setattr(linalg.Slots, "pack", pack)
    monkeypatch.setattr(linalg.Slots, "unpack", lambda *_: calls.append("unpack"))
    rng = random.Random(23)
    widths, zero_pairings = set(), 0
    for c in CYCLE_MAGNITUDES:
        for n in ((8, 16) if c == HUGE else (0, 2, 6, 8, 10, 16)):
            space = standard_symplectic(n // 2)
            den = 1 if c in (1, HUGE) else rng.choice((1, 2, 6))
            rows = [_pool_row(rng, n, c) for _ in (0, 1)]
            cycles = [vector(Fraction(x, den) for x in row)
                      for row in rows + [[-x for x in rows[0]], [0] * n]]
            cfg = CycleConfiguration.from_vectors(space, cycles)
            slots = Slots(closed_form_bound(cfg), n)
            for i, j in itertools.product(range(len(cycles)), repeat=2):
                calls.clear()
                packed, gden = commutator_closed_form(cfg, i, j, slots)
                assert calls == [("pack", 2)]
                want = reference.commutator_closed_form(space, cycles[i], cycles[j])
                assert_same_matrix(Matrix(n, n, tuple(real_unpack(slots, packed)), gden), want)
                zero_pairings += reference.pair(space, cycles[i], cycles[j]) == 0
                widths.add(slots.width)
    assert {1, 2, 4, 8} <= widths and max(widths) > 8
    assert zero_pairings


def test_packed_closed_form_reaches_its_slot_bound():
    """delta_a = (c, ..., c) and delta_b = (-c, c, -c, ...) in the symplectic
    space pair to n c^2, and entry (1, 2) of their commutator is -2 n c^4,
    the bound both routes size their slots by.  At n = 8 and c = 7 that
    takes 4-byte slots, where half of it would fit in 2 bytes."""
    n, c = 8, 7
    space = standard_symplectic(n // 2)
    cycles = [vector([c] * n), vector([(-1) ** (j + 1) * c for j in range(n)])]
    cfg = CycleConfiguration.from_vectors(space, cycles)
    ops = [transport.pl_operator(cfg, i) for i in (0, 1)]
    bound = closed_form_bound(cfg)
    assert bound == commutator_bound(ops) == 2 * n * c ** 4
    slots = Slots(bound, n)
    assert slots.width == 4
    grid, den = reference.closed_form_grid(cfg, 0, 1, slots)
    assert grid[0][1] == min(map(min, grid)) == -bound
    assert reference.commutator_grids(ops, slots) == [(grid, den)]
    assert_same_matrix(Matrix(n, n, grid, den), reference.commutator_closed_form(space, *cycles))


def _separate_blocks(space, cycles):
    """Block classes of one node per block, the cycles given."""
    part = blocks.BlockDecomposition.from_blocks(len(cycles), [(k,) for k in range(len(cycles))])
    return blocks.BlockClasses(part, CycleConfiguration.from_vectors(space, cycles))


def _assert_same_checks(report, checks):
    assert report.total == len(checks)
    got = [(f.name, f.expected, f.actual) for f in report.failures]
    assert got == [(c.name, c.expected, c.actual) for c in checks if not c.passed]


def test_block_commutator_check_at_slot_edges(monkeypatch):
    """The whole cross-check against the eager reference with its one Slots
    1, 2, 4, 8 and more bytes wide, in dimensions 0 to 16, for 1, 2 and 5
    blocks: clean, and with the closed form of one pair off by one at the
    lowest slot of its first row or at the top slot of its last row.  A
    clean check passes, and a planted fault is reported as that pair's
    disagreement and nothing else."""
    widths, real_slots = set(), linalg.Slots

    def spy_slots(bound, cols):
        slots = real_slots(bound, cols)
        widths.add(slots.width)
        return slots

    monkeypatch.setattr(blocks, "Slots", spy_slots)
    real = blocks.commutator_closed_form
    rng = random.Random(29)
    verdicts = set()
    # 10^6 already takes 11-byte slots; the 4302-digit entries are left to
    # the two routes' own tests, as the whole check takes seconds with them.
    for c in CYCLE_MAGNITUDES[:-1]:
        for n in (0, 2, 8, 16):
            space = standard_symplectic(n // 2)
            for b in (1, 2, 5):
                den = 1 if c == 1 else rng.choice((1, 2, 6))
                cycles = [vector(Fraction(x, den) for x in _pool_row(rng, n, c)) for _ in range(b)]
                bc = _separate_blocks(space, cycles)
                lam_blk = blocks.reduced_matrix(bc)
                report = blocks.block_commutator_check(bc, lam_blk)
                assert report.overall
                _assert_same_checks(report, reference.block_commutator_checks(bc, lam_blk))
                verdicts.add(lam_blk.pairings.is_zero())
                n_pairs = b * (b - 1) // 2
                for row in ({0, n - 1} if n_pairs and n else ()):
                    bad, calls = rng.randrange(n_pairs), itertools.count()

                    def off_by_one(cfg, i, j, slots):
                        rows, d = real(cfg, i, j, slots)
                        if next(calls) % n_pairs == bad:
                            rows[row] += 1 << 8 * slots.width * row
                        return rows, d

                    with monkeypatch.context() as mp:
                        mp.setattr(blocks, "commutator_closed_form", off_by_one)
                        report = blocks.block_commutator_check(bc, lam_blk)
                        checks = reference.block_commutator_checks(bc, lam_blk)
                    pair = list(itertools.combinations(range(1, b + 1), 2))[bad]
                    assert [f.name for f in report.failures] == [
                        "commutator closed form (%d,%d)" % pair]
                    _assert_same_checks(report, checks)
    assert {1, 2, 4, 8} <= widths and max(widths) > 8
    assert verdicts == {True, False}


@pytest.mark.parametrize("scaled, scale", [({0}, 2 ** 70), ({0, 1, 2, 3, 4}, 0)],
                         ids=["dense-past-closed-bound", "dense-bound-zero"])
def test_each_route_is_packed_within_its_own_bound(monkeypatch, scaled, scale):
    """Operator weights scaled by 2^70 for block 1 make its pairs' dense
    entries exceed the closed form's bound; weights scaled by 0 for every
    block make the dense bound 0 while the closed form's entries stay.  The
    check sizes its slots from both routes' own bounds, so the dense rows
    read back exactly as the reference commutators of the scaled
    operators, the closed form packs without overflow, and each pair whose
    two routes differ is reported as a disagreement, nothing else."""
    rng = random.Random(31)
    n = 8
    space = standard_symplectic(n // 2)
    cycles = [vector(_pool_row(rng, n, 1000)) for _ in range(4)] + [vector([0] * n)]
    bc = _separate_blocks(space, cycles)
    lam_blk = blocks.reduced_matrix(bc)
    real_op, real_commutator, seen = blocks.pl_operator, blocks.commutator, []

    def scaled_op(cfg, i):
        op = real_op(cfg, i)
        if i not in scaled:
            return op
        return TransportOperator(op.delta, tuple(scale * w for w in op.weights), op.den)

    def spy_commutator(ops, slots):
        seen.append((ops, slots))
        return real_commutator(ops, slots)

    monkeypatch.setattr(blocks, "pl_operator", scaled_op)
    monkeypatch.setattr(blocks, "commutator", spy_commutator)
    report = blocks.block_commutator_check(bc, lam_blk)
    (ops, slots), = seen
    ns = [reference.n_matrix(tuple(Fraction(x, op.den) for x in op.delta), vector(op.weights))
          for op in ops]
    pairs = list(itertools.combinations(range(5), 2))
    differ = []
    for (rows, den), (i, j) in zip(real_commutator(ops, slots), pairs):
        got = Matrix(n, n, tuple(slots.unpack(rows)), den)
        assert_same_matrix(got, reference.commutator(ns[i], ns[j]))
        closed = Matrix(n, n, *reference.closed_form_grid(bc.classes, i, j, slots))
        if got != closed:
            differ.append(f"commutator closed form ({i + 1},{j + 1})")
    assert differ
    # Zero weights zero every dense commutator, against nonzero pairings.
    criterion = [] if scale else ["commutation criterion"]
    assert [f.name for f in report.failures] == differ + criterion


def _repeating_families():
    """Families of 2 and 5 operators in dimension 10 whose grids repeat,
    negate and zero rows: each delta is a _pool_row, each cycle over a
    denominator drawn from 1, 2 and 6, one configuration per cycle, so the
    operators' denominators mix.  Slots hold commutator_bound and come 1, 2,
    4, 8 and 11 bytes wide.  Yields (ops, the cycles, slots)."""
    rng = random.Random(37)
    n = 10
    space = standard_symplectic(n // 2)
    for c in CYCLE_MAGNITUDES[:-1]:
        for b in (2, 5):
            dens = [rng.choice((1, 2, 6)) for _ in range(b)]
            cycles = [vector(Fraction(x, d) for x in _pool_row(rng, n, c)) for d in dens]
            ops = [transport.pl_operator(CycleConfiguration.from_vectors(space, [v]), 0) for v in cycles]
            yield ops, cycles, Slots(commutator_bound(ops), n)


def _kept_rows(grid):
    """The distinct nonzero rows of a grid up to sign."""
    return {max(row, tuple(-x for x in row)) for row in grid if any(row)}


def test_shared_row_sums_match_reference():
    """Rows that repeat, negate or vanish within a grid share one packed
    sum; every pair still equals the reference commutator exactly, over
    d_i d_j, at every slot width."""
    space = standard_symplectic(5)
    widths, dens, seen = set(), set(), set()
    for ops, cycles, slots in _repeating_families():
        widths.add(slots.width)
        dens |= {op.den for op in ops}
        for grid in (op.grid for op in ops):
            rows = set(grid)
            if len(rows) < len(grid):
                seen.add("repeated")
            if (0,) * len(grid) in rows:
                seen.add("zero")
            if any(any(x) and tuple(-v for v in x) in rows for x in rows):
                seen.add("negated")
        ns = [reference.n_matrix(v, reference.apply(space.gram, v)) for v in cycles]
        got = commutator(ops, slots)
        pairs = list(itertools.combinations(range(len(ops)), 2))
        assert len(got) == len(pairs)
        for (rows, den), (i, j) in zip(got, pairs):
            assert den == ops[i].den * ops[j].den
            n = ops[i].dim
            assert_same_matrix(Matrix(n, n, tuple(slots.unpack(rows)), den),
                               reference.commutator(ns[i], ns[j]))
    assert widths == {1, 2, 4, 8, 11}
    assert seen == {"repeated", "zero", "negated"} and len(dens) > 1


def test_one_row_sum_per_kept_row_per_pair(monkeypatch):
    """Per pair (i, j) the dense route forms one row sum for each nonzero
    row of n_i and of n_j that is distinct up to sign, not one per grid
    row."""
    calls = itertools.count()

    def counted(*args):
        next(calls)
        return sum(*args)

    monkeypatch.setattr(transport, "sum", counted, raising=False)
    fewer = False
    for ops, _, slots in _repeating_families():
        kept = [len(_kept_rows(op.grid)) for op in ops]
        start = next(calls)
        commutator(ops, slots)
        want = sum(kept[i] + kept[j] for i, j in itertools.combinations(range(len(ops)), 2))
        assert next(calls) - start - 1 == want
        fewer |= want < len(ops) * (len(ops) - 1) * ops[0].dim
    assert fewer


# -- elimination ---------------------------------------------------------------

@st.composite
def deficient_matrices(draw, max_dim=4):
    """A matrix from ``matrices``, then up to three more rows put anywhere:
    each a copy of one of its rows, its negation, or a sum of two of them
    times small factors, so ranks fall short and rows repeat."""
    m = draw(matrices(max_dim=max_dim))
    rows = list(m.entries)
    for _ in range(draw(st.integers(0, 3 if rows else 0))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.one_of(st.sampled_from(((1, 0), (-1, 0))), st.tuples(small, small)))
        rows.insert(draw(st.integers(0, len(rows))), tuple(s * x + t * y for x, y in zip(a, b)))
    return Matrix.from_rows(rows, cols=m.cols)


def _forms(x):
    """The inputs spanned_by and contains take for one entry."""
    return [x, format_rational(x)] + ([x.numerator] if x.denominator == 1 else [])


@kernel_settings
@given(m=deficient_matrices())
def test_rref_matches_reference(m):
    got, rk = rref(m)
    want, want_rk = reference.rref(m)
    assert rk == want_rk
    assert_same_matrix(got, want)


@kernel_settings
@given(m=deficient_matrices(), data=st.data())
def test_spanned_by_matches_reference(m, data):
    rows = [[data.draw(st.sampled_from(_forms(x))) for x in row] for row in m.entries]
    sub = Subspace.spanned_by(rows, m.cols)
    want = reference.canonical_basis(m.entries, m.cols)
    assert_same_matrix(sub.basis, Matrix.from_rows(want, cols=m.cols))
    assert sub.dim == len(want) and sub.ambient_dim == m.cols


@kernel_settings
@given(m=deficient_matrices(), data=st.data())
def test_contains_matches_reference(m, data):
    sub = Subspace.spanned_by(m.entries, m.cols)
    basis = reference.canonical_basis(m.entries, m.cols)
    member = bool(m.rows) and data.draw(st.booleans())
    if member:
        coeffs = [data.draw(small) for _ in m.entries]
        v = tuple(sum((c * row[j] for c, row in zip(coeffs, m.entries)), Fraction(0))
                  for j in range(m.cols))
    else:
        v = data.draw(vectors(m.cols))
    got = sub.contains([data.draw(st.sampled_from(_forms(x))) for x in v])
    assert got == reference.contains(basis, v)
    assert got or not member


@kernel_settings
@given(m=deficient_matrices())
def test_kernel_matches_reference(m):
    got = kernel(m)
    assert_same_matrix(got.basis, Matrix.from_rows(reference.kernel(m), cols=m.cols))
    for v in got.basis.entries:
        assert not any(reference.apply(m, v))


@kernel_settings
@given(m=deficient_matrices())
def test_column_space_matches_reference(m):
    want = reference.canonical_basis(reference.transpose(m).entries, m.rows)
    assert_same_matrix(column_space(m).basis, Matrix.from_rows(want, cols=m.rows))


@st.composite
def candidate_bases(draw):
    """A canonical basis, as it is or after one change: an entry replaced, a
    row scaled, two rows swapped, a zero row put in, or one row added to
    another."""
    m = draw(deficient_matrices())
    n, rows = m.cols, list(reference.canonical_basis(m.entries, m.cols))
    change = draw(st.sampled_from(("none", "entry", "scale", "swap", "zero row", "add")))
    if change == "zero row" or (change != "none" and not rows):
        rows.insert(draw(st.integers(0, len(rows))), (Fraction(0),) * n)
    elif change == "entry" and n:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
        rows[i] = rows[i][:j] + (draw(entries),) + rows[i][j + 1:]
    elif change == "scale":
        i, c = draw(st.integers(0, len(rows) - 1)), draw(small.filter(bool))
        rows[i] = tuple(c * x for x in rows[i])
    elif change == "swap" and len(rows) > 1:
        i = draw(st.integers(0, len(rows) - 2))
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif change == "add" and len(rows) > 1:
        i, j = draw(st.permutations(range(len(rows))))[:2]
        rows[i] = tuple(x + y for x, y in zip(rows[i], rows[j]))
    return n, tuple(rows)


@kernel_settings
@given(case=candidate_bases())
def test_canonical_check_matches_reference(case):
    """Subspace(n, basis) accepts exactly the bases the Fraction rref leaves
    as they are."""
    n, rows = case
    try:
        Subspace(n, Matrix.from_rows(rows, cols=n))
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == reference.is_canonical(rows, n)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)])
def test_elimination_of_empty_shapes(rows, cols):
    m = Matrix.zero(rows, cols)
    got, rk = rref(m)
    assert got == m == reference.rref(m)[0] and rk == 0
    assert kernel(m) == Subspace.full(cols)
    assert column_space(m) == Subspace.zero(rows)
    assert Subspace.spanned_by(m.entries, cols) == Subspace.zero(cols)
    assert Subspace.zero(cols).contains((0,) * cols)


def test_elimination_past_the_int_text_limit():
    """4302-digit entries over mixed denominators, in a 4x5 matrix of rank 3:
    one row is a combination of two others."""
    rng = random.Random(4302)
    rows = [[Fraction(rng.choice((1, -1)) * (HUGE + rng.randint(0, 10 ** 6)),
                      rng.choice((1, 2, 3, 7))) for _ in range(5)] for _ in range(3)]
    rows.insert(1, [3 * x - Fraction(1, 2) * y for x, y in zip(rows[0], rows[2])])
    m = Matrix.from_rows(rows)
    got, rk = rref(m)
    assert rk == 3
    assert_same_matrix(got, reference.rref(m)[0])
    sub = Subspace.spanned_by(rows, 5)
    assert sub.basis.entries == reference.canonical_basis(m.entries, 5)
    assert sub.contains(rows[1]) and not sub.contains([x + 1 for x in rows[1]])
    assert_same_matrix(kernel(m).basis, Matrix.from_rows(reference.kernel(m), cols=5))


@kernel_settings
@given(x=entries, k=st.integers(1, 50))
def test_ratio_text_matches_fraction_text(x, k):
    """An integer cell over a denominator, unreduced by k, prints as its
    lowest-terms Fraction does."""
    assert format_ratio(k * x.numerator, k * x.denominator) == str(x) == format_rational(x)


def test_ratio_text_past_the_int_text_limit():
    """A 4301-digit numerator over a denominator it shares a factor with, as a
    basis cell over basis.den: reduced, every digit kept, with the
    interpreter's 4300-digit limit in force."""
    num = 6 * (10 ** 4300 + 7)  # 4301 digits
    assert len(str(num)) == 4301
    half, third = str(Fraction(num, 4)), str(num // 3)
    sys.set_int_max_str_digits(4300)
    with pytest.raises(ValueError):
        str(num)
    assert format_ratio(num, 4) == half and half.endswith("/2")
    assert format_ratio(-num, 4) == "-" + half
    assert format_ratio(num, 3) == third
