"""Picard-Lefschetz transport operators and the interaction matrix.

Each cycle delta induces the transport T(a) = a + <a, delta> delta with
nilpotent part N = T - Id, so N(a) = <a, delta> delta and N^2 = 0 (the
self-pairing vanishes by skew symmetry).  N is the rank-one map
delta (x) G delta, so a TransportOperator stores the integer row delta of C,
the weights G delta over the Gram grid and their one denominator, and builds
the dense N and T on request; within one configuration equal cycles give
equal operators, so a package builds one per cycle class.  The interaction matrix
collects the pairwise cycle pairings lambda_ij = <delta_i, delta_j>; its
off-diagonal vanishing is exactly pairwise commutativity of the transports.
It is stored in class form: the k x k pairings of the distinct cycle classes
and each node's class, so lambda_ij = mu_(B(i) B(j)) and its work scales
with the classes, not with r^2; each mu is a dot product of a class row with
its configuration's gram_images, so no matrix product runs for it.

The commutators N_i N_j - N_j N_i of a family of b operators come from one
dense product, commutator(ops), for every pair i < j in row-major order; it
holds (bn)^2 integers at once.  The closed form of one pair is built from the
cycles alone, so the two routes cross-check each other.  Both return a pair
(grid, den): an integer grid over a denominator, not reduced to lowest terms.
Within one configuration, with D = dc^2 dg for C over dc and G over dg, both
routes put every pair over D^2, so they compare as integer grids and no
Matrix is built per pair; a reader that wants one builds Matrix(n, n, grid,
den).

From pairing dimension PACKED_MIN_DIM on, the closed form is formed a
packed row at a time (linalg.Slots, a Kronecker substitution): row j is the
one big-int combination -p (delta_a[j] P_b + delta_b[j] P_a) of the packed
Gram images P_i, the rows g c_i packed once per configuration, and the n
rows are unpacked in one call.  Packing costs a fixed few microseconds per
configuration and per pair, so below that dimension the entrywise loop runs.

Word convention: a word is a sequence of signed 1-based letters, letter -i
meaning the inverse transport Id - N_i.  The word [a, b] evaluates to the
matrix product T_a . T_b, so concatenating words multiplies their matrices
in order; acting on column vectors, the rightmost letter applies first and
the leftmost letter last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from operator import mul, sub
from typing import Sequence

from .linalg import DimensionMismatchError, InvariantError, Matrix, first_skew_violation
from .pairing import CycleConfiguration

# An integer grid, row-major: with a denominator it stands for a rational matrix.
Grid = tuple[tuple[int, ...], ...]

# From this pairing dimension on, the closed form is formed a packed row at a
# time (see the module docstring).
PACKED_MIN_DIM = 8


@dataclass(frozen=True)
class TransportOperator:
    """T = Id + N for one cycle, with N = (delta (x) weights) / den in integers.

    Entry (j, k) of N is weights[k] * delta[j] / den.  N has rank 1 unless
    the cycle is zero or pairs trivially, when T is the identity.
    """

    delta: tuple[int, ...]
    weights: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if len(self.delta) != len(self.weights):
            raise DimensionMismatchError("delta and weights differ in length")

    @property
    def dim(self) -> int:
        return len(self.delta)

    @property
    def nilpotent_rank(self) -> int:
        return int(any(self.delta) and any(self.weights))

    @property
    def grid(self) -> Grid:
        """N as integers over den, unreduced: entry (j, k) is weights[k] * delta[j]."""
        return tuple(tuple(w * d for w in self.weights) for d in self.delta)

    @cached_property
    def n_matrix(self) -> Matrix:
        return Matrix(self.dim, self.dim, self.grid, self.den)

    @cached_property
    def t_matrix(self) -> Matrix:
        return Matrix.identity(self.dim) + self.n_matrix

    def inverse(self) -> Matrix:
        # (Id + N)(Id - N) = Id because N^2 = 0.
        return Matrix.identity(self.dim) - self.n_matrix


def pl_operator(cfg: CycleConfiguration, i: int) -> TransportOperator:
    """Transport operator of the i-th cycle (0-based index)."""
    if not 0 <= i < cfg.r:
        raise IndexError(f"node index {i} out of range for {cfg.r} nodes")
    c, g = cfg.matrix, cfg.space.gram
    delta = c.num[i]
    # Column k of N is <e_k, delta> delta, and <e_k, delta> = (G delta)[k]:
    # with delta = c_i / dc and G = g / dg that is (g c_i)[k] / (dg dc).
    weights = tuple(sum(map(mul, row, delta)) for row in g.num)
    return TransportOperator(delta, weights, c.den * c.den * g.den)


@dataclass(frozen=True)
class InteractionMatrix:
    """An r x r skew matrix with zero diagonal: entry (i, j) is
    pairings[node_class[i]][node_class[j]], every class held by some node.

    One type serves both layers: the nodewise matrix of a configuration and
    the reduced block matrix, whose r is the block count.
    """

    pairings: Matrix
    node_class: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.pairings.rows
        if self.pairings.cols != k or set(self.node_class) != set(range(k)):
            raise DimensionMismatchError("class pairings must be square, each class held by a node")
        # Every class is held, so the matrix is skew iff pairings is; an error
        # names the first offending node entry, as a dense scan would.
        if first_skew_violation(self.pairings) is not None:
            i, j = first_skew_violation(self.entries)
            raise InvariantError(f"interaction matrix not skew at ({i + 1},{j + 1})")

    @property
    def r(self) -> int:
        return len(self.node_class)

    @property
    def b(self) -> int:
        """The size r under its block-count name.  Kept only because the
        benchmark's known-answer check (perfbench/workloads.py) reads
        pkg.reduced.b; package code reads r."""
        return self.r

    @cached_property
    def entries(self) -> Matrix:
        rows = [tuple(row[d] for d in self.node_class) for row in self.pairings.num]
        return Matrix(self.r, self.r, tuple(rows[c] for c in self.node_class), self.pairings.den)


def interaction_matrix(cfg: CycleConfiguration) -> InteractionMatrix:
    """Matrix of pairings <delta_i, delta_j> over all cycle pairs, in class form.

    Over one common denominator, equal cycles have equal integer rows, so the
    distinct rows are the classes and the pairings are C G C^T over them:
    with C over dc and G over dg, mu_cd is the dot product c_c . (g c_d) of
    a class row and a row of cfg.gram_images, over dc^2 dg.  No matrix
    product runs.  Classes are numbered in order of first occurrence: one
    form per configuration.
    """
    c = cfg.matrix
    # Keys in order of first occurrence; equal rows have equal images.
    images = dict(zip(c.num, cfg.gram_images))
    grid = tuple(tuple(sum(map(mul, row, image)) for image in images.values()) for row in images)
    pairings = Matrix(len(images), len(images), grid, c.den * c.den * cfg.space.gram.den)
    slot = {row: s for s, row in enumerate(images)}
    return InteractionMatrix(pairings, tuple(map(slot.__getitem__, c.num)))


def commutator(ops: Sequence[TransportOperator]) -> list[tuple[Grid, int]]:
    """N_i N_j - N_j N_i for every pair i < j of ops, in row-major order:
    (0, 1), (0, 2), ..., (1, 2), ..., each as (grid, den), unreduced.

    One dense product serves every pair.  With N_i = n_i / d_i, n_i the
    unreduced grid delta_i (x) weights_i, the grids n_i stacked (bn x n)
    times the same grids side by side (n x bn) has block (i, j) equal to
    n_i n_j, the product N_i N_j over d_i d_j, so pair (i, j) is block
    (i, j) minus block (j, i) over d_i d_j, for any mix of denominators.
    The diagonal blocks are formed and discarded, and the product holds
    (bn)^2 integers at once.  Fewer than two operators give no pairs and no
    product.
    """
    dims = {op.dim for op in ops}
    if len(dims) > 1:
        raise DimensionMismatchError(f"operators act on dimensions {sorted(dims)}")
    b = len(ops)
    if b < 2:
        return []
    n = ops[0].dim
    grids = [op.grid for op in ops]
    stacked = Matrix(b * n, n, tuple(chain.from_iterable(grids)))
    side = Matrix(n, b * n, tuple(map(tuple, map(chain.from_iterable, zip(*grids)))))
    prod = (stacked @ side).num
    out = []
    for i, j in combinations(range(b), 2):
        ij, ji = prod[i * n:(i + 1) * n], prod[j * n:(j + 1) * n]
        grid = tuple(tuple(map(sub, x[j * n:(j + 1) * n], y[i * n:(i + 1) * n]))
                     for x, y in zip(ij, ji))
        out.append((grid, ops[i].den * ops[j].den))
    return out


def commutator_closed_form(cfg: CycleConfiguration, a: int, b: int) -> tuple[Grid, int]:
    """N_a N_b - N_b N_a of cycles a and b (0-based) as (grid, den) over
    (dg dc^2)^2, unreduced, evaluated columnwise from the rank-one factored
    form.

    Column k is <e_k, delta_b> lambda_ba delta_a - <e_k, delta_a> lambda_ab delta_b
    with lambda_ab = <delta_a, delta_b>.  It reads rows a and b of C and of
    cfg.gram_images (the rows g c_i, formed once per package and shared with
    the interaction matrices), independent of pl_operator and of the dense
    matrix product, so the two routes can cross-check each other.  From
    PACKED_MIN_DIM on it reads them packed, from cfg.packed_images, and
    unpacks all n rows in one call.
    """
    if not (0 <= a < cfg.r and 0 <= b < cfg.r):
        raise IndexError(f"node indices {a}, {b} out of range for {cfg.r} nodes")
    c, g = cfg.matrix, cfg.space.gram
    da, db = c.num[a], c.num[b]
    # With delta = d / dc and G = g / dg, (G delta)[k] = (g d)[k] / (dg dc)
    # and lambda_ab = p / (dg dc^2) with p = d_a . (g d_b).  As lambda_ba =
    # -lambda_ab, entry (j, k) is -lambda_ab ((G delta_b)[k] delta_a[j] +
    # (G delta_a)[k] delta_b[j]): an integer over dg^2 dc^4.
    ga, gb = cfg.gram_images[a], cfg.gram_images[b]
    p = sum(map(mul, da, gb))
    den = (g.den * c.den * c.den) ** 2
    if len(da) < PACKED_MIN_DIM:
        return tuple(tuple(-p * (y * x + z * w) for y, z in zip(gb, ga))
                     for x, w in zip(da, db)), den
    # Row j is delta_a[j] (-p G delta_b) + delta_b[j] (-p G delta_a) on the
    # packed images.
    slots, packed = cfg.packed_images
    qa, qb = -p * packed[a], -p * packed[b]
    return tuple(slots.unpack([x * qb + y * qa for x, y in zip(da, db)])), den


def commutes_all(lam: InteractionMatrix) -> bool:
    """True iff every off-diagonal entry vanishes; nodes of one class meet
    only on the zero diagonal of the class pairings."""
    return lam.pairings.is_zero()


def transport_word(cfg: CycleConfiguration, word: Sequence[int]) -> Matrix:
    """Product of transports for a word of signed 1-based letters.

    Letter i (1 <= i <= r) contributes T_i, letter -i contributes the inverse
    Id - N_i.  Matrices multiply in word order, so
    transport_word(u + v) == transport_word(u) @ transport_word(v).
    """
    n = cfg.space.dim
    result = Matrix.identity(n)
    for pos, letter in enumerate(word):
        if letter == 0 or abs(letter) > cfg.r:
            raise IndexError(
                f"word letter {letter} at position {pos} out of range 1..{cfg.r}"
            )
        op = pl_operator(cfg, abs(letter) - 1)
        factor = op.t_matrix if letter > 0 else op.inverse()
        result = result @ factor
    return result
