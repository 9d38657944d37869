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

The commutators N_i N_j - N_j N_i come by two independent routes, and
both return a pair (rows, den): the n rows of an unreduced integer grid,
each packed into one int in a linalg.Slots (a Kronecker substitution), over
a denominator.  The dense route, commutator(ops), packs each operator's grid
rows once and forms packed row r of a pair as one sum of big-int-by-small-int
products of the grids' entries; the closed form, commutator_closed_form,
forms row j as the combination -p (delta_a[j] P_b + delta_b[j] P_a) of the
two packed Gram images.  Equal packed ints mean equal grids only while every
entry of both fits its slot, so each route states its own entry bound
(commutator_bound, closed_form_bound), and a caller that compares them packs
both in one Slots that holds both bounds.  Within one configuration, with
D = dc^2 dg for C over dc and G over dg, both routes put every pair over
D^2, so they compare as packed ints and no commutator grid or Matrix is
built.

Word convention: a word is a sequence of signed 1-based letters, letter -i
meaning the inverse transport Id - N_i.  The word [a, b] evaluates to the
matrix product T_a . T_b, so concatenating words multiplies their matrices
in order; acting on column vectors, the rightmost letter applies first and
the leftmost letter last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul
from typing import Sequence

from .linalg import (
    DimensionMismatchError,
    InvariantError,
    Matrix,
    Slots,
    abs_max,
    first_skew_violation,
)
from .pairing import CycleConfiguration

# An integer grid, row-major: with a denominator it stands for a rational matrix.
Grid = tuple[tuple[int, ...], ...]

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
        return tuple([tuple([w * d for w in self.weights]) for d in self.delta])

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
    weights = tuple([sum(map(mul, row, delta)) for row in g.num])
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
    grid = tuple([tuple([sum(map(mul, row, image)) for image in images.values()])
                  for row in images])
    pairings = Matrix(len(images), len(images), grid, c.den * c.den * cfg.space.gram.den)
    slot = {row: s for s, row in enumerate(images)}
    return InteractionMatrix(pairings, tuple([slot[row] for row in c.num]))


def commutator_bound(ops: Sequence[TransportOperator]) -> int:
    """A bound on every entry of commutator(ops) and of the grids it packs,
    from the operators alone: an entry of n_i n_j is a sum of n products of
    grid entries, so an entry of a pair is at most 2 n M_i M_j, M_i the
    largest absolute entry of op i's grid, max|delta_i| max|weights_i|.
    Fewer than two operators, or none of positive dimension, give 0."""
    if len(ops) < 2 or not ops[0].dim:
        return 0
    top = sorted(max(map(abs, op.delta)) * max(map(abs, op.weights)) for op in ops)
    return max(2 * ops[0].dim * top[-2], 1) * top[-1]


def commutator(ops: Sequence[TransportOperator], slots: Slots) -> list[tuple[list[int], int]]:
    """N_i N_j - N_j N_i for every pair i < j of ops, in row-major order:
    (0, 1), (0, 2), ..., (1, 2), ..., each as (rows, den), unreduced: the n
    rows packed in slots, over den.

    With N_i = n_i / d_i, n_i the unreduced grid delta_i (x) weights_i, the
    pair (i, j) is n_i n_j - n_j n_i over d_i d_j, for any mix of
    denominators.  Each grid's rows are packed once, P_i[k] row k of n_i,
    and packed row r of the pair is the one sum
    sum_k n_i[r][k] P_j[k] - n_j[r][k] P_i[k]: a Kronecker substitution
    that reads only the operators' grids.  The rows read back exactly while
    slots holds commutator_bound(ops).  Fewer than two operators give no
    pairs and pack nothing.
    """
    dims = {op.dim for op in ops}
    if len(dims) > 1:
        raise DimensionMismatchError(f"operators act on dimensions {sorted(dims)}")
    if len(ops) < 2:
        return []
    grids = [op.grid for op in ops]
    packed = [slots.pack(grid) for grid in grids]
    out = []
    for (i, pi), (j, pj) in combinations(enumerate(packed), 2):
        rows = [sum(map(mul, x, pj)) - sum(map(mul, y, pi)) for x, y in zip(grids[i], grids[j])]
        out.append((rows, ops[i].den * ops[j].den))
    return out


def closed_form_bound(cfg: CycleConfiguration) -> int:
    """A bound on every entry of commutator_closed_form(cfg, a, b) and of the
    images it packs, from the cycles alone: with c and m the largest
    absolute entries of C and of cfg.gram_images, a pairing d_a . (g d_b) is
    at most n c m, so an entry is at most 2 n c^2 m^2.  No node, or
    dimension 0, gives 0."""
    if not (cfg.r and cfg.space.dim):
        return 0
    m = abs_max(cfg.gram_images)
    return 2 * cfg.space.dim * (abs_max(cfg.matrix.num) * m) ** 2


def commutator_closed_form(
    cfg: CycleConfiguration, a: int, b: int, slots: Slots
) -> tuple[list[int], int]:
    """N_a N_b - N_b N_a of cycles a and b (0-based) as (rows, den): the n
    rows packed in slots, over (dg dc^2)^2, unreduced, evaluated from the
    rank-one factored form.

    Column k is <e_k, delta_b> lambda_ba delta_a - <e_k, delta_a> lambda_ab delta_b
    with lambda_ab = <delta_a, delta_b>.  It reads rows a and b of C and of
    cfg.gram_images (the rows g c_i, formed once per package and shared with
    the interaction matrices), independent of pl_operator and of the dense
    route, so the two routes can cross-check each other.  The rows read
    back exactly while slots holds closed_form_bound(cfg).
    """
    if not (0 <= a < cfg.r and 0 <= b < cfg.r):
        raise IndexError(f"node indices {a}, {b} out of range for {cfg.r} nodes")
    c, g = cfg.matrix, cfg.space.gram
    da, db = c.num[a], c.num[b]
    # With delta = d / dc and G = g / dg, (G delta)[k] = (g d)[k] / (dg dc)
    # and lambda_ab = p / (dg dc^2) with p = d_a . (g d_b).  As lambda_ba =
    # -lambda_ab, entry (j, k) is -lambda_ab ((G delta_b)[k] delta_a[j] +
    # (G delta_a)[k] delta_b[j]): an integer over dg^2 dc^4.  Row j is
    # delta_a[j] (-p P_b) + delta_b[j] (-p P_a) on the packed images P.
    ga, gb = cfg.gram_images[a], cfg.gram_images[b]
    p = sum(map(mul, da, gb))
    pa, pb = slots.pack((ga, gb))
    qa, qb = -p * pa, -p * pb
    return [x * qb + y * qa for x, y in zip(da, db)], (g.den * c.den * c.den) ** 2


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
