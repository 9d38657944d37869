"""Picard-Lefschetz transport operators and the interaction matrix.

Each cycle delta induces the transport T(a) = a + <a, delta> delta with
nilpotent part N = T - Id, so N(a) = <a, delta> delta and N^2 = 0 (the
self-pairing vanishes by skew symmetry).  N is the rank-one map
delta (x) G delta, so a TransportOperator stores only delta and the weights
G delta and builds the dense N and T on request.  The interaction matrix
collects the pairwise cycle pairings lambda_ij = <delta_i, delta_j>; its
off-diagonal vanishing is exactly pairwise commutativity of the transports.

Word convention: a word is a sequence of signed 1-based letters, letter -i
meaning the inverse transport Id - N_i.  The word [a, b] evaluates to the
matrix product T_a . T_b, so concatenating words multiplies their matrices
in order; acting on column vectors, the rightmost letter applies first and
the leftmost letter last.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .linalg import (
    DimensionMismatchError,
    InvariantError,
    Matrix,
    Vector,
    first_skew_violation,
    is_zero_vector,
)
from .pairing import CycleConfiguration, PairingSpace, pair


@dataclass(frozen=True)
class TransportOperator:
    """T = Id + N for one node, with N = delta (x) weights and weights = G delta.

    Entry (j, k) of N is weights[k] * delta[j]; node_index is 0-based.  N has
    rank 1 unless the cycle is zero or pairs trivially, when T is the identity.
    """

    node_index: int
    delta: Vector
    weights: Vector

    def __post_init__(self) -> None:
        if len(self.delta) != len(self.weights):
            raise DimensionMismatchError("delta and weights differ in length")

    @property
    def dim(self) -> int:
        return len(self.delta)

    @property
    def nilpotent_rank(self) -> int:
        return 0 if is_zero_vector(self.delta) or is_zero_vector(self.weights) else 1

    @cached_property
    def n_matrix(self) -> Matrix:
        grid = tuple(tuple(w * d for w in self.weights) for d in self.delta)
        return Matrix(self.dim, self.dim, grid)

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
    delta = cfg.cycles[i]
    # Column k of N is <e_k, delta> delta, and <e_k, delta> = (G delta)[k].
    return TransportOperator(i, delta, cfg.space.gram.apply(delta))


@dataclass(frozen=True)
class InteractionMatrix:
    """The r x r matrix of pairwise cycle pairings; skew with zero diagonal.

    One type serves both layers: the nodewise matrix of a configuration and
    the reduced block matrix, whose r is the block count.
    """

    r: int
    entries: Matrix

    def __post_init__(self) -> None:
        if self.entries.rows != self.r or self.entries.cols != self.r:
            raise DimensionMismatchError(
                f"interaction matrix must be {self.r}x{self.r}"
            )
        bad = first_skew_violation(self.entries)
        if bad is not None:
            i, j = bad
            raise InvariantError(f"interaction matrix not skew at ({i + 1},{j + 1})")

    @property
    def b(self) -> int:
        """The size r under its block-count name.  Kept only because the
        benchmark's known-answer check (perfbench/workloads.py) reads
        pkg.reduced.b; package code reads r."""
        return self.r

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.entries[i][j]


def interaction_matrix(cfg: CycleConfiguration) -> InteractionMatrix:
    """Matrix of pairings <delta_i, delta_j> over all cycle pairs."""
    zero = Fraction(0)
    weighted = [cfg.space.gram.apply(b) for b in cfg.cycles]
    grid = []
    for a in cfg.cycles:
        row = []
        for w in weighted:
            acc = zero
            for x, y in zip(a, w):
                if x and y:
                    acc = acc + x * y
            row.append(acc)
        grid.append(tuple(row))
    return InteractionMatrix(cfg.r, Matrix(cfg.r, cfg.r, tuple(grid)))


def commutator(a: TransportOperator, b: TransportOperator) -> Matrix:
    """Matrix commutator N_a N_b - N_b N_a."""
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"operators act on dimensions {a.dim} and {b.dim}"
        )
    return a.n_matrix @ b.n_matrix - b.n_matrix @ a.n_matrix


def commutator_closed_form(space: PairingSpace, delta_a: Vector, delta_b: Vector) -> Matrix:
    """The commutator evaluated columnwise from the rank-one factored form.

    Column k is <e_k, delta_b> lambda_ba delta_a - <e_k, delta_a> lambda_ab delta_b
    with lambda_ab = <delta_a, delta_b>.  Kept independent of the dense matrix
    product so the two routes can cross-check each other.
    """
    lam_ab = pair(space, delta_a, delta_b)
    lam_ba = -lam_ab
    wa = space.gram.apply(delta_a)  # <e_k, delta_a> = wa[k]
    wb = space.gram.apply(delta_b)
    n = space.dim
    grid = tuple(
        tuple(wb[k] * lam_ba * delta_a[j] - wa[k] * lam_ab * delta_b[j] for k in range(n))
        for j in range(n)
    )
    return Matrix(n, n, grid)


def commutes_all(lam: InteractionMatrix) -> bool:
    """True iff every off-diagonal entry vanishes (the diagonal always does)."""
    return all(
        lam.entries.entries[i][j] == 0
        for i in range(lam.r)
        for j in range(lam.r)
        if i != j
    )


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
