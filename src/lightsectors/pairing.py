"""Skew-symmetric intersection pairings and vanishing-cycle configurations.

A pairing space models the middle-degree intersection form on a rational
coefficient space via its Gram matrix G, so that <a, b> = a^T G b.  Skew
symmetry (G^T = -G) is enforced at construction; it forces <v, v> = 0 for
every vector, which downstream modules rely on.  A cycle configuration
stores its cycle matrix C, one row per node, as an integer ``Matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .linalg import (
    DimensionMismatchError,
    Matrix,
    cleared,
    first_skew_violation,
)


class NotSquareError(ValueError):
    """The Gram matrix is not square."""


class NotSkewSymmetricError(ValueError):
    """The Gram matrix fails G^T = -G; reports the first offending entry."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(
            f"gram matrix is not skew-symmetric at entry ({i + 1},{j + 1})"
        )


@dataclass(frozen=True)
class PairingSpace:
    """A rational coefficient space with a square skew Gram matrix; its
    dimension is the Gram matrix's size."""

    gram: Matrix

    def __post_init__(self) -> None:
        if self.gram.rows != self.gram.cols:
            raise NotSquareError(
                f"gram matrix is {self.gram.rows}x{self.gram.cols}, not square"
            )
        bad = first_skew_violation(self.gram)
        if bad is not None:
            raise NotSkewSymmetricError(*bad)

    @property
    def dim(self) -> int:
        return self.gram.rows


def standard_symplectic(g: int) -> PairingSpace:
    """Dimension-2g space with block-diagonal [[0,1],[-1,0]] Gram matrix."""
    if g < 0:
        raise ValueError("g must be nonnegative")
    n = 2 * g
    grid = [[0] * n for _ in range(n)]
    for k in range(g):
        grid[2 * k][2 * k + 1] = 1
        grid[2 * k + 1][2 * k] = -1
    return PairingSpace(Matrix(n, n, tuple(map(tuple, grid))))


def pair(space: PairingSpace, a: Sequence[object], b: Sequence[object]) -> Fraction:
    """Evaluate the pairing a^T G b exactly."""
    (a_ints, da), (b_ints, db) = cleared(a), cleared(b)
    if len(a_ints) != space.dim or len(b_ints) != space.dim:
        raise DimensionMismatchError(
            f"vectors of lengths {len(a_ints)}, {len(b_ints)} in pairing space of dim {space.dim}"
        )
    gb = (sum(map(mul, row, b_ints)) for row in space.gram.num)
    return Fraction(sum(map(mul, a_ints, gb)), da * db * space.gram.den)


@dataclass(frozen=True)
class CycleConfiguration:
    """An ordered list of vanishing-cycle vectors in a pairing space.

    Zero vectors are allowed; they give identity transport and are flagged
    as homologically trivial nodes in reports rather than rejected.
    """

    space: PairingSpace
    matrix: Matrix

    def __post_init__(self) -> None:
        if self.matrix.cols != self.space.dim:
            raise DimensionMismatchError(f"cycles of length {self.matrix.cols}, expected {self.space.dim}")

    @classmethod
    def from_vectors(cls, space: PairingSpace, cycles: Iterable[Iterable[object]]) -> "CycleConfiguration":
        return cls(space, Matrix.from_rows(cycles, cols=space.dim))

    @cached_property
    def gram_images(self) -> tuple[tuple[int, ...], ...]:
        """Row i is g c_i for C over dc and G over dg, so G delta_i is row i
        over dg dc.  Each distinct row of C is multiplied once, and equal rows
        share one image.  The interaction matrix and the closed form read it,
        and select passes it on; pl_operator forms its own weights, so the two
        commutator routes stay independent."""
        gram = self.space.gram.num
        images = {c: tuple([sum(map(mul, row, c)) for row in gram])
                  for c in dict.fromkeys(self.matrix.num)}
        return tuple([images[c] for c in self.matrix.num])

    def select(self, nodes: Sequence[int]) -> "CycleConfiguration":
        """The configuration of the cycles at nodes (0-based), in that order,
        whose gram_images are taken from this one's, not formed again.  The
        selected rows over dc reduce to lowest terms by g = gcd(dc, their
        entries), so each image, linear in its row, divides exactly by g."""
        c = self.matrix
        sub = CycleConfiguration(
            self.space, Matrix(len(nodes), c.cols, tuple(c.num[k] for k in nodes), c.den))
        images = [self.gram_images[k] for k in nodes]
        g = c.den // sub.matrix.den
        if g != 1:
            images = [tuple([x // g for x in im]) for im in images]
        vars(sub)["gram_images"] = tuple(images)  # seeds the cached_property
        return sub

    @property
    def r(self) -> int:
        return self.matrix.rows

    @property
    def trivial_nodes(self) -> tuple[int, ...]:
        """0-based indices of zero cycle vectors."""
        return tuple(k for k, row in enumerate(self.matrix.num) if not any(row))
