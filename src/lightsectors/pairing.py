"""Skew-symmetric intersection pairings and vanishing-cycle configurations.

A pairing space models the middle-degree intersection form on a rational
coefficient space via its Gram matrix G, so that <a, b> = a^T G b.  Skew
symmetry (G^T = -G) is enforced at construction; it forces <v, v> = 0 for
every vector, which downstream modules rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    DimensionMismatchError,
    Matrix,
    Vector,
    first_skew_violation,
    is_zero_vector,
    vector,
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
    """A rational coefficient space of dimension dim with a skew Gram matrix."""

    dim: int
    gram: Matrix

    def __post_init__(self) -> None:
        if not self.gram.is_square():
            raise NotSquareError(
                f"gram matrix is {self.gram.rows}x{self.gram.cols}, not square"
            )
        if self.gram.rows != self.dim:
            raise DimensionMismatchError(
                f"gram matrix size {self.gram.rows} does not match dim {self.dim}"
            )
        bad = first_skew_violation(self.gram)
        if bad is not None:
            raise NotSkewSymmetricError(*bad)


def make_pairing_space(gram: Matrix) -> PairingSpace:
    """Validated pairing space from a square skew-symmetric Gram matrix."""
    return PairingSpace(gram.rows, gram)


def standard_symplectic(g: int) -> PairingSpace:
    """Dimension-2g space with block-diagonal [[0,1],[-1,0]] Gram matrix."""
    if g < 0:
        raise ValueError("g must be nonnegative")
    n = 2 * g
    grid = [[Fraction(0)] * n for _ in range(n)]
    for k in range(g):
        grid[2 * k][2 * k + 1] = Fraction(1)
        grid[2 * k + 1][2 * k] = Fraction(-1)
    return PairingSpace(n, Matrix.from_rows(grid, cols=n))


def pair(space: PairingSpace, a: Sequence[object], b: Sequence[object]) -> Fraction:
    """Evaluate the pairing a^T G b exactly."""
    av, bv = vector(a), vector(b)
    if len(av) != space.dim or len(bv) != space.dim:
        raise DimensionMismatchError(
            f"vectors of lengths {len(av)}, {len(bv)} in pairing space of dim {space.dim}"
        )
    gb = space.gram.apply(bv)
    return sum((x * y for x, y in zip(av, gb)), Fraction(0))


@dataclass(frozen=True)
class CycleConfiguration:
    """An ordered list of vanishing-cycle vectors in a pairing space.

    Zero vectors are allowed; they give identity transport and are flagged
    as homologically trivial nodes in reports rather than rejected.
    """

    space: PairingSpace
    cycles: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for k, c in enumerate(self.cycles):
            if len(c) != self.space.dim:
                raise DimensionMismatchError(
                    f"cycle {k + 1} has length {len(c)}, expected {self.space.dim}"
                )

    @classmethod
    def from_vectors(cls, space: PairingSpace, cycles: Sequence[Sequence[object]]) -> "CycleConfiguration":
        return cls(space, tuple(vector(c) for c in cycles))

    @property
    def r(self) -> int:
        return len(self.cycles)

    @property
    def trivial_nodes(self) -> tuple[int, ...]:
        """0-based indices of zero cycle vectors."""
        return tuple(k for k, c in enumerate(self.cycles) if is_zero_vector(c))
