"""Ambient nodewise coefficient space, incidence data, and the realized subspace.

The ambient space QQ^r carries one formal direction per node.  A cycle-node
incidence datum is an r x |A| matrix whose columns span the coefficient
directions actually admissible under global gluing; the realized space is
its column span.  The extension-side dichotomy is simply whether that span
is all of QQ^r.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .linalg import (
    DimensionMismatchError,
    Matrix,
    Subspace,
    Vector,
    column_space,
    vector,
)


class ExtensionVerdict(enum.Enum):
    SPLIT = "Split"
    INTERACTING = "Interacting"
    AMBIENT_DEFAULT = "Ambient-default"


@dataclass(frozen=True)
class IncidenceDatum:
    """r x |A| incidence matrix; columns are the images of the labeled generators."""

    r: int
    labels: tuple[str, ...]
    matrix_c: Matrix

    def __post_init__(self) -> None:
        if self.matrix_c.rows != self.r:
            raise DimensionMismatchError(
                f"incidence matrix has {self.matrix_c.rows} rows for {self.r} nodes"
            )
        if len(self.labels) != self.matrix_c.cols:
            raise DimensionMismatchError(
                f"{len(self.labels)} labels for {self.matrix_c.cols} incidence columns"
            )

    @classmethod
    def from_matrix(cls, matrix_c: Matrix, labels: Sequence[str] | None = None) -> "IncidenceDatum":
        if labels is None:
            labels = tuple(f"g{j + 1}" for j in range(matrix_c.cols))
        return cls(matrix_c.rows, tuple(labels), matrix_c)

    @classmethod
    def from_columns(cls, r: int, columns: Sequence[Sequence[object]],
                     labels: Sequence[str] | None = None) -> "IncidenceDatum":
        return cls.from_matrix(Matrix.from_columns(columns, rows=r), labels)


@dataclass(frozen=True)
class RealizedSpace:
    """The realized coefficient subspace of QQ^r, with a fullness flag."""

    ambient_r: int
    v_geom: Subspace
    is_full: bool

    def __post_init__(self) -> None:
        if self.v_geom.ambient_dim != self.ambient_r:
            raise DimensionMismatchError(
                f"realized subspace lives in dim {self.v_geom.ambient_dim}, not {self.ambient_r}"
            )
        if self.is_full != (self.v_geom.dim == self.ambient_r):
            raise ValueError("is_full flag inconsistent with subspace dimension")

    @classmethod
    def ambient(cls, r: int) -> "RealizedSpace":
        """The no-gluing-data default: the full ambient space."""
        return cls(r, Subspace.full(r), True)


@dataclass(frozen=True)
class CorrectedClass:
    """A proposed coefficient vector (c_1 .. c_r) for the corrected class."""

    coeffs: Vector

    @classmethod
    def of(cls, coeffs: Sequence[object]) -> "CorrectedClass":
        return cls(vector(coeffs))

    @property
    def r(self) -> int:
        return len(self.coeffs)


def realized_space(inc: IncidenceDatum) -> RealizedSpace:
    """Column span of the incidence matrix, as a canonical subspace of QQ^r."""
    v_geom = column_space(inc.matrix_c)
    return RealizedSpace(inc.r, v_geom, v_geom.dim == inc.r)


def classify_extension_side(rs: RealizedSpace) -> ExtensionVerdict:
    """Split iff the realized space is all of the ambient nodewise space."""
    return ExtensionVerdict.SPLIT if rs.is_full else ExtensionVerdict.INTERACTING


def check_membership(rs: RealizedSpace, c: CorrectedClass) -> bool:
    """Whether the proposed coefficient vector lies in the realized subspace."""
    if c.r != rs.ambient_r:
        raise DimensionMismatchError(
            f"class vector of length {c.r} in ambient dimension {rs.ambient_r}"
        )
    return rs.v_geom.contains(c.coeffs)
