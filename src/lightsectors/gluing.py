"""Ambient nodewise coefficient space, incidence data, and the realized subspace.

The ambient space QQ^r carries one formal direction per node.  The cycle-node
incidence is an r x |A| matrix whose columns span the coefficient directions
actually admissible under global gluing; the realized space is its column
span.  The extension-side dichotomy is simply whether that span is all of
QQ^r, and a corrected class is a coefficient vector (c_1 .. c_r).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .linalg import Matrix, Subspace, Vector, column_space


class ExtensionVerdict(enum.Enum):
    SPLIT = "Split"
    INTERACTING = "Interacting"
    AMBIENT_DEFAULT = "Ambient-default"


@dataclass(frozen=True)
class RealizedSpace:
    """The realized coefficient subspace of QQ^r."""

    v_geom: Subspace

    @property
    def is_full(self) -> bool:
        return self.v_geom.is_full()

    @classmethod
    def ambient(cls, r: int) -> "RealizedSpace":
        """The no-gluing-data default: the full ambient space."""
        return cls(Subspace.full(r))


def realized_space(incidence: Matrix) -> RealizedSpace:
    """Column span of the r x |A| incidence matrix, as a canonical subspace of QQ^r."""
    return RealizedSpace(column_space(incidence))


def classify_extension_side(rs: RealizedSpace) -> ExtensionVerdict:
    """Split iff the realized space is all of the ambient nodewise space."""
    return ExtensionVerdict.SPLIT if rs.is_full else ExtensionVerdict.INTERACTING


def check_membership(rs: RealizedSpace, c: Vector) -> bool:
    """Whether the proposed coefficient vector lies in the realized subspace."""
    return rs.v_geom.contains(c)
