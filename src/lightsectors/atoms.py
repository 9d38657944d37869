"""Splitting verdicts and mixing-cluster combinatorics.

The sector package splits exactly when every off-diagonal interaction entry
vanishes.  On top of the binary verdict we report the mixing graph: nodes
are sectors, edges are nonzero off-diagonal entries, and the connected
components ("mixing clusters") are the groups of sectors that fail to split
apart.  The same classification applies verbatim to the block-level reduced
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import InvariantError
from .transport import InteractionMatrix


@dataclass(frozen=True)
class AtomSplittingReport:
    """Splitting verdict plus mixing structure over r sectors (0-based indices).

    Invariant: is_split iff there are no mixing edges iff every cluster is
    a singleton.
    """

    r: int
    is_split: bool
    mixing_edges: tuple[tuple[int, int], ...]
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        singletons = all(len(c) == 1 for c in self.clusters)
        if self.is_split != (not self.mixing_edges) or self.is_split != singletons:
            raise InvariantError("splitting verdict inconsistent with mixing structure")


def atom_splitting(lam: InteractionMatrix) -> AtomSplittingReport:
    """Classify a package: split iff all off-diagonal entries vanish.

    The same classification serves the nodewise matrix and the reduced block
    matrix; blockwise_atom_splitting is this function under its block name.
    """
    r = lam.r
    edges = tuple(
        (i, j)
        for i in range(r)
        for j in range(i + 1, r)
        if lam.entries.entries[i][j] != 0
    )
    parent = list(range(r))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for k in range(r):
        groups.setdefault(find(k), []).append(k)
    clusters = tuple(tuple(groups[root]) for root in sorted(groups))
    return AtomSplittingReport(r, not edges, edges, clusters)


blockwise_atom_splitting = atom_splitting
