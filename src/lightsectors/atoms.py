"""Splitting verdicts and mixing-cluster combinatorics.

The sector package splits exactly when every off-diagonal interaction entry
vanishes.  On top of the binary verdict we report the mixing graph: nodes
are sectors, edges are nonzero off-diagonal entries, and the connected
components ("mixing clusters") are the groups of sectors that fail to split
apart.  The same classification applies verbatim to the block-level reduced
matrix.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

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
    rows, node_class = lam.pairings.num, lam.node_class
    parent = list(range(len(rows)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Union-find over classes, each held by some node; partners[c] lists the
    # nodes that class c pairs with, so node i's edges are (i, j), j > i there.
    for c, row in enumerate(rows):
        for d in range(c + 1, len(rows)):
            if row[d]:
                parent[find(c)] = find(d)
    partners = [tuple(j for j, d in enumerate(node_class) if row[d]) for row in rows]
    edges: list[tuple[int, int]] = []
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(node_class):
        cols = partners[c]
        edges.extend(zip(repeat(i), cols[bisect_right(cols, i):]))
        # A node whose class pairs with nothing is its own cluster.
        groups.setdefault(find(c) if cols else -1 - i, []).append(i)
    clusters = tuple(map(tuple, groups.values()))
    return AtomSplittingReport(lam.r, not edges, tuple(edges), clusters)


blockwise_atom_splitting = atom_splitting
