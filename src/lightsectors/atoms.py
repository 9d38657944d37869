"""Splitting verdicts and mixing-cluster combinatorics.

The sector package splits exactly when every off-diagonal interaction entry
vanishes.  On top of the binary verdict we report the mixing graph: nodes
are sectors, edges are nonzero off-diagonal entries, and the connected
components ("mixing clusters") are the groups of sectors that fail to split
apart.  The same classification applies verbatim to the block-level reduced
matrix.  The verdict and clusters come from the k x k class pairings; the
edges, up to r^2 / 2 of them, are built only when a reader asks for them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .linalg import InvariantError
from .transport import InteractionMatrix


@dataclass(frozen=True, eq=False)
class AtomSplittingReport:
    """Splitting verdict plus mixing structure over r sectors (0-based indices).

    The mixing edges are held as runs: node i is in class node_class[i], and
    partners[c] lists in ascending order the nodes that class c pairs with,
    so node i's edges are (i, j) for j > i in partners[node_class[i]].  They
    are expanded only when read, by edge_rows or mixing_edges.

    Invariant: is_split iff there are no mixing edges iff every cluster is
    a singleton.  The second half is checked at construction, the first
    wherever the edges are expanded.  Reports are equal when their r,
    verdict, edges and clusters are.
    """

    r: int
    is_split: bool
    clusters: tuple[tuple[int, ...], ...]
    node_class: tuple[int, ...]
    partners: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.is_split != all(len(c) == 1 for c in self.clusters):
            raise InvariantError("splitting verdict inconsistent with mixing structure")

    def edge_rows(self, base: int = 0) -> list[list[int]]:
        """Each mixing edge (i, j), i < j, as a new list [i + base, j + base],
        ordered by i and then j."""
        runs = [[j + base for j in cols] for cols in self.partners]
        rows = [[i, j] for i, c in enumerate(self.node_class, base)
                for cols in (runs[c],) for j in cols[bisect_right(cols, i):]]
        if self.is_split != (not rows):
            raise InvariantError("splitting verdict inconsistent with mixing structure")
        return rows

    @cached_property
    def mixing_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_rows()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomSplittingReport):
            return NotImplemented
        return (self.r == other.r and self.is_split == other.is_split
                and self.clusters == other.clusters
                and self.mixing_edges == other.mixing_edges)

    def __hash__(self) -> int:
        return hash((self.r, self.is_split, self.clusters))


def atom_splitting(lam: InteractionMatrix) -> AtomSplittingReport:
    """Classify a package: split iff all off-diagonal entries vanish.

    The same classification serves the nodewise matrix and the reduced block
    matrix; blockwise_atom_splitting is this function under its block name.
    Its work is O(k^2 + k r) for k classes: no edge is built.
    """
    rows, node_class = lam.pairings.num, lam.node_class
    parent = list(range(len(rows)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Union-find over classes, each held by some node.
    for c, row in enumerate(rows):
        for d in range(c + 1, len(rows)):
            if row[d]:
                parent[find(c)] = find(d)
    partners = tuple([tuple([j for j, d in enumerate(node_class) if row[d]]) for row in rows])
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(node_class):
        # A node whose class pairs with nothing is its own cluster.
        groups.setdefault(find(c) if partners[c] else -1 - i, []).append(i)
    clusters = tuple([tuple(group) for group in groups.values()])
    # The pairings are skew and every class is held, so a class that pairs
    # with some node gives an edge: there is one iff some run is non-empty.
    return AtomSplittingReport(lam.r, not any(partners), clusters, node_class, partners)


blockwise_atom_splitting = atom_splitting
