"""Splitting verdicts and mixing-cluster combinatorics.

The sector package splits exactly when every off-diagonal interaction entry
vanishes.  On top of the binary verdict we report the mixing graph: nodes
are sectors, edges are nonzero off-diagonal entries, and the connected
components ("mixing clusters") are the groups of sectors that fail to split
apart.  The same classification applies verbatim to the block-level reduced
matrix.  The verdict and clusters come from the k x k class pairings; the
edges, up to r^2 / 2 of them, are built only when a reader asks for them,
as an EdgeRows: a tuple of pairs that also keeps the per-class runs it was
expanded from, so that a writer can emit the edges node by node.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .linalg import InvariantError
from .transport import InteractionMatrix


class EdgeRows(tuple):
    """The mixing edges (i + base, j + base), i < j, as int pairs ordered by
    i and then j, with the runs they were expanded from.

    runs[c] is the ascending base-shifted partners of class c, and node i,
    numbered i + base, pairs with runs[node_class[i]][starts[i]:].  The
    pairs are a tuple and the runs tuples, and neither can be reassigned,
    so a writer reading the runs writes exactly the pairs.
    """

    base: int
    runs: tuple[tuple[int, ...], ...]
    node_class: tuple[int, ...]
    starts: tuple[int, ...]

    def __new__(cls, base: int, runs: tuple[tuple[int, ...], ...],
                node_class: tuple[int, ...]) -> EdgeRows:
        starts = tuple([bisect_right(runs[c], i) for i, c in enumerate(node_class, base)])
        self = super().__new__(cls, [(i, j) for i, (c, k) in enumerate(zip(node_class, starts), base)
                                     for j in runs[c][k:]])
        vars(self).update(base=base, runs=runs, node_class=node_class, starts=starts)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        return type(self), (self.base, self.runs, self.node_class)


@dataclass(frozen=True, eq=False)
class AtomSplittingReport:
    """Splitting verdict plus mixing structure over r sectors (0-based indices).

    The mixing edges are held as runs: node i is in class node_class[i], and
    partners[c] lists in ascending order the nodes that class c pairs with,
    so node i's edges are (i, j) for j > i in partners[node_class[i]].  They
    are expanded only when read, by edge_rows or mixing_edges (edge_rows(0)).

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

    def edge_rows(self, base: int = 0) -> EdgeRows:
        """Each mixing edge (i, j), i < j, as the pair (i + base, j + base),
        ordered by i and then j, expanded from the runs shifted by base."""
        runs = tuple([tuple([j + base for j in cols]) for cols in self.partners])
        rows = EdgeRows(base, runs, self.node_class)
        if self.is_split != (not rows):
            raise InvariantError("splitting verdict inconsistent with mixing structure")
        return rows

    @cached_property
    def mixing_edges(self) -> EdgeRows:
        return self.edge_rows()

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
