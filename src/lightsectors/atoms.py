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
    r = lam.r
    parent = list(range(r))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # Nodes of one cycle class share a row object, scanned once at the first
    # node k that has it.  A later node i with a nonzero row shares k's
    # neighbours, so joining i to k links every edge (i, j), j > i.
    first: dict[int, tuple[int, tuple[int, ...]]] = {}
    edges: list[tuple[int, int]] = []
    for i, row in enumerate(lam.entries.entries):
        if id(row) not in first:
            first[id(row)] = (i, tuple(j for j, x in enumerate(row) if x))
        k, cols = first[id(row)]
        later = cols[bisect_right(cols, i):]
        if k == i:
            for j in later:
                join(i, j)
        elif cols:
            join(k, i)
        edges.extend(zip(repeat(i), later))
    groups: dict[int, list[int]] = {}
    for k in range(r):
        groups.setdefault(find(k), []).append(k)
    clusters = tuple(tuple(groups[root]) for root in sorted(groups))
    return AtomSplittingReport(r, not edges, tuple(edges), clusters)


blockwise_atom_splitting = atom_splitting
