"""Block decompositions, the separation hypothesis, and the reduced matrix.

A block decomposition partitions the node set.  Block separation is the
strong hypothesis that all cycles within a block are literally the same
vector; under it the nodewise interaction matrix descends to a reduced
block matrix, intra-block entries vanish (self-pairing is zero), and the
relation lattice spanned by within-block differences e_i - e_j realizes
the collapse from r raw directions to one per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Sequence, Union

from .linalg import (
    DimensionMismatchError,
    InvariantError,
    Matrix,
    Slots,
    Subspace,
    Vector,
    format_ratio,
)
from .pairing import CycleConfiguration
from .transport import (
    InteractionMatrix,
    closed_form_bound,
    commutator,
    commutator_bound,
    commutator_closed_form,
    commutes_all,
    interaction_matrix,
    pl_operator,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """A partition of the 0-based node set {0..r-1}, blocks ordered by least
    member.  Validation records owner, node k's block index, which is derived
    and so takes no part in equality, hashing or repr."""

    r: int
    blocks: tuple[tuple[int, ...], ...]
    owner: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        owner: dict[int, int] = {}
        for b, block in enumerate(self.blocks):
            if not block:
                raise ValueError("empty block in decomposition")
            if tuple(sorted(block)) != block:
                raise ValueError("block members must be sorted ascending")
            for k in block:
                if not 0 <= k < self.r:
                    raise ValueError(f"node index {k} out of range 0..{self.r - 1}")
                if k in owner:
                    raise ValueError(f"node index {k} appears in two blocks")
                owner[k] = b
        if len(owner) != self.r:
            missing = sorted(set(range(self.r)) - owner.keys())
            raise ValueError(f"decomposition does not cover nodes {missing}")
        mins = [block[0] for block in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks must be ordered by least member")
        object.__setattr__(self, "owner", tuple([owner[k] for k in range(self.r)]))

    @classmethod
    def from_blocks(cls, r: int, blocks: Sequence[Sequence[int]]) -> "BlockDecomposition":
        normalized = tuple(sorted(tuple(sorted(b)) for b in blocks))
        return cls(r, normalized)

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def indicator(self) -> Matrix:
        """The r x count 0/1 incidence as integer rows, row k the unit row of
        node k's block: the inverse of blocks_from_indicator_basis."""
        units = [tuple([int(b == c) for c in range(self.count)]) for b in range(self.count)]
        return Matrix(self.r, self.count, tuple([units[b] for b in self.owner]))


@dataclass(frozen=True)
class BlockClasses:
    """One common cycle per block, witnessing separation: one node per block."""

    decomposition: BlockDecomposition
    classes: CycleConfiguration

    def __post_init__(self) -> None:
        if self.classes.r != self.decomposition.count:
            raise DimensionMismatchError(
                f"{self.classes.r} classes for {self.decomposition.count} blocks"
            )


@dataclass(frozen=True)
class BlockSeparationViolation:
    """First within-block pair of nodes whose cycles differ (all 0-based)."""

    block_index: int
    node_a: int
    node_b: int

    def describe(self) -> str:
        return (
            f"block {self.block_index + 1}: cycles of nodes "
            f"{self.node_a + 1} and {self.node_b + 1} differ"
        )


@dataclass(frozen=True)
class NotBlockAdapted:
    """The realized space is not spanned by disjoint 0/1 indicator vectors."""

    reason: str
    offending: Vector | None = None


def check_block_separation(
    cfg: CycleConfiguration, part: BlockDecomposition
) -> Union[BlockClasses, BlockSeparationViolation]:
    """Verify that all cycles within each block agree exactly.

    Returns the common class per block on success, or the first offending
    block and node pair on failure.  Equality is exact vector equality, not
    proportionality, and compares the integer rows of C.  The classes share
    cfg's Gram images (CycleConfiguration.select), so the nodewise and the
    reduced pairings and the closed form read one set of images.
    """
    if part.r != cfg.r:
        raise DimensionMismatchError(
            f"partition of {part.r} nodes against configuration of {cfg.r}"
        )
    c = cfg.matrix
    for b, block in enumerate(part.blocks):
        for k in block[1:]:
            if c.num[k] != c.num[block[0]]:
                return BlockSeparationViolation(b, block[0], k)
    return BlockClasses(part, cfg.select([block[0] for block in part.blocks]))


def reduced_matrix(bc: BlockClasses) -> InteractionMatrix:
    """Pairings of the block classes: entry (beta, gamma) is <v_beta, v_gamma>.

    It is the interaction matrix of the configuration of block classes, so
    its size r is the block count.
    """
    return interaction_matrix(bc.classes)


@dataclass(frozen=True)
class Check:
    """One failed comparison: its name and the expected and actual text."""

    name: str
    expected: str
    actual: str


@dataclass(frozen=True)
class VerificationReport:
    """How many comparisons ran, and the failed ones in run order."""

    total: int
    failures: tuple[Check, ...]

    @property
    def overall(self) -> bool:
        return not self.failures


def verify_block_consistency(
    lam: InteractionMatrix, bc: BlockClasses, lam_blk: InteractionMatrix
) -> VerificationReport:
    """Check lambda_ij == mu_(block i, block j) for every node pair i != j.

    Intra-block pairs must come out zero (their expected value is a diagonal
    entry of the reduced matrix).  Failure names carry 1-based node indices.
    """
    part = bc.decomposition
    if lam.r != part.r:
        raise DimensionMismatchError(
            f"interaction matrix of size {lam.r} against partition of {part.r}"
        )
    if lam_blk.r != part.count:
        raise DimensionMismatchError(
            f"reduced matrix of size {lam_blk.r} against {part.count} blocks"
        )
    owner = part.owner
    # Both matrices are integer pairings over one denominator each, and
    # x / dp == y / dq iff x dq == y dp: the comparison builds no Fraction.
    p, dp, node_class = lam.pairings.num, lam.pairings.den, lam.node_class
    q, dq, block_class = lam_blk.pairings.num, lam_blk.pairings.den, lam_blk.node_class
    # Node i's entries are fixed by its (class, block) key, and two nodes with
    # one key meet at two zero diagonals: distinct keys decide every i != j.
    keys = dict.fromkeys(zip(node_class, owner))
    total = part.r * (part.r - 1)
    if all(p[c][d] * dq == q[block_class[beta]][block_class[gamma]] * dp
           for (c, beta), (d, gamma) in permutations(keys, 2)):
        return VerificationReport(total, ())
    failures = []
    for i, j in product(range(part.r), repeat=2):
        expected = q[block_class[owner[i]]][block_class[owner[j]]]
        actual = p[node_class[i]][node_class[j]]
        if i != j and expected * dp != actual * dq:
            tag = " [intra-block]" if owner[i] == owner[j] else ""
            failures.append(
                Check(
                    name=f"lambda({i + 1},{j + 1}){tag}",
                    expected=format_ratio(expected, dq),
                    actual=format_ratio(actual, dp),
                )
            )
    return VerificationReport(total, tuple(failures))


def block_commutator_check(bc: BlockClasses, lam_blk: InteractionMatrix) -> VerificationReport:
    """Cross-check block transport commutators against the closed form.

    For every block pair the dense commutator of the block operators must
    match the rank-one closed form, and the pairwise-commuting verdict must
    coincide with all off-diagonal entries of the reduced matrix lam_blk
    vanishing.  Both routes return the packed rows of an unreduced integer
    grid over D^2, D = dc^2 dg for the block classes over dc and the Gram
    matrix over dg, in one Slots that holds both routes' own bounds, so each
    pair compares as packed ints, and a commutator vanishes iff its packed
    rows are 0: no commutator grid or Matrix is built.  A pair over two
    denominators is an internal bug.
    """
    b = bc.decomposition.count
    if lam_blk.r != b:
        raise DimensionMismatchError(f"reduced matrix of size {lam_blk.r} against {b} blocks")
    cfg = bc.classes
    ops = [pl_operator(cfg, i) for i in range(b)]
    slots = Slots(max(commutator_bound(ops), closed_form_bound(cfg)), cfg.space.dim)
    dense = commutator(ops, slots)
    failures = []
    for (i, j), (rows, den) in zip(combinations(range(b), 2), dense):
        closed, closed_den = commutator_closed_form(cfg, i, j, slots)
        if closed_den != den:
            raise InvariantError(f"block commutator ({i + 1},{j + 1}) over {den}, "
                                 f"closed form over {closed_den}")
        if rows != closed:
            failures.append(
                Check(
                    name=f"commutator closed form ({i + 1},{j + 1})",
                    expected="matrix and closed form agree",
                    actual="disagree",
                )
            )
    all_zero = not any(any(rows) for rows, _ in dense)
    off_diag_zero = commutes_all(lam_blk)
    if all_zero != off_diag_zero:
        failures.append(
            Check(
                name="commutation criterion",
                expected="commute iff off-diagonal reduced entries vanish",
                actual=(
                    f"commutators {'all zero' if all_zero else 'nonzero'}; "
                    f"off-diagonal {'zero' if off_diag_zero else 'nonzero'}"
                ),
            )
        )
    return VerificationReport(b * (b - 1) // 2 + 1, tuple(failures))


def relation_lattice_from_blocks(part: BlockDecomposition) -> Subspace:
    """Span of the within-block differences e_i - e_j, in canonical form.

    The star differences e_a - e_last within each block generate the full
    pairwise set.  Each has its leading 1 at a and its only other entry, -1,
    at the block's largest member, which is never a pivot; sorted by a they
    are the reduced-echelon basis itself, so they are built directly as
    integer rows and no elimination runs.  The quotient of QQ^r by this
    lattice has one dimension per block.
    """
    rows = []
    for a, last in sorted((a, block[-1]) for block in part.blocks for a in block[:-1]):
        row = [0] * part.r
        row[a], row[last] = 1, -1
        rows.append(tuple(row))
    return Subspace(part.r, Matrix(len(rows), part.r, tuple(rows)))


def blocks_from_indicator_basis(
    v_geom: Subspace,
) -> Union[BlockDecomposition, NotBlockAdapted]:
    """Recover a partition when the realized space has an indicator basis.

    The canonical basis must consist of 0/1 vectors with pairwise disjoint
    supports covering every node; each support is then a block.  Any other
    shape is reported as not block-adapted.
    """
    supports: list[tuple[int, ...]] = []
    covered: set[int] = set()
    basis = v_geom.basis
    for k, row in enumerate(basis.num):
        # Entry x / den is 0 or 1 iff x is 0 or den.
        if any(x and x != basis.den for x in row):
            return NotBlockAdapted("basis vector has entries outside {0,1}", basis.entries[k])
        support = tuple([node for node, x in enumerate(row) if x])
        if covered & set(support):
            return NotBlockAdapted("basis vector supports overlap", basis.entries[k])
        covered.update(support)
        supports.append(support)
    if covered != set(range(v_geom.ambient_dim)):
        return NotBlockAdapted("indicator supports do not cover every node")
    return BlockDecomposition.from_blocks(v_geom.ambient_dim, supports)
