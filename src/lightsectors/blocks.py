"""Block decompositions, the separation hypothesis, and the reduced matrix.

A block decomposition partitions the node set.  Block separation is the
strong hypothesis that all cycles within a block are literally the same
vector; under it the nodewise interaction matrix descends to a reduced
block matrix, intra-block entries vanish (self-pairing is zero), and the
relation lattice spanned by within-block differences e_i - e_j realizes
the collapse from r raw directions to one per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .linalg import (
    DimensionMismatchError,
    Subspace,
    Vector,
    column_space,
    format_rational,
)
from .gluing import IncidenceDatum
from .pairing import CycleConfiguration, PairingSpace
from .transport import (
    InteractionMatrix,
    commutator,
    commutator_closed_form,
    commutes_all,
    interaction_matrix,
    pl_operator,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """A partition of the 0-based node set {0..r-1}, blocks ordered by least member."""

    r: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block in decomposition")
            if tuple(sorted(block)) != block:
                raise ValueError("block members must be sorted ascending")
            for k in block:
                if not 0 <= k < self.r:
                    raise ValueError(f"node index {k} out of range 0..{self.r - 1}")
                if k in seen:
                    raise ValueError(f"node index {k} appears in two blocks")
                seen.add(k)
        if len(seen) != self.r:
            missing = sorted(set(range(self.r)) - seen)
            raise ValueError(f"decomposition does not cover nodes {missing}")
        mins = [block[0] for block in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks must be ordered by least member")

    @classmethod
    def from_blocks(cls, r: int, blocks: Sequence[Sequence[int]]) -> "BlockDecomposition":
        normalized = tuple(sorted(tuple(sorted(b)) for b in blocks))
        return cls(r, normalized)

    @classmethod
    def singletons(cls, r: int) -> "BlockDecomposition":
        return cls(r, tuple((k,) for k in range(r)))

    @property
    def count(self) -> int:
        return len(self.blocks)

    def block_of(self, node: int) -> int:
        for b, block in enumerate(self.blocks):
            if node in block:
                return b
        raise IndexError(f"node {node} not in decomposition")


@dataclass(frozen=True)
class BlockClasses:
    """One common cycle vector per block, witnessing block separation."""

    decomposition: BlockDecomposition
    classes: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if len(self.classes) != self.decomposition.count:
            raise DimensionMismatchError(
                f"{len(self.classes)} classes for {self.decomposition.count} blocks"
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
    proportionality.
    """
    if part.r != cfg.r:
        raise DimensionMismatchError(
            f"partition of {part.r} nodes against configuration of {cfg.r}"
        )
    classes = []
    for b, block in enumerate(part.blocks):
        rep = block[0]
        for k in block[1:]:
            if cfg.cycles[k] != cfg.cycles[rep]:
                return BlockSeparationViolation(b, rep, k)
        classes.append(cfg.cycles[rep])
    return BlockClasses(part, tuple(classes))


def reduced_matrix(space: PairingSpace, bc: BlockClasses) -> InteractionMatrix:
    """Pairings of the block classes: entry (beta, gamma) is <v_beta, v_gamma>.

    It is the interaction matrix of the configuration of block classes, so
    its size r is the block count.
    """
    return interaction_matrix(CycleConfiguration(space, bc.classes))


@dataclass(frozen=True)
class Check:
    name: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_block_consistency(
    lam: InteractionMatrix, bc: BlockClasses, lam_blk: InteractionMatrix
) -> VerificationReport:
    """Check lambda_ij == mu_(block i, block j) for every node pair.

    Intra-block pairs must come out zero (their expected value is a diagonal
    entry of the reduced matrix).  Check names carry 1-based node indices.
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
    owner = [0] * part.r
    for b, block in enumerate(part.blocks):
        for k in block:
            owner[k] = b
    checks = []
    for i in range(part.r):
        for j in range(part.r):
            if i == j:
                continue
            intra = owner[i] == owner[j]
            # Diagonal reduced entries are zero by skew symmetry, so the
            # intra-block expectation is literally 0.
            expected = lam_blk.entry(owner[i], owner[j])
            actual = lam.entry(i, j)
            tag = " [intra-block]" if intra else ""
            checks.append(
                Check(
                    name=f"lambda({i + 1},{j + 1}){tag}",
                    expected=format_rational(expected),
                    actual=format_rational(actual),
                    passed=expected == actual,
                )
            )
    return VerificationReport(tuple(checks))


def block_commutator_check(
    space: PairingSpace, bc: BlockClasses, lam_blk: InteractionMatrix
) -> VerificationReport:
    """Cross-check block transport commutators against the closed form.

    For every block pair the dense commutator of the block operators must
    match the rank-one closed form columnwise, and the pairwise-commuting
    verdict must coincide with all off-diagonal entries of the reduced matrix
    lam_blk vanishing.
    """
    b = bc.decomposition.count
    if lam_blk.r != b:
        raise DimensionMismatchError(f"reduced matrix of size {lam_blk.r} against {b} blocks")
    block_cfg = CycleConfiguration(space, bc.classes)
    ops = [pl_operator(block_cfg, i) for i in range(b)]
    checks = []
    all_zero = True
    for i in range(b):
        for j in range(i + 1, b):
            dense = commutator(ops[i], ops[j])
            closed = commutator_closed_form(space, bc.classes[i], bc.classes[j])
            checks.append(
                Check(
                    name=f"commutator closed form ({i + 1},{j + 1})",
                    expected="matrix and closed form agree",
                    actual="agree" if dense == closed else "disagree",
                    passed=dense == closed,
                )
            )
            if not dense.is_zero():
                all_zero = False
    off_diag_zero = commutes_all(lam_blk)
    checks.append(
        Check(
            name="commutation criterion",
            expected="commute iff off-diagonal reduced entries vanish",
            actual=(
                f"commutators {'all zero' if all_zero else 'nonzero'}; "
                f"off-diagonal {'zero' if off_diag_zero else 'nonzero'}"
            ),
            passed=all_zero == off_diag_zero,
        )
    )
    return VerificationReport(tuple(checks))


def relation_lattice_from_blocks(part: BlockDecomposition) -> Subspace:
    """Span of the within-block differences e_i - e_j, in canonical form.

    The star differences e_a - e_last within each block generate the full
    pairwise set.  Each has its leading 1 at a and its only other entry, -1,
    at the block's largest member, which is never a pivot; sorted by a they
    are the reduced-echelon basis itself, so they are built directly and no
    elimination runs.  The quotient of QQ^r by this lattice has one
    dimension per block.
    """
    one, minus_one, zero = Fraction(1), Fraction(-1), Fraction(0)
    rows = []
    for a, last in sorted((a, block[-1]) for block in part.blocks for a in block[:-1]):
        row = [zero] * part.r
        row[a], row[last] = one, minus_one
        rows.append(tuple(row))
    return Subspace(part.r, tuple(rows))


def infer_blocks_from_incidence(
    inc: IncidenceDatum,
) -> Union[BlockDecomposition, NotBlockAdapted]:
    """Recover a partition when the realized space has an indicator basis.

    The canonical basis of the column span must consist of 0/1 vectors with
    pairwise disjoint supports covering every node; each support is then a
    block.  Any other shape is reported as not block-adapted.
    """
    return blocks_from_indicator_basis(column_space(inc.matrix_c))


def blocks_from_indicator_basis(
    v_geom: Subspace,
) -> Union[BlockDecomposition, NotBlockAdapted]:
    supports: list[tuple[int, ...]] = []
    covered: set[int] = set()
    for vec in v_geom.basis:
        if any(x not in (0, 1) for x in vec):
            return NotBlockAdapted("basis vector has entries outside {0,1}", vec)
        support = tuple(i for i, x in enumerate(vec) if x == 1)
        if covered & set(support):
            return NotBlockAdapted("basis vector supports overlap", vec)
        covered.update(support)
        supports.append(support)
    if covered != set(range(v_geom.ambient_dim)):
        return NotBlockAdapted("indicator supports do not cover every node")
    return BlockDecomposition.from_blocks(v_geom.ambient_dim, supports)
