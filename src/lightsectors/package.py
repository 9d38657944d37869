"""Assembly of the full light-sector package and its two-layer classification.

assemble() checks the exact inputs and returns the package record, whose
sections (the three realizations, the blocks, the reduced matrix) are each
derived from the inputs on first read, independently; classify() reads off
the per-layer verdicts (extension, transport, atom) together with relation
collapse.  verify_block_structure() machine-checks the four block-reduction
claims on a separated package.

The extension-side and transport-side verdicts are reported per layer and
never forced to agree: a configuration with full incidence but nonzero
interaction (or the reverse) is legitimate input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .linalg import DimensionMismatchError, InvariantError, Matrix, Vector, quotient_dim
from .pairing import CycleConfiguration, PairingSpace
from .transport import InteractionMatrix, TransportOperator, commutes_all, interaction_matrix, pl_operator
from .gluing import (
    ExtensionVerdict,
    RealizedSpace,
    check_membership,
    classify_extension_side,
    realized_space,
)
from .blocks import (
    BlockClasses,
    BlockDecomposition,
    BlockSeparationViolation,
    Check,
    NotBlockAdapted,
    VerificationReport,
    block_commutator_check,
    blocks_from_indicator_basis,
    check_block_separation,
    reduced_matrix,
    relation_lattice_from_blocks,
    verify_block_consistency,
)
from .atoms import AtomSplittingReport, atom_splitting, blockwise_atom_splitting


class TransportVerdict(enum.Enum):
    COMMUTING = "Commuting"
    NONCOMMUTING = "Noncommuting"


class AtomVerdict(enum.Enum):
    SPLIT = "Split"
    NON_SPLIT = "NonSplit"


class BlockSeparationRequiredError(ValueError):
    """Raised when block-structure verification is requested without a
    separated partition."""

    def __init__(self, message: str, violation: BlockSeparationViolation | None = None):
        self.violation = violation
        super().__init__(message)


@dataclass(frozen=True)
class Classification:
    """Two-layer verdict: per-realization splitting plus relation collapse.

    collapsed_dim is None when no collapse occurs (realized space full, or
    no gluing data supplied); otherwise it is the surviving dimension.
    Transport and atom verdicts share one criterion, so they always agree.
    """

    extension_side: ExtensionVerdict
    transport_side: TransportVerdict
    atom_side: AtomVerdict
    collapsed_dim: int | None

    def __post_init__(self) -> None:
        if (self.transport_side is TransportVerdict.COMMUTING) != (
            self.atom_side is AtomVerdict.SPLIT
        ):
            raise InvariantError("transport and atom verdicts must coincide")


@dataclass(frozen=True)
class LightSectorPackage:
    """The package record: four stored inputs and nine sections derived from them.

    Stored are the cycles, the incidence (None: no gluing data), the block
    partition and the corrected class; their sizes are checked on
    construction.  Each other section is computed on first read and cached;
    the user partition, not the incidence blocks, drives the block analysis.
    """

    cycles: CycleConfiguration
    incidence: Matrix | None
    partition: BlockDecomposition | None
    corrected_class: Vector | None

    def __post_init__(self) -> None:
        r = self.r
        if self.incidence is not None and self.incidence.rows != r:
            raise DimensionMismatchError(
                f"incidence matrix for {self.incidence.rows} nodes, configuration has {r}"
            )
        if self.partition is not None and self.partition.r != r:
            raise DimensionMismatchError(
                f"partition of {self.partition.r} nodes, configuration has {r}"
            )
        if self.corrected_class is not None and len(self.corrected_class) != r:
            raise DimensionMismatchError(
                f"corrected class of length {len(self.corrected_class)}, configuration has {r}"
            )

    @property
    def r(self) -> int:
        return self.cycles.r

    @property
    def space(self) -> PairingSpace:
        return self.cycles.space

    @property
    def ambient_default(self) -> bool:
        """No incidence was supplied, so the realized space is all of QQ^r."""
        return self.incidence is None

    @cached_property
    def interaction(self) -> InteractionMatrix:
        return interaction_matrix(self.cycles)

    @cached_property
    def transport(self) -> tuple[TransportOperator, ...]:
        """transport[i] is node i's operator; the nodes of one cycle class share it."""
        # The nodes of a class have equal cycles, hence equal operators: build
        # one per class, at the class's first node.
        node_class = self.interaction.node_class
        classes = range(self.interaction.pairings.rows)
        ops = [pl_operator(self.cycles, node_class.index(c)) for c in classes]
        return tuple(ops[c] for c in node_class)

    @cached_property
    def atom(self) -> AtomSplittingReport:
        return atom_splitting(self.interaction)

    @cached_property
    def realized(self) -> RealizedSpace:
        if self.incidence is None:
            return RealizedSpace.ambient(self.r)
        return realized_space(self.incidence)

    @cached_property
    def blocks_incidence(self) -> Union[BlockDecomposition, NotBlockAdapted, None]:
        if self.incidence is None:
            return None
        return blocks_from_indicator_basis(self.realized.v_geom)

    @cached_property
    def block_classes(self) -> Union[BlockClasses, BlockSeparationViolation, None]:
        if self.partition is None:
            return None
        return check_block_separation(self.cycles, self.partition)

    @cached_property
    def reduced(self) -> InteractionMatrix | None:
        if not self.separation_holds:
            return None
        return reduced_matrix(self.space, self.block_classes)

    @cached_property
    def blockwise(self) -> AtomSplittingReport | None:
        """The block-level splitting report, None unless block separation holds."""
        if self.reduced is None:
            return None
        return blockwise_atom_splitting(self.reduced)

    @cached_property
    def corrected_member(self) -> bool | None:
        if self.corrected_class is None:
            return None
        return check_membership(self.realized, self.corrected_class)

    @property
    def separation_holds(self) -> bool:
        return isinstance(self.block_classes, BlockClasses)

    @property
    def partition_matches_incidence(self) -> bool | None:
        """None unless both a user partition and incidence blocks exist."""
        if self.partition is None or not isinstance(self.blocks_incidence, BlockDecomposition):
            return None
        return self.partition == self.blocks_incidence


def assemble(
    space: PairingSpace,
    cycles: Sequence[Sequence[object]] | CycleConfiguration,
    incidence: Matrix | None = None,
    partition: BlockDecomposition | None = None,
    corrected_class: Vector | None = None,
) -> LightSectorPackage:
    """The package of exact input data, its sizes checked against each other.

    Raises DimensionMismatchError for cycles on another space, or for an
    incidence, partition or corrected class of the wrong size.  Nothing is
    derived here: each section is computed on its first read.
    """
    cfg = (
        cycles
        if isinstance(cycles, CycleConfiguration)
        else CycleConfiguration.from_vectors(space, cycles)
    )
    if cfg.space != space:
        raise DimensionMismatchError("cycle configuration built on a different space")
    return LightSectorPackage(cfg, incidence, partition, corrected_class)


def classify(pkg: LightSectorPackage) -> Classification:
    """Deterministic two-layer classification of an assembled package."""
    if pkg.ambient_default:
        extension = ExtensionVerdict.AMBIENT_DEFAULT
        collapsed = None
    else:
        extension = classify_extension_side(pkg.realized)
        collapsed = None if pkg.realized.is_full else pkg.realized.v_geom.dim
    commuting = commutes_all(pkg.interaction)
    transport_side = TransportVerdict.COMMUTING if commuting else TransportVerdict.NONCOMMUTING
    atom_side = AtomVerdict.SPLIT if pkg.atom.is_split else AtomVerdict.NON_SPLIT
    return Classification(
        extension_side=extension,
        transport_side=transport_side,
        atom_side=atom_side,
        collapsed_dim=collapsed,
    )


def verify_block_structure(pkg: LightSectorPackage) -> VerificationReport:
    """Machine-check the block-reduced structure claims on a separated package.

    Requires a partition that passes block separation.  Checks, in order:
    the relation-lattice quotient has one dimension per block (and matches
    the realized dimension when incidence was supplied); the interaction
    matrix descends to the reduced matrix with intra-block zeros; the block
    commutators match their closed form with the commutation criterion; and
    the nodewise and block-level splitting verdicts agree.
    """
    if pkg.partition is None:
        raise BlockSeparationRequiredError("package has no block partition")
    if isinstance(pkg.block_classes, BlockSeparationViolation):
        raise BlockSeparationRequiredError(
            f"block separation fails: {pkg.block_classes.describe()}",
            violation=pkg.block_classes,
        )
    assert isinstance(pkg.block_classes, BlockClasses)
    assert pkg.reduced is not None and pkg.blockwise is not None
    part = pkg.partition
    b = part.count

    lattice = relation_lattice_from_blocks(part)
    # Each of these comparisons passes iff its expected and actual texts agree.
    head = [
        ("relation lattice quotient dimension", str(b), str(quotient_dim(pkg.r, lattice))),
        ("surviving dimension equals block count", str(b), str(part.count)),
    ]
    if pkg.incidence is not None:
        head.append(
            ("realized dimension equals block count", str(b), str(pkg.realized.v_geom.dim))
        )
    consistency = verify_block_consistency(pkg.interaction, pkg.block_classes, pkg.reduced)
    commutators = block_commutator_check(pkg.space, pkg.block_classes, pkg.reduced)
    agree = "agree" if pkg.atom.is_split == pkg.blockwise.is_split else "disagree"
    tail = [("atom verdict agreement (full vs reduced)", "agree", agree)]
    return VerificationReport(
        len(head) + consistency.total + commutators.total + len(tail),
        _failed(head) + consistency.failures + commutators.failures + _failed(tail),
    )


def _failed(comparisons: Sequence[tuple[str, str, str]]) -> tuple[Check, ...]:
    """The (name, expected, actual) comparisons whose two texts differ."""
    return tuple(Check(*c) for c in comparisons if c[1] != c[2])
