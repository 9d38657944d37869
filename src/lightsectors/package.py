"""Assembly of the full light-sector package and its two-layer classification.

assemble() computes the three realizations independently from the same
inputs; classify() reads off the per-layer verdicts (extension, transport,
atom) together with relation collapse and, when block separation holds, the
residual block-level interaction.  verify_block_structure() machine-checks
the four block-reduction claims on a separated package.

The extension-side and transport-side verdicts are reported per layer and
never forced to agree: a configuration with full incidence but nonzero
interaction (or the reverse) is legitimate input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
    residual is the block-level splitting report of the reduced matrix, None
    unless block separation holds.
    Transport and atom verdicts share one criterion, so they always agree.
    """

    extension_side: ExtensionVerdict
    transport_side: TransportVerdict
    atom_side: AtomVerdict
    collapsed_dim: int | None
    residual: AtomSplittingReport | None

    def __post_init__(self) -> None:
        if (self.transport_side is TransportVerdict.COMMUTING) != (
            self.atom_side is AtomVerdict.SPLIT
        ):
            raise InvariantError("transport and atom verdicts must coincide")


@dataclass(frozen=True)
class LightSectorPackage:
    """The assembled record: spaces, transport, interaction, blocks, verdicts.

    transport[i] is node i's operator; the nodes of one cycle class share it.
    """

    cycles: CycleConfiguration
    transport: tuple[TransportOperator, ...]
    interaction: InteractionMatrix
    realized: RealizedSpace
    incidence: Matrix | None
    blocks_incidence: Union[BlockDecomposition, NotBlockAdapted, None]
    partition: BlockDecomposition | None
    block_classes: Union[BlockClasses, BlockSeparationViolation, None]
    reduced: InteractionMatrix | None
    blockwise: AtomSplittingReport | None
    atom: AtomSplittingReport
    corrected_class: Vector | None
    corrected_member: bool | None

    def __post_init__(self) -> None:
        if len(self.transport) != self.r or self.interaction.r != self.r:
            raise DimensionMismatchError("package cross-references inconsistent")
        if self.realized.ambient_r != self.r:
            raise DimensionMismatchError("realized space has wrong ambient dimension")

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
    """Build the full package from exact input data.

    Optional sections stay unpopulated when their inputs are omitted; block
    separation is attempted only when a partition is supplied, and the user
    partition (not the incidence-inferred one) drives the block analysis.
    """
    cfg = (
        cycles
        if isinstance(cycles, CycleConfiguration)
        else CycleConfiguration.from_vectors(space, cycles)
    )
    if cfg.space != space:
        raise DimensionMismatchError("cycle configuration built on a different space")
    r = cfg.r

    lam = interaction_matrix(cfg)
    # The nodes of a class have equal cycles, hence equal operators: build
    # one per class, at the class's first node.
    per_class: dict[int, TransportOperator] = {}
    for i, c in enumerate(lam.node_class):
        if c not in per_class:
            per_class[c] = pl_operator(cfg, i)
    transport = tuple(per_class[c] for c in lam.node_class)
    atom = atom_splitting(lam)

    if incidence is not None:
        if incidence.rows != r:
            raise DimensionMismatchError(
                f"incidence matrix for {incidence.rows} nodes, configuration has {r}"
            )
        realized = realized_space(incidence)
        blocks_incidence: Union[BlockDecomposition, NotBlockAdapted, None]
        blocks_incidence = blocks_from_indicator_basis(realized.v_geom)
    else:
        realized = RealizedSpace.ambient(r)
        blocks_incidence = None

    block_classes: Union[BlockClasses, BlockSeparationViolation, None] = None
    reduced: InteractionMatrix | None = None
    blockwise: AtomSplittingReport | None = None
    if partition is not None:
        if partition.r != r:
            raise DimensionMismatchError(
                f"partition of {partition.r} nodes, configuration has {r}"
            )
        block_classes = check_block_separation(cfg, partition)
        if isinstance(block_classes, BlockClasses):
            reduced = reduced_matrix(space, block_classes)
            blockwise = blockwise_atom_splitting(reduced)

    corrected_member: bool | None = None
    if corrected_class is not None:
        corrected_member = check_membership(realized, corrected_class)

    return LightSectorPackage(
        cycles=cfg,
        transport=transport,
        interaction=lam,
        realized=realized,
        incidence=incidence,
        blocks_incidence=blocks_incidence,
        partition=partition,
        block_classes=block_classes,
        reduced=reduced,
        blockwise=blockwise,
        atom=atom,
        corrected_class=corrected_class,
        corrected_member=corrected_member,
    )


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
        residual=pkg.blockwise,
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
