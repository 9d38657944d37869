"""Exact toolkit for finite-node light-sector packages.

Computes, classifies, and machine-checks the package attached to a
configuration of vanishing cycles in a skew-paired rational space: the
ambient and realized coefficient spaces, transport operators and their
interaction matrix, block decompositions with the reduced block matrix,
and splitting verdicts across all three realizations.
"""

from .linalg import (
    DimensionMismatchError,
    InvariantError,
    Matrix,
    Rational,
    Subspace,
    Vector,
    column_space,
    format_rational,
    kernel,
    parse_rational,
    quotient_dim,
    rank,
    rref,
    vector,
)
from .pairing import (
    CycleConfiguration,
    NotSkewSymmetricError,
    NotSquareError,
    PairingSpace,
    make_pairing_space,
    pair,
    standard_symplectic,
)
from .transport import (
    InteractionMatrix,
    TransportOperator,
    commutator,
    commutator_closed_form,
    commutes_all,
    interaction_matrix,
    pl_operator,
    transport_word,
)
from .gluing import (
    CorrectedClass,
    ExtensionVerdict,
    IncidenceDatum,
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
    check_block_separation,
    infer_blocks_from_incidence,
    reduced_matrix,
    relation_lattice_from_blocks,
    verify_block_consistency,
)
from .atoms import AtomSplittingReport, atom_splitting, blockwise_atom_splitting
from .package import (
    AtomVerdict,
    BlockSeparationRequiredError,
    Classification,
    LightSectorPackage,
    ResidualInteraction,
    TransportVerdict,
    assemble,
    classify,
    verify_block_structure,
)
from .scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    ScenarioFile,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
    to_package,
)
from .report import analysis_document, render_report, verification_document

__version__ = "0.1.0"
