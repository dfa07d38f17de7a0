"""Finitely verifiable constructions around a three-variable domain:
membership geometry, functional models, fundamental operators, and a
dilation-obstruction pipeline."""

from .config import DEFAULT_CONFIG, ToolConfig
from .contractions import (
    Certificate,
    DilationReport,
    FalsifyReport,
    FundamentalPair,
    HypothesisReport,
    IsometryReport,
    ObstructionReport,
    Triple,
    UnitaryReport,
    check_obstruction_hypotheses,
    check_tetra_isometry,
    check_tetra_unitary,
    commutation_defect,
    dilation_obstruction,
    extract_fundamental,
    falsify_spectral_set,
    purity_defect,
    triple_from_json,
    triple_to_json,
    varopoulos_example,
    varopoulos_polynomial,
    verify_dilation,
    violation_certificate,
)
from .counterexample import (
    SCHEMA_ID,
    VERDICT_SCHEMA,
    CaseInequalityReport,
    CfStudyReport,
    PipelineReport,
    Witness,
    build_witness,
    case_inequality_check,
    cf_convergence_study,
    pipeline_report_to_json,
    run_pipeline,
    witness_symbol,
)
from .errors import (
    BadSplitError,
    DimensionMismatchError,
    InconsistentEquationError,
    NoConvergenceError,
    NonSquareError,
    NotAContractionError,
    NotHermitianError,
    NotIsometricEmbeddingError,
    NotPSDError,
    OutsideDiskError,
    TetrablockError,
    TruncationTooSmallError,
    ValidationRequiredError,
)
from .geometry import (
    MembershipReport,
    boundary_point,
    classify_point,
    defining_abs_min,
    on_distinguished_boundary,
    point_from_json,
    point_to_json,
    sample_distinguished_boundary,
    sup_on_closure,
)
from .linalg import (
    HermEig,
    as_matrix,
    herm_eig,
    matrix_from_json,
    matrix_to_json,
    numerical_radius,
    op_norm,
    spectral_radius_estimate,
    sqrt_psd,
)
from .models import (
    InteriorReport,
    ModelTriple,
    RecoveryReport,
    SymbolReport,
    build_circulant_model,
    build_hardy_model,
    interior_identity_report,
    random_symbol_pair,
    recover_fundamental,
    validate_symbol_pair,
)
from .poly3 import (
    MonomialBasis,
    Poly3,
    cf_empirical_inf,
    cf_matrix_norm,
    eval_operator,
    eval_scalar,
    eval_scalar_many,
    poly_from_json,
    poly_to_json,
    random_poly,
)
from .selftest import CriterionResult, format_result, run_all

__version__ = "0.1.0"
