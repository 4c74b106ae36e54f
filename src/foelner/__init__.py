"""Commutator seminorms, projection families, and block decompositions
for band-structured operators, plus an exact p/q-word growth certifier."""

__version__ = "0.1.0"

from .errors import (
    DegreeExceedsWindow,
    FoelnerError,
    InvalidSpec,
    NonHermitianCompression,
    NonOrthogonalRanges,
    NotHermitian,
    NotNormal,
    NotQuasidiagonalAlongFamily,
    NumericalFailure,
    RankStall,
    ResourceLimit,
    SelectorOutOfRange,
    TooFewSamples,
    WeightUndefined,
    WindowTooSmall,
)
from .ops import (
    OperatorSpec,
    ProjectionFamily,
    Window,
    capture_bound,
    col_support,
    commutator_window,
    compress,
    entry,
    projection_window,
    propagation,
    row_support,
)
from .norms import (
    ClassifyPolicy,
    NormReport,
    Verdict,
    classify,
    report,
    report_sequence,
    seminorm,
    u_norm,
)
from .decomp import (
    Decomposition,
    halmos_decompose,
    select_subsequence,
    sparse_family,
)
from .berg import (
    BergResult,
    SpectralPartition,
    berg_sequence,
    dyadic_partition,
    lift_sweep,
    normal_to_selfadjoint,
    random_hermitian,
    spectral_interval_bases,
    unbounded_combine,
)
from .szego import (
    EmpiricalSpectralMeasure,
    SymbolPolynomial,
    SzegoComparison,
    SzegoRow,
    empirical_spectrum,
    fitted_gap_constant,
    moment,
    symbol_moment,
    szego_compare,
)
from .weyl import (
    AmenabilityWitness,
    GaussianRational,
    MonomialSubspace,
    WeylElement,
    amenability_witness,
    degree_monomials,
    foelner_ratio,
    multiply,
    parse_element,
    represent,
    to_text,
)
