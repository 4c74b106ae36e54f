"""Commutator seminorms, projection families, and block decompositions
for band-structured operators, plus an exact p/q-word growth certifier."""

__version__ = "0.1.0"

from .errors import (
    DegreeExceedsWindow,
    FoelnerError,
    InvalidSpec,
    NonHermitianCompression,
    NotHermitian,
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
    NormReport,
    Verdict,
    classify,
    report,
    report_sequence,
    seminorm,
    u_norm,
    u_sequence,
)
from .decomp import (
    Decomposition,
    halmos_decompose,
    select_subsequence,
    sparse_family,
)
from .berg import (
    BergResult,
    berg_sequence,
    random_hermitian,
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
