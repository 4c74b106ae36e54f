"""Commutator seminorms, projection families, and block decompositions
for band-structured operators, plus an exact p/q-word growth certifier.

The public names and the submodules load on first access (PEP 562), so
importing the package, or the command line driver, loads no numeric code.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("FoelnerError", "InvalidSpec", "NonHermitianCompression", "NotHermitian",
               "NotQuasidiagonalAlongFamily", "NumericalFailure", "RankStall", "ResourceLimit",
               "SelectorOutOfRange", "TooFewSamples", "WeightUndefined", "WindowTooSmall"),
    "ops": ("OperatorSpec", "ProjectionFamily", "Window", "col_support", "compress", "entry",
            "propagation", "row_support"),
    "norms": ("NormReport", "Verdict", "classify", "report", "report_sequence", "seminorm",
              "u_norm", "u_sequence"),
    "decomp": ("Decomposition", "halmos_decompose", "select_subsequence", "sparse_family"),
    "berg": ("BergResult", "berg_sequence", "random_hermitian"),
    "szego": ("SymbolPolynomial", "SzegoComparison", "SzegoRow", "fitted_gap_constant",
              "symbol_moment", "szego_compare"),
    "weyl": ("AmenabilityWitness", "GaussianRational", "MonomialSubspace", "WeylElement",
             "amenability_witness", "degree_monomials", "foelner_ratio", "multiply",
             "parse_element", "represent", "to_text"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
