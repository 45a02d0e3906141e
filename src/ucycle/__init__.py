"""Generalized de Bruijn cycles: windows read through an index set I,
validity searches, finite-field reduced cycles, equal-length trail
decompositions of complete loop-digraphs, and approximate cycles."""

__version__ = "0.1.0"

from .core import (
    AffineClass,
    BudgetExceeded,
    CoverageReport,
    CycleParams,
    CyclicString,
    UcycleError,
    VerificationError,
    canonicalize_affine,
    verify_cover,
    window,
)
from .search import (
    ValidityCertificate,
    atlas,
    decide_valid,
    two_element_validity,
)

__all__ = [
    "AffineClass",
    "BudgetExceeded",
    "CoverageReport",
    "CycleParams",
    "CyclicString",
    "UcycleError",
    "ValidityCertificate",
    "VerificationError",
    "atlas",
    "canonicalize_affine",
    "decide_valid",
    "two_element_validity",
    "verify_cover",
    "window",
]
