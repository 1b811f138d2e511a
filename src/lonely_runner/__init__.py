"""Exact covering-radius computations for subtori of the n-torus and their order-1 relative spectra."""

from .catalog import enumerate_2d_subtori, tight_pairs
from .exact import complete_to_basis, gcd_ext, primitive_kernel, saturate_plane
from .locus import FinitenessReport, LocusElement, finiteness, zero_locus
from .spectrum import (
    CertifyReport,
    Progression,
    SpectrumAnalysis,
    SpectrumDescription,
    certify,
    classify_pairs,
    relative_spectrum,
)
from .torus import (
    canonicalize_symmetry,
    d_line_oracle,
    d_plane,
    d_point,
    d_two_speeds,
    oracle_sweep,
    plane_proper,
)

__all__ = [
    "gcd_ext",
    "primitive_kernel",
    "saturate_plane",
    "complete_to_basis",
    "d_point",
    "d_line_oracle",
    "d_plane",
    "plane_proper",
    "canonicalize_symmetry",
    "oracle_sweep",
    "relative_spectrum",
    "certify",
    "classify_pairs",
    "SpectrumAnalysis",
    "SpectrumDescription",
    "Progression",
    "CertifyReport",
    "tight_pairs",
    "d_two_speeds",
    "enumerate_2d_subtori",
    "zero_locus",
    "finiteness",
    "LocusElement",
    "FinitenessReport",
]
