"""Gabor analysis and covariant quantization on the discrete torus Z_d x Z_d.

The package provides the discrete Weyl-Heisenberg displacement operators,
coherent-state (Gabor) analysis with exact inversion, weight-driven
quantization operators and symbol maps, Husimi and Wigner distributions,
and semi-classical phase-space portraits, all validated by their algebraic
identities to machine precision.
"""

__version__ = "0.1.0"

from .errors import InputFormatError, ToleranceError
from .hilbert import (
    as_state,
    dft,
    fourier_basis,
    idft,
    kronecker_basis,
    modulate,
    norm,
    translate,
)
from .weyl import displacement_apply, displacement_matrix
from .fiducials import FiducialSpec, realize_fiducial
from .gabor import gabor_inverse, gabor_transform, isometry_defect
from .quantize import (
    PositivityReport,
    Weight,
    coherent_state_weight,
    momentum_symbol,
    parity_weight,
    position_symbol,
    positivity_report,
    quantization_operator,
    quantize,
    quantize_momentum,
    quantize_position,
    symplectic_dft,
    weight_from_operator,
)
from .distributions import (
    husimi,
    overlap_distribution,
    portrait,
    portrait_of_symbol,
    wigner,
)
from .signals import column_energy, dominant_rows, envelope_spectrum, period_estimate

__all__ = [
    "InputFormatError",
    "ToleranceError",
    # hilbert
    "as_state",
    "dft",
    "fourier_basis",
    "idft",
    "kronecker_basis",
    "modulate",
    "norm",
    "translate",
    # weyl
    "displacement_apply",
    "displacement_matrix",
    # fiducials
    "FiducialSpec",
    "realize_fiducial",
    # gabor
    "gabor_inverse",
    "gabor_transform",
    "isometry_defect",
    # quantize
    "PositivityReport",
    "Weight",
    "coherent_state_weight",
    "momentum_symbol",
    "parity_weight",
    "position_symbol",
    "positivity_report",
    "quantization_operator",
    "quantize",
    "quantize_momentum",
    "quantize_position",
    "symplectic_dft",
    "weight_from_operator",
    # distributions
    "husimi",
    "overlap_distribution",
    "portrait",
    "portrait_of_symbol",
    "wigner",
    # signals
    "column_energy",
    "dominant_rows",
    "envelope_spectrum",
    "period_estimate",
]
