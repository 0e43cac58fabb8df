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
    inner,
    kronecker_basis,
    modulate,
    norm,
    translate,
)
from .weyl import (
    conjugate_sign,
    displacement_apply,
    displacement_matrix,
    half_phase,
    trace_displacement,
)
from .fiducials import FiducialSpec, default_catalog, realize_fiducial
from .gabor import (
    coherent_state,
    gabor_inverse,
    gabor_transform,
    isometry_defect,
    reproducing_kernel,
)
from .quantize import (
    PositivityReport,
    Weight,
    coherent_state_weight,
    covariance_defect,
    momentum_symbol,
    parity_weight,
    position_symbol,
    positivity_report,
    quantization_operator,
    quantize,
    quantize_momentum,
    quantize_position,
    sum_displacement,
    symplectic_dft,
    transported,
    weight_from_operator,
)
from .distributions import (
    husimi,
    overlap_distribution,
    parity_matrix,
    portrait,
    portrait_of_symbol,
    realize_real,
    wigner,
)
from .signals import (
    SIGNAL_PATTERNS,
    column_energy,
    demo_signal,
    dominant_rows,
    envelope_spectrum,
    harmonic_energy_fraction,
    period_estimate,
    spectrogram,
)

__all__ = [
    "InputFormatError",
    "ToleranceError",
    # hilbert
    "as_state",
    "dft",
    "fourier_basis",
    "idft",
    "inner",
    "kronecker_basis",
    "modulate",
    "norm",
    "translate",
    # weyl
    "conjugate_sign",
    "displacement_apply",
    "displacement_matrix",
    "half_phase",
    "trace_displacement",
    # fiducials
    "FiducialSpec",
    "default_catalog",
    "realize_fiducial",
    # gabor
    "coherent_state",
    "gabor_inverse",
    "gabor_transform",
    "isometry_defect",
    "reproducing_kernel",
    # quantize
    "PositivityReport",
    "Weight",
    "coherent_state_weight",
    "covariance_defect",
    "momentum_symbol",
    "parity_weight",
    "position_symbol",
    "positivity_report",
    "quantization_operator",
    "quantize",
    "quantize_momentum",
    "quantize_position",
    "sum_displacement",
    "symplectic_dft",
    "transported",
    "weight_from_operator",
    # distributions
    "husimi",
    "overlap_distribution",
    "parity_matrix",
    "portrait",
    "portrait_of_symbol",
    "realize_real",
    "wigner",
    # signals
    "SIGNAL_PATTERNS",
    "column_energy",
    "demo_signal",
    "dominant_rows",
    "envelope_spectrum",
    "harmonic_energy_fraction",
    "period_estimate",
    "spectrogram",
]
