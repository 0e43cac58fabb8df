"""Coherent-state families and the discrete Gabor transform.

The orbit of any unit-norm window under the displacements is a tight
frame: (1/d) sum_{m,n} |psi_mn><psi_mn| is the identity.  The analysis
map phi -> Phi(m, n) = <psi_mn, phi> is therefore an isometry (up to the
1/d counting weight), invertible by the adjoint synthesis sum, and its
range is a reproducing-kernel space with kernel <psi_p, psi_q>.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import bound
from .hilbert import as_state, difference_index
from .weyl import multiply_half_phase

__all__ = ["gabor_transform", "gabor_inverse", "isometry_defect"]


def _warn_if_not_unit(psi: np.ndarray, what: str) -> None:
    if abs(np.linalg.norm(psi) - 1.0) > bound():
        warnings.warn(f"{what} is not unit norm; coherent-state identities assume it")


def gabor_transform(phi, window) -> np.ndarray:
    """Analysis coefficients Phi[m, n] = <U(m,n) window, phi>.

    Explicitly, Phi(m,n) = e^{i pi m n/d} sum_l e^{-2 i pi m l/d}
    conj(window(l-n)) phi(l).  Returned as a d x d array indexed [m, n].
    """
    phi = as_state(phi)
    d = phi.shape[0]
    window = as_state(window, d=d)
    _warn_if_not_unit(window, "fiducial window")
    windowed = np.take(np.conj(window), difference_index(d))  # [l, n]
    windowed *= phi[:, None]
    coeffs = np.fft.fft(windowed, axis=0)
    del windowed  # before the half phase's block temporaries
    return multiply_half_phase(coeffs, conjugate=True)


def gabor_inverse(coeffs, window) -> np.ndarray:
    """Synthesis phi(l) = (1/d) sum_{m,n} Phi(m,n) (U(m,n) window)(l).

    Reconstructs the analyzed vector exactly when ``coeffs`` came from
    :func:`gabor_transform` with the same window; otherwise it returns
    the frame projection of the given coefficient map.
    """
    coeffs = np.array(coeffs, dtype=complex)  # a copy: the half phase goes on in place
    d = coeffs.shape[0]
    if coeffs.shape != (d, d):
        raise ValueError(f"coefficient map must be square, got {coeffs.shape}")
    window = as_state(window, d=d)
    # the inverse FFT over m carries the synthesis weight 1/d
    inner = np.fft.ifft(multiply_half_phase(coeffs), axis=0)  # [l, n]
    return (inner * window[difference_index(d)]).sum(axis=1)


def isometry_defect(phi, coeffs) -> float:
    """|(1/d) sum |Phi|^2 - ||phi||^2| for the d x d map ``coeffs`` = Phi (or |Phi|) of ``phi``."""
    phi = as_state(phi)
    d = phi.shape[0]
    if np.shape(coeffs) != (d, d):
        raise ValueError(f"coefficient map must be {d} x {d}, got shape {np.shape(coeffs)}")
    return float(abs((np.abs(coeffs) ** 2).sum() / d - np.linalg.norm(phi) ** 2))
