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
from .hilbert import as_map, as_state, cyclic_diagonals, row_blocks
from .weyl import half_phase, multiply_phase

__all__ = ["gabor_transform", "gabor_inverse", "isometry_defect"]


def _warn_if_not_unit(psi: np.ndarray, what: str) -> None:
    if abs(np.linalg.norm(psi) - 1.0) > bound():
        warnings.warn(f"{what} is not unit norm; coherent-state identities assume it")


def _product_blocks(u: np.ndarray, a: np.ndarray, v: np.ndarray, b: np.ndarray, transform):
    """Yield (rows, block), block[j] = transform(u[a_n : a_n+d] * v[b_n : b_n+d]), n = rows.start+j.

    ``transform``, an FFT, runs along the rows in place, in one buffer each block overwrites.
    """
    d = a.shape[0]
    blocks = row_blocks(d, d)
    buffer = np.empty((blocks[0].stop, d), dtype=complex)
    for rows in blocks:
        block = buffer[:rows.stop - rows.start]
        for row, i, j in zip(block, a[rows], b[rows]):
            np.multiply(u[i:i + d], v[j:j + d], out=row)
        yield rows, transform(block, axis=1, out=block)


def _column_blocks(phi: np.ndarray, window: np.ndarray):
    """Yield (cols, block) with block[j, m] = e^{-i pi m n/d} Phi(m, n), n = cols.start + j.

    Row j is the FFT of conj(window(l-n)) phi(l), read at d - n from conj(window) repeated twice.
    """
    d = phi.shape[0]
    ns = np.arange(d)
    return _product_blocks(np.tile(np.conj(window), 2), d - ns, phi, np.zeros_like(ns), np.fft.fft)


def _magnitudes(phi, window) -> np.ndarray:
    """|Phi| as a real d x d map, built a block of columns at a time without Phi's half phase."""
    phi = as_state(phi)
    window = as_state(window, d=len(phi))
    magnitude = np.empty((len(phi), len(phi)))
    for cols, block in _column_blocks(phi, window):
        magnitude[:, cols] = np.abs(block).T
    return magnitude


def gabor_transform(phi, window) -> np.ndarray:
    """Analysis coefficients Phi[m, n] = <U(m,n) window, phi>.

    Explicitly, Phi(m,n) = e^{i pi m n/d} sum_l e^{-2 i pi m l/d}
    conj(window(l-n)) phi(l).  Returned as a d x d array indexed [m, n].
    """
    phi = as_state(phi)
    d = phi.shape[0]
    window = as_state(window, d=d)
    _warn_if_not_unit(window, "fiducial window")
    coeffs = np.empty((d, d), dtype=complex)
    for cols, block in _column_blocks(phi, window):
        coeffs[:, cols] = block.T
    return multiply_phase(coeffs, np.conj(half_phase(d, 1, np.arange(2 * d))))


def gabor_inverse(coeffs, window) -> np.ndarray:
    """Synthesis phi(l) = (1/d) sum_{m,n} Phi(m,n) (U(m,n) window)(l).

    Reconstructs the analyzed vector exactly when ``coeffs`` came from
    :func:`gabor_transform` with the same window; otherwise it returns
    the frame projection of the given coefficient map.
    """
    coeffs = np.array(as_map(coeffs))  # a copy: the half phase and the FFT go on in place
    d = coeffs.shape[0]
    window = as_state(window, d=d)
    # [l, n]; the inverse FFT over m carries the synthesis weight 1/d
    inner = np.fft.ifft(multiply_phase(coeffs, half_phase(d, 1, np.arange(2 * d))), axis=0,
                        out=coeffs)
    return np.einsum("lk,k->l", cyclic_diagonals(inner), window)  # sum_n inner[l, n] window(l - n)


def isometry_defect(phi, coeffs) -> float:
    """|(1/d) sum |Phi|^2 - ||phi||^2| / ||phi||^2 for the d x d map ``coeffs`` = Phi or |Phi|.

    Absolute for phi = 0; the sum runs a block of rows at a time.
    """
    phi = as_state(phi)
    d = phi.shape[0]
    # not as_map: casting the real |Phi| the gabor command passes to complex would copy the map
    if np.shape(coeffs) != (d, d):
        raise ValueError(f"coefficient map must be {d} x {d}, got shape {np.shape(coeffs)}")
    coeffs = np.asarray(coeffs)
    energy = sum(np.square(np.abs(coeffs[rows])).sum() for rows in row_blocks(d, d))
    expected = np.linalg.norm(phi) ** 2
    return float(abs(energy / d - expected) / (expected if expected > 0 else 1.0))
