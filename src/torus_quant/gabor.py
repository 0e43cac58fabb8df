"""Coherent-state families and the discrete Gabor transform.

The orbit of any unit-norm window under the displacements is a tight
frame: (1/d) sum_{m,n} |psi_mn><psi_mn| is the identity.  The analysis
map phi -> Phi(m, n) = <psi_mn, phi> is therefore an isometry (up to the
1/d counting weight), invertible by the adjoint synthesis sum, and its
range is a reproducing-kernel space with kernel <psi_p, psi_q>.  Its
columns, an FFT each, are built by ``_product_map``, as are the Wigner map's.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import bound
from .hilbert import as_map, as_state, cyclic_diagonals, row_blocks, scaled_sums, unit_scale
from .weyl import half_phase, multiply_phase

__all__ = ["gabor_transform", "gabor_inverse", "isometry_defect"]


def _warn_if_not_unit(psi: np.ndarray, what: str) -> None:
    if abs(np.linalg.norm(psi) - 1.0) > bound():
        warnings.warn(f"{what} is not unit norm; coherent-state identities assume it")


def _product_map(u, a, v, b, transform, each, dtype) -> np.ndarray:
    """The d x d ``dtype`` map with column n each(transform(u[a_n : a_n+d] * v[b_n : b_n+d])).

    A block of columns at a time, ``transform``, an FFT, runs in place along the rows of products
    in one complex buffer, and ``each`` of the block, transposed, fills those columns.
    """
    d = a.shape[0]
    out = np.empty((d, d), dtype=dtype)
    blocks = row_blocks(d, d)
    buffer = np.empty((blocks[0].stop, d), dtype=complex)
    for cols in blocks:
        block = buffer[:cols.stop - cols.start]
        for row, i, j in zip(block, a[cols], b[cols]):
            np.multiply(u[i:i + d], v[j:j + d], out=row)
        out[:, cols] = each(transform(block, axis=1, out=block)).T
    return out


def _column_blocks(phi, window, each, dtype) -> np.ndarray:
    """The d x d ``dtype`` map each(e^{-i pi m n/d} Phi(m, n)) at [m, n].

    Column n is the FFT of conj(window(l-n)) phi(l), read at d - n from conj(window) repeated twice.
    """
    phi = as_state(phi)
    d = phi.shape[0]
    u = np.tile(np.conj(as_state(window, d=d)), 2)
    return _product_map(u, d - np.arange(d), phi, np.zeros(d, int), np.fft.fft, each, dtype)


def _magnitudes(phi, window) -> np.ndarray:
    """|Phi| as a real d x d map, built without Phi's half phase."""
    return _column_blocks(phi, window, np.abs, float)


def gabor_transform(phi, window) -> np.ndarray:
    """Analysis coefficients Phi[m, n] = <U(m,n) window, phi>.

    Explicitly, Phi(m,n) = e^{i pi m n/d} sum_l e^{-2 i pi m l/d}
    conj(window(l-n)) phi(l).  Returned as a d x d array indexed [m, n].
    """
    phi = as_state(phi)
    d = phi.shape[0]
    window = as_state(window, d=d)
    _warn_if_not_unit(window, "fiducial window")
    coeffs = _column_blocks(phi, window, lambda block: block, complex)
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

    Absolute for phi = 0.  Both sums run on phi and Phi times the power of two nearest
    1 / max|phi|, exactly (``scaled_sums``), so neither overflows nor underflows.
    """
    phi = as_state(phi)
    d = phi.shape[0]
    # not as_map: casting the real |Phi| the gabor command passes to complex would copy the map
    if np.shape(coeffs) != (d, d):
        raise ValueError(f"coefficient map must be {d} x {d}, got shape {np.shape(coeffs)}")
    peak = np.abs(phi).max()
    energy = scaled_sums(np.asarray(coeffs), peak, squared=True)[0].sum()
    expected = np.linalg.norm(phi * unit_scale(peak)) ** 2
    return float(abs(energy / d - expected) / (expected if expected > 0 else 1.0))
