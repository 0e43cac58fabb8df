"""Hilbert-space primitives on the cyclic group Z_d.

States are length-d complex vectors indexed by l = 0..d-1; all index
arithmetic is modulo d.  The discrete Fourier transform is unitary
(1/sqrt(d) normalization), computed by ``np.fft`` with ``norm="ortho"``;
its kernel W[k, l] = exp(-2i pi k l / d) / sqrt(d) is pinned by the tests
against a dense reference matrix.  :func:`phase_table` is the one place
where an integer phase is exponentiated: exponents are reduced in integer
arithmetic first, which keeps identities exact to machine precision even
for large indices.  :func:`as_map` checks a d x d map as :func:`as_state`
a state.  :func:`cyclic_diagonals`, an involution, reads and rebuilds
every operator along its cyclic diagonals, with no index table.  Shifts
and modulations are applied only as displacements
(:func:`weyl.displacement_apply`); the position and Fourier basis vectors
are the ``kronecker`` and ``plane_wave`` fiducial windows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_state", "dft", "idft"]


def as_state(values, d: int | None = None) -> np.ndarray:
    """Validate ``values`` as a state on Z_d and return it as complex128.

    Parameters
    ----------
    values : array_like
        One-dimensional complex sequence.
    d : int, optional
        Expected dimension; a mismatch raises ``ValueError``.
    """
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"state must be one-dimensional, got shape {v.shape}")
    if v.shape[0] < 1:
        raise ValueError("state must have positive length")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"dimension mismatch: expected d={d}, got {v.shape[0]}")
    return v


def as_map(values, d: int | None = None) -> np.ndarray:
    """Validate ``values`` as a d x d map (d its first axis by default); return it as complex128."""
    m = np.asarray(values, dtype=complex)
    if d is None:
        d = max(1, m.shape[0]) if m.ndim else 1
    if m.shape != (d, d):
        raise ValueError(f"phase-space map must be {d} x {d} to match d={d}, got shape {m.shape}")
    return m


def phase_table(d: int, numerators) -> np.ndarray:
    """exp(2i pi * numerators / d), the integer ``numerators`` first reduced modulo d exactly."""
    return np.exp(2j * np.pi * (np.asarray(numerators) % d) / d)


def unit_scale(peak: float) -> float:
    """2**-e for the frexp exponent e of ``peak`` >= 0, at most 2**1023: exact, near 1 / peak."""
    return np.ldexp(1.0, min(-np.frexp(peak)[1], 1023))


#: values per block when a d x d map is built or written a block of rows at a
#: time: enough to amortize numpy's per-call cost, few enough that the block's
#: temporaries stay small next to the map
BLOCK_VALUES = 1 << 14


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of consecutive rows holding about BLOCK_VALUES values each (one row at least)."""
    step = max(1, BLOCK_VALUES // max(1, width))
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def scaled_sums(m: np.ndarray, peak: float, power: int = 1, squared: bool = False):
    """Column and row sums of the d x d ``m`` times 2**(-power e), or of the squared moduli of that.

    e is :func:`unit_scale`'s exponent of ``peak``; m is scaled by ``power`` (its degree, 1 or 2)
    exact products, a block of rows at a time, so no sum over- or underflows where m is normal.
    """
    unit, column_sums, row_sums = unit_scale(peak), 0, []
    for rows in row_blocks(*m.shape):
        block = m[rows] * unit if power == 1 else m[rows] * unit * unit
        block = np.square(np.abs(block)) if squared else block
        column_sums = column_sums + block.sum(axis=0)
        row_sums.append(block.sum(axis=1))
    return column_sums, np.concatenate(row_sums)


def cyclic_diagonals(M: np.ndarray) -> np.ndarray:
    """The d cyclic diagonals of the d x d ``M`` as columns: [l, k] -> M[l, l - k mod d].

    The map is its own inverse, so it also rebuilds M from its diagonals.
    Each row is two reversed slices of the row of M, so no index table is formed.
    """
    out = np.empty(M.shape, dtype=M.dtype)
    for l, (row, source) in enumerate(zip(out, M)):
        row[:l + 1] = source[l::-1]  # M[l, l - k] for k <= l
        row[l + 1:] = source[:l:-1]  # M[l, d + l - k] for k > l
    return out


def dft(phi) -> np.ndarray:
    """Unitary Fourier transform, k -> (1/sqrt(d)) sum_l exp(-2i pi k l/d) phi(l)."""
    return np.fft.fft(as_state(phi), norm="ortho")


def idft(phi_hat) -> np.ndarray:
    """Inverse of :func:`dft`; kernel exp(+2i pi k l / d) / sqrt(d)."""
    return np.fft.ifft(as_state(phi_hat), norm="ortho")
