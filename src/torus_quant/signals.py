"""Period detection on a Gabor magnitude map (spectrogram).

The period of a periodic signal of length d shows up in its Gabor
magnitude map as striations along the time axis.  Summing the squared
magnitudes within each time column gives the windowed-energy envelope,
which inherits the signal's period exactly (it is a cyclic convolution of
the squared signal with the squared window), so the envelope's spectrum
is supported on frequency rows that are multiples of d / period.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import dft

__all__ = ["column_energy", "envelope_spectrum", "dominant_rows", "period_estimate"]


def column_energy(magnitude: np.ndarray) -> np.ndarray:
    """Per-time-column energy E(n) = sum_m |Phi(m, n)|^2 of |Phi|, with no d x d temporary."""
    magnitude = np.asarray(magnitude)
    return np.einsum("ij,ij->j", magnitude, magnitude)


def envelope_spectrum(energy: np.ndarray) -> np.ndarray:
    """Power |dft(E / max|E|)(k)|^2 of the column-energy envelope.

    The envelope is scaled to unit peak first, so the power cannot
    overflow where E itself is finite; :func:`dominant_rows` does not
    depend on the scale.
    """
    energy = np.asarray(energy, dtype=complex)
    peak = np.abs(energy).max()
    return np.abs(dft(energy / peak if peak > 0 else energy)) ** 2


def dominant_rows(power: np.ndarray) -> list[int]:
    """Smallest set of off-DC conjugate pairs {k, d - k} capturing 90% of the off-DC power.

    Pairs are taken whole, by summed power, so rounding noise between the
    equal powers of a real envelope's rows k and d - k cannot split one.
    Returns an empty list when the off-DC power is numerically negligible
    relative to the total (a constant envelope has no periodicity to report).
    """
    power = np.asarray(power, dtype=float)
    d = power.shape[0]
    total = power[1:].sum()
    if total <= 1e-12 * power.sum():
        return []
    ks = np.arange(1, d // 2 + 1)  # the lower row of each pair
    pairs = np.where(2 * ks == d, power[ks], power[ks] + power[d - ks])
    rows: list[int] = []
    acc = 0.0
    for j in np.argsort(pairs)[::-1]:
        if acc >= 0.9 * total:
            break
        rows += {int(ks[j]), d - int(ks[j])}
        acc += pairs[j]
    return sorted(rows)


def period_estimate(d: int, rows: list[int]) -> int | None:
    """Period implied by harmonic rows: d divided by their gcd (None if empty)."""
    if not rows:
        return None
    g = 0
    for k in rows:
        g = math.gcd(g, k)
    if g == 0 or d % g:
        return None
    return d // g
