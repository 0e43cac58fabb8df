"""Period detection on a Gabor magnitude map (spectrogram).

The period of a periodic signal of length d shows up in its Gabor
magnitude map as striations along the time axis.  Summing the squared
magnitudes within each time column gives the windowed-energy envelope,
which inherits the signal's period exactly (it is a cyclic convolution of
the squared signal with the squared window), so the envelope's spectrum
is supported on frequency rows that are multiples of d / period.

These are the ``gabor`` command's diagnostics; the package does not
re-export them, so they are imported from ``torus_quant.signals``.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import dft, scaled_sums

def column_energy(magnitude: np.ndarray) -> np.ndarray:
    """Per-time-column energy E(n) = sum_m |Phi(m, n)|^2 of |Phi|, times an exact power of two.

    ``scaled_sums`` scales the map by the power of two nearest 1 / max|Phi|, so no sum
    overflows or underflows wherever |Phi| is finite; the map is not changed or copied.
    """
    magnitude = np.asarray(magnitude)
    return scaled_sums(magnitude, max(magnitude.max(), -magnitude.min()), squared=True)[0]


def envelope_spectrum(energy: np.ndarray) -> np.ndarray:
    """Power |dft(E / max|E|)(k)|^2 of the column-energy envelope.

    The real envelope is scaled to unit peak first, in real arithmetic (a complex division
    forms 1 / peak), so the power cannot overflow where E itself is finite, not even at a
    subnormal peak; :func:`dominant_rows` does not depend on the scale.
    """
    energy = np.asarray(energy, dtype=float)
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
    g = math.gcd(*rows)  # 0 for no rows
    return d // g if g and d % g == 0 else None
