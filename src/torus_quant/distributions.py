"""Phase-space distributions and semi-classical portraits.

Husimi values are squared coherent-state overlaps weighted by 1/d and are
nonnegative with total mass equal to the squared state norm.  The Wigner
distribution arises from transporting the parity operator; it needs an
odd dimension (the construction divides by 2 modulo d), is real, and its
marginals reproduce the position and momentum probability profiles
exactly.  The portrait of an operator is its expectation against the
transported quantization operators, and portraits of quantized symbols
equal the symbol smoothed by the overlap distribution of the weight.
"""

from __future__ import annotations

import numpy as np

from .errors import bound, hold
from .hilbert import as_map, as_state, cyclic_diagonals
from .gabor import _magnitudes, _product_map
from .quantize import Weight, symplectic_dft
from .weyl import adjoint_reflection, multiply_phase, sum_phase_roots

__all__ = [
    "husimi",
    "wigner",
    "portrait",
    "portrait_of_symbol",
    "overlap_distribution",
]


def realize_real(values: np.ndarray, scale: float = 1.0, key: str = "imaginary") -> np.ndarray:
    """Drop an imaginary part held as ``key`` to ``bound(scale)``, ``scale`` the terms' size."""
    hold(key, np.abs(np.imag(values)).max(), scale)
    return np.real(values).copy()


def husimi(psi, window) -> np.ndarray:
    """H(m, n) = |<U(m,n) window, psi>|^2 / d; sums to ||psi||^2."""
    h_map = _magnitudes(psi, window)
    return np.divide(np.square(h_map, out=h_map), len(h_map), out=h_map)


def wigner(psi) -> np.ndarray:
    """Wigner distribution W[m, n] on the phase space, odd dimension only.

    Uses the integer-safe form
    W(m,n) = (1/d) sum_j e^{2 i pi m j / d} conj(psi(n+l)) psi(n-l) with
    l = j (d+1)/2 mod d, the l with 2 l = j.  As n +- l = (2n +- j)/2, the
    products of column n are u(2n + j) v(j - 2n) with u(k) = conj(psi(k/2))
    and v(k) = psi(-k/2), whose inverse FFT over j is column n of W, all
    built by ``gabor._product_map``.  Asserts reality at the scale
    ||psi||^2 of the products, and returns a real array whose marginals
    are |psi(n)|^2 (over m) and |dft(psi)(m)|^2 (over n).
    """
    psi = as_state(psi)
    d = psi.shape[0]
    if d % 2 == 0:
        raise ValueError("Wigner via parity requires odd dimension")
    halves = np.arange(d) * ((d + 1) // 2) % d  # k/2 mod d
    u, v = np.tile(np.conj(psi)[halves], 2), np.tile(psi[-halves % d], 2)
    scale = np.linalg.norm(psi) ** 2
    shifts = 2 * np.arange(d) % d
    return _product_map(u, shifts, v, d - shifts, np.fft.ifft,
                        lambda block: realize_real(block, scale, "wigner_imaginary"), float)


def portrait(op: np.ndarray, w: Weight) -> np.ndarray:
    """Phase-space portrait A(m, n) = Tr[op * D(m,n) M_w D(m,n)^dag].

    Through the closed form of the transported operator,
    D(m,n) M D(m,n)^dag = e^{2 i pi m (a - b) / d} M[a - n, b - n] at (a, b):
    A(m, n) = sum_k e^{2 i pi m k / d} s(n, k) with
    s(n, k) = sum_b op[b-k, b] M_w[b-n, b-n-k], a cyclic correlation over
    b of the cyclic diagonals of op^T and of M_w's kernel: the inverse FFT
    over b of the FFT of the first times that of the second at -b.  As
    M_w[b, b - k] is the inverse FFT over mu of w(mu, k) chi(mu, k), its
    FFT over b is that product, and no transform of the kernel is run.
    O(d^2 log d).
    """
    d = w.d
    s = np.fft.fft(cyclic_diagonals(as_map(op, d).T), axis=0)  # over b of op[b - k, b], at [b, k]
    kernel = multiply_phase(w.values.copy(), sum_phase_roots(d))  # over b of M_w[b, b - k]
    s[0] *= kernel[0]  # at -b
    s[1:] *= kernel[:0:-1]
    np.fft.ifft(s, axis=0, out=s)  # s(n, k)
    return np.fft.ifft(s, axis=1, norm="forward", out=s).T


def _paired(w: Weight) -> np.ndarray:
    """p(q) = w(q) c(q) w(-q), c the adjoint's sign; |w(q)|^2 when M_w is self-adjoint."""
    reflected = adjoint_reflection(w.values)
    return np.multiply(w.values, reflected, out=reflected)


def overlap_distribution(w: Weight) -> np.ndarray:
    """D(m, n) = Tr[M_w(m,n) M_w], the smoothing distribution of the weight.

    With the 1/d-weighted counting measure on the phase space this is
    normalized: (1/d) sum_{m,n} D = (tr M_w)^2 = 1.  For self-adjoint M_w
    (``Weight.symmetry_defect`` within ``bound`` at max|w|) D is asserted
    real and returned real, and nonnegative if ``Weight.is_density``; both
    checks scale with max|w|^2.  Other weights give a complex D.  As
    D(m, n) = (1/d) sum_q p(q) e^{2 i pi (m q_n - q_m n) / d}, it is the
    symplectic transform of p = ``_paired(w)``.
    """
    dist, peak = symplectic_dft(_paired(w)), np.abs(w.values).max()
    if not w.is_density and w.symmetry_defect() > bound(peak):
        return dist
    dist = realize_real(dist, peak ** 2, "overlap_imaginary")
    if w.is_density:
        hold("overlap_distribution_dips", -dist.min(), peak ** 2)
    return dist


def portrait_of_symbol(f: np.ndarray, w: Weight) -> np.ndarray:
    """Smoothed symbol (1/d) sum_q f(p - q) Tr[M_w(q) M_w].

    Agrees with ``portrait(quantize(f, w), w)``; the unit symbol is a
    fixed point.  The 2-D DFT of the overlap distribution D of
    :func:`overlap_distribution` is d P, P[a, b] = p(-b, a) with
    p = ``_paired(w)``, so the smoothed symbol, the cyclic convolution of
    D and f over d, is the inverse 2-D DFT of P times the 2-D DFT of f,
    with no transform of D.  Each 2-D DFT runs in place as two 1-D passes,
    axis 1 then axis 0.  O(d^2 log d).
    """
    spectrum = np.fft.fft(as_map(f, w.d), axis=1)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    p = _paired(w)
    spectrum[:, 0] *= p[0]
    spectrum[:, 1:] *= p[:0:-1].T
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    return np.fft.ifft(spectrum, axis=0, out=spectrum)
