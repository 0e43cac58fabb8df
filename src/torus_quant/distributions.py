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

from .errors import ToleranceError, bound
from .hilbert import as_state, cyclic_diagonals
from .gabor import _column_blocks, _product_blocks
from .quantize import Weight, symplectic_dft
from .weyl import adjoint_reflection, multiply_phase, sum_phase_roots

__all__ = [
    "husimi",
    "wigner",
    "portrait",
    "portrait_of_symbol",
    "overlap_distribution",
]


def realize_real(values: np.ndarray, scale: float = 1.0, what: str = "map") -> np.ndarray:
    """Drop an imaginary part within ``bound(scale)``, ``scale`` the size of the terms."""
    worst, tol = float(np.abs(np.imag(values)).max()), bound(scale)
    if not worst <= tol:
        raise ToleranceError(f"{what} has imaginary part {worst:.3e} above {tol:.1e}")
    return np.real(values).copy()


def husimi(psi, window) -> np.ndarray:
    """H(m, n) = |<U(m,n) window, psi>|^2 / d; sums to ||psi||^2.

    Built a block of columns at a time, without Phi's unit-modulus half phase.
    """
    psi = as_state(psi)
    d = psi.shape[0]
    window = as_state(window, d=d)
    h_map = np.empty((d, d))
    for cols, block in _column_blocks(psi, window):
        h_block = np.abs(block)
        h_block **= 2
        h_block /= d
        h_map[:, cols] = h_block.T
        del h_block  # before the next block's magnitudes are allocated
    return h_map


def wigner(psi) -> np.ndarray:
    """Wigner distribution W[m, n] on the phase space, odd dimension only.

    Uses the integer-safe form
    W(m,n) = (1/d) sum_j e^{2 i pi m j / d} conj(psi(n+l)) psi(n-l) with
    l = j (d+1)/2 mod d, the l with 2 l = j.  As n +- l = (2n +- j)/2, the
    products of column n are u(2n + j) v(j - 2n) with u(k) = conj(psi(k/2))
    and v(k) = psi(-k/2): rows [n, j] of a block of columns, whose inverse
    FFTs along j give W there.  Asserts reality at the scale ||psi||^2 of
    the products, and returns a real array whose marginals are |psi(n)|^2
    (over m) and |dft(psi)(m)|^2 (over n).
    """
    psi = as_state(psi)
    d = psi.shape[0]
    if d % 2 == 0:
        raise ValueError("Wigner via parity requires odd dimension")
    halves = np.arange(d) * ((d + 1) // 2) % d  # k/2 mod d
    u, v = np.tile(np.conj(psi)[halves], 2), np.tile(psi[-halves % d], 2)
    scale = np.linalg.norm(psi) ** 2
    shifts = 2 * np.arange(d) % d
    w_map = np.empty((d, d))
    for cols, products in _product_blocks(u, shifts, v, d - shifts, np.fft.ifft):  # [n, j]
        w_map[:, cols] = realize_real(products, scale, "Wigner map").T
    return w_map


def portrait(op: np.ndarray, w: Weight) -> np.ndarray:
    """Phase-space portrait A(m, n) = Tr[op * D(m,n) M_w D(m,n)^dag].

    Through the closed form of the transported operator (see
    :mod:`torus_quant.quantize`),
    A(m, n) = sum_k e^{2 i pi m k / d} s(n, k) with
    s(n, k) = sum_b op[b-k, b] M_w[b-n, b-n-k], a cyclic correlation over
    b of the cyclic diagonals of op^T and of M_w's kernel: the inverse FFT
    over b of the FFT of the first times that of the second at -b.  As
    M_w[b, b - k] is the inverse FFT over mu of w(mu, k) chi(mu, k), its
    FFT over b is that product, and no transform of the kernel is run.
    O(d^2 log d).
    """
    op = np.asarray(op, dtype=complex)
    d = w.d
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match weight d={d}")
    s = np.fft.fft(cyclic_diagonals(op.T), axis=0)  # over b of op[b - k, b], at [b, k]
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
    dist = realize_real(dist, scale=peak ** 2, what="overlap distribution")
    if w.is_density and not dist.min() >= -bound(peak ** 2):
        raise ToleranceError(f"coherent-state overlap distribution dips to {dist.min():.3e}")
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
    f = np.asarray(f, dtype=complex)
    d = w.d
    if f.shape != (d, d):
        raise ValueError(f"symbol shape {f.shape} does not match weight d={d}")
    spectrum = np.fft.fft(f, axis=1)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    p = _paired(w)
    spectrum[:, 0] *= p[0]
    spectrum[:, 1:] *= p[:0:-1].T
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    return np.fft.ifft(spectrum, axis=0, out=spectrum)
