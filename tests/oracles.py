"""Literal phase-space sums, kept as slow references for the tests.

Each function evaluates its defining sum over the d^2 phase-space points
term by term, O(d^4) in total.  The package computes the same quantities
in closed form; ``test_oracles.py`` pins the two against each other.
"""

import numpy as np

from torus_quant import quantization_operator, sum_displacement, transported
from torus_quant.distributions import _overlap_map


def coherent_state_weight_sum(phi) -> np.ndarray:
    """w(m, n) = <D(m,n) phi, phi> for a unit vector phi."""
    d = phi.shape[0]
    w = np.empty((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            w[m, n] = np.vdot(sum_displacement(d, m, n) @ phi, phi)
    return w


def weight_from_operator_sum(M) -> np.ndarray:
    """w(m, n) = Tr[D(m,n)^dag M]."""
    d = M.shape[0]
    w = np.empty((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            w[m, n] = np.vdot(sum_displacement(d, m, n), M)
    return w


def quantize_sum(f, w) -> np.ndarray:
    """A_f = (1/d) sum_{m,n} f(m, n) D(m,n) M_w D(m,n)^dag."""
    d = w.d
    mw = quantization_operator(w)
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            out += f[m, n] * transported(mw, m, n)
    return out / d


def portrait_sum(op, w) -> np.ndarray:
    """A(m, n) = Tr[op D(m,n) M_w D(m,n)^dag]."""
    d = w.d
    mw = quantization_operator(w)
    out = np.empty((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            out[m, n] = np.sum(op * transported(mw, m, n).T)
    return out


def portrait_of_symbol_sum(f, w) -> np.ndarray:
    """(1/d) sum_q f(p - q) Tr[M_w(q) M_w], one shifted copy of f per q."""
    d = w.d
    dist = _overlap_map(w)
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            out += dist[m, n] * np.roll(f, (m, n), axis=(0, 1))
    return out / d
