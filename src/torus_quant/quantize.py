"""Weights on the discrete phase space and the operators they generate.

A weight is a complex function w(m, n) on Z_d x Z_d with w(0, 0) = 1.  It
generates the unit-trace quantization operator

    M_w = (1/d) sum_{m,n} w(m, n) D(m, n),

where D is the d-periodic displacement family of :mod:`torus_quant.weyl`:
the half-phase operator U at even d and (-1)**(m n) U at odd d, i.e. the
half phase realized with the modular inverse of 2.  This is the unique
choice that makes the family genuinely d-periodic in both indices, and it
is what makes the unit weight produce exactly the parity operator at odd d.
Construction and retrieval by tracing use the same family, so they are
exact mutual inverses.

Symbols f(m, n) are quantized by averaging against the transported
operators,

    A_f = (1/d) sum_{m,n} f(m, n) D(m,n) M_w D(m,n)^dag.

No function here loops over the d^2 phase-space points; each sum is
evaluated in closed form with FFTs on the d cyclic diagonals [l, k] ->
M[l, l - k] of each operator, read and rebuilt by the involution
:func:`hilbert.cyclic_diagonals` (chi, the phase of D, is :func:`weyl.sum_phase_roots`):

- M_w from its integral kernel: entry (l, l - nu) is
  (1/d) sum_mu w(mu, nu) chi(mu, nu) e^{2 i pi mu l / d}, one inverse FFT;
- the coefficients Tr[D(m, n)^dag M] = conj(chi(m, n)) sum_l
  e^{-2 i pi m l / d} M[l, l - n], one FFT of M's cyclic diagonals, are
  read only by ``_coefficients``: for weight retrieval (at unit trace),
  for the CLI's trace-formula check of :func:`quantize`, and by
  ``distributions.portrait``;
- :func:`quantize`, which feeds the conjugate symplectic transform of f
  into the kernel assembly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import bound
from .hilbert import as_map, as_state, cyclic_diagonals, dft, idft
from .weyl import adjoint_reflection, multiply_phase, sum_phase_roots

__all__ = [
    "Weight",
    "parity_weight",
    "coherent_state_weight",
    "quantization_operator",
    "weight_from_operator",
    "symplectic_dft",
    "quantize",
    "quantize_momentum",
    "quantize_position",
    "PositivityReport",
    "positivity_report",
]


@dataclass(eq=False)
class Weight:
    """Weight function on the phase space with w(0, 0) = 1.

    Parameters
    ----------
    values : ndarray
        d x d complex array indexed [m, n]; a non-finite entry raises ``ValueError``.
    is_density : bool
        True when M_w is known to be a density operator (set by
        :func:`coherent_state_weight`); ``overlap_distribution`` then
        asserts that its distribution is nonnegative.
    """

    values: np.ndarray
    is_density: bool = False

    def __post_init__(self):
        v = as_map(self.values)
        if not abs(v[0, 0] - 1.0) <= bound():
            raise ValueError(f"weight origin value must be 1 (unit trace), got {v[0, 0]}")
        if not np.isfinite(v).all():
            raise ValueError("weight has a non-finite entry")
        self.values = v

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def symmetry_defect(self) -> float:
        """Deviation from the condition that makes M_w self-adjoint.

        The condition is conj(c(q) w(-q)) = w(q), c the adjoint's sign
        (:func:`weyl.adjoint_reflection`): conj(w(-m, -n)) = w(m, n) for
        odd d, and an extra (-1)**(m+n) for even d on the entries with
        both indices nonzero.
        """
        defect = adjoint_reflection(self.values)
        np.conjugate(defect, out=defect)
        defect -= self.values
        return float(np.abs(defect).max())


def parity_weight(d: int) -> Weight:
    """The unit weight w = 1; at odd d its operator is the parity operator."""
    return Weight(np.ones((d, d), dtype=complex))


def coherent_state_weight(phi) -> Weight:
    """Weight retrieved from the rank-one projector onto ``phi``.

    w(m, n) = <D(m,n) phi, phi>; quantizing it back returns exactly
    |phi><phi|.  This is :func:`weight_from_operator` of |phi><phi|.
    """
    phi = as_state(phi)
    nrm = np.linalg.norm(phi)
    if abs(nrm - 1.0) > bound():
        warnings.warn("coherent-state weight from a non-unit vector; normalizing")
        phi = phi / nrm
    w = weight_from_operator(np.outer(phi, phi.conj()))
    w.is_density = True
    return w


def _kernel_diagonals(c: np.ndarray) -> np.ndarray:
    """Integral kernel of sum c(m,n) D(m,n) / d: its cyclic diagonals, [l, nu] -> (l, l - nu)."""
    kernel = multiply_phase(np.array(c, dtype=complex), sum_phase_roots(c.shape[0]))
    return np.fft.ifft(kernel, axis=0, out=kernel)


def quantization_operator(w: Weight) -> np.ndarray:
    """Operator M_w = (1/d) sum w(m,n) D(m,n), of unit trace, from its integral kernel."""
    return cyclic_diagonals(_kernel_diagonals(w.values))


def _coefficients(M: np.ndarray) -> np.ndarray:
    """Tr[D(m,n)^dag M] at every (m, n), a new array: one FFT of M's cyclic diagonals.

    conj(chi(m, n)) sum_l e^{-2 i pi m l / d} M[l, l - n], O(d^2 log d);
    for M = (1/d) sum c(q) D(q) it returns c, as the D(q) are orthogonal.
    """
    c = cyclic_diagonals(M)  # M[l, l - n]
    np.fft.fft(c, axis=0, out=c)
    return multiply_phase(c, np.conj(sum_phase_roots(M.shape[0])))


def weight_from_operator(M: np.ndarray) -> Weight:
    """Retrieve the weight of a unit-trace operator: w(m,n) = Tr[D(m,n)^dag M].

    Inverts :func:`quantization_operator` exactly, through
    ``_coefficients``.  w(0, 0) is the trace; it must be 1 to within
    ``bound`` at max(1, sum_l |M[l, l]|), or ``ValueError`` is raised (NaN
    included), and is then set to exactly 1.
    """
    M = as_map(M)
    w = _coefficients(M)
    if not abs(w[0, 0] - 1.0) <= bound(max(1.0, np.abs(M.diagonal()).sum())):
        raise ValueError(f"operator trace must be 1 to define a weight, got {w[0, 0]}")
    w[0, 0] = 1.0
    return Weight(w)


def symplectic_dft(f: np.ndarray, conjugate: bool = False) -> np.ndarray:
    """Symplectic Fourier transform on phase-space functions.

    F[f](m, n) = (1/d) sum_{m',n'} f(m', n') exp(-2 i pi (m' n - m n') / d);
    ``conjugate=True`` flips the sign in the exponent.  Both variants are
    their own inverse, and conjugate(plain(f)) reflects f through the
    origin.
    """
    f = as_map(f)
    first, second = (np.fft.ifft, np.fft.fft) if conjugate else (np.fft.fft, np.fft.ifft)
    g = first(f, axis=0)
    return second(g, axis=1, out=g).T


def quantize(f: np.ndarray, w: Weight) -> np.ndarray:
    """Operator assigned to the symbol f by averaging transported M_w.

    With F the conjugate symplectic transform of f,

        A_f = (1/d) sum_{m,n} w(m,n) F(m,n) D(m,n),

    which fixes how the conjugate transform enters: one kernel assembly,
    rebuilt from its cyclic diagonals with the one involution
    ``cyclic_diagonals``, which needs no index table.  So
    Tr[D(q)^dag A_f] = w(q) F(q).  The unit symbol quantizes to the
    identity for every valid weight.
    """
    f = as_map(f, w.d)
    return cyclic_diagonals(_kernel_diagonals(w.values * symplectic_dft(f, conjugate=True)))


def quantize_momentum(g, w: Weight) -> np.ndarray:
    """Fast path for momentum-only symbols f(m, n) = g(m).

    Kernel (l, l') = ghat(-(l - l')) w(0, l - l') / sqrt(d) with
    ghat(-k) = (1/sqrt d) sum_m g(m) exp(2 i pi m k / d).  For the unit
    weight this is multiplication by g in the Fourier basis.
    """
    g = as_state(g, d=w.d)
    return cyclic_diagonals(np.broadcast_to(idft(g) * w.values[0] / np.sqrt(w.d), w.values.shape))


def quantize_position(h, w: Weight) -> np.ndarray:
    """Fast path for position-only symbols f(m, n) = h(n).

    Yields the multiplication operator by
    l -> (1/sqrt d) sum_m hhat(m) w(m, 0) exp(2 i pi m l / d); for the
    unit weight this is multiplication by h itself.
    """
    h = as_state(h, d=w.d)
    diag = idft(dft(h) * w.values[:, 0])
    return np.diag(diag)


@dataclass(frozen=True)
class PositivityReport:
    """Spectral summary of a quantized symbol."""

    is_density: bool
    min_eigenvalue: float
    trace: float
    hermiticity_defect: float


def positivity_report(f: np.ndarray, w: Weight) -> PositivityReport:
    """Report whether A_f is a density operator (PSD with unit trace).

    Eigenvalues are taken of the hermitization (A + A^dag)/2, and each
    test is held to ``bound`` at its largest |eigenvalue| (at least 1 for
    the trace).  A probability distribution here means a nonnegative
    symbol normalized against the counting measure weighted by 1/d, i.e.
    (1/d) sum_{m,n} f = 1, which is exactly the normalization that gives
    A_f unit trace.
    """
    a = quantize(f, w)
    herm = (a + a.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(herm)
    tr = float(np.trace(a).real)
    defect = float(np.abs(a - a.conj().T).max())
    min_eig = float(eigs[0])
    scale = np.abs(eigs).max()
    tol = bound(scale)
    is_density = min_eig >= -tol and abs(tr - 1.0) <= bound(max(1.0, scale)) and defect <= tol
    return PositivityReport(is_density, min_eig, tr, defect)
