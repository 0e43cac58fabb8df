"""Slow reference routes, kept for the tests only.

- Literal phase-space sums: each evaluates its defining sum over the d^2
  phase-space points term by term, O(d^4) in total.  The package computes
  the same quantities in closed form; ``test_oracles.py`` pins the two
  against each other.
- Per-point definitions that the package only ever uses summed over the
  phase space: the d-periodic displacement D(m, n), the transported
  operator D M D^dag, single coherent states and kernel values, the
  adjoint's sign, one entry and as a d x d table, the trace of one
  U(m, n), U(m, n) in the Fourier
  basis, the reversal matrix, the covariance residual of ``quantize``, the
  cyclic diagonals of a matrix read entry by entry.
- The dense DFT matrix, the pin of the kernel W[k, l] of ``dft``, and
  the scalar product.
- Second routes to package results (the factored reproducing kernel, two
  more Wigner forms, the frame built state by state).
- The Weyl-Heisenberg group law, whose representation the displacement
  operators are.
- The third Jacobi theta function, from which the gaussian window's
  reproducing kernel is built in closed form.
- The CSV table writer as one Python ``%`` per row, whose bytes the
  package's block-wise writer must reproduce.
- The fiducial windows as literal cosine sums, one ``math.cos`` per term.
"""

import math
from dataclasses import dataclass

import numpy as np

from torus_quant import (
    as_state,
    displacement_apply,
    displacement_matrix,
    gabor_transform,
    quantization_operator,
    quantize,
)
from torus_quant.distributions import realize_real
from torus_quant.gabor import _warn_if_not_unit
from torus_quant.hilbert import phase_table
from torus_quant.weyl import half_phase


def inner(a, b) -> complex:
    """Scalar product sum_l conj(a(l)) b(l), conjugate-linear in ``a``."""
    a = as_state(a)
    b = as_state(b, d=a.shape[0])
    return complex(np.vdot(a, b))


def conjugate_sign(d: int, m: int, n: int) -> int:
    """Sign relating the adjoint to negated indices.

    U(m, n)^dag = sign * U(-m mod d, -n mod d).  The sign is +1 whenever
    m = 0 or n = 0, and (-1)**(d + m + n) otherwise; at even d it is the
    entry [m, n] of :func:`adjoint_sign_table`, the sign that
    ``weyl.adjoint_reflection`` applies.
    """
    m %= d
    n %= d
    if m == 0 or n == 0:
        return 1
    return -1 if (d + m + n) % 2 else 1


def adjoint_sign_table(d: int) -> np.ndarray:
    """Sign c[m, n] in D(m,n)^dag = c[m, n] D(-m, -n) on canonical representatives.

    Identically one for odd d (the family is genuinely periodic); for even
    d, where D = U, the entries with both indices nonzero carry (-1)**(m+n).
    """
    if d % 2:
        return np.ones((d, d))
    m = np.arange(d)[:, None]
    n = np.arange(d)[None, :]
    return np.where((m == 0) | (n == 0), 1.0, (-1.0) ** ((m + n) % 2))


def trace_displacement(d: int, m: int, n: int) -> complex:
    """Trace of U(m, n); equals d for (m, n) = (0, 0) and 0 otherwise."""
    return complex(np.trace(displacement_matrix(d, m, n)))


def displacement_matrix_fourier(d: int, m: int, n: int) -> np.ndarray:
    """Matrix of U(m, n) in the Fourier basis.

    Entries exp(i pi m n / d) exp(-2i pi k n / d) at rows k = k' + m mod d,
    exact on canonical indices.
    """
    m %= d
    n %= d
    cols = np.arange(d)
    rows = (cols + m) % d
    out = np.zeros((d, d), dtype=complex)
    out[rows, cols] = np.conj(half_phase(d, m, n)) * phase_table(d, -n * rows)
    return out


def sum_displacement(d: int, m: int, n: int) -> np.ndarray:
    """Matrix of the d-periodic displacement D(m, n) (position basis)."""
    m %= d
    n %= d
    return (-1) ** (d % 2 * m * n % 2) * displacement_matrix(d, m, n)


def transported(M: np.ndarray, m: int, n: int) -> np.ndarray:
    """Conjugated operator D(m,n) M D(m,n)^dag.

    Evaluated in closed form, entry (a, b) = exp(2 i pi m (a - b) / d) *
    M[(a - n) % d, (b - n) % d]; the overall displacement phase cancels,
    so the result is identical for every phase convention.
    """
    d = M.shape[0]
    idx = (np.arange(d) - n) % d
    ph = phase_table(d, m * np.arange(d))
    return M[np.ix_(idx, idx)] * np.outer(ph, ph.conj())


def covariance_defect(f: np.ndarray, w, shift: tuple[int, int]) -> float:
    """Max-norm residual of displacement covariance of the quantization map.

    Compares U(shift) A_f U(shift)^dag against the quantization of the
    shifted symbol f(. - shift); both sides are built independently.
    """
    f = np.asarray(f, dtype=complex)
    d = w.d
    sm, sn = int(shift[0]) % d, int(shift[1]) % d
    u = displacement_matrix(d, sm, sn)
    lhs = u @ quantize(f, w) @ u.conj().T
    rhs = quantize(np.roll(f, (sm, sn), axis=(0, 1)), w)
    return float(np.abs(lhs - rhs).max())


def coherent_state(window, m: int, n: int) -> np.ndarray:
    """The displaced window U(m, n) psi."""
    window = as_state(window)
    _warn_if_not_unit(window, "fiducial window")
    return displacement_apply(window, m, n)


def reproducing_kernel(window, p: tuple[int, int], q: tuple[int, int]) -> complex:
    """Kernel K(p, q) = <psi_p, psi_q> of the coherent-state frame."""
    window = as_state(window)
    return complex(np.vdot(displacement_apply(window, *p), displacement_apply(window, *q)))


def parity_matrix(d: int) -> np.ndarray:
    """Reversal operator (P psi)(l) = psi(-l mod d)."""
    p = np.zeros((d, d))
    p[np.arange(d), (-np.arange(d)) % d] = 1.0
    return p


def jacobi_theta3(x, s_im: float) -> complex:
    """Third Jacobi theta function at purely imaginary lattice parameter.

    Computes sum_n exp(2 i pi n x) exp(-pi s_im n^2); the series is
    truncated once the retained terms fall below 1e-16, with the bound
    widened for complex ``x`` whose imaginary part makes terms grow
    linearly in n before the Gaussian factor wins.
    """
    if not s_im > 0:
        raise ValueError("theta series requires a positive imaginary lattice parameter")
    b = abs(np.imag(x))
    # need exp(2 pi b N - pi s_im N^2) < 1e-16
    c = -math.log(1e-16) / math.pi
    nmax = int(math.ceil((b + math.sqrt(b * b + s_im * c)) / s_im)) + 1
    ns = np.arange(-nmax, nmax + 1)
    terms = np.exp(2j * np.pi * ns * x - np.pi * s_im * ns**2)
    return complex(terms.sum())


def window_sum(kind: str, param, d: int) -> np.ndarray:
    """The unit-norm fiducial window ``kind:param`` on Z_d, its cosines summed term by term.

    gaussian: sum_n exp(-pi n^2 / t) cos(2 pi n l / d), t = param d, over |n| up to where
    the terms fall below 1e-17; dirichlet: sum_{|k| <= j} cos(2 pi k l / d);
    von_mises: exp(param (cos(2 pi l / d) - 1)); plane_wave: cos + i sin of 2 pi k l / d.
    """
    def value(l):
        if kind == "constant":
            return 1.0
        if kind == "kronecker":
            return float(l == param)
        if kind == "plane_wave":
            angle = 2 * math.pi * (param * l % d) / d
            return complex(math.cos(angle), math.sin(angle))
        if kind == "gaussian":
            t = param * d
            nmax = math.ceil(math.sqrt(-math.log(1e-17) * t / math.pi))
            return sum(math.exp(-math.pi * n * n / t) * math.cos(2 * math.pi * (n * l % d) / d)
                       for n in range(-nmax, nmax + 1))
        if kind == "dirichlet":
            return sum(math.cos(2 * math.pi * (k * l % d) / d) for k in range(-param, param + 1))
        if kind == "von_mises":
            return math.exp(param * (math.cos(2 * math.pi * l / d) - 1.0))
        raise ValueError(f"no literal sum for {kind!r}")

    v = np.array([value(l) for l in range(d)], dtype=complex)
    return v / np.linalg.norm(v)


def table_csv_reference(header: list[str], table: np.ndarray) -> bytes:
    """Header line, then per row its index and each entry as ``%.15e``, in ASCII."""
    row = "%d" + (",%.15e") * table.shape[1]
    lines = [",".join(header)]
    lines += [row % (i, *values) for i, values in enumerate(table.tolist())]
    return ("\n".join(lines) + "\n").encode("ascii")


def cyclic_diagonals_entrywise(M) -> np.ndarray:
    """[l, k] -> M[l, (l - k) % d], one entry at a time."""
    d = M.shape[0]
    out = np.empty((d, d), dtype=M.dtype)
    for l in range(d):
        for k in range(d):
            out[l, k] = M[l, (l - k) % d]
    return out


def dft_matrix(d: int) -> np.ndarray:
    """Unitary DFT matrix W[k, l] = exp(-2i pi k l / d) / sqrt(d)."""
    kl = np.outer(np.arange(d), np.arange(d))
    return np.exp(-2j * np.pi * (kl % d) / d) / np.sqrt(d)


def quantization_operator_sum(w) -> np.ndarray:
    """M_w = (1/d) sum_{m,n} w(m, n) D(m, n), one displacement per point."""
    d = w.d
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            out += w.values[m, n] * sum_displacement(d, m, n)
    return out / d


def symplectic_dft_sum(f, conjugate=False) -> np.ndarray:
    """(1/d) sum_{m',n'} f(m', n') exp(-+2 i pi (m' n - m n') / d)."""
    d = f.shape[0]
    sign = 1 if conjugate else -1
    ms = np.arange(d)
    out = np.empty((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            exponent = (np.outer(ms, np.full(d, n)) - np.outer(np.full(d, m), ms)) % d
            out[m, n] = np.sum(f * np.exp(sign * 2j * np.pi * exponent / d)) / d
    return out


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
    """(1/d) sum_q f(p - q) Tr[M_w(q) M_w], M_w(q) = D(q) M_w D(q)^dag, one shifted copy of f per q."""
    d = w.d
    mw = quantization_operator(w)
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            out += np.sum(transported(mw, m, n) * mw.T) * np.roll(f, (m, n), axis=(0, 1))
    return out / d


def reproducing_kernel_factored(window, p, q) -> complex:
    """K(p, q) = A * Psi, split into a pure phase and a window autocorrelation.

    A = exp(i pi (m (n - n') - (m - m') n') / d) on unreduced integer
    differences and Psi(mu, nu) = sum_l e^{-2 i pi mu l / d}
    conj(window(l - nu)) window(l).
    """
    window = as_state(window)
    d = window.shape[0]
    m, n = int(p[0]) % d, int(p[1]) % d
    mp, npp = int(q[0]) % d, int(q[1]) % d
    a = np.exp(1j * np.pi * ((m * (n - npp) - (m - mp) * npp) % (2 * d)) / d)
    mu, nu = (m - mp) % d, (n - npp) % d
    ls = np.arange(d)
    corr = np.exp(-2j * np.pi * ((mu * ls) % d) / d) * np.conj(window[(ls - nu) % d]) * window
    return complex(a * corr.sum())


def frame_states(window) -> np.ndarray:
    """All coherent states stacked as columns, ordered (m, n) row-major."""
    d = window.shape[0]
    cols = np.empty((d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            cols[:, m * d + n] = displacement_apply(window, m, n)
    return cols


def reproducing_defect(window, phi) -> float:
    """max_p |Phi(p) - (1/d) sum_q K(p, q) Phi(q)|, zero on the analysis range."""
    window = as_state(window)
    phi = as_state(phi, d=window.shape[0])
    flat = gabor_transform(phi, window).reshape(-1)
    states = frame_states(window)
    gram = states.conj().T @ states
    return float(np.abs(flat - gram @ flat / window.shape[0]).max())


def frame_resolution_defect(window) -> float:
    """Max-norm distance of (1/d) sum_p |psi_p><psi_p| from the identity."""
    window = as_state(window)
    d = window.shape[0]
    states = frame_states(window)
    return float(np.abs(states @ states.conj().T / d - np.eye(d)).max())


def wigner_via_parity(psi) -> np.ndarray:
    """W(m,n) = <psi, D(m,n) P D(m,n)^dag psi> / d from the parity matrix (odd d)."""
    psi = as_state(psi)
    d = psi.shape[0]
    p = parity_matrix(d)
    out = np.empty((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            out[m, n] = np.vdot(psi, transported(p, m, n) @ psi) / d
    return realize_real(out, key="wigner_imaginary")


def wigner_half_argument(psi) -> np.ndarray:
    """W(m,n) = (1/d) sum_l e^{2 i pi m l / d} conj(psi(n + l/2)) psi(n - l/2) (odd d).

    l/2 is read as ((d+1)/2) l mod d.
    """
    psi = as_state(psi)
    d = psi.shape[0]
    ls = np.arange(d)
    half = (((d + 1) // 2) * ls) % d
    quad = np.exp(2j * np.pi * ((np.outer(ls, ls)) % d) / d)
    out = np.empty((d, d), dtype=complex)
    for n in range(d):
        out[:, n] = quad @ (np.conj(psi[(n + half) % d]) * psi[(n - half) % d]) / d
    return realize_real(out, key="wigner_imaginary")


@dataclass(frozen=True)
class GroupElement:
    """Element (s, m, n) of the discrete Weyl-Heisenberg group over Z_d.

    ``m`` and ``n`` are canonicalized to [0, d) at construction; the central
    parameter ``s`` is kept as given.
    """

    d: int
    s: float
    m: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "m", int(self.m) % self.d)
        object.__setattr__(self, "n", int(self.n) % self.d)
        object.__setattr__(self, "s", float(self.s))


def wrap_sign_exponent(d: int, m_sum: int, n_sum: int) -> int:
    """Sign exponent picked up when reducing (m_sum, n_sum) into [0, d).

    For unreduced sums in [0, 2d), U(m_sum, n_sum) = (-1)**w U(m0, n0) with
    m0 = m_sum mod d, n0 = n_sum mod d and w the value returned here.
    """
    j, m0 = divmod(int(m_sum), d)
    k, n0 = divmod(int(n_sum), d)
    return (j * (n0 + k * d) + k * m0) % 2


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law on (s, m, n) triples.

    The central parameter receives the symplectic half term
    (a.m b.n - b.m a.n)/2 computed from the unreduced integer products,
    plus d/2 times the representative-wrap sign exponent, which keeps the
    map to operators a homomorphism although m, n are stored canonically.
    """
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} != {b.d}")
    d = a.d
    cross = (a.m * b.n - b.m * a.n) / 2.0
    w = wrap_sign_exponent(d, a.m + b.m, a.n + b.n)
    return GroupElement(d, a.s + b.s + cross + d * w / 2.0, a.m + b.m, a.n + b.n)


def group_inv(a: GroupElement) -> GroupElement:
    """Inverse (-s, -m mod d, -n mod d)."""
    return GroupElement(a.d, -a.s, -a.m, -a.n)


def rep_V(g: GroupElement, psi) -> np.ndarray:
    """Unitary representation (V(s,m,n) psi)(l) = e^{2 i pi s/d} (U(m,n) psi)(l)."""
    psi = as_state(psi, d=g.d)
    return np.exp(2j * np.pi * (g.s % g.d) / g.d) * displacement_apply(psi, g.m, g.n)


def compose_displacements(d: int, m: int, n: int, mp: int, np_: int):
    """Exact composition data for U(m,n) U(m',n') = phase * U(point).

    Returns ``(phase, (m0, n0))`` with the canonical target point.  The
    phase is exp(i pi (m n' - n m') / d) from unreduced integer products,
    times (-1)**w for the representative-wrap exponent w of the index sums.
    """
    m, n, mp, np_ = m % d, n % d, mp % d, np_ % d
    sym = (m * np_ - n * mp) % (2 * d)
    w = wrap_sign_exponent(d, m + mp, n + np_)
    phase = complex(np.exp(1j * np.pi * sym / d)) * (-1) ** w
    return phase, ((m + mp) % d, (n + np_) % d)


def conjugation_phase(d: int, m: int, n: int, mp: int, np_: int) -> complex:
    """Phase in U(m',n') U(m,n) U(m',n')^dag = phase * U(m,n), exp(-2 i pi (m n' - m' n) / d)."""
    return complex(np.exp(-2j * np.pi * ((m * np_ - mp * n) % d) / d))


def fourier_conjugated(d: int, matrix: np.ndarray) -> np.ndarray:
    """Conjugate a position-basis operator into the Fourier basis."""
    w = dft_matrix(d)
    return w @ matrix @ w.conj().T
