"""Displacement operators on Z_d and their two phase conventions.

The displacement operator combines modulation E_m and translation T_n with
a symmetrizing half phase,

    (U(m,n) psi)(l) = exp(-i pi m n / d) exp(2i pi m l / d) psi(l - n),

evaluated on the canonical representatives m, n in [0, d).  The half phase
is only d-periodic up to sign:

    U(m + d, n) = (-1)**n U(m, n),     U(m, n + d) = (-1)**m U(m, n),

so identities that move indices out of [0, d) acquire tracked signs.

Sums over the whole phase space use the d-periodic family

    D(m, n) = (-1)**(m n) U(m, n) at odd d,     D(m, n) = U(m, n) at even d,

whose phase chi equals exp(-2i pi m ((d+1)/2 n) / d) at odd d: the half
phase realized with the modular inverse of 2.  This family satisfies
D(m,n)^dag = c(m,n) D(-m,-n) with a sign c identically one at odd d;
:func:`adjoint_reflection` takes a map v to c(q) v(-q).  Both phases depend
on m n mod 2d only: :func:`multiply_phase` applies either from its 2d
values, ``half_phase(d, 1, arange(2d))`` or :func:`sum_phase_roots`.
Every phase here is exponentiated by :func:`hilbert.phase_table`.
"""

from __future__ import annotations

import numpy as np

from .hilbert import as_state, modulate, phase_table, row_blocks, translate

__all__ = ["displacement_apply", "displacement_matrix"]


def half_phase(d: int, m, n) -> np.ndarray:
    """The symmetrizing factor exp(-i pi m n / d) on canonical representatives.

    ``m`` and ``n`` may be integer arrays that broadcast against each other.
    """
    return phase_table(2 * d, -np.multiply(m, n))


def multiply_phase(arr: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Multiply the d x d map ``arr`` in place by roots[m n mod 2d] at entry [m, n]; return it.

    The 2d ``roots`` are gathered a block of rows at a time, so no d x d table is formed.
    """
    d = arr.shape[0]
    ns = np.arange(d)
    for rows in row_blocks(d, d):
        block = arr[rows]
        block *= roots[np.arange(rows.start, rows.stop)[:, None] * ns % (2 * d)]
    return arr


def sum_phase_roots(d: int) -> np.ndarray:
    """The 2d values, by m n mod 2d, of chi: the half phase times (-1)**(m n) at odd d."""
    ks = np.arange(2 * d)
    return (-1) ** (d % 2 * ks % 2) * half_phase(d, 1, ks)


def adjoint_reflection(values: np.ndarray) -> np.ndarray:
    """c(q) v(-q) on canonical representatives, c the sign in D(q)^dag = c(q) D(-q); a new array.

    c is identically one at odd d (the family is genuinely periodic); at
    even d, where D = U, the entries with both indices nonzero carry
    (-1)**(m+n), flipped in place on the reflected copy.
    """
    reflected = np.roll(values[::-1, ::-1], 1, axis=(0, 1))
    if reflected.shape[0] % 2 == 0:
        reflected[1::2, 2::2] *= -1
        reflected[2::2, 1::2] *= -1
    return reflected


def displacement_apply(psi, m: int, n: int) -> np.ndarray:
    """Apply the displacement U(m, n) to a state.

    Indices are reduced to canonical representatives first.
    """
    psi = as_state(psi)
    d = psi.shape[0]
    m %= d
    n %= d
    return half_phase(d, m, n) * modulate(translate(psi, n), m)


def displacement_matrix(d: int, m: int, n: int) -> np.ndarray:
    """Matrix of U(m, n) in the position basis: column k' is :func:`displacement_apply` of delta_k'.

    Support at rows k = k' + n mod d with entries
    exp(-i pi m n / d) exp(2i pi m k / d); this agrees with the commonly printed form
    exp(i pi m (k + k')/d) except on wrapped entries (k' + n >= d), where
    the canonical-index form of that expression is off by (-1)**m.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    return np.column_stack([displacement_apply(column, m, n) for column in np.eye(d)])
