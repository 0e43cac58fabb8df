"""Catalog of unit-norm fiducial (window) vectors on Z_d.

Every recipe is realized at a requested dimension and passed through an
explicit renormalization guard, so the returned vector has unit norm to
machine precision regardless of the closed-form prefactor conventions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

from .hilbert import as_state, fourier_basis, kronecker_basis
from .errors import InputFormatError, ToleranceError

__all__ = [
    "FiducialSpec",
    "realize_fiducial",
    "jacobi_theta3",
    "default_catalog",
]

_KINDS = ("constant", "kronecker", "plane_wave", "gaussian", "dirichlet", "von_mises", "custom")

#: smallest retained magnitude in truncated theta-type series
_SERIES_FLOOR = 1e-16

#: type of the one parameter of each kind that :meth:`FiducialSpec.parse` reads
_PARAMETER_TYPES = {"kronecker": int, "plane_wave": int, "gaussian": float,
                    "dirichlet": int, "von_mises": float}


@dataclass(frozen=True)
class FiducialSpec:
    """Symbolic recipe for a fiducial vector.

    Use the classmethod constructors; parameters are validated there and
    again (for d-dependent bounds) at realization time.
    """

    kind: str
    k0: int = 0
    kappa: float = 0.0
    j: int = 0
    lam: float = 0.0
    values: tuple = ()

    @classmethod
    def constant(cls) -> "FiducialSpec":
        return cls("constant")

    @classmethod
    def kronecker(cls, k0: int) -> "FiducialSpec":
        if k0 < 0:
            raise ValueError("kronecker label must be nonnegative")
        return cls("kronecker", k0=int(k0))

    @classmethod
    def plane_wave(cls, k0: int) -> "FiducialSpec":
        if k0 < 0:
            raise ValueError("plane-wave label must be nonnegative")
        return cls("plane_wave", k0=int(k0))

    @classmethod
    def gaussian(cls, kappa: float) -> "FiducialSpec":
        if not 0 < kappa < math.inf:
            raise ValueError("gaussian width parameter must be positive and finite")
        return cls("gaussian", kappa=float(kappa))

    @classmethod
    def dirichlet(cls, j: int) -> "FiducialSpec":
        if j < 0:
            raise ValueError("dirichlet order must be nonnegative")
        return cls("dirichlet", j=int(j))

    @classmethod
    def von_mises(cls, lam: float) -> "FiducialSpec":
        if not 0 <= lam < math.inf:
            raise ValueError("von Mises concentration must be nonnegative and finite")
        return cls("von_mises", lam=float(lam))

    @classmethod
    def custom(cls, values) -> "FiducialSpec":
        v = as_state(values)
        return cls("custom", values=tuple(complex(x) for x in v))

    @classmethod
    def parse(cls, text: str) -> "FiducialSpec":
        """Parse a CLI spec string such as ``von_mises:400`` or ``constant``.

        An unknown kind, or a parameter that is not a finite number of the
        kind's type, raises :class:`InputFormatError`; a parsed parameter
        out of its range raises ``ValueError`` from the constructor.
        """
        name, _, arg = text.partition(":")
        name = name.strip()
        if name == "constant":
            return cls.constant()
        parameter_type = _PARAMETER_TYPES.get(name)
        if parameter_type is None:
            raise InputFormatError(f"unknown fiducial kind {name!r}")
        try:
            value = parameter_type(arg)
        except ValueError:
            raise InputFormatError(
                f"fiducial {name!r} needs a {parameter_type.__name__} parameter, "
                f"got {arg!r}") from None
        if not math.isfinite(value):
            raise InputFormatError(f"fiducial {name!r} parameter {arg!r} is not finite")
        return getattr(cls, name)(value)

    def label(self) -> str:
        if self.kind == "kronecker" or self.kind == "plane_wave":
            return f"{self.kind}:{self.k0}"
        if self.kind == "gaussian":
            return f"gaussian:{self.kappa:g}"
        if self.kind == "dirichlet":
            return f"dirichlet:{self.j}"
        if self.kind == "von_mises":
            return f"von_mises:{self.lam:g}"
        return self.kind


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
    # need exp(2 pi b N - pi s_im N^2) < floor
    c = -math.log(_SERIES_FLOOR) / math.pi
    nmax = int(math.ceil((b + math.sqrt(b * b + s_im * c)) / s_im)) + 1
    ns = np.arange(-nmax, nmax + 1)
    terms = np.exp(2j * np.pi * ns * x - np.pi * s_im * ns**2)
    return complex(terms.sum())


def _guard_normalize(v: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or nrm < 1e-12:
        raise ToleranceError("fiducial realization collapsed to zero or overflowed")
    v = v / nrm
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ToleranceError("fiducial normalization failed")
    return v


def realize_fiducial(spec: FiducialSpec, d: int) -> np.ndarray:
    """Realize the recipe as a unit-norm vector of dimension d."""
    if d < 1:
        raise ValueError("dimension must be positive")
    ls = np.arange(d)

    if spec.kind == "constant":
        v = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    elif spec.kind == "kronecker":
        v = kronecker_basis(d, spec.k0)
    elif spec.kind == "plane_wave":
        v = fourier_basis(d, spec.k0)
    elif spec.kind == "gaussian":
        # periodized Gaussian via its Fourier-sum form, weights e^{-pi n^2/(kappa d)}
        s_im = 1.0 / (spec.kappa * d)
        nmax = int(math.ceil(math.sqrt(-math.log(_SERIES_FLOOR) / (math.pi * s_im)))) + 1
        ns = np.arange(1, nmax + 1)
        weights = np.exp(-np.pi * s_im * ns**2)
        v = 1.0 + 2.0 * (weights[None, :] * np.cos(2 * np.pi * np.outer(ls, ns) / d)).sum(axis=1)
        v = v.astype(complex) / math.sqrt(abs(jacobi_theta3(0.0, 2.0 / (spec.kappa * d))))
    elif spec.kind == "dirichlet":
        if 2 * spec.j + 1 > d:
            raise ValueError(f"dirichlet order j={spec.j} needs 2j+1 <= d={d}")
        ms = np.arange(1, spec.j + 1)
        v = 1.0 + 2.0 * np.cos(2 * np.pi * np.outer(ls, ms) / d).sum(axis=1) if spec.j else np.ones(d)
        v = v.astype(complex) / math.sqrt(d * (2 * spec.j + 1))
    elif spec.kind == "von_mises":
        # stable for large concentration: peak-relative amplitudes with the
        # exponentially scaled Bessel prefactor
        amp = np.exp(spec.lam * (np.cos(2 * np.pi * ls / d) - 1.0))
        v = amp.astype(complex) / math.sqrt(d * i0e(2 * spec.lam))
    elif spec.kind == "custom":
        v = as_state(np.array(spec.values), d=d)
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-10 and nrm > 1e-12:
            warnings.warn("custom fiducial has non-unit norm; renormalizing")
    else:
        raise ValueError(f"unknown fiducial kind {spec.kind!r}")

    return _guard_normalize(v)


def default_catalog(d: int) -> list[FiducialSpec]:
    """One representative recipe of each named kind, valid at dimension d."""
    k0 = 1 % d
    return [
        FiducialSpec.constant(),
        FiducialSpec.kronecker(k0),
        FiducialSpec.plane_wave(k0),
        FiducialSpec.gaussian(1.0),
        FiducialSpec.dirichlet((d - 1) // 2),
        FiducialSpec.von_mises(1.0),
    ]
