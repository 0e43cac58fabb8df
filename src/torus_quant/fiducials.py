"""Catalog of unit-norm fiducial (window) vectors on Z_d.

Each recipe is realized at a requested dimension up to a positive factor;
``_guard_normalize`` is the one step that scales it to unit norm, so no
kind carries a closed-form normalization constant of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import as_state, fourier_basis, kronecker_basis, phase_table
from .errors import InputFormatError, ToleranceError, hold

__all__ = ["FiducialSpec", "realize_fiducial"]

#: -log of the smallest retained relative magnitude, over pi, in the gaussian sums
_GAUSSIAN_CUTOFF = -math.log(1e-16) / math.pi

#: type of the one parameter of each kind that :meth:`FiducialSpec.parse` reads
_PARAMETER_TYPES = {"kronecker": int, "plane_wave": int, "gaussian": float,
                    "dirichlet": int, "von_mises": float}


@dataclass(frozen=True)
class FiducialSpec:
    """Symbolic recipe for a fiducial vector.

    Use the classmethod constructors; parameters are validated there and
    again (for d-dependent bounds) at realization time.  ``param`` has the
    type ``_PARAMETER_TYPES`` gives the kind; ``custom`` uses ``values``.
    """

    kind: str
    param: int | float | None = None
    values: tuple = ()

    @classmethod
    def constant(cls) -> "FiducialSpec":
        return cls("constant")

    @classmethod
    def kronecker(cls, k0: int) -> "FiducialSpec":
        if k0 < 0:
            raise ValueError("kronecker label must be nonnegative")
        return cls("kronecker", int(k0))

    @classmethod
    def plane_wave(cls, k0: int) -> "FiducialSpec":
        if k0 < 0:
            raise ValueError("plane-wave label must be nonnegative")
        return cls("plane_wave", int(k0))

    @classmethod
    def gaussian(cls, kappa: float) -> "FiducialSpec":
        if not 0 < kappa < math.inf:
            raise ValueError("gaussian width parameter must be positive and finite")
        return cls("gaussian", float(kappa))

    @classmethod
    def dirichlet(cls, j: int) -> "FiducialSpec":
        if j < 0:
            raise ValueError("dirichlet order must be nonnegative")
        return cls("dirichlet", int(j))

    @classmethod
    def von_mises(cls, lam: float) -> "FiducialSpec":
        if not 0 <= lam < math.inf:
            raise ValueError("von Mises concentration must be nonnegative and finite")
        return cls("von_mises", float(lam))

    @classmethod
    def custom(cls, values) -> "FiducialSpec":
        v = as_state(values)
        if not np.isfinite(v).all():
            raise InputFormatError("custom fiducial window has a non-finite sample")
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
        """The spec string :meth:`parse` reads back to this spec."""
        if self.param is None:
            return self.kind
        value = f"{self.param:g}" if isinstance(self.param, float) else str(self.param)
        return f"{self.kind}:{value}"


def _periodized_gaussian(d: int, t: float) -> np.ndarray:
    """sum_k exp(-pi t (l/d - k)^2) on Z_d, up to a positive factor.

    By Poisson summation this is sqrt(t) times the Fourier series
    sum_n exp(-pi n^2 / t) exp(2 i pi n l / d).  Images are summed for
    t >= 1 and Fourier terms for t < 1, so at most nine terms are needed.
    t is clamped where pi / t and 4 pi t stay finite; off-peak terms are 0
    long before.
    """
    t = min(max(t, np.finfo(float).tiny), np.finfo(float).max / 16)
    ls = np.arange(d)[:, None]
    if t >= 1.0:
        kmax = math.ceil(math.sqrt(_GAUSSIAN_CUTOFF / t))
        # integer offsets l - k d, so l and d - l see the same distance
        return np.exp(-np.pi * t * ((ls - d * np.arange(-kmax, kmax + 1)) / d) ** 2).sum(axis=1)
    ns = np.arange(1, math.ceil(math.sqrt(_GAUSSIAN_CUTOFF * t)) + 1)
    return 1.0 + 2.0 * (np.exp(-np.pi * ns**2 / t) * phase_table(d, ls * ns).real).sum(axis=1)


def _guard_normalize(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit norm as complex128; only its direction matters.

    A ``v`` of peak below 2 and norm 1 to within 2 d eps (at most 2000 eps,
    so a 12-decimal norm reads 1) is returned as it is: a window normalizes,
    and reads back from its text, to itself bit for bit.  Any other ``v`` is
    first scaled, exactly, by the power of two that brings its largest
    |entry| into [1, 2), so its norm cannot overflow or underflow.
    """
    v = np.ascontiguousarray(v, dtype=np.result_type(v, float))
    peak = np.abs(v).max()
    if not np.isfinite(peak):
        raise ToleranceError("fiducial_peak", peak, math.inf, "fiducial realization is not finite")
    if peak == 0:
        raise InputFormatError("fiducial window is zero")
    if peak < 2 and abs(np.linalg.norm(v) - 1.0) <= min(2 * len(v), 2000) * np.finfo(float).eps:
        return np.asarray(v, dtype=complex)
    v = np.ldexp(v.view(float), 1 - np.frexp(peak)[1]).view(v.dtype)
    v = np.asarray(v, dtype=complex) / np.linalg.norm(v)
    hold("fiducial_normalization", abs(np.linalg.norm(v) - 1.0))
    return v


def realize_fiducial(spec: FiducialSpec, d: int) -> np.ndarray:
    """Realize the recipe as a unit-norm vector of dimension d.

    A ``custom`` window of any nonzero norm is renormalized silently; an
    all-zero one raises :class:`InputFormatError`.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    ls = np.arange(d)

    if spec.kind == "constant":
        v = np.ones(d)
    elif spec.kind == "kronecker":
        v = kronecker_basis(d, spec.param)
    elif spec.kind == "plane_wave":
        v = fourier_basis(d, spec.param)
    elif spec.kind == "gaussian":
        v = _periodized_gaussian(d, spec.param * d)
    elif spec.kind == "dirichlet":
        if 2 * spec.param + 1 > d:
            raise ValueError(f"dirichlet order j={spec.param} needs 2j+1 <= d={d}")
        # sum_{|k| <= j} exp(2i pi k l / d) / d: the inverse FFT of the indicator of |k| <= j
        v = np.fft.ifft(np.minimum(ls, d - ls) <= spec.param).real
    elif spec.kind == "von_mises":
        # peak-relative amplitudes: finite for any concentration (a clamped one
        # still gives 0 off the peak)
        v = np.exp(min(spec.param, np.finfo(float).max / 2) * (phase_table(d, ls).real - 1.0))
    elif spec.kind == "custom":
        v = as_state(np.array(spec.values), d=d)
    else:
        raise ValueError(f"unknown fiducial kind {spec.kind!r}")

    return _guard_normalize(v)

