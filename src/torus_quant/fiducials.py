"""Catalog of unit-norm fiducial (window) vectors on Z_d.

Each named kind is one row of ``_KINDS``: its parameter's type, range test and
realizer (the window up to a positive factor); a spec is checked against its row
when it is built.  ``_guard_normalize`` alone scales a window to unit norm.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hilbert import as_state, phase_table
from .errors import InputFormatError, ToleranceError, hold

__all__ = ["FiducialSpec", "realize_fiducial"]

#: -log of the smallest retained relative magnitude, over pi, in the gaussian sums
_GAUSSIAN_CUTOFF = -math.log(1e-16) / math.pi


@dataclass(frozen=True)
class FiducialSpec:
    """Recipe ``FiducialSpec(kind, param)`` for a fiducial vector, checked when it is built.

    ``param`` is a real number (not a bool) in its range that the ``_KINDS``
    type holds exactly, stored as that type, or None for ``constant`` and
    ``custom`` (which uses ``values``); anything else raises ``ValueError``.
    """

    kind: str
    param: int | float | None = None
    values: tuple = ()

    def __post_init__(self):
        if self.kind != "custom" and self.kind not in _KINDS:
            raise ValueError(f"unknown fiducial kind {self.kind!r}")
        parameter_type, in_range, _ = _KINDS.get(self.kind, (None, None, None))
        value, valid = self.param, parameter_type is None and self.param is None
        if parameter_type and isinstance(value, numbers.Real) and not isinstance(value, bool):
            with contextlib.suppress(ValueError, OverflowError):  # int(nan), int(inf), float(10**400)
                value = parameter_type(self.param)
                valid = value == self.param and in_range(value)
        if not valid:
            raise ValueError(f"fiducial {self.kind!r} cannot take parameter {self.param!r}")
        object.__setattr__(self, "param", value)

    @classmethod
    def custom(cls, values) -> "FiducialSpec":
        v = as_state(values)
        if not np.isfinite(v).all():
            raise InputFormatError("custom fiducial window has a non-finite sample")
        return cls("custom", values=tuple(complex(x) for x in v))

    @classmethod
    def parse(cls, text: str) -> "FiducialSpec":
        """Parse a CLI spec string such as ``von_mises:400`` or ``constant``.

        An unknown kind, an argument to a kind that takes none, or one that
        is not a finite number of the kind's type raises
        :class:`InputFormatError`; one out of range raises ``ValueError``.
        """
        name, _, arg = text.partition(":")
        name = name.strip()
        if name not in _KINDS:
            raise InputFormatError(f"unknown fiducial kind {name!r}")
        parameter_type = _KINDS[name][0]
        if parameter_type is None:
            if arg:
                raise InputFormatError(f"fiducial {name!r} takes no parameter, got {arg!r}")
            return cls(name)
        value = None
        with contextlib.suppress(ValueError):
            value = parameter_type(arg)
        if value is None or parameter_type is float and not math.isfinite(value):
            raise InputFormatError(f"fiducial {name!r} needs a finite {parameter_type.__name__} "
                                   f"parameter, got {arg!r}")
        return cls(name, value)


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


#: kind -> (parameter type or None, range test, realizer (d, param) -> window up to a positive factor)
_KINDS = {
    "constant": (None, None, lambda d, _: np.ones(d)),
    "kronecker": (int, lambda k: k >= 0, lambda d, k: np.arange(d) == k),
    "plane_wave": (int, lambda k: k >= 0,
                   lambda d, k: phase_table(d, k * np.arange(d)) / np.sqrt(d)),
    "gaussian": (float, lambda kappa: 0 < kappa < math.inf,
                 lambda d, kappa: _periodized_gaussian(d, kappa * d)),
    # sum_{|k| <= j} exp(2i pi k l / d) / d: the inverse FFT of the indicator of |k| <= j
    "dirichlet": (int, lambda j: j >= 0,
                  lambda d, j: np.fft.ifft(np.minimum(np.arange(d), d - np.arange(d)) <= j).real),
    # peak-relative amplitudes: finite for any concentration (a clamped one gives 0 off the peak)
    "von_mises": (float, lambda lam: 0 <= lam < math.inf, lambda d, lam: np.exp(
        min(lam, np.finfo(float).max / 2) * (phase_table(d, np.arange(d)).real - 1.0))),
}


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
    if spec.kind == "custom":
        return _guard_normalize(as_state(np.array(spec.values), d=d))
    if spec.kind in ("kronecker", "plane_wave") and spec.param >= d:
        raise ValueError(f"basis label k={spec.param} out of range [0, {d})")
    if spec.kind == "dirichlet" and 2 * spec.param + 1 > d:
        raise ValueError(f"dirichlet order j={spec.param} needs 2j+1 <= d={d}")
    return _guard_normalize(_KINDS[spec.kind][2](d, spec.param))
