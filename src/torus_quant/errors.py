"""Exception types shared across the package, and its one tolerance rule."""

from sys import float_info

__all__ = ["ToleranceError", "InputFormatError"]


class ToleranceError(RuntimeError):
    """An internal numerical guarantee failed: check ``key``'s ``residual`` is above ``bound``."""

    def __init__(self, key: str, residual: float, bound: float, message: str = ""):
        super().__init__(message or f"{key} {residual:.3e} exceeds {bound:.3e}")
        self.key, self.residual, self.bound = key, residual, bound


class InputFormatError(ValueError):
    """An input file or text could not be parsed."""


def bound(scale: float = 1.0) -> float:
    """1e-10 times ``scale``, or times the smallest normal double when below it, NaN or inf."""
    return 1e-10 * (scale if float_info.min < scale < float("inf") else float_info.min)


def hold(key: str, residual: float, scale: float = 1.0) -> None:
    """Raise :class:`ToleranceError` for ``key`` unless ``residual <= bound(scale)``; NaN fails."""
    if not residual <= bound(scale):
        raise ToleranceError(key, float(residual), bound(scale))
