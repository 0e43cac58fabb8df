"""Exception types shared across the package, and its one tolerance rule."""

from sys import float_info

__all__ = ["ToleranceError", "InputFormatError"]


class ToleranceError(RuntimeError):
    """An internal numerical guarantee failed beyond its tolerance."""


class InputFormatError(ValueError):
    """An input file or text could not be parsed."""


def bound(scale: float = 1.0) -> float:
    """1e-10 times ``scale``, or times the smallest normal double when below it, NaN or inf."""
    return 1e-10 * (scale if float_info.min < scale < float("inf") else float_info.min)
