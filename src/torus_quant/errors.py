"""Exception types shared across the package, and its one tolerance rule."""

__all__ = ["ToleranceError", "InputFormatError"]


class ToleranceError(RuntimeError):
    """An internal numerical guarantee failed beyond its tolerance."""


class InputFormatError(ValueError):
    """An input file or text could not be parsed."""


def bound(scale: float = 1.0) -> float:
    """Residual bound for inputs of size ``scale``: 1e-10 relative, at least 1e-10."""
    return 1e-10 * (scale if 1.0 < scale < float("inf") else 1.0)
