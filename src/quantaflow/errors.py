"""Exception types shared across the package, and the one validation rule
of its array value types."""

from __future__ import annotations


class QuantaError(Exception):
    """Base class for all package errors."""


class DomainError(QuantaError):
    """An input value is outside the mathematically valid domain."""


class UnidentifiableError(DomainError):
    """Bit density at or below the read-noise floor: no finite exposure fits."""


class ShapeError(QuantaError):
    """Mismatched dimensions between paired objects."""


class DecodeError(QuantaError):
    """Malformed binary file.

    ``offset`` is the byte position at which decoding failed.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class IntegrationError(QuantaError):
    """ODE step-count cap exceeded; ``last_theta`` is the last accepted point."""

    def __init__(self, message, last_theta):
        super().__init__(f"{message} (last accepted theta_tilde = {last_theta})")
        self.last_theta = last_theta


def frozen_array(obj, attr: str, ndim: int, what: str) -> np.ndarray:
    """Store `obj.attr` back as a read-only float64 array and return it:
    ShapeError unless it has `ndim` axes, DomainError unless every entry
    is finite. The array types derive all their dimensions from it."""
    import numpy as np  # here, so that `errors` alone loads no NumPy
    a = np.asarray(getattr(obj, attr), dtype=np.float64)
    if a.ndim != ndim:
        raise ShapeError(f"{what} array must be {ndim}-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} entries must be finite")
    a.setflags(write=False)
    object.__setattr__(obj, attr, a)
    return a
