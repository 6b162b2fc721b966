"""Exception and warning types shared across the package.

Each error class holds the command line's exit code in its attribute
``exit_code``: 2 (configuration error) by default, 3 (verification
failure) and 4 (I/O error) where a class sets it.  ``OSError`` exits 4.
"""

__all__ = [
    "RotorGpeError",
    "ConfigInvalid",
    "WindowViolation",
    "GridTooLarge",
    "InvalidExponent",
    "QFactorizationSingular",
    "ResolutionTooLow",
    "BlowupDetected",
    "NoContraction",
    "SnapshotFormatError",
    "AliasRisk",
    "BoundaryTruncation",
]


class RotorGpeError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class ConfigInvalid(RotorGpeError, ValueError):
    """A configuration value is missing, malformed, or out of range.

    The message always starts with the dotted path of the offending
    field, e.g. ``physics.omega: must be >= 1``.
    """


class WindowViolation(RotorGpeError, ValueError):
    """A kernel-backed operation was requested outside its validity window.

    The closed-form propagator kernel only holds for times in
    ``(0, pi/(4*omega)]``; longer evolutions must be chained window by
    window by the solver.
    """


class GridTooLarge(RotorGpeError, ValueError):
    """The dense-quadrature propagator was asked to exceed its size cap."""


class InvalidExponent(RotorGpeError, ValueError):
    """A Lebesgue exponent outside the admissible range was requested."""


class QFactorizationSingular(RotorGpeError, ValueError):
    """The cotangent chirp factorization does not exist at t = 0."""


class ResolutionTooLow(RotorGpeError, ValueError):
    """The requested feature cannot be represented on the given grid."""


class BlowupDetected(RotorGpeError, RuntimeError):
    """The field amplitude grew past the configured guard threshold."""

    exit_code = 3


class NoContraction(RotorGpeError, RuntimeError):
    """A fixed-point iteration is measurably failing to contract."""

    exit_code = 3


class SnapshotFormatError(RotorGpeError, ValueError):
    """A snapshot file or its sidecar does not match the binary contract."""

    exit_code = 4


class AliasRisk(UserWarning):
    """The kernel chirp is undersampled on the current grid.

    Emitted when ``omega * cot(omega*t) * extent * h > pi``: beyond that
    point the quadratic phase of the integral kernel advances by more
    than one half-cycle per grid cell and aliased images contaminate the
    quadrature.
    """


class BoundaryTruncation(UserWarning):
    """A non-negligible fraction of the mass sits near the box boundary."""
