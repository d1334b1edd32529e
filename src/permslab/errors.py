"""Exception types raised by the permslab library.

Each class marks a distinct failure mode so that callers (and the CLI
exit-code mapping) can tell invalid input, numerical failure, and
degenerate data apart.
"""


class PermslabError(Exception):
    """Base class for all permslab-specific errors."""


class DegenerateGeometryError(PermslabError):
    """Slab multi-bounce series does not converge (resonant denominator)."""


class AllZeroSpectrumError(PermslabError):
    """Peak search requested on a spectrum with no nonzero bin."""


class CalibrationError(PermslabError):
    """Reference (metal) peak is too small to divide by."""


class AliasingError(PermslabError):
    """Per-step phase advance reaches pi; step direction is ambiguous."""


class DegenerateDataError(PermslabError):
    """Reflection data are indistinguishable from free space (all ~0)."""


class NoConvergenceError(PermslabError):
    """Every fit start exhausted its iteration cap without converging."""


class InfeasibleFitError(PermslabError):
    """A sweep mean |z*| >= 1, or no root of the sweep fit's gauge family lands in the box
    (rounding, overflow)."""


class DegenerateRegressionError(PermslabError):
    """Phase-slope regression on constant-phase data."""


class DatasetFormatError(PermslabError):
    """Dataset file is malformed or internally inconsistent."""
