"""Exception hierarchy for the vertical power delivery library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors (``TypeError`` and friends pass through).
"""

from __future__ import annotations

import math

import numpy as np


class ReproError(Exception):
    """Base class for all library-raised errors."""


class ConfigError(ReproError):
    """A system/architecture configuration is inconsistent or out of range."""


def require_finite(value, name: str) -> None:
    """Reject NaN/inf anywhere in a scalar or array input, by name.

    The range guards (``<= 0``, ``< 0``) are all false for NaN, so this
    check runs first at every boundary.  Plain Python numbers skip
    numpy: building a design checks thousands of scalars.
    """
    if isinstance(value, (int, float)):
        finite = math.isfinite(value)
    else:
        finite = np.all(np.isfinite(value))
    if not finite:
        raise ConfigError(f"{name} must be finite")


class InfeasibleError(ReproError):
    """A requested design point violates a hard constraint.

    Examples: a converter asked to supply more than its maximum load
    current (the paper excludes 3LHD from Fig. 7 for exactly this
    reason), or a placement that does not fit the available area.
    """


class SolverError(ReproError):
    """The network solver could not produce a solution (singular or
    disconnected system, non-finite values)."""


class CalibrationError(ReproError):
    """A loss-model fit could not satisfy the published data points."""


class DatasetError(ReproError):
    """A dataset lookup failed (unknown entry, malformed record)."""
