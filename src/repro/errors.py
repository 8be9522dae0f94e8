"""Exception hierarchy for the vertical power delivery library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors (``TypeError`` and friends pass through).
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class ReproError(Exception):
    """Base class for all library-raised errors."""


class ConfigError(ReproError):
    """A system/architecture configuration is inconsistent or out of range."""


def require_finite(value, name: str) -> None:
    """Reject NaN/inf anywhere in a scalar or array input, by name,
    and complex input as :func:`require_real` does.

    The range guards (``<= 0``, ``< 0``) are all false for NaN, so this
    check runs first at every boundary.  Plain Python numbers skip
    numpy: building a design checks thousands of scalars.
    """
    if isinstance(value, (int, float)):
        finite = math.isfinite(value)
    else:
        finite = np.all(np.isfinite(require_real(np.asarray(value), name)))
    if not finite:
        raise ConfigError(f"{name} must be finite")


def require_real(value, name: str):
    """``value`` unless it is complex, which raises :class:`ConfigError`
    naming ``name``.  Runs before a boundary's float conversion, which
    would drop the imaginary part with no more than a warning."""
    if np.iscomplexobj(value):
        raise ConfigError(f"{name} must be real")
    return value


def require_count(value, name: str, minimum: int) -> int:
    """``value`` as an int: a whole number (``3`` or ``3.0``) of at
    least ``minimum``; a fraction, NaN/inf, a boolean or a non-number
    raises :class:`ConfigError` naming ``name``."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def require_indices(value, name: str) -> np.ndarray:
    """Indices (a scalar or a 1-D set) as int64, checked by name.

    The whole-number rule of :func:`require_count` for index sets:
    ``2`` and ``2.0`` are index 2, while a fraction, NaN/inf, a boolean
    or a non-number raises :class:`ConfigError` — a plain
    ``astype(int)`` would pick index 2 for ``2.7`` and index 1 for
    ``True``.  So do a ragged sequence and a nested (2-D or deeper)
    one: an index set is flat.  An empty sequence is a valid (empty)
    index set.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ConfigError(
            f"{name} must be a scalar or a 1-D index set, got a ragged "
            "sequence"
        ) from None
    if arr.ndim > 1:
        raise ConfigError(
            f"{name} must be a scalar or a 1-D index set, got shape "
            f"{arr.shape}"
        )
    if not arr.size:
        return np.zeros(arr.shape, dtype=np.int64)
    if arr.dtype.kind == "f":
        require_finite(arr, name)
        whole = np.array_equal(arr, np.trunc(arr))
    else:
        whole = arr.dtype.kind in "iu"
    if not whole:
        raise ConfigError(f"{name} must be whole-number indices")
    return arr.astype(np.int64)


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
