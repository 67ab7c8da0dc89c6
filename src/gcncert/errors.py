"""Exception types shared across the package, and ``check_index``, its one integer check."""

from __future__ import annotations

import contextlib
import operator

import numpy as np


class GcnCertError(Exception):
    """Base class for all errors raised by this package."""


class DataError(GcnCertError):
    """Invalid input data: malformed files, broken invariants, bad indices."""


class DimensionError(DataError):
    """Matrix shapes do not chain."""


class OracleInfeasibleError(GcnCertError):
    """Exhaustive enumeration would exceed the configured candidate cap."""


def check_index(values: object, what: str, lo: int = 0, hi: int | None = None, *,
                many: bool = False) -> int | np.ndarray:
    """``values`` as an int in [lo, hi); with ``many``, a sequence as 1-D int64, checked whole first."""
    try:
        value = operator.index(values)
    except TypeError:
        value = None
    if value is not None and type(values) not in (bool, np.bool_):
        if lo <= value and (hi is None or value < hi):
            return value
        span = f"must be at least {lo}" if hi is None else f"out of range [{lo}, {hi})"
        raise DataError(f"{what} {span}, got {value}")
    if not (many and isinstance(values, (list, tuple, range, np.ndarray))
            and getattr(values, "ndim", 1) == 1):
        raise DataError(f"{what} must be an integer, got {values!r}")
    top = 2**63 if hi is None else hi  # a sequence must also fit int64
    with contextlib.suppress(OverflowError):  # raised by a Python integer beyond int64
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu" or all(
                t is int or issubclass(t, np.integer) for t in set(map(type, values))):
            array = values if isinstance(values, np.ndarray) else np.array(values, dtype=np.int64)
            if not ((array < lo).any() or (array >= top).any()):
                return array.astype(np.int64, copy=False)
    for k, x in enumerate(values):  # the check failed: name the first bad entry
        try:
            check_index(x, what, lo, top)
        except DataError as exc:
            raise DataError(f"{exc} at position {k}") from None
