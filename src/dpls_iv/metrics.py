"""Out-of-sample fit metrics."""
from __future__ import annotations

import numpy as np

from .errors import DataError, DegenerateDataError

__all__ = ["r_squared", "rmse"]


def _pair(actual, predicted):
    a = np.asarray(actual, dtype=np.float64).ravel()
    b = np.asarray(predicted, dtype=np.float64).ravel()
    if a.shape != b.shape or len(a) < 2:
        raise DataError("actual and predicted must be equal-length vectors, n >= 2")
    return a, b


def r_squared(actual, predicted) -> float:
    """1 - SS_residual / SS_total; undefined for a constant actual."""
    a, b = _pair(actual, predicted)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateDataError("R^2 undefined: actual values are constant")
    return 1.0 - float(np.sum((a - b) ** 2)) / ss_tot


def rmse(actual, predicted) -> float:
    a, b = _pair(actual, predicted)
    return float(np.sqrt(np.mean((a - b) ** 2)))

