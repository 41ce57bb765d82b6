"""Sample covariance operators.

The covariance pair (S_zz, s_zp) uses the n-1 divisor and exact two-pass
centering; downstream PLS consumes both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["CovPair", "sample_cov_pair"]


@dataclass(frozen=True)
class CovPair:
    """Sample covariance of the augmented instruments and the policy.

    s_zz: (m+k) x (m+k), symmetrized; s_zp: length m+k; means and p_mean are
    the centering constants.
    """

    s_zz: np.ndarray
    s_zp: np.ndarray
    means: np.ndarray
    p_mean: float


def sample_cov_pair(zbar, p) -> CovPair:
    """Centered covariance matrix S_zz and cross-covariance vector s_zp."""
    zbar = np.asarray(zbar, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if zbar.ndim != 2:
        raise DataError("zbar must be a matrix")
    n = zbar.shape[0]
    if p.shape != (n,):
        raise DataError("p must be a vector with one entry per row of zbar")
    if n < 2:
        raise DataError("need n >= 2 for a sample covariance")
    means = zbar.mean(axis=0)
    p_mean = float(p.mean())
    zc = zbar - means
    pc = p - p_mean
    s_zz = zc.T @ zc / (n - 1)
    s_zz = 0.5 * (s_zz + s_zz.T)
    s_zp = zc.T @ pc / (n - 1)
    return CovPair(s_zz=s_zz, s_zp=s_zp, means=means, p_mean=p_mean)

