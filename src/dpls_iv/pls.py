"""Partial least squares on the augmented instruments.

The closed form, the estimator the network and the PLS baseline use, evaluates

    coef = W W' s_zp

over the PLS weights W: a d x q basis of the Krylov space spanned by s_zp,
S_zz s_zp, ..., S_zz^{q-1} s_zp that is orthonormal in the S_zz inner
product (W' S_zz W = I), built as a matrix by one Lanczos recurrence
(Helland 1988; Eldén 2004). It equals R (R' S_zz R)^-1 R' s_zp for the raw
Krylov matrix R without forming R, whose columns turn numerically dependent
early. The tests hold it to deflation PLS (tests/pls_oracle.py), which
drifts past q = 16 on experiment1, and there to the q-th conjugate-gradient
iterate on S_zz b = s_zp in 60 digits.

select_q_cv picks q <= q_max by CV_FOLDS-fold cross-validation, each fold
scoring its whole coefficient path at once; q = "auto" caps q_max at AUTO_Q_CAP.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CV_FOLDS, SeededRng, _check_width, _heldout_sse, check_design, check_int
from .errors import DataError, SingularDesignError

__all__ = [
    "PlsFit",
    "compute_krylov",
    "fit_pls_closed_form",
    "select_q_cv",
]

_RANK_RTOL = 1e-10

# Largest q tried when q is chosen by cross-validation (q = "auto").
AUTO_Q_CAP = 30


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
    """Centered S_zz and s_zp: the n-1 divisor, exact two-pass centering."""
    zbar, p = check_design(zbar, p)
    n = zbar.shape[0]
    if n < 2:
        raise DataError("need n >= 2 for a sample covariance")
    means = zbar.mean(axis=0)
    p_mean = float(p.mean())
    zc = zbar - means
    s_zz = zc.T @ zc / (n - 1)
    s_zz = 0.5 * (s_zz + s_zz.T)
    s_zp = zc.T @ (p - p_mean) / (n - 1)
    return CovPair(s_zz=s_zz, s_zp=s_zp, means=means, p_mean=p_mean)


@dataclass(frozen=True)
class PlsFit:
    """Fitted PLS state: weights (d, q), means (d,) and y_loadings (q,).

    weights W holds the q projection directions, which fit_pls_closed_form
    makes S_zz-orthonormal, so the scores (zbar - means) @ W have mutually
    orthogonal columns. coef = weights @ y_loadings is the implied
    regression vector on the original (uncentered) columns, so predictions
    are p_mean + (zbar - means) @ coef. coef and q are derived, not stored.
    """

    y_loadings: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    p_mean: float

    def __post_init__(self):
        d, q = np.shape(self.means), np.shape(self.y_loadings)
        if (len(d), len(q)) != (1, 1) or np.shape(self.weights) != d + q:
            raise DataError(
                f"PLS weights {np.shape(self.weights)}, means {d} and "
                f"y_loadings {q} do not fit together"
            )

    @property
    def coef(self) -> np.ndarray:
        return self.weights @ self.y_loadings

    @property
    def q(self) -> int:
        return self.weights.shape[1]

    def predict(self, zbar) -> np.ndarray:
        zbar = _check_width(zbar, len(self.means))
        return self.p_mean + (zbar - self.means) @ self.coef


def compute_krylov(cov: CovPair, q: int) -> np.ndarray:
    """PLS weights W, shape (d, rank), with W'S_zzW = I: the Lanczos basis of
    the Krylov space span(s_zp, S_zz s_zp, ..., S_zz^{q-1} s_zp) in the S_zz
    inner product.

    W and its image S_zz W fill two d x q arrays. Each next direction v is
    S_zz w for the last weight w. Classical Gram-Schmidt run twice removes its
    part along the k kept weights, v -= W[:, :k] (S_zz W[:, :k])' v, and v is
    normalized in the S_zz norm; rank < q when that norm falls to _RANK_RTOL
    of its value before the passes.
    """
    if check_int("q", q) < 1:
        raise DataError("q must be at least 1")
    s_zz, s_zp = cov.s_zz, cov.s_zp
    if not np.any(s_zp):
        raise DataError("s_zp is the zero vector: no instrument-policy covariance")
    weights = np.empty((len(s_zp), q), order="F")
    images = np.empty_like(weights)  # S_zz @ weights
    v, rank = s_zp.copy(), 0
    while rank < q:
        norm0 = float(np.sqrt(max(v @ (s_zz @ v), 0.0)))
        for _ in range(2):
            v -= weights[:, :rank] @ (images[:, :rank].T @ v)
        sv = s_zz @ v
        nv = float(np.sqrt(max(v @ sv, 0.0)))
        if norm0 == 0.0 or nv <= _RANK_RTOL * norm0:
            break
        weights[:, rank] = v / nv
        v = images[:, rank] = sv / nv
        rank += 1
    return np.ascontiguousarray(weights[:, :rank])


def fit_pls_closed_form(zbar, p, q: int) -> PlsFit:
    """Krylov closed-form PLS of the policy on the augmented instruments."""
    cov = sample_cov_pair(zbar, p)
    d = len(cov.s_zp)
    if not (1 <= check_int("q", q) <= d):
        raise DataError(f"q must lie in [1, {d}]")
    weights = compute_krylov(cov, q)
    if weights.shape[1] < q:
        raise SingularDesignError(
            f"effective Krylov rank {weights.shape[1]} < requested q = {q}; reduce q"
        )
    return PlsFit(y_loadings=weights.T @ cov.s_zp, weights=weights, means=cov.means,
                  p_mean=cov.p_mean)


def select_q_cv(zbar, p, q_max: int, rng: SeededRng) -> int:
    """Pick q by minimizing mean out-of-fold squared error over CV_FOLDS folds.

    Folds are a seeded permutation sliced by stride. Each fold builds weights
    W up to its own Krylov rank. Column q of their cumulative path
    np.cumsum(W * (W' s_zp), axis=1) is the fold's fit with q components, and
    data._heldout_sse scores every column at once. Only q up to q_top,
    the smallest Krylov rank of all rows and of every fold that has one, is
    eligible, so every eligible q is scored on the same held-out rows and
    fit_pls_closed_form can fit the pick on all rows; a fold may reach a
    higher rank than all rows do. Ties break toward the smaller q.
    """
    zbar, p = check_design(zbar, p)
    n, d = zbar.shape
    if n < CV_FOLDS:
        raise DataError(f"need at least {CV_FOLDS} rows for {CV_FOLDS}-fold CV of q")
    if not (1 <= check_int("q_max", q_max) <= d):
        raise DataError(f"q_max must lie in [1, {d}]")
    perm = rng.permutation(n)
    sse = np.zeros(q_max)
    rows, q_top = 0, q_max
    for f in range(CV_FOLDS):
        test_idx = perm[f::CV_FOLDS]
        cov = sample_cov_pair(np.delete(zbar, test_idx, axis=0), np.delete(p, test_idx))
        try:
            weights = compute_krylov(cov, q_max)
        except DataError:
            continue
        path = np.cumsum(weights * (weights.T @ cov.s_zp), axis=1)
        sse[: path.shape[1]] += _heldout_sse(zbar[test_idx] - cov.means,
                                             p[test_idx] - cov.p_mean, path)
        rows += len(test_idx)
        q_top = min(q_top, path.shape[1])
    if not rows:
        raise DataError("no fold produced a usable PLS fit")
    q_top = min(q_top, compute_krylov(sample_cov_pair(zbar, p), q_max).shape[1])
    if q_top == 0:
        raise DataError("the Krylov space of all rows or of a fold is empty: no q can be fit")
    return int(np.argmin(sse[:q_top] / rows)) + 1
