"""Partial least squares on the augmented instruments.

The closed form, the estimator the network and the PLS baseline use, evaluates

    coef = W W' s_zp

over the PLS weights W: a basis of the Krylov space spanned by s_zp,
S_zz s_zp, ..., S_zz^{q-1} s_zp that is orthonormal in the S_zz inner
product (W' S_zz W = I), built by one Lanczos recurrence (Helland 1988;
Eldén 2004). It equals R (R' S_zz R)^-1 R' s_zp for the raw Krylov matrix R
without forming R, whose columns turn numerically dependent early. The
tests hold it to deflation PLS (tests/pls_oracle.py), which deflates only
the cross-product vector and drifts past q = 16 on experiment1, and there
to the q-th conjugate-gradient iterate on S_zz b = s_zp in 60 digits.

select_q_cv picks q by CV_FOLDS-fold cross-validation over q <= q_max;
callers with q = "auto" cap q_max at AUTO_Q_CAP.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SeededRng, _check_width, check_design
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
# Folds of the cross-validation that chooses q.
CV_FOLDS = 5


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
    pc = p - p_mean
    s_zz = zc.T @ zc / (n - 1)
    s_zz = 0.5 * (s_zz + s_zz.T)
    s_zp = zc.T @ pc / (n - 1)
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

    Each next direction is S_zz w for the last weight w. Its part along
    every kept weight is removed twice, and it is normalized in the S_zz
    norm; rank < q when that norm falls to _RANK_RTOL of its value before
    the passes.
    """
    if q < 1:
        raise DataError("q must be at least 1")
    s_zz, s_zp = cov.s_zz, cov.s_zp
    if not np.any(s_zp):
        raise DataError(
            "s_zp is the zero vector: no instrument-policy covariance"
        )
    weights = []
    images = []  # S_zz @ w for each kept weight
    v = s_zp.copy()
    while len(weights) < q:
        norm0 = float(np.sqrt(max(v @ (s_zz @ v), 0.0)))
        for _ in range(2):  # Gram-Schmidt in the S_zz inner product, twice
            for w, image in zip(weights, images):
                v -= (image @ v) * w
        sv = s_zz @ v
        nv = float(np.sqrt(max(v @ sv, 0.0)))
        if norm0 == 0.0 or nv <= _RANK_RTOL * norm0:
            break
        weights.append(v / nv)
        images.append(sv / nv)
        v = images[-1].copy()
    return np.column_stack(weights) if weights else np.zeros((len(s_zp), 0))


def fit_pls_closed_form(zbar, p, q: int) -> PlsFit:
    """Krylov closed-form PLS of the policy on the augmented instruments."""
    cov = sample_cov_pair(zbar, p)
    d = len(cov.s_zp)
    if not (1 <= q <= d):
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

    Folds are a seeded permutation sliced by stride. Each fold scores every
    q up to its own Krylov rank from one set of weights. Only q up to q_top,
    the smallest Krylov rank of all rows and of every fold that has one, is
    eligible, so every eligible q is scored on the same held-out rows and
    fit_pls_closed_form can fit the pick on all rows; a fold may reach a
    higher rank than all rows do. Ties break toward the smaller q.
    """
    zbar, p = check_design(zbar, p)
    n, d = zbar.shape
    if n < CV_FOLDS:
        raise DataError(f"need at least {CV_FOLDS} rows for {CV_FOLDS}-fold CV of q")
    if not (1 <= q_max <= d):
        raise DataError(f"q_max must lie in [1, {d}]")
    perm = rng.permutation(n)
    sse = np.zeros(q_max)
    rows, q_top = 0, q_max
    for f in range(CV_FOLDS):
        test_idx = perm[f::CV_FOLDS]
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        cov = sample_cov_pair(zbar[mask], p[mask])
        try:
            weights = compute_krylov(cov, q_max)
        except DataError:
            continue
        zc_te = zbar[test_idx] - cov.means
        proj = weights.T @ cov.s_zp
        for qq in range(1, weights.shape[1] + 1):
            coef = weights[:, :qq] @ proj[:qq]
            pred = cov.p_mean + zc_te @ coef
            sse[qq - 1] += float(np.sum((p[test_idx] - pred) ** 2))
        rows += len(test_idx)
        q_top = min(q_top, weights.shape[1])
    if not rows:
        raise DataError("no fold produced a usable PLS fit")
    q_top = min(q_top, compute_krylov(sample_cov_pair(zbar, p), q_max).shape[1])
    if q_top == 0:
        raise DataError("the Krylov space of all rows or of a fold is empty: no q can be fit")
    return int(np.argmin(sse[:q_top] / rows)) + 1
