"""Partial least squares on the augmented instruments.

The closed form, the estimator the network and the PLS baseline use, evaluates

    coef = R (R' S_zz R)^-1 R' s_zp

on an orthonormalized copy of the Krylov matrix R = (s_zp, S_zz s_zp, ...),
which spans the identical subspace but stays numerically stable past q ~ 5.
The tests hold it to an independent reference, deflation PLS
(tests/pls_oracle.py), which builds score/loading pairs one at a time,
deflating only the cross-product vector (the policy is scalar throughout).
Both project the policy onto the same Krylov space, so their predictions
agree to tight tolerance.

select_q_cv picks q by CV_FOLDS-fold cross-validation over q <= q_max;
callers with q = "auto" cap q_max at AUTO_Q_CAP.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SeededRng, check_design
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
    """Fitted PLS state.

    weights W holds the q projection directions (unit-norm for the deflation
    route, S_zz-orthonormal for the closed form); the scores
    (zbar - means) @ W have mutually orthogonal columns for both routes.
    coef = weights @ y_loadings is the implied regression vector on the
    original (uncentered) columns, so predictions are
    p_mean + (zbar - means) @ coef. coef and q are derived, not stored.
    """

    y_loadings: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    p_mean: float

    @property
    def coef(self) -> np.ndarray:
        return self.weights @ self.y_loadings

    @property
    def q(self) -> int:
        return self.weights.shape[1]

    def predict(self, zbar) -> np.ndarray:
        zbar = np.asarray(zbar, dtype=np.float64)
        return self.p_mean + (zbar - self.means) @ self.coef


def _reorthogonalize(v, basis, images):
    """Two in-place Gram-Schmidt passes of v; its basis[i] part is images[i] @ v."""
    for _ in range(2):
        for b, image in zip(basis, images):
            v -= (image @ v) * b


def _mgs(columns, rtol=_RANK_RTOL):
    """Modified Gram-Schmidt with a second pass; drops dependent columns."""
    basis = []
    for j in range(columns.shape[1]):
        v = columns[:, j].copy()
        norm0 = float(np.linalg.norm(v))
        if norm0 == 0.0:
            continue
        _reorthogonalize(v, basis, basis)
        nv = float(np.linalg.norm(v))
        if nv > rtol * norm0:
            basis.append(v / nv)
    if not basis:
        return np.zeros((columns.shape[0], 0))
    return np.column_stack(basis)


def compute_krylov(cov: CovPair, q: int) -> np.ndarray:
    """Orthonormal basis, shape (d, rank), of the Krylov matrix
    (s_zp, S_zz s_zp, ..., S_zz^{q-1} s_zp); rank < q when _mgs drops a
    numerically dependent column."""
    if q < 1:
        raise DataError("q must be at least 1")
    s_zz, s_zp = cov.s_zz, cov.s_zp
    if not np.any(s_zp):
        raise DataError(
            "s_zp is the zero vector: no instrument-policy covariance"
        )
    cols = np.empty((len(s_zp), q))
    cols[:, 0] = s_zp
    for j in range(1, q):
        cols[:, j] = s_zz @ cols[:, j - 1]
    return _mgs(cols)


def _s_orthonormalize(basis, s_zz):
    """Gram-Schmidt in the S_zz inner product; WtSW = I on exit."""
    out = []
    out_s = []  # cached S_zz @ w for each kept direction
    for j in range(basis.shape[1]):
        v = basis[:, j].copy()
        norm0 = float(np.sqrt(max(v @ (s_zz @ v), 0.0)))
        _reorthogonalize(v, out, out_s)
        sv = s_zz @ v
        nv = float(np.sqrt(max(v @ sv, 0.0)))
        if norm0 == 0.0 or nv <= _RANK_RTOL * norm0:
            raise SingularDesignError(
                "R'S_zzR is singular at this q; reduce q"
            )
        out.append(v / nv)
        out_s.append(sv / nv)
    return np.column_stack(out)


def fit_pls_closed_form(zbar, p, q: int) -> PlsFit:
    """Krylov closed-form PLS of the policy on the augmented instruments."""
    cov = sample_cov_pair(zbar, p)
    d = len(cov.s_zp)
    if not (1 <= q <= d):
        raise DataError(f"q must lie in [1, {d}]")
    basis = compute_krylov(cov, q)
    if basis.shape[1] < q:
        raise SingularDesignError(
            f"effective Krylov rank {basis.shape[1]} < requested q = {q}; reduce q"
        )
    weights = _s_orthonormalize(basis, cov.s_zz)
    return PlsFit(y_loadings=weights.T @ cov.s_zp, weights=weights, means=cov.means,
                  p_mean=cov.p_mean)


def select_q_cv(zbar, p, q_max: int, rng: SeededRng) -> int:
    """Pick q by minimizing mean out-of-fold squared error over CV_FOLDS folds.

    Folds are a seeded permutation sliced by stride. Ties break toward the
    smaller q. Fold fits reuse one Krylov basis per fold, so the scan over q
    costs little beyond a single q_max fit.
    """
    zbar, p = check_design(zbar, p)
    n, d = zbar.shape
    if n < CV_FOLDS:
        raise DataError(f"need at least {CV_FOLDS} rows for {CV_FOLDS}-fold CV of q")
    if not (1 <= q_max <= d):
        raise DataError(f"q_max must lie in [1, {d}]")
    perm = rng.permutation(n)
    sse = np.zeros(q_max)
    reached = np.zeros(q_max, dtype=bool)
    counts = np.zeros(q_max)
    for f in range(CV_FOLDS):
        test_idx = perm[f::CV_FOLDS]
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        cov = sample_cov_pair(zbar[mask], p[mask])
        try:
            weights = _s_orthonormalize(compute_krylov(cov, q_max), cov.s_zz)
        except (DataError, SingularDesignError):
            continue
        zc_te = zbar[test_idx] - cov.means
        proj = weights.T @ cov.s_zp
        for qq in range(1, weights.shape[1] + 1):
            coef = weights[:, :qq] @ proj[:qq]
            pred = cov.p_mean + zc_te @ coef
            sse[qq - 1] += float(np.sum((p[test_idx] - pred) ** 2))
            reached[qq - 1] = True
            counts[qq - 1] += len(test_idx)
    if not reached.any():
        raise DataError("no fold produced a usable PLS fit")
    mean_err = np.where(reached, sse / np.maximum(counts, 1), np.inf)
    # the winner must also be fittable on the full data: the achievable
    # Krylov rank shrinks with the training share, so walk the candidates
    # in score order and return the first that survives a full-data fit
    for qq in np.argsort(mean_err, kind="stable") + 1:
        if not np.isfinite(mean_err[qq - 1]):
            break
        try:
            fit_pls_closed_form(zbar, p, int(qq))
            return int(qq)
        except (DataError, SingularDesignError):
            continue
    raise DataError("no candidate q is fittable on the full data")
