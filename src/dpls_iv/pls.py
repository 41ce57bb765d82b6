"""Partial least squares on the augmented instruments.

Two routes to the same estimator are provided. The closed form evaluates

    coef = R (R' S_zz R)^-1 R' s_zp

on an orthonormalized copy of the Krylov matrix R = (s_zp, S_zz s_zp, ...),
which spans the identical subspace but stays numerically stable past q ~ 5.
The deflation route builds score/loading pairs one at a time, deflating only
the cross-product vector (the policy is scalar throughout). Both project the
policy onto the same Krylov space, so their predictions agree to tight
tolerance; the test suite leans on that equivalence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SeededRng
from .errors import DataError, SingularDesignError
from .statnum import CovPair, sample_cov_pair

__all__ = [
    "PlsFit",
    "compute_krylov",
    "fit_pls_closed_form",
    "fit_pls_deflation",
    "select_q_cv",
]

_RANK_RTOL = 1e-10

# Largest q tried when q is chosen by cross-validation (q = "auto").
AUTO_Q_CAP = 30


@dataclass(frozen=True)
class PlsFit:
    """Fitted PLS state.

    coef is the implied regression vector on the original (uncentered)
    columns; predictions are p_mean + (zbar - means) @ coef. weights W holds
    the projection directions (unit-norm for the deflation route,
    S_zz-orthonormal for the closed form), the scores (zbar - means) @ W have
    mutually orthogonal columns for both routes, and y_loadings is defined so
    that coef = weights @ y_loadings.
    """

    coef: np.ndarray
    q: int
    y_loadings: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    p_mean: float
    method: str

    def predict(self, zbar) -> np.ndarray:
        zbar = np.asarray(zbar, dtype=np.float64)
        return self.p_mean + (zbar - self.means) @ self.coef


def _mgs(columns, rtol=_RANK_RTOL):
    """Modified Gram-Schmidt with a second pass; drops dependent columns."""
    basis = []
    for j in range(columns.shape[1]):
        v = columns[:, j].copy()
        norm0 = float(np.linalg.norm(v))
        if norm0 == 0.0:
            continue
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
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
        for _ in range(2):
            for w, sw in zip(out, out_s):
                v -= (sw @ v) * w
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
    y_loadings = weights.T @ cov.s_zp
    coef = weights @ y_loadings
    return PlsFit(
        coef=coef,
        q=q,
        y_loadings=y_loadings,
        weights=weights,
        means=cov.means,
        p_mean=cov.p_mean,
        method="pls_closed_form",
    )


def fit_pls_deflation(zbar, p, q: int) -> PlsFit:
    """SIMPLS-style fit: deflate the cross-product vector only.

    The first direction is the dominant singular pair of the centered
    cross-product (for a scalar policy, the normalized cross-product vector
    itself). If the cross-product vanishes before q components are found,
    the fit stops and reports the achieved q.
    """
    zbar = np.asarray(zbar, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if zbar.ndim != 2 or p.shape != (zbar.shape[0],):
        raise DataError("zbar must be a matrix and p a matching vector")
    d = zbar.shape[1]
    if not (1 <= q <= d):
        raise DataError(f"q must lie in [1, {d}]")
    means = zbar.mean(axis=0)
    p_mean = float(p.mean())
    zc = zbar - means
    pc = p - p_mean
    s = zc.T @ pc
    s0 = float(np.linalg.norm(s))
    if s0 == 0.0:
        raise DataError(
            "s_zp is the zero vector: no instrument-policy covariance"
        )
    ws, y_loads = [], []
    loading_basis = []
    for _ in range(q):
        if float(np.linalg.norm(s)) <= 1e-12 * s0:
            break
        w = s / np.linalg.norm(s)
        t = zc @ w
        tn = float(np.linalg.norm(t))
        if tn <= 1e-12:
            break
        t = t / tn
        v = zc.T @ t
        q_a = float(pc @ t)
        ws.append(w)
        y_loads.append(q_a / tn)
        vb = v.copy()
        for _ in range(2):
            for b in loading_basis:
                vb -= (b @ vb) * b
        vbn = float(np.linalg.norm(vb))
        if vbn <= 1e-12 * float(np.linalg.norm(v)):
            break
        vb = vb / vbn
        loading_basis.append(vb)
        s = s - vb * (vb @ s)
    achieved = len(ws)
    if achieved == 0:
        raise DataError("no usable PLS component found")
    weights = np.column_stack(ws)
    y_loadings = np.asarray(y_loads)
    coef = weights @ y_loadings
    return PlsFit(
        coef=coef,
        q=achieved,
        y_loadings=y_loadings,
        weights=weights,
        means=means,
        p_mean=p_mean,
        method="pls_deflation",
    )


def select_q_cv(zbar, p, q_max: int, folds: int, rng: SeededRng) -> int:
    """Pick q by minimizing mean out-of-fold squared error.

    Folds are a seeded permutation sliced by stride. Ties break toward the
    smaller q. Fold fits reuse one Krylov basis per fold, so the scan over q
    costs little beyond a single q_max fit.
    """
    zbar = np.asarray(zbar, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n, d = zbar.shape
    if folds < 2 or folds > n:
        raise DataError("folds must lie in [2, n]")
    if not (1 <= q_max <= d):
        raise DataError(f"q_max must lie in [1, {d}]")
    perm = rng.permutation(n)
    sse = np.zeros(q_max)
    reached = np.zeros(q_max, dtype=bool)
    counts = np.zeros(q_max)
    for f in range(folds):
        test_idx = perm[f::folds]
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
    cov_full = sample_cov_pair(zbar, p)
    for qq in np.argsort(mean_err, kind="stable") + 1:
        if not np.isfinite(mean_err[qq - 1]):
            break
        try:
            basis = compute_krylov(cov_full, int(qq))
            if basis.shape[1] < qq:
                continue
            _s_orthonormalize(basis, cov_full.s_zz)
            return int(qq)
        except (DataError, SingularDesignError):
            continue
    raise DataError("no candidate q is fittable on the full data")
