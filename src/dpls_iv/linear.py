"""Baseline linear solvers: OLS, ridge, and coordinate-descent lasso.

These serve both as standalone comparators and as the per-layer solvers
inside the deep PLS network. The lasso objective is

    (1 / (2n)) * ||y - X b||^2 + lam * ||b||_1

so the all-zero solution is optimal exactly when lam >= max_j |X_j' y| / n
at b = 0. No internal rescaling of columns is performed; callers control
the scale of their designs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import ConvergenceError, DataError, SingularDesignError

__all__ = [
    "LinearFit",
    "fit_ols",
    "fit_ridge",
    "fit_lasso",
    "soft_threshold",
]


@dataclass(frozen=True)
class LinearFit:
    """Coefficients plus the metadata needed to reproduce the fit."""

    coef: np.ndarray
    intercept: float
    method: str
    lam: float = 0.0

    def predict(self, design) -> np.ndarray:
        design = np.asarray(design, dtype=np.float64)
        return design @ self.coef + self.intercept


def _check_design(design, target):
    design = np.asarray(design, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if design.ndim != 2 or design.shape[1] < 1:
        raise DataError("design must be a matrix with at least one column")
    if target.shape != (design.shape[0],):
        raise DataError("target length must match design row count")
    if design.shape[0] < 1:
        raise DataError("design must have at least one row")
    return design, target


def _center(design, target, fit_intercept):
    if not fit_intercept:
        return design, target, np.zeros(design.shape[1]), 0.0
    means = design.mean(axis=0)
    y_mean = float(target.mean())
    return design - means, target - y_mean, means, y_mean


def fit_ols(design, target, fit_intercept: bool = False, rtol: float = 1e-10) -> LinearFit:
    """Least squares via pivoted QR with an explicit rank check.

    Raises SingularDesignError when any pivoted diagonal of R falls below
    rtol times the leading one; callers wanting a ridge fallback catch it.
    """
    design, target = _check_design(design, target)
    xc, yc, means, y_mean = _center(design, target, fit_intercept)
    q, r, piv = linalg.qr(xc, mode="economic", pivoting=True)
    d = design.shape[1]
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0 or np.any(diag < rtol * diag[0]):
        raise SingularDesignError(
            f"design is rank-deficient (effective rank < {d})"
        )
    coef_piv = linalg.solve_triangular(r, q.T @ yc)
    coef = np.empty(d)
    coef[piv] = coef_piv
    intercept = y_mean - float(means @ coef)
    return LinearFit(coef=coef, intercept=intercept, method="ols", lam=0.0)


def fit_ridge(design, target, lam, fit_intercept: bool = False) -> LinearFit:
    """Shifted normal equations (X'X + lam I) b = X'y.

    The identity is sized to the design's column count. lam = 0 delegates to
    fit_ols and inherits its error rules; lam = "auto" picks lam by 5-fold
    cross-validation over a 50-point logarithmic grid.
    """
    design, target = _check_design(design, target)
    if isinstance(lam, str):
        if lam != "auto":
            raise DataError("lam must be a non-negative real or 'auto'")
        lam = _cv_lambda(design, target, "ridge", fit_intercept)
    lam = float(lam)
    if lam < 0:
        raise DataError("lam must be non-negative")
    if lam == 0.0:
        fit = fit_ols(design, target, fit_intercept=fit_intercept)
        return LinearFit(fit.coef, fit.intercept, "ridge", 0.0)
    xc, yc, means, y_mean = _center(design, target, fit_intercept)
    d = design.shape[1]
    gram = xc.T @ xc + lam * np.eye(d)
    coef = linalg.solve(gram, xc.T @ yc, assume_a="pos")
    intercept = y_mean - float(means @ coef)
    return LinearFit(coef=coef, intercept=intercept, method="ridge", lam=lam)


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _lasso_objective(xc, yc, coef, lam):
    resid = yc - xc @ coef
    n = len(yc)
    return 0.5 * float(resid @ resid) / n + lam * float(np.abs(coef).sum())


def fit_lasso(
    design,
    target,
    lam,
    tol: float = 1e-10,
    max_iter: int = 1000,
    fit_intercept: bool = False,
) -> LinearFit:
    """Cyclic coordinate descent for the l1-penalized least squares.

    Gram and cross products are precomputed once, so each coordinate update
    is O(d). Exits when the objective decrease over a full sweep drops below
    tol; exceeding max_iter sweeps raises ConvergenceError carrying the last
    iterate.
    """
    design, target = _check_design(design, target)
    if isinstance(lam, str):
        if lam != "auto":
            raise DataError("lam must be a non-negative real or 'auto'")
        lam = _cv_lambda(design, target, "lasso", fit_intercept)
    lam = float(lam)
    if lam < 0:
        raise DataError("lam must be non-negative")
    xc, yc, means, y_mean = _center(design, target, fit_intercept)
    coef = _lasso_cd(xc, yc, lam, tol, max_iter)
    intercept = y_mean - float(means @ coef)
    return LinearFit(coef=coef, intercept=intercept, method="lasso", lam=lam)


def _lasso_cd(xc, yc, lam, tol, max_iter, warm=None):
    n, d = xc.shape
    gram = xc.T @ xc / n
    cross = xc.T @ yc / n
    coef = np.zeros(d) if warm is None else warm.astype(np.float64).copy()
    gdiag = np.diag(gram).copy()
    prev_obj = _lasso_objective(xc, yc, coef, lam)
    for _ in range(max_iter):
        for j in range(d):
            if gdiag[j] <= 0.0:
                coef[j] = 0.0  # constant-zero column carries no signal
                continue
            rho = cross[j] - gram[j] @ coef + gdiag[j] * coef[j]
            coef[j] = soft_threshold(rho, lam) / gdiag[j]
        obj = _lasso_objective(xc, yc, coef, lam)
        if prev_obj - obj < tol:
            return coef
        prev_obj = obj
    raise ConvergenceError(
        f"lasso did not converge in {max_iter} sweeps", last_iterate=coef
    )


def _cv_lambda(design, target, method, fit_intercept, n_folds=5, n_grid=50):
    """5-fold CV over a descending 50-point log grid; ties keep more shrinkage.

    Folds are strided row slices (fold i takes rows i::n_folds), which is
    deterministic without threading an rng through every fit call.
    """
    n = design.shape[0]
    if n < 2 * n_folds:
        raise DataError(f"need at least {2 * n_folds} rows for {n_folds}-fold CV")
    yc = target - target.mean() if fit_intercept else target
    lam_max = float(np.max(np.abs(design.T @ yc))) / n
    if lam_max <= 0.0:
        return 0.0
    grid = np.geomspace(lam_max * 10.0, lam_max * 1e-4, n_grid)
    errors = np.zeros(n_grid)
    for fold in range(n_folds):
        mask = np.zeros(n, dtype=bool)
        mask[fold::n_folds] = True
        x_tr, y_tr = design[~mask], target[~mask]
        x_te, y_te = design[mask], target[mask]
        warm = None
        for gi, lam in enumerate(grid):
            if method == "lasso":
                xc, yt, means, y_mean = _center(x_tr, y_tr, fit_intercept)
                try:
                    coef = _lasso_cd(xc, yt, lam, 1e-8, 1000, warm=warm)
                except ConvergenceError as err:
                    coef = err.last_iterate
                warm = coef
                pred = x_te @ coef + (y_mean - means @ coef)
            else:
                fit = fit_ridge(x_tr, y_tr, lam, fit_intercept=fit_intercept)
                pred = fit.predict(x_te)
            errors[gi] += float(np.sum((y_te - pred) ** 2))
    best = int(np.argmin(errors))  # first index in the descending grid
    return float(grid[best])
