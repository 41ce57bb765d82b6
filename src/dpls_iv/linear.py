"""Baseline linear solvers: OLS, ridge, and lasso.

They are the benchmark's linear first stages, and OLS also solves the
outcome stage's least-squares steps. The lasso objective is

    (1 / (2n)) * ||y - X b||^2 + lam * ||b||_1

so the all-zero solution is optimal exactly when lam >= max_j |X_j' y| / n
at b = 0. Below that the solution is piecewise linear in lam, and the
LARS-lasso homotopy follows it exactly; one coordinate-descent sweep from
that point certifies each lasso fit. Cross-validated penalties score every
grid point of a fold from one exact computation: the homotopy path for the
lasso, one thin SVD for ridge. No internal rescaling of columns is
performed; callers control the scale of their designs. Ridge and lasso fit
no constant (the structural form p = zbar @ a + noise). The solver and CV
settings are module constants: the OLS rank tolerance _OLS_RTOL, the lasso
sweep tolerance _LASSO_TOL and cap _LASSO_MAX_SWEEPS, and the
_CV_FOLDS-fold, _CV_GRID-point lambda CV.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_design
from .errors import ConvergenceError, DataError, SingularDesignError

__all__ = [
    "LinearFit",
    "fit_ols",
    "fit_ridge",
    "fit_lasso",
    "soft_threshold",
]

# A column whose residual after projection on the active columns keeps
# less than this share of its squared norm lies in their span.
_SPAN_RTOL = 1e-10
_OLS_RTOL = 1e-10
_LASSO_TOL = 1e-10
_LASSO_MAX_SWEEPS = 1000
_CV_FOLDS = 5
_CV_GRID = 50


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


def fit_ols(design, target, fit_intercept: bool = False) -> LinearFit:
    """Least squares via pivoted QR with an explicit rank check.

    Raises SingularDesignError when any pivoted diagonal of R falls below
    _OLS_RTOL times the leading one; callers wanting a ridge fallback catch
    it. fit_intercept centres the columns and the target first.
    """
    from scipy import linalg

    design, target = check_design(design, target)
    xc, yc, means, y_mean = design, target, np.zeros(design.shape[1]), 0.0
    if fit_intercept:
        means, y_mean = design.mean(axis=0), float(target.mean())
        xc, yc = design - means, target - y_mean
    q, r, piv = linalg.qr(xc, mode="economic", pivoting=True)
    d = design.shape[1]
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0 or np.any(diag < _OLS_RTOL * diag[0]):
        raise SingularDesignError(
            f"design is rank-deficient (effective rank < {d})"
        )
    coef_piv = linalg.solve_triangular(r, q.T @ yc)
    coef = np.empty(d)
    coef[piv] = coef_piv
    intercept = y_mean - float(means @ coef)
    return LinearFit(coef=coef, intercept=intercept, method="ols", lam=0.0)


def fit_ridge(design, target, lam) -> LinearFit:
    """Shifted normal equations (X'X + lam I) b = X'y, with no constant.

    The identity is sized to the design's column count. lam = 0 delegates to
    fit_ols and inherits its error rules; lam = "auto" picks lam by
    _CV_FOLDS-fold cross-validation over a _CV_GRID-point logarithmic grid.
    """
    from scipy import linalg

    design, target = check_design(design, target)
    lam = _penalty(design, target, lam, "ridge")
    if lam == 0.0:
        fit = fit_ols(design, target)
        return LinearFit(fit.coef, fit.intercept, "ridge", 0.0)
    gram = design.T @ design + lam * np.eye(design.shape[1])
    coef = linalg.solve(gram, design.T @ target, assume_a="pos")
    return LinearFit(coef=coef, intercept=0.0, method="ridge", lam=lam)


def _penalty(design, target, lam, method) -> float:
    """lam as a finite real >= 0, or method's _cv_lambda choice for "auto"."""
    if isinstance(lam, str):
        if lam != "auto":
            raise DataError("lam must be a non-negative real or 'auto'")
        return _cv_lambda(design, target, method)
    lam = float(lam)
    if lam < 0:
        raise DataError("lam must be non-negative")
    if not np.isfinite(lam):
        raise DataError(f"lam must be finite, got {lam}")
    return lam


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _lasso_objective(xc, yc, coef, lam):
    resid = yc - xc @ coef
    n = len(yc)
    return 0.5 * float(resid @ resid) / n + lam * float(np.abs(coef).sum())


def fit_lasso(design, target, lam) -> LinearFit:
    """l1-penalized least squares with no constant: exact homotopy path,
    then a CD check.

    The homotopy path gives the exact solution at lam. Cyclic coordinate
    descent then starts from it; at the optimum its first sweep leaves the
    objective unchanged, which certifies the solution. Exits when the
    objective decrease over a full sweep drops below _LASSO_TOL; needing
    more than _LASSO_MAX_SWEEPS sweeps raises ConvergenceError.
    """
    design, target = check_design(design, target)
    lam = _penalty(design, target, lam, "lasso")
    moments = _lasso_moments(design, target)
    start = _lasso_path(design, target, [lam], moments)[:, 0]
    coef = _lasso_cd(design, target, lam, start, moments)
    return LinearFit(coef=coef, intercept=0.0, method="lasso", lam=lam)


def _lasso_moments(xc, yc):
    """G = X'X/n and c = X'y/n, the moments the lasso path and CD work on."""
    n = xc.shape[0]
    return xc.T @ xc / n, xc.T @ yc / n


def _lasso_cd(xc, yc, lam, start, moments):
    gram, cross = moments
    coef = start.copy()
    gdiag = np.diag(gram).copy()
    prev_obj = _lasso_objective(xc, yc, coef, lam)
    for _ in range(_LASSO_MAX_SWEEPS):
        for j in range(len(coef)):
            if gdiag[j] <= 0.0:
                coef[j] = 0.0  # constant-zero column carries no signal
                continue
            rho = cross[j] - gram[j] @ coef + gdiag[j] * coef[j]
            coef[j] = soft_threshold(rho, lam) / gdiag[j]
        obj = _lasso_objective(xc, yc, coef, lam)
        if prev_obj - obj < _LASSO_TOL:
            return coef
        prev_obj = obj
    raise ConvergenceError(f"lasso did not converge in {_LASSO_MAX_SWEEPS} sweeps")


def _lasso_path(xc, yc, lams, moments=None):
    """Exact lasso coefficients at every lam of a descending grid.

    LARS-lasso homotopy (Efron et al. 2004): below lam_max = max|X'y|/n
    the solution is piecewise linear in lam. On each piece the active set A
    and its signs s are fixed and the KKT system gives
    b_A(lam) = G_AA^{-1} (c_A - lam s), with G = X'X/n and c = X'y/n,
    solved afresh at every kink so no error carries from piece to piece.
    A piece ends where an inactive correlation reaches +-lam (join) or an
    active coefficient reaches zero (drop). A column in the span of the
    active columns (a duplicate, an all-zero column, or any column once
    the active set spans the rows) cannot join: its correlation is a fixed
    combination of the active ones and stays within +-lam. Returns the
    (d, len(lams)) coefficients; grid points at or above lam_max are zero.
    """
    from scipy import linalg

    gram, cross = _lasso_moments(xc, yc) if moments is None else moments
    d = len(cross)
    gdiag = np.diag(gram)
    lams = np.asarray(lams, dtype=np.float64)
    coefs = np.zeros((d, len(lams)))
    active, signs = [], []
    lam, filled, changed, side = np.inf, 0, -1, 0.0
    while filled < len(lams):
        if active:
            rhs = np.column_stack([gram[active], cross[active], signs])
            sol = linalg.solve(gram[np.ix_(active, active)], rhs, assume_a="pos")
            v, u = sol[:, d], sol[:, d + 1]
            resid = cross - gram[:, active] @ v  # c(lam) = resid + lam * slope
            slope = gram[:, active] @ u
            spanned = gdiag - np.einsum("ij,ij->j", gram[active], sol[:, :d])
            free = spanned > _SPAN_RTOL * gdiag
            free[active] = False
        else:
            v = u = np.zeros(0)
            resid, slope, free = cross, np.zeros(d), gdiag > 0.0
        # Largest lam below the current one where |c_j(lam)| = lam, for
        # each side whose gap to the correlation closes as lam falls.
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(free & (1.0 - slope > 0.0), resid / (1.0 - slope), -np.inf)
            down = np.where(free & (1.0 + slope > 0.0), -resid / (1.0 + slope), -np.inf)
            shrinking = np.asarray(signs) * u < 0.0
            drops = np.where(shrinking, v / u, -np.inf)
        # The kink just passed is a root of the variable that moved there:
        # a dropped one may not rejoin on the side it left, and a joined
        # one's coefficient, linear on this piece, has no other zero.
        if changed in active:
            drops[active.index(changed)] = -np.inf
        elif changed >= 0:
            (up if side > 0.0 else down)[changed] = -np.inf
        joins = np.maximum(up, down)
        j_join = int(np.argmax(joins))
        drop_lam = drops.max(initial=-np.inf)
        nxt = max(joins[j_join], drop_lam)
        nxt = min(nxt, lam) if nxt > 0.0 else 0.0
        while filled < len(lams) and lams[filled] >= nxt:
            coefs[active, filled] = v - lams[filled] * u
            filled += 1
        if nxt == 0.0:
            break
        if drop_lam >= joins[j_join]:
            k = int(np.argmax(drops))
            changed, side = active.pop(k), signs.pop(k)
        else:
            changed = j_join
            active.append(j_join)
            signs.append(1.0 if up[j_join] >= down[j_join] else -1.0)
        lam = nxt
    return coefs


def _cv_lambda(design, target, method):
    """_CV_FOLDS-fold CV over a descending _CV_GRID-point log grid; ties keep
    more shrinkage.

    Folds are strided row slices (fold i takes rows i::_CV_FOLDS), which is
    deterministic without threading an rng through every fit call. The
    errors come from exact solutions at every grid point (_cv_errors), so
    no fit inside CV can stop short of its optimum.
    """
    n = design.shape[0]
    if n < 2 * _CV_FOLDS:
        raise DataError(f"need at least {2 * _CV_FOLDS} rows for {_CV_FOLDS}-fold CV")
    lam_max = float(np.max(np.abs(design.T @ target))) / n
    if lam_max <= 0.0:
        return 0.0
    grid = np.geomspace(lam_max * 10.0, lam_max * 1e-4, _CV_GRID)
    errors = _cv_errors(design, target, method, grid)
    best = int(np.argmin(errors))  # first index in the descending grid
    return float(grid[best])


def _cv_errors(design, target, method, grid):
    """Summed held-out squared error at each grid point, over strided folds.

    Each fold's coefficients at all grid points come from one exact
    computation: the lasso homotopy path, or one thin SVD of the fold,
    which gives every ridge solution as V diag(s / (s^2 + lam)) U'y.
    Each fold is then scored against the whole grid in one matrix product.
    """
    from scipy import linalg

    n = design.shape[0]
    errors = np.zeros(len(grid))
    for fold in range(_CV_FOLDS):
        mask = np.zeros(n, dtype=bool)
        mask[fold::_CV_FOLDS] = True
        xt, yt = design[~mask], target[~mask]
        if method == "lasso":
            coefs = _lasso_path(xt, yt, grid)
        else:
            left, sing, right_t = linalg.svd(xt, full_matrices=False)
            shrink = sing[:, None] / (sing[:, None] ** 2 + grid)
            coefs = right_t.T @ (shrink * (left.T @ yt)[:, None])
        pred = design[mask] @ coefs
        errors += np.sum((target[mask][:, None] - pred) ** 2, axis=0)
    return errors
