"""Baseline linear solvers: OLS, ridge, and lasso.

They are the benchmark's linear first stages, and OLS also solves the
outcome stage's least-squares steps. The lasso objective is

    (1 / (2n)) * ||y - X b||^2 + lam * ||b||_1

so the all-zero solution is optimal exactly when lam >= max_j |X_j' y| / n
at b = 0. Below that the solution is piecewise linear in lam, and the
LARS-lasso homotopy follows it exactly; one coordinate-descent sweep from
that point certifies each lasso fit. Cross-validated penalties score every
grid point of a fold from one exact computation: the homotopy path for the
lasso, one thin SVD for ridge. Columns are not rescaled; callers control the
scale of their designs. Ridge and lasso fit no constant, nor OLS unless
asked, though the designs' treatment has one (ROADMAP item 16). The solver
and CV settings are module constants: the OLS rank tolerance _OLS_RTOL, the
lasso sweep tolerance _LASSO_TOL and cap _LASSO_MAX_SWEEPS, and the
_CV_GRID-point lambda CV over data.CV_FOLDS folds, scored like pls's q CV.

The lasso CV's six homotopy paths (the folds, then the full data, whose
path at the chosen lam starts the fit) hold the interpreter lock, so once
each part holds _LASSO_PART_CELLS of work they run in parts, one per usable
CPU (data.part_bounds): forked children (data._Children.parts) run every
part but the first and send back each path's cells, while this process
runs part 0. The CV is split into a start that forks (_LassoCv) and a
result that collects, so a caller with other work may start it early,
every path in a child (_LassoCv.early), and hand it to fit_lasso later, as
a benchmark replication does before its network fit. A part whose child
failed, warned or raised is run here, so a fit's bits, warnings and errors
do not depend on the number of parts or on when they started. Ridge's SVD
folds and everything traced (fit_lasso's own call, soft_threshold in the
CD sweep) stay in this process: at n = 500, forked ridge folds were slower
(5.1 against 6.8-8.3 ms).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .data import (
    CV_FOLDS, _check_width, _child_bounds, _Children, _heldout_sse, _receive_cells, _send_cells,
    check_design, part_bounds,
)
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
_CV_GRID = 50
# Least work one lasso CV part must hold to be worth a fork, a path's work
# counted as d * min(n, d): about one kink per column that joins, at most n,
# each over all d correlations. With one BLAS thread, two parts of the six
# paths broke even at d = 20 and saved 1.2 ms at d = 25 and 14 ms at
# 500 x 75 (38 -> 24 ms); tall narrow designs do not pay (1000 x 10:
# 3.1 -> 3.8 ms). An early start (_LassoCv.early) forks on the same rule,
# with this process's part 0 emptied into the children.
_LASSO_PART_CELLS = 2**11


@dataclass(frozen=True)
class LinearFit:
    """Coefficient vector plus the metadata needed to reproduce the fit."""

    coef: np.ndarray
    intercept: float
    method: str
    lam: float = 0.0

    def __post_init__(self):
        if np.ndim(self.coef) != 1:
            raise DataError(f"linear coef must be a vector, got shape {np.shape(self.coef)}")

    def predict(self, design) -> np.ndarray:
        return _check_width(design, len(self.coef)) @ self.coef + self.intercept


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
    CV_FOLDS-fold cross-validation over a _CV_GRID-point logarithmic grid,
    its folds run one after another in this process.
    """
    from scipy import linalg

    design, target = check_design(design, target)
    lam = _penalty(lam)
    if lam is None:
        grid, lam = _cv_grid(design, target), 0.0
        if grid is not None:
            folds = [_fold_errors(design, target, grid, fold, "ridge") for fold in range(CV_FOLDS)]
            lam = float(grid[_cv_best(folds)])
    if lam == 0.0:
        fit = fit_ols(design, target)
        return LinearFit(fit.coef, fit.intercept, "ridge", 0.0)
    gram = design.T @ design + lam * np.eye(design.shape[1])
    coef = linalg.solve(gram, design.T @ target, assume_a="pos")
    return LinearFit(coef=coef, intercept=0.0, method="ridge", lam=lam)


def _penalty(lam) -> float | None:
    """lam as a finite real >= 0, or None for "auto" (cross-validated)."""
    if isinstance(lam, str):
        if lam != "auto":
            raise DataError("lam must be a non-negative real or 'auto'")
        return None
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
    more than _LASSO_MAX_SWEEPS sweeps raises ConvergenceError. lam = "auto"
    picks lam by CV_FOLDS-fold cross-validation over a _CV_GRID-point
    logarithmic grid (_LassoCv); lam may also be that CV of this design
    and target, started earlier (_LassoCv.early), which gives the same fit.
    """
    design, target = check_design(design, target)
    moments, start = _lasso_moments(design, target), None
    if isinstance(lam, _LassoCv):
        lam, start = lam.result()
    elif (lam := _penalty(lam)) is None:
        with _Children() as children:
            lam, start = _LassoCv(design, target, children, moments).result()
    if start is None:
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


def _cv_grid(design, target):
    """The descending _CV_GRID-point log grid from 10 lam_max down to
    1e-4 lam_max, lam_max = max|X'y|/n; None when lam_max is 0, where
    lam = 0 is the choice."""
    n = design.shape[0]
    if n < 2 * CV_FOLDS:
        raise DataError(f"need at least {2 * CV_FOLDS} rows for {CV_FOLDS}-fold CV")
    lam_max = float(np.max(np.abs(design.T @ target))) / n
    if lam_max <= 0.0:
        return None
    return np.geomspace(lam_max * 10.0, lam_max * 1e-4, _CV_GRID)


def _fold_errors(design, target, grid, fold, method):
    """Held-out squared error of one fold at each grid point.

    Folds are strided row slices (fold i takes rows i::CV_FOLDS), which is
    deterministic without threading an rng through every fit call. The
    fold's coefficients at all grid points come from one exact
    computation, the lasso homotopy path or one thin SVD of the fold, which
    gives every ridge solution as V diag(s / (s^2 + lam)) U'y; so no fit
    inside CV can stop short of its optimum. The fold is then scored
    against the whole grid in one matrix product.
    """
    from scipy import linalg

    mask = np.zeros(design.shape[0], dtype=bool)
    mask[fold::CV_FOLDS] = True
    xt, yt = design[~mask], target[~mask]
    if method == "lasso":
        coefs = _lasso_path(xt, yt, grid)
    else:
        left, sing, right_t = linalg.svd(xt, full_matrices=False)
        shrink = sing[:, None] / (sing[:, None] ** 2 + grid)
        coefs = right_t.T @ (shrink * (left.T @ yt)[:, None])
    return _heldout_sse(design[mask], target[mask], coefs)


def _cv_best(fold_errors) -> int:
    """Index of the least error summed over the folds, added in fold order;
    ties keep the first index, the most shrinkage in the descending grid."""
    return int(np.argmin(np.sum(fold_errors, axis=0)))


class _LassoCv:
    """The lambda CV of fit_lasso(design, target, "auto"), started: its six
    jobs, each one homotopy path over the grid (the CV_FOLDS folds, each
    giving its fold's errors, then the full-data path), forked in parts
    (data._Children.parts) under the caller's children when it is made,
    and collected by result().

    By default the parts are one per usable CPU once each part holds at
    least _LASSO_PART_CELLS of work (data.part_bounds), and result() runs
    part 0 here. The full-data path comes last, so a child runs it; with
    one part it is not run here, where a failed part's folds run in fold
    order. Column best of it has the bits of a path that stops at lam,
    because the kinks do not depend on the grid. Without a child's
    full-data path fit_lasso runs the path only as far as lam; so this
    process runs nothing the one-part fit would not. Other bounds (early)
    cut the same six jobs elsewhere.
    """

    def __init__(self, design, target, children, moments=None, bounds=None):
        self.grid = _cv_grid(design, target)
        if self.grid is None:
            return
        self._jobs = [
            functools.partial(_fold_errors, design, target, self.grid, fold, "lasso")
            for fold in range(CV_FOLDS)
        ]
        self._jobs.append(functools.partial(_lasso_path, design, target, self.grid, moments))
        self._shapes = [(len(self.grid),)] * CV_FOLDS + [(design.shape[1], len(self.grid))]
        if bounds is None:
            bounds = _lasso_cv_bounds(design)
            if len(bounds) == 2:
                bounds = [0, CV_FOLDS]
        parts = children.parts(bounds, functools.partial(_spill_results, self._jobs))
        self._parts = itertools.chain([next(parts)], parts)  # every child forked

    @classmethod
    def early(cls, design, target, children):
        """The CV started for fit_lasso(design, target, cv) to collect, its
        six jobs cut over one child fewer than the parts fit_lasso would
        make, so this process keeps its CPU, and no job, for the caller's
        other work; None, having forked nothing, where fewer than two parts
        are due or the CV would raise, which fit_lasso(design, target,
        "auto") then does."""
        try:
            design, target = check_design(design, target)
            parts = len(_lasso_cv_bounds(design)) - 1
            if parts < 2:
                return None
            return cls(design, target, children, bounds=_child_bounds(CV_FOLDS + 1, parts - 1))
        except DataError:
            return None

    def result(self):
        """The CV choice of lam, and the exact lasso solution at it if a
        forked child computed it, else None."""
        if self.grid is None:
            return 0.0, None
        results = []
        for start, stop, spill in self._parts:
            for job, out in zip(self._jobs[start:stop], map(np.empty, self._shapes[start:stop])):
                if spill is not None and _receive_cells(spill, out):
                    results.append(out)
                else:  # a fold runs here, the full-data path does not
                    results.append(job() if len(results) < CV_FOLDS else None)
        path = results[CV_FOLDS] if len(results) > CV_FOLDS else None
        best = _cv_best(results[:CV_FOLDS])
        return float(self.grid[best]), None if path is None else path[:, best]


def _lasso_cv_bounds(design) -> list[int]:
    """data.part_bounds of the lasso CV's six paths on this design."""
    jobs = CV_FOLDS + 1
    return part_bounds(jobs, jobs * design.shape[1] * min(design.shape), _LASSO_PART_CELLS)


def _spill_results(jobs, start, stop, spill) -> None:
    """Child side of _LassoCv: run jobs[start:stop] and send each result's
    cells to the spill file."""
    for job in jobs[start:stop]:
        _send_cells(spill, job())
