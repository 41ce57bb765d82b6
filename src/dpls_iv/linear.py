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

A lambda CV scores its CV_FOLDS folds one after another here (_cv_lam).
It forks only to overlap other work (a lone CV's gain was small and mixed:
_LASSO_PART_CELLS): a caller may start the ridge and lasso CVs early,
every job in a forked child (_LambdaCv.early), and hand them to fit_ridge
and fit_lasso later, as a benchmark replication does before its network
fit. A fold whose child failed, warned or raised runs here at its turn,
so a fit's bits, warnings and errors do not depend on where its CV ran.
Everything traced (fit_ridge's and fit_lasso's own calls, soft_threshold
in the CD sweep) stays in this process.
"""
from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .data import (
    CV_FOLDS, _check_width, _child_bounds, _heldout_sse, _receive_cells, _send_cells, check_design,
    part_bounds,
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
# Least work each part of an early start (_LambdaCv.early) must hold to be
# worth a fork, a path's work counted as d * min(n, d) (about one kink per
# column that joins, at most n, each over all d correlations), each ridge
# fold as one job of that size. A fork costs 3-5 ms before its first path:
# lasso CVs split in two parts against one (one BLAS thread, medians of 41
# interleaved pairs) took +9.8 ms at 200 x 40, broke even at 200 x 50 and
# 500 x 50, and saved 6.3 ms at 500 x 75 (1000 x 10: +2.8 ms), so a tall
# design forks from d = 53. A lone CV runs here: forked alone, ridge's folds
# took 6.8-8.3 against 5.1 ms at n = 500, the lasso's saved 0-20 ms at
# 500 x 75 and 1000 x 75 (41 pairs, two CPUs, two runs).
_LASSO_PART_CELLS = 2**13


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
    its folds run one after another in this process (_cv_lam); lam may
    also be that CV of this design and target, started earlier in forked
    children (_LambdaCv.early), which gives the same fit.
    """
    from scipy import linalg

    design, target = check_design(design, target)
    if isinstance(lam, _LambdaCv):
        lam = lam.ridge()
    elif (lam := _penalty(lam)) is None:
        lam = _cv_lam(design, target, "ridge")
    if lam == 0.0:
        fit = fit_ols(design, target)
        return LinearFit(fit.coef, fit.intercept, "ridge", 0.0)
    gram = design.T @ design + lam * np.eye(design.shape[1])
    coef = linalg.solve(gram, design.T @ target, assume_a="pos")
    return LinearFit(coef=coef, intercept=0.0, method="ridge", lam=lam)


def _penalty(lam) -> float | None:
    """lam as a finite real >= 0, or None for "auto" (cross-validated); a
    bool or a non-real value is refused, as by SgdParams.learning_rate."""
    if isinstance(lam, str) and lam == "auto":
        return None
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real):
        raise DataError("lam must be a non-negative real or 'auto'")
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
    logarithmic grid (_cv_lam), the path then run only as far as lam; lam
    may also be that CV of this design and target, started earlier in
    forked children (_LambdaCv.early), which gives the same fit.
    """
    design, target = check_design(design, target)
    moments, start = _lasso_moments(design, target), None
    if isinstance(lam, _LambdaCv):
        lam, start = lam.lasso()
    elif (lam := _penalty(lam)) is None:
        lam = _cv_lam(design, target, "lasso")
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

    Each kink factors G_AA = R'R once (LAPACK potrf) and solves it for the
    two columns (v, u) only; one triangular solve W = R'^-1 G_A' then gives
    every column's Schur-complement residual, gdiag - sum(W * W), for the
    span test. A 1 x 1 system is divided out, as scipy.linalg.solve does,
    so the bits are those of solving G_AA [. | v | u] = [G_A' | c_A | s_A]
    with it. A non-finite system raises ValueError and a factor that fails
    LinAlgError, as that solve did.
    """
    from scipy import linalg

    gram, cross = _lasso_moments(xc, yc) if moments is None else moments
    potrf, potrs, trtrs = linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"), (gram,))
    finite = np.isfinite(gram).all() and np.isfinite(cross).all()  # else check each system
    d = len(cross)
    gdiag = np.diag(gram)
    lams = np.asarray(lams, dtype=np.float64)
    coefs = np.zeros((d, len(lams)))
    active, signs = [], []
    lam, filled, changed, side = np.inf, 0, -1, 0.0
    while filled < len(lams):
        if active:
            g_a = gram[:, active]  # G_A; its active rows are G_AA
            rhs = np.column_stack([cross[active], signs])
            if not (finite or np.isfinite(g_a).all() and np.isfinite(rhs).all()):
                raise ValueError("array must not contain infs or NaNs")
            factor, info = potrf(g_a[active])
            if info:
                raise linalg.LinAlgError("the active columns' Gram matrix is not positive definite")
            if len(active) == 1:
                sol = rhs / g_a[active]
            else:
                sol, _ = potrs(factor, rhs)
            v, u = sol[:, 0], sol[:, 1]
            resid = cross - g_a @ v  # c(lam) = resid + lam * slope
            slope = g_a @ u
            w, _ = trtrs(factor, g_a.T, trans=1, overwrite_b=1)  # R'W = G_A'
            spanned = gdiag - np.einsum("ij,ij->j", w, w)
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


def _cv_lam(design, target, method) -> float:
    """fit_ridge's or fit_lasso's CV choice of lam (method "ridge" or
    "lasso"), its folds scored one after another here; 0 with no grid."""
    grid = _cv_grid(design, target)
    if grid is None:
        return 0.0
    folds = [_fold_errors(design, target, grid, fold, method) for fold in range(CV_FOLDS)]
    return float(grid[_cv_best(folds)])


class _LambdaCv:
    """The lambda CVs of fit_ridge and fit_lasso(design, target, "auto")
    for the given methods ("ridge", "lasso" or both, in that order), started
    by early: their jobs (ridge's CV_FOLDS SVD folds, then lasso's folds and
    its full-data path, all over the grid) forked over `parts` children
    (data._Children.parts; this process keeps none), then collected in job
    order, only as far as each needs, by ridge() and lasso(). A failed
    child's folds run here at their turn, and fit_lasso then runs the path
    itself, only as far as lam. Column best of a child's path has the bits
    of a path that stops at lam: the kinks do not depend on the grid.
    """

    def __init__(self, design, target, methods, grid, children, parts):
        self.methods, self.grid = methods, grid
        self._jobs = [
            functools.partial(_fold_errors, design, target, grid, fold, method)
            for method in methods for fold in range(CV_FOLDS)
        ]
        folds = len(self._jobs)
        if "lasso" in methods:
            self._jobs.append(functools.partial(_lasso_path, design, target, grid))
        bounds = _child_bounds(len(self._jobs), parts)
        parts = children.parts(bounds, functools.partial(_spill_results, self._jobs))
        parts = itertools.chain([next(parts)], parts)  # every child forked
        # no reference back to self, so no cycle outlives the CV
        self._pending = _collected(parts, self._jobs, folds, (design.shape[1], len(grid)))
        self._results = []

    @classmethod
    def early(cls, design, target, methods, children):
        """The CVs of the given methods started under the caller's children,
        cut over one child fewer than the parts data.part_bounds gives them,
        so this process keeps its CPU for the caller's other work; None,
        forking nothing, where no method is given, fewer than two parts are
        due, or _cv_grid gives no grid or raises (the fit then does)."""
        methods = tuple(m for m in ("ridge", "lasso") if m in methods)
        jobs = CV_FOLDS * len(methods) + ("lasso" in methods)
        try:
            design, target = check_design(design, target)
            parts = len(_cv_bounds(design, jobs)) - 1
            grid = _cv_grid(design, target) if parts > 1 else None
        except DataError:
            return None
        return None if grid is None else cls(design, target, methods, grid, children, parts - 1)

    def _first(self, count):
        """The first `count` results."""
        self._results += itertools.islice(self._pending, max(count - len(self._results), 0))
        return self._results[:count]

    def ridge(self) -> float:
        """The CV choice of ridge's lam."""
        return float(self.grid[_cv_best(self._first(CV_FOLDS))])

    def lasso(self):
        """The CV choice of lasso's lam, and the exact lasso solution at it
        if a forked child computed it, else None."""
        *folds, path = self._first(len(self._jobs))
        best = _cv_best(folds[-CV_FOLDS:])
        return float(self.grid[best]), None if path is None else path[:, best]


def _collected(parts, jobs, folds, path_shape):
    """Each job's result in job order, from _LambdaCv's parts: its child's
    cells, else the job run here if it is one of the first `folds` (a fold),
    or None (the full-data path, of path_shape)."""
    for start, stop, spill in parts:
        for index in range(start, stop):
            out = np.empty(path_shape if index == folds else path_shape[1:])
            if spill is not None and _receive_cells(spill, out):
                yield out
            else:
                yield jobs[index]() if index < folds else None


def _cv_bounds(design, jobs) -> list[int]:
    """data.part_bounds of `jobs` lambda CV jobs on this design."""
    return part_bounds(jobs, jobs * design.shape[1] * min(design.shape), _LASSO_PART_CELLS)


def _spill_results(jobs, start, stop, spill) -> None:
    """Child side of _LambdaCv: run jobs[start:stop] and send each result's
    cells to the spill file."""
    for job in jobs[start:stop]:
        _send_cells(spill, job())
