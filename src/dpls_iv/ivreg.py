"""Outcome-stage estimators for censored-outcome instrumental variables.

The observed outcome is y = max(y*, 0) for a latent linear index y*. A
probit-style recentering turns y into an unbiased-in-expectation proxy
y_tilde for the latent scale using only the censoring fraction and the
outcome variance; the policy coefficients are then recovered by linear GMM
of y_tilde on [p_hat, x] with a heteroskedasticity-robust sandwich. A
control-function fit (regress on [p, p - p_hat, x]) is provided as an
alternative second stage. No outcome step makes a NaN estimate of a
non-finite input: the constants refuse such a y, and the other steps check
their (design, target) pairs with data.check_design. An asymptotic-normal
posterior sampler covers interval summaries; its predictive band walks the
design in row blocks and sorts each block's rows on every usable CPU. Its
memory does not grow with the rows, but it does with the draws: they take
draws x (1 + k) floats, and a block holds max(3, 2^20 // draws) rows of
draws latent cells each. iv_fit is the one outcome stage: it runs over any
fitted first stage, network or linear baseline alike, and its fit holds
exactly what the fit record holds.
"""
from __future__ import annotations

import contextvars
import warnings
from dataclasses import dataclass

import numpy as np

from .data import (
    Dataset, SeededRng, augment_instruments, check_design, check_int, covariate_block,
    part_bounds, psd_factor,
)
from .errors import DataError, DegenerateDataError
from .linear import LinearFit, fit_ols
from .network import DplsConfig, DplsModel, dpls_fit
from .pls import PlsFit

__all__ = [
    "TobitConstants",
    "TobitGmmFit",
    "ControlFunctionFit",
    "DplsIvFit",
    "PosteriorDraws",
    "estimate_tobit_constants",
    "identity_constants",
    "recenter_outcome",
    "gmm_beta",
    "sandwich_variance",
    "corrected_covariance",
    "control_function_fit",
    "iv_fit",
    "dpls_iv_fit",
    "sample_posterior",
]

# The outcome stages, by the name a fit's mode carries.
MODES = ("rescale_gmm", "control_function")
_PSI_EPS = 1e-6
_SQRT_2PI = np.sqrt(2.0 * np.pi)
# Latent cells (rows x draws) one predictive-band block may hold: 8 MB.
_BAND_CELLS = 2**20
# Least latent cells of a block one thread sorts and takes quantiles of: about
# 1 ms of work, against about 0.1 ms to hand a part to a thread.
_BAND_PART_CELLS = 2**16


@dataclass(frozen=True)
class TobitConstants:
    """Recentering constants: psi2 = sigma_star * phi_hat by construction."""

    psi1: float
    psi2: float
    sigma_star: float
    phi_hat: float
    c_k: float

    def __post_init__(self):
        for name, ok in (("psi1", 0.0 < self.psi1 <= 1.0), ("psi2", abs(self.psi2) < np.inf),
                         ("sigma_star", 0.0 < self.sigma_star < np.inf),
                         ("phi_hat", 0.0 <= self.phi_hat < np.inf),
                         ("c_k", 0.0 < self.c_k < np.inf)):
            if not ok:
                raise DataError(f"constants {name} is {getattr(self, name)}: each must be "
                                "finite, 0 < psi1 <= 1, sigma_star > 0, c_k > 0 and phi_hat >= 0")


def identity_constants() -> TobitConstants:
    """Constants for an uncensored outcome; recentering becomes the identity."""
    return TobitConstants(psi1=1.0, psi2=0.0, sigma_star=1.0, phi_hat=0.0, c_k=1.0)


def estimate_tobit_constants(y) -> TobitConstants:
    """Censoring fraction, implied normal density, and variance rescaling.

    psi1 is the positive fraction, clamped away from {0, 1} with a warning
    because the quantile transform diverges at the boundary. c_k rescales
    the raw outcome variance to the latent scale.
    """
    from scipy.special import ndtri

    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or len(y) < 2 or not np.isfinite(y).all():
        raise DataError("y must be a vector of at least 2 entries, every one finite")
    ss = float(np.sum((y - y.mean()) ** 2))
    if ss == 0.0:
        raise DegenerateDataError("outcome has zero variance")
    psi1 = float(np.mean(y > 0))
    if not (_PSI_EPS <= psi1 <= 1.0 - _PSI_EPS):
        warnings.warn(
            f"positive-outcome fraction {psi1} clamped to [{_PSI_EPS}, {1 - _PSI_EPS}]",
            stacklevel=2,
        )
        psi1 = min(max(psi1, _PSI_EPS), 1.0 - _PSI_EPS)
    k = float(ndtri(psi1))
    phi = float(np.exp(-0.5 * k * k) / _SQRT_2PI)
    c_k = psi1 - (phi - k * (1.0 - psi1)) * (phi + k * psi1)
    if c_k <= 0.0:
        raise DegenerateDataError(f"variance rescaling factor is not positive: {c_k}")
    sigma_star = float(np.sqrt(ss / (len(y) * c_k)))
    return TobitConstants(
        psi1=psi1,
        psi2=sigma_star * phi,
        sigma_star=sigma_star,
        phi_hat=phi,
        c_k=c_k,
    )


def recenter_outcome(y, constants: TobitConstants) -> np.ndarray:
    """y_tilde = (y - psi2) / psi1; affine, hence exactly invertible."""
    y = np.asarray(y, dtype=np.float64)
    return (y - constants.psi2) / constants.psi1


@dataclass(frozen=True)
class TobitGmmFit:
    """Second-stage fit; beta[0] is the policy effect, beta[1:] the x terms.

    sigma_star_matrix is the asymptotic covariance of sqrt(n)(beta_hat - beta)
    and corrected_matrix subtracts the recentering-induced psi1(1-psi1) bbT
    term (PSD-projected). These three arrays, beta (dim,) and both
    covariances (dim, dim), are the fit record's gmm block.
    """

    beta: np.ndarray
    sigma_star_matrix: np.ndarray
    corrected_matrix: np.ndarray

    def __post_init__(self):
        shapes = tuple(map(np.shape, (self.beta, self.sigma_star_matrix, self.corrected_matrix)))
        dim = shapes[0]
        if len(dim) != 1 or shapes != (dim, dim * 2, dim * 2):
            raise DataError("gmm beta {} and covariances {} and {} do not fit together"
                            .format(*shapes))


def _outcome_design(columns, x) -> np.ndarray:
    """The outcome-stage design [columns..., x]; each column has x's rows."""
    columns = [np.asarray(c, dtype=np.float64).ravel() for c in columns]
    x = covariate_block(x, len(columns[0]))
    if x.ndim != 2 or {len(c) for c in columns} != {x.shape[0]}:
        raise DataError("treatment and covariates must have matching row counts")
    return np.column_stack([*columns, x])


def gmm_beta(p_hat, x, y_tilde, p_observed) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of y_tilde on the design [p_hat, x], and
    the residuals against [p_observed, x]: the moment residuals the variance
    estimator needs (residuals against the projected treatment fold the
    first-stage error into the error variance and overstate it)."""
    design = _outcome_design([p_hat], x)
    observed, y_tilde = check_design(_outcome_design([p_observed], design[:, 1:]), y_tilde)
    beta = fit_ols(design, y_tilde).coef
    return beta, y_tilde - observed @ beta


def _robust_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PSD moment matrix, ridge-jittered if singular."""
    dim = a.shape[0]
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        pass
    tr = float(np.trace(a))
    lam = 1e-8 * (tr / dim) if tr > 0 else 1e-8
    warnings.warn(f"singular moment matrix; adding ridge jitter {lam}", stacklevel=3)
    return np.linalg.inv(a + lam * np.eye(dim))


def sandwich_variance(p_hat, x, residuals, zbar) -> np.ndarray:
    """Heteroskedasticity-robust covariance of sqrt(n)(beta_hat - beta).

    Sigma* = n^2 (PtZ A^-1 ZtP)^-1 for the design P = [p_hat, x], the
    efficiently weighted GMM sandwich with the score-covariance matrix
    A = (1/n) sum e_i^2 zbar_i zbar_i' of gmm_beta's residuals e. It reduces
    to the classical robust OLS form when zbar equals the design.
    """
    design, residuals = check_design(_outcome_design([p_hat], x), residuals)
    zbar, _ = check_design(zbar, residuals)
    n = len(zbar)
    ezsq = residuals**2
    a_hat = (zbar * ezsq[:, None]).T @ zbar / n
    a_inv = _robust_inverse(a_hat)
    ptz = design.T @ zbar
    bread = _robust_inverse(ptz @ a_inv @ ptz.T)
    sigma = n * n * bread
    return (sigma + sigma.T) / 2.0


def _project_psd(mat: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero; identity on PSD input."""
    sym = (mat + mat.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= 0.0:
        return sym
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def corrected_covariance(sigma_star, beta, psi1: float) -> np.ndarray:
    """Sigma* minus the psi1(1 - psi1) beta beta' recentering term, PSD-projected.

    The subtraction can go indefinite in finite samples, so negative
    eigenvalues are clipped at zero before any use in sampling.
    """
    raw = sigma_star - psi1 * (1.0 - psi1) * np.outer(beta, beta)
    return _project_psd(raw)


@dataclass(frozen=True)
class ControlFunctionFit:
    """Second stage on [p, eta_hat, x] where eta_hat = p - p_hat; beta_x is a vector."""

    beta: float
    beta_eta: float
    beta_x: np.ndarray

    def __post_init__(self):
        if np.ndim(self.beta_x) != 1:
            raise DataError(f"cf beta_x must be a vector, got shape {np.shape(self.beta_x)}")


def control_function_fit(p, p_hat, x, y) -> ControlFunctionFit:
    """Regress the outcome on treatment, first-stage residual, and covariates.

    The residual column absorbs the endogenous part of p; a constant p_hat
    makes p and eta_hat collinear and the fit fails accordingly.
    """
    design = _outcome_design([p, p_hat], x)
    design[:, 1] = design[:, 0] - design[:, 1]
    ls = fit_ols(design, y)
    return ControlFunctionFit(
        beta=float(ls.coef[0]),
        beta_eta=float(ls.coef[1]),
        beta_x=ls.coef[2:],
    )


@dataclass(frozen=True)
class DplsIvFit:
    """A fitted first stage plus the outcome stage run on its predictions.

    first_stage is any fitted treatment model with predict(zbar) and coef:
    the deep PLS network, or a linear, ridge, lasso or PLS baseline, fit with
    the outcome stage on n_train rows. Exactly one outcome stage is set, and
    it names the mode: gmm for rescale_gmm, cf for control_function. censored
    is a bool (a numpy bool is kept as one). The fields are the record's blocks.
    """

    censored: bool
    first_stage: DplsModel | PlsFit | LinearFit
    constants: TobitConstants
    n_train: int
    gmm: TobitGmmFit | None = None
    cf: ControlFunctionFit | None = None

    def __post_init__(self):
        if (self.gmm is None) == (self.cf is None):
            raise DataError("a fit needs exactly one outcome stage, gmm or cf")
        if not isinstance(self.censored, (bool, np.bool_)):
            raise DataError(f"censored must be true or false, got {self.censored!r}")
        object.__setattr__(self, "censored", bool(self.censored))
        object.__setattr__(self, "n_train", check_int("n_train", self.n_train))

    @property
    def mode(self) -> str:
        return "rescale_gmm" if self.gmm is not None else "control_function"

    @property
    def policy_effect(self) -> float:
        if self.gmm is not None:
            return float(self.gmm.beta[0])
        return self.cf.beta

    def predict_treatment(self, z, x) -> np.ndarray:
        return self.first_stage.predict(augment_instruments(z, x))

    def predict_outcome(self, z, x, p=None) -> np.ndarray:
        """Structural outcome prediction on the observed scale.

        The latent index is formed from the fitted coefficients and, when
        the outcome stage was censored, passed through the known max(., 0)
        transform. Realized treatments p, one finite entry per row of z in
        either mode (data.check_design), let the control-function mode use its
        residual term; otherwise the residual is taken as zero.
        """
        zbar = augment_instruments(z, x)
        p_hat = self.first_stage.predict(zbar)
        p = None if p is None else check_design(zbar, p)[1]
        x = covariate_block(x, len(p_hat))
        coef_x = self.gmm.beta[1:] if self.gmm is not None else self.cf.beta_x
        k = x.shape[1]
        if len(coef_x) != k:
            raise DataError(
                f"fit has {len(coef_x)} covariate coefficients, data has {k} covariates"
            )
        if self.gmm is not None:
            index = p_hat * self.gmm.beta[0]
        elif p is None:
            index = p_hat * self.cf.beta
        else:
            index = p * self.cf.beta + (p - p_hat) * self.cf.beta_eta
        if x.size:
            index = index + x @ coef_x
        if self.censored:
            return np.maximum(index, 0.0)
        return index


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DataError(f"mode must be {' or '.join(map(repr, MODES))}")


def iv_fit(
    first_stage, ds: Dataset, mode: str = "rescale_gmm", censored: bool = True
) -> DplsIvFit:
    """Run the outcome stage on a fitted first stage's treatment predictions.

    censored=False skips recentering (identity constants), under which the
    rescale_gmm mode is exactly two-stage least squares on the first stage's
    treatment predictions. The rescale_gmm mode always carries the sandwich
    and corrected covariances, so every such fit supports posterior draws.
    A first stage fit on another number of design columns is a DataError.
    """
    _check_mode(mode)
    zbar = augment_instruments(ds.z, ds.x)
    p_hat = first_stage.predict(zbar)
    constants = estimate_tobit_constants(ds.y) if censored else identity_constants()
    y_tilde = recenter_outcome(ds.y, constants)
    gmm = cf = None
    if mode == "rescale_gmm":
        beta, residuals = gmm_beta(p_hat, ds.x, y_tilde, ds.p)
        sigma = sandwich_variance(p_hat, ds.x, residuals, zbar)
        gmm = TobitGmmFit(beta, sigma, corrected_covariance(sigma, beta, constants.psi1))
    else:
        cf = control_function_fit(ds.p, p_hat, ds.x, y_tilde)
    return DplsIvFit(censored=censored, first_stage=first_stage, constants=constants,
                     n_train=ds.n, gmm=gmm, cf=cf)


def dpls_iv_fit(
    ds: Dataset,
    cfg: DplsConfig,
    mode: str = "rescale_gmm",
    censored: bool = True,
) -> DplsIvFit:
    """Train the treatment network, then run iv_fit on it.

    A bad mode is rejected before the network trains.
    """
    _check_mode(mode)
    first = dpls_fit(augment_instruments(ds.z, ds.x), ds.p, cfg)
    return iv_fit(first, ds, mode=mode, censored=censored)


@dataclass(frozen=True)
class PosteriorDraws:
    """Asymptotic-normal draws for the policy coefficients."""

    beta_draws: np.ndarray

    def predictive(self, design) -> np.ndarray:
        """Latent-index draws design @ beta per draw; shape (rows, draws)."""
        design = np.asarray(design, dtype=np.float64)
        return design @ self.beta_draws.T

    def band(self, design, level: float) -> tuple[np.ndarray, np.ndarray]:
        """Equal-tailed predictive band per design row at coverage level.

        Rows go through predictive in blocks of at most _BAND_CELLS latent
        cells (three rows when draws exceed a third of it), one block at a
        time, always on the calling thread. Each block's rows are then cut
        into parts, one per usable CPU with at least _BAND_PART_CELLS cells
        each (data.part_bounds): worker threads take the parts after the
        first while the calling thread takes part 0, since numpy's sort and
        partition release the interpreter lock. Each part runs in a copy of
        the caller's context, so np.errstate applies to it. Each part's rows
        are sorted in place before its one np.quantile call, whose partition
        then finds them in order; sort plus quantile takes about half the
        time of the quantile alone on unsorted rows. An order statistic does
        not depend on how it is found, but a NaN's bits do: np.quantile
        returns a NaN of the row, while numpy's sort writes NaNs back as the
        default NaN. So rows holding a NaN take the quantile unsorted. Every
        row's quantiles come from that row alone, so the result is
        bit-identical to quantiles over the full (rows, draws) matrix, which
        is never built, however the rows are cut.
        """
        from concurrent.futures import ThreadPoolExecutor

        design = np.asarray(design, dtype=np.float64)
        n = len(design)
        tail = (1.0 - level) / 2.0
        levels = [tail, 1.0 - tail]
        out = np.empty((2, n))
        rows = max(3, _BAND_CELLS // len(self.beta_draws))
        start = 0
        with ThreadPoolExecutor() as pool:  # starts a thread per part in flight
            while start < n:
                # A one-row product takes numpy's matrix-vector path, which rounds
                # differently from the product over all rows, so a block that
                # would leave one row behind gives up a row to the last block.
                stop = start + rows - (n - start == rows + 1)
                block = self.predictive(design[start:stop])
                cuts = part_bounds(len(block), block.size, _BAND_PART_CELLS)
                dest = out[:, start:stop]
                futures = [
                    pool.submit(contextvars.copy_context().run, _band_rows,
                                block[a:b], levels, dest[:, a:b])
                    for a, b in zip(cuts[1:-1], cuts[2:])
                ]
                _band_rows(block[:cuts[1]], levels, dest[:, :cuts[1]])
                for future in futures:
                    future.result()
                start = stop
        return out[0], out[1]


def _band_rows(latent, levels, dest) -> None:
    """Quantiles at levels of each row of latent, sorted in place, into dest
    (2, rows); rows holding a NaN take the quantile unsorted."""
    nan_rows = np.flatnonzero(np.isnan(latent).any(axis=1))
    held = latent[nan_rows]
    latent.sort(axis=1)
    dest[:] = np.quantile(latent, levels, axis=1, overwrite_input=True)
    if len(nan_rows):
        dest[:, nan_rows] = np.quantile(held, levels, axis=1)


def sample_posterior(fit: TobitGmmFit, n: int, draws: int, rng: SeededRng) -> PosteriorDraws:
    """Draw from N(beta_hat, corrected/n).

    Sampling goes through the eigendecomposition of the PSD-projected
    corrected covariance, so indefiniteness cannot leak in.
    """
    if min(check_int("n", n), check_int("draws", draws)) < 1:
        raise DataError("draws and n must be positive")
    scale = psd_factor(fit.corrected_matrix, n)
    shocks = rng.generator.standard_normal(size=(draws, len(fit.beta)))
    return PosteriorDraws(beta_draws=fit.beta + shocks @ scale.T)
