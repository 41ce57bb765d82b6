"""Outcome-stage estimators for censored-outcome instrumental variables.

The observed outcome is y = max(y*, 0) for a latent linear index y*. A
probit-style recentering turns y into an unbiased-in-expectation proxy
y_tilde for the latent scale using only the censoring fraction and the
outcome variance; the policy coefficients are then recovered by linear GMM
of y_tilde on [p_hat, x] with a heteroskedasticity-robust sandwich. A
control-function fit (regress on [p, p - p_hat, x]) is provided as an
alternative second stage, and an asymptotic-normal posterior sampler covers
interval summaries; its predictive band walks the design in row blocks, so
memory stays bounded however many rows and draws there are, and sorts each
block's rows on every usable CPU. iv_fit is the one
outcome stage: it runs over any fitted first stage, network or linear
baseline alike.
"""
from __future__ import annotations

import contextvars
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, SeededRng, augment_instruments, part_count
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
    if y.ndim != 1 or len(y) < 2:
        raise DataError("y must be a vector with at least 2 entries")
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
    if constants.psi1 <= 0.0:
        raise DataError("psi1 must be positive")
    y = np.asarray(y, dtype=np.float64)
    return (y - constants.psi2) / constants.psi1


@dataclass(frozen=True)
class TobitGmmFit:
    """Second-stage fit; beta[0] is the policy effect, beta[1:] the x terms.

    sigma_star_matrix is the asymptotic covariance of sqrt(n)(beta_hat - beta)
    and corrected_matrix subtracts the recentering-induced psi1(1-psi1) bbT
    term (PSD-projected). Both are None until sandwich_variance runs.
    """

    beta: np.ndarray
    constants: TobitConstants
    design: np.ndarray
    residuals: np.ndarray
    sigma_star_matrix: np.ndarray | None = None
    corrected_matrix: np.ndarray | None = None


def gmm_beta(p_hat, x, y_tilde, constants: TobitConstants, p_observed) -> TobitGmmFit:
    """Least-squares coefficients of y_tilde on the design [p_hat, x].

    Stored residuals are taken against [p_observed, x]; those are the moment
    residuals the variance estimator needs (residuals against the projected
    treatment fold the first-stage error into the error variance and
    overstate it).
    """
    p_hat = np.asarray(p_hat, dtype=np.float64).ravel()
    y_tilde = np.asarray(y_tilde, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        x = np.empty((len(p_hat), 0))
    if x.ndim != 2 or x.shape[0] != len(p_hat) or len(y_tilde) != len(p_hat):
        raise DataError("p_hat, x, y_tilde must have matching row counts")
    design = np.column_stack([p_hat, x])
    ls = fit_ols(design, y_tilde)
    beta = ls.coef
    p_observed = np.asarray(p_observed, dtype=np.float64).ravel()
    if len(p_observed) != len(p_hat):
        raise DataError("p_observed must align with p_hat")
    resid = y_tilde - np.column_stack([p_observed, x]) @ beta
    return TobitGmmFit(beta=beta, constants=constants, design=design, residuals=resid)


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


def sandwich_variance(fit: TobitGmmFit, zbar) -> np.ndarray:
    """Heteroskedasticity-robust covariance of sqrt(n)(beta_hat - beta).

    Sigma* = n^2 (PtZ A^-1 ZtP)^-1, the efficiently weighted GMM sandwich
    with the score-covariance matrix A = (1/n) sum e_i^2 zbar_i zbar_i'. It
    reduces to the classical robust OLS form when zbar equals the design.
    """
    zbar = np.asarray(zbar, dtype=np.float64)
    n, d = zbar.shape
    if fit.residuals.shape != (n,):
        raise DataError("zbar rows must match the fitted sample")
    ezsq = fit.residuals**2
    a_hat = (zbar * ezsq[:, None]).T @ zbar / n
    a_inv = _robust_inverse(a_hat)
    ptz = fit.design.T @ zbar
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


def corrected_covariance(fit: TobitGmmFit) -> np.ndarray:
    """Sigma* minus the psi1(1 - psi1) beta beta' recentering term, PSD-projected.

    The subtraction can go indefinite in finite samples, so negative
    eigenvalues are clipped at zero before any use in sampling.
    """
    if fit.sigma_star_matrix is None:
        raise DataError("run sandwich_variance before corrected_covariance")
    p1 = fit.constants.psi1
    raw = fit.sigma_star_matrix - p1 * (1.0 - p1) * np.outer(fit.beta, fit.beta)
    return _project_psd(raw)


@dataclass(frozen=True)
class ControlFunctionFit:
    """Second stage on [p, eta_hat, x] where eta_hat = p - p_hat."""

    beta: float
    beta_eta: float
    beta_x: np.ndarray


def control_function_fit(p, p_hat, x, y) -> ControlFunctionFit:
    """Regress the outcome on treatment, first-stage residual, and covariates.

    The residual column absorbs the endogenous part of p; a constant p_hat
    makes p and eta_hat collinear and the fit fails accordingly.
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    p_hat = np.asarray(p_hat, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        x = np.empty((len(p), 0))
    if not (len(p) == len(p_hat) == len(y) == x.shape[0]):
        raise DataError("p, p_hat, x, y must have matching row counts")
    eta = p - p_hat
    design = np.column_stack([p, eta, x])
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
    the deep PLS network, or a linear, ridge, lasso or PLS baseline.
    """

    mode: str
    censored: bool
    first_stage: DplsModel | PlsFit | LinearFit
    constants: TobitConstants
    gmm: TobitGmmFit | None = None
    cf: ControlFunctionFit | None = None

    @property
    def policy_effect(self) -> float:
        if self.gmm is not None:
            return float(self.gmm.beta[0])
        return self.cf.beta

    def predict_treatment(self, z, x) -> np.ndarray:
        zbar = augment_instruments(z, x)
        width = len(self.first_stage.coef)
        if zbar.shape[1] != width:
            raise DataError(
                f"fit expects {width} design columns, data has {zbar.shape[1]}"
            )
        return self.first_stage.predict(zbar)

    def predict_outcome(self, z, x, p=None) -> np.ndarray:
        """Structural outcome prediction on the observed scale.

        The latent index is formed from the fitted coefficients and, when
        the outcome stage was censored, passed through the known max(., 0)
        transform. Supplying realized treatments p lets the control-function
        mode use its residual term; otherwise the residual is taken as zero.
        """
        x = np.asarray(x, dtype=np.float64)
        p_hat = self.predict_treatment(z, x)
        if self.gmm is not None:
            index = p_hat * self.gmm.beta[0]
            if x.size:
                index = index + x @ self.gmm.beta[1:]
        else:
            if p is None:
                index = p_hat * self.cf.beta
            else:
                p = np.asarray(p, dtype=np.float64).ravel()
                index = p * self.cf.beta + (p - p_hat) * self.cf.beta_eta
            if x.size:
                index = index + x @ self.cf.beta_x
        if self.censored:
            return np.maximum(index, 0.0)
        return index


def _check_mode(mode: str) -> None:
    if mode not in ("rescale_gmm", "control_function"):
        raise DataError("mode must be 'rescale_gmm' or 'control_function'")


def iv_fit(
    first_stage, ds: Dataset, mode: str = "rescale_gmm", censored: bool = True
) -> DplsIvFit:
    """Run the outcome stage on a fitted first stage's treatment predictions.

    censored=False skips recentering (identity constants), under which the
    rescale_gmm mode is exactly two-stage least squares on the first stage's
    treatment predictions. The rescale_gmm mode always carries the sandwich
    and corrected covariances, so every such fit supports posterior draws.
    """
    _check_mode(mode)
    zbar = augment_instruments(ds.z, ds.x)
    p_hat = first_stage.predict(zbar)
    constants = estimate_tobit_constants(ds.y) if censored else identity_constants()
    y_tilde = recenter_outcome(ds.y, constants)
    gmm = cf = None
    if mode == "rescale_gmm":
        gmm = gmm_beta(p_hat, ds.x, y_tilde, constants, p_observed=ds.p)
        gmm = replace(gmm, sigma_star_matrix=sandwich_variance(gmm, zbar))
        gmm = replace(gmm, corrected_matrix=corrected_covariance(gmm))
    else:
        cf = control_function_fit(ds.p, p_hat, ds.x, y_tilde)
    return DplsIvFit(
        mode=mode, censored=censored, first_stage=first_stage,
        constants=constants, gmm=gmm, cf=cf,
    )


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
        each (data.part_count): worker threads take the parts after the
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
                parts = min(part_count(block.size, _BAND_PART_CELLS), len(block))
                cuts = [len(block) * i // parts for i in range(parts + 1)]
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
    if draws < 1 or n < 1:
        raise DataError("draws and n must be positive")
    cov = fit.corrected_matrix
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    scale = vecs * np.sqrt(np.maximum(vals, 0.0) / n)
    shocks = rng.generator.standard_normal(size=(draws, len(fit.beta)))
    return PosteriorDraws(beta_draws=fit.beta + shocks @ scale.T)
