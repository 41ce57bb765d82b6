import numpy as np
import pytest

from dpls_iv import (
    CovPair,
    DataError,
    SeededRng,
    SingularDesignError,
    compute_krylov,
    fit_ols,
    fit_pls_closed_form,
    fit_pls_deflation,
    sample_cov_pair,
    select_q_cv,
)


def _regression_data(seed, n=120, d=6, noise=0.3):
    rng = SeededRng(seed)
    zbar = rng.child(0).normal(size=(n, d))
    coef = rng.child(1).normal(size=d)
    p = zbar @ coef + noise * rng.child(2).normal(size=n)
    return zbar, p


def test_krylov_columns_iterate_the_covariance():
    cov = CovPair(
        s_zz=np.diag([1.0, 2.0]),
        s_zp=np.array([1.0, 1.0]),
        means=np.zeros(2),
        p_mean=0.0,
        n=10,
    )
    basis = compute_krylov(cov, 2)
    assert basis.shape == (2, 2)
    # the basis spans s_zp = (1, 1) and S_zz s_zp = (1, 2), first column first
    np.testing.assert_allclose(basis[:, 0], np.array([1.0, 1.0]) / np.sqrt(2.0))
    raw = np.array([[1.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(basis @ (basis.T @ raw), raw, atol=1e-12)


def test_krylov_rejects_zero_cross_covariance():
    cov = CovPair(
        s_zz=np.eye(2), s_zp=np.zeros(2), means=np.zeros(2), p_mean=0.0, n=10
    )
    with pytest.raises(DataError, match="zero vector"):
        compute_krylov(cov, 1)


def test_krylov_orthonormal_basis():
    zbar, p = _regression_data(0)
    basis = compute_krylov(sample_cov_pair(zbar, p), 4)
    assert basis.shape == (6, 4)
    np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-10)


def test_full_q_equals_ols_predictions():
    zbar, p = _regression_data(1, n=200, d=7)
    pls = fit_pls_closed_form(zbar, p, q=7)
    ols = fit_ols(zbar, p, fit_intercept=True)
    np.testing.assert_allclose(pls.predict(zbar), ols.predict(zbar), atol=1e-8)


def test_closed_form_and_deflation_agree():
    zbar, p = _regression_data(2, n=150, d=8)
    for q in range(1, 6):
        a = fit_pls_closed_form(zbar, p, q).predict(zbar)
        b = fit_pls_deflation(zbar, p, q).predict(zbar)
        np.testing.assert_allclose(a, b, atol=1e-6 * max(1.0, np.abs(a).max()))


def test_scores_are_orthogonal():
    zbar, p = _regression_data(3, d=5)
    for fit in (fit_pls_closed_form(zbar, p, 4), fit_pls_deflation(zbar, p, 4)):
        scores = (zbar - fit.means) @ fit.weights
        gram = scores.T @ scores
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.abs(gram))


def test_coef_equals_weights_times_y_loadings():
    zbar, p = _regression_data(4)
    fit = fit_pls_closed_form(zbar, p, 3)
    np.testing.assert_allclose(fit.coef, fit.weights @ fit.y_loadings, atol=1e-12)


def test_prediction_is_centered():
    zbar, p = _regression_data(5)
    fit = fit_pls_closed_form(zbar, p, 2)
    assert fit.predict(zbar).mean() == pytest.approx(p.mean(), abs=1e-8)


def test_q_out_of_range():
    zbar, p = _regression_data(6, d=4)
    for bad in (0, 5):
        with pytest.raises(DataError):
            fit_pls_closed_form(zbar, p, bad)
        with pytest.raises(DataError):
            fit_pls_deflation(zbar, p, bad)


def test_closed_form_detects_rank_collapse():
    # duplicated column keeps the Krylov space strictly smaller than d
    rng = SeededRng(7)
    base = rng.child(0).normal(size=(100, 3))
    zbar = np.column_stack([base, base[:, 0]])
    p = base @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.child(1).normal(size=100)
    with pytest.raises(SingularDesignError):
        fit_pls_closed_form(zbar, p, 4)


def test_deflation_reports_achieved_components():
    rng = SeededRng(8)
    f = rng.child(0).normal(size=(200, 1))
    zbar = np.column_stack([f, 2.0 * f, -f])  # rank-one instrument block
    p = f.ravel() + 0.01 * rng.child(1).normal(size=200)
    fit = fit_pls_deflation(zbar, p, 3)
    assert fit.q == 1


def _latent_data(seed, n=2000, d=12, r=3):
    rng = SeededRng(seed)
    factors = rng.child(0).normal(size=(n, r))
    loadings = rng.child(1).normal(size=(r, d))
    zbar = factors @ loadings + 0.05 * rng.child(2).normal(size=(n, d))
    p = factors @ rng.child(3).normal(size=r) + 0.1 * rng.child(4).normal(size=n)
    return zbar, p


def test_select_q_recovers_latent_dimension():
    hits = 0
    for s in range(10):
        zbar, p = _latent_data(s)
        hits += select_q_cv(zbar, p, 8, 5, SeededRng(100 + s)) == 3
    assert hits >= 8


def test_select_q_respects_q_max_one():
    zbar, p = _regression_data(9)
    assert select_q_cv(zbar, p, 1, 5, SeededRng(0)) == 1


def test_select_q_on_pure_noise_prefers_one():
    ones = 0
    for s in range(10):
        rng = SeededRng(200 + s)
        zbar = rng.child(0).normal(size=(400, 10))
        p = rng.child(1).normal(size=400)
        ones += select_q_cv(zbar, p, 6, 5, rng.child(2)) == 1
    assert ones >= 6


def test_select_q_argument_validation():
    zbar, p = _regression_data(10, d=4)
    with pytest.raises(DataError):
        select_q_cv(zbar, p, 5, 5, SeededRng(0))
    with pytest.raises(DataError):
        select_q_cv(zbar, p, 2, 1, SeededRng(0))
