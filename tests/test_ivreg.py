import warnings

import numpy as np
import pytest

from dpls_iv import (
    DataError,
    DegenerateDataError,
    DplsConfig,
    SeededRng,
    SgdParams,
    SingularDesignError,
    SyntheticSpec,
    TobitConstants,
    TobitGmmFit,
    augment_instruments,
    dpls_iv_fit,
    estimate_tobit_constants,
    fit_first_stage,
    fit_ols,
    gen_experiment1,
    gmm_beta,
    identity_constants,
    iv_fit,
    recenter_outcome,
    sample_posterior,
    sandwich_variance,
)
from dpls_iv import ivreg
from dpls_iv.ivreg import PosteriorDraws, control_function_fit, corrected_covariance


def test_constants_half_censored_sample():
    c = estimate_tobit_constants(np.array([0.0, 0.0, 1.0, 2.0]))
    assert c.psi1 == 0.5
    assert c.phi_hat == pytest.approx(0.3989422804, abs=1e-9)
    # with a median split the quantile is 0 and c_k collapses to psi1 - phi^2
    assert c.c_k == pytest.approx(0.5 - c.phi_hat**2, abs=1e-12)
    assert c.c_k == pytest.approx(0.340845, abs=1e-6)
    assert c.sigma_star == pytest.approx(1.4202272826983917, abs=1e-12)
    assert c.psi2 == c.sigma_star * c.phi_hat


def test_constants_off_the_median_split():
    c = estimate_tobit_constants(np.array([0.0, 1.0, 2.0, 3.0]))
    assert c.psi1 == 0.75
    k = 0.6744897501960817  # the 75% standard normal quantile
    assert c.phi_hat == pytest.approx(np.exp(-k * k / 2) / np.sqrt(2 * np.pi), abs=1e-15)
    assert c.phi_hat == pytest.approx(0.317776572684107, abs=1e-15)
    assert c.c_k == pytest.approx(0.75 - (c.phi_hat - 0.25 * k) * (c.phi_hat + 0.75 * k), abs=1e-15)
    assert c.c_k == pytest.approx(0.6271501086241272, abs=1e-15)
    assert c.psi2 == c.sigma_star * c.phi_hat


def test_constants_reject_constant_outcome():
    with pytest.raises(DegenerateDataError, match="zero variance"):
        estimate_tobit_constants(np.full(5, 2.0))


def test_constants_clamp_warns_on_all_positive():
    with pytest.warns(UserWarning, match="clamped"):
        c = estimate_tobit_constants(np.array([1.0, 2.0, 3.0]))
    assert c.psi1 == pytest.approx(1.0 - 1e-6)


def test_constants_clamp_warns_on_no_positive():
    with pytest.warns(UserWarning, match="clamped"):
        c = estimate_tobit_constants(np.array([0.0, -1.0, -2.0]))
    assert c.psi1 == pytest.approx(1e-6)


def test_constants_clamp_silent_in_interior():
    # any positive share between 1% and 99% must pass through untouched
    rng = SeededRng(0)
    for share in (0.01, 0.3, 0.99):
        n = 100
        y = np.concatenate([
            np.abs(rng.child(int(share * 100)).normal(size=int(share * n))) + 0.1,
            np.zeros(n - int(share * n)),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = estimate_tobit_constants(y)
        assert c.psi1 == pytest.approx(share)


def test_recenter_affine_example():
    c = TobitConstants(psi1=0.5, psi2=1.0, sigma_star=1.0, phi_hat=0.0, c_k=1.0)
    np.testing.assert_allclose(recenter_outcome(np.array([2.0]), c), [2.0])


def test_recenter_identity_constants():
    y = SeededRng(1).normal(size=20)
    np.testing.assert_array_equal(recenter_outcome(y, identity_constants()), y)


def test_recenter_round_trip():
    rng = SeededRng(2)
    y = np.maximum(rng.normal(size=200), 0.0)
    c = estimate_tobit_constants(y)
    back = c.psi1 * recenter_outcome(y, c) + c.psi2
    np.testing.assert_allclose(back, y, atol=1e-12)


def test_gmm_scalar_ratio_without_covariates():
    p_hat = np.array([1.0, 2.0, 3.0])
    beta, _ = gmm_beta(p_hat, np.empty(0), np.array([2.0, 4.0, 6.0]), p_hat)
    np.testing.assert_allclose(beta, [2.0])


def test_outcome_stages_reject_an_empty_covariate_block_of_the_wrong_rows():
    """(0, 3) covariates for 10 rows is no stand-in for "no covariates"; an
    empty vector still is."""
    rng = SeededRng(21)
    p = rng.child(0).normal(size=10)
    p_hat = p + 0.1 * rng.child(1).normal(size=10)
    y = 2.0 * p + 0.1 * rng.child(2).normal(size=10)
    wrong = np.empty((0, 3))
    with pytest.raises(DataError):
        gmm_beta(p_hat, wrong, y, p)
    with pytest.raises(DataError):
        gmm_beta(p_hat, np.empty(0), y, p[:-1])
    with pytest.raises(DataError):
        control_function_fit(p, p_hat, wrong, y)
    with pytest.raises(DataError):
        control_function_fit(p, p_hat, np.ones(10), y)
    assert gmm_beta(p_hat, np.empty(0), y, p)[0].shape == (1,)
    assert control_function_fit(p, p_hat, np.empty(0), y).beta_x.shape == (0,)


# each public outcome step and the names of its array arguments
_OUTCOME_STEPS = {
    "estimate_tobit_constants": (estimate_tobit_constants, ("y",)),
    "gmm_beta": (gmm_beta, ("p_hat", "x", "y_tilde", "p_observed")),
    "sandwich_variance": (sandwich_variance, ("p_hat", "x", "residuals", "zbar")),
    "control_function_fit": (control_function_fit, ("p", "p_hat", "x", "y")),
}


@pytest.mark.parametrize("step, arg", [(step, arg) for step, (_, args) in _OUTCOME_STEPS.items()
                                       for arg in args])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_every_outcome_step_refuses_a_non_finite_entry(step, arg, bad):
    # sandwich_variance used to return a NaN covariance, estimate_tobit_constants
    # NaN constants and gmm_beta NaN residuals for a NaN observed treatment
    rng = SeededRng(23)
    p = rng.child(0).normal(size=40)
    x = rng.child(1).normal(size=(40, 2))
    p_hat = p + 0.5 * rng.child(2).normal(size=40)
    y = np.maximum(p + rng.child(3).normal(size=40), 0.0)
    inputs = dict(p=p, p_hat=p_hat, p_observed=p, x=x, y=y, y_tilde=y,
                  residuals=rng.child(4).normal(size=40),
                  zbar=np.column_stack([x, rng.child(5).normal(size=(40, 3))]))
    fit, names = _OUTCOME_STEPS[step]
    args = {name: inputs[name].copy() for name in names}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(**args)
        args[arg].flat[7] = bad
        with pytest.raises(DataError, match="finite"):
            fit(**args)


def test_gmm_reduces_to_ols_without_endogeneity():
    rng = SeededRng(3)
    p = rng.child(0).normal(size=80)
    x = rng.child(1).normal(size=(80, 2))
    y = 1.5 * p + x @ np.array([0.5, -1.0]) + 0.1 * rng.child(2).normal(size=80)
    beta, _ = gmm_beta(p, x, y, p_observed=p)
    ols = fit_ols(np.column_stack([p, x]), y)
    np.testing.assert_allclose(beta, ols.coef, atol=1e-12)


def test_gmm_scale_equivariance():
    rng = SeededRng(4)
    p_hat = rng.child(0).normal(size=50)
    x = rng.child(1).normal(size=(50, 2))
    y = rng.child(2).normal(size=50)
    base, _ = gmm_beta(p_hat, x, y, p_observed=p_hat)
    scaled, _ = gmm_beta(p_hat, x, 2.0 * y, p_observed=p_hat)
    np.testing.assert_array_equal(scaled, 2.0 * base)


def test_gmm_residuals_use_observed_treatment_when_given():
    rng = SeededRng(5)
    p = rng.child(0).normal(size=60)
    p_hat = p + 0.5 * rng.child(1).normal(size=60)
    x = rng.child(2).normal(size=(60, 1))
    y = rng.child(3).normal(size=60)
    beta, residuals = gmm_beta(p_hat, x, y, p_observed=p)
    expected = y - np.column_stack([p, x]) @ beta
    np.testing.assert_allclose(residuals, expected, atol=1e-14)
    # the coefficients come from the projected treatment
    np.testing.assert_array_equal(beta, fit_ols(np.column_stack([p_hat, x]), y).coef)


def test_gmm_rank_deficiency_raises():
    rng = SeededRng(6)
    x = rng.normal(size=(40, 1))
    with pytest.raises(SingularDesignError):
        gmm_beta(x.ravel(), x, rng.normal(size=40), x.ravel())


def test_sandwich_equals_robust_ols_form_when_just_identified():
    rng = SeededRng(7)
    design = np.column_stack([
        rng.child(0).normal(size=100),
        rng.child(1).normal(size=(100, 2)),
    ])
    y = design @ np.array([1.0, 0.5, -0.5]) + rng.child(2).normal(size=100)
    _, residuals = gmm_beta(design[:, 0], design[:, 1:], y, design[:, 0])
    sigma = sandwich_variance(design[:, 0], design[:, 1:], residuals, design)
    e2 = residuals**2
    xtx_inv = np.linalg.inv(design.T @ design)
    hc0 = xtx_inv @ (design * e2[:, None]).T @ design @ xtx_inv
    np.testing.assert_allclose(sigma, 100 * hc0, atol=1e-8)


def test_sandwich_zero_residuals_takes_jitter_path():
    rng = SeededRng(8)
    design = rng.normal(size=(50, 2))
    with pytest.warns(UserWarning, match="ridge jitter"):
        sigma = sandwich_variance(design[:, 0], design[:, 1:], np.zeros(50), design)
    assert np.max(np.abs(sigma)) < 1e-3


def test_corrected_covariance_is_psd():
    rng = SeededRng(10)
    p_hat = rng.child(0).normal(size=200)
    x = rng.child(1).normal(size=(200, 1))
    y = np.maximum(2.0 * p_hat + 0.3 * rng.child(2).normal(size=200), 0.0)
    c = estimate_tobit_constants(y)
    beta, residuals = gmm_beta(p_hat, x, recenter_outcome(y, c), p_observed=p_hat)
    sigma = sandwich_variance(p_hat, x, residuals, np.column_stack([p_hat, x]))
    corrected = corrected_covariance(sigma, beta, c.psi1)
    assert np.linalg.eigvalsh(corrected)[0] >= -1e-12


def test_control_function_with_irrelevant_residual_matches_ols():
    """A residual orthogonal to treatment, covariates, and outcome changes
    nothing: the remaining coefficients must equal the plain OLS fit."""
    rng = SeededRng(11)
    n = 64
    p = rng.child(0).normal(size=n)
    x = rng.child(1).normal(size=(n, 2))
    y = 1.2 * p + x @ np.array([0.7, -0.4]) + 0.2 * rng.child(2).normal(size=n)
    raw = rng.child(3).normal(size=n)
    block = np.column_stack([p, x, y, np.ones(n)])
    eta = raw - block @ np.linalg.lstsq(block, raw, rcond=None)[0]
    cf = control_function_fit(p, p - eta, x, y)
    ols = fit_ols(np.column_stack([p, x]), y)
    assert cf.beta == pytest.approx(ols.coef[0], abs=1e-8)
    np.testing.assert_allclose(cf.beta_x, ols.coef[1:], atol=1e-8)
    assert cf.beta_eta == pytest.approx(0.0, abs=1e-8)


def test_control_function_degenerate_first_stage():
    rng = SeededRng(12)
    p = rng.child(0).normal(size=30)
    with pytest.raises(SingularDesignError):
        control_function_fit(p, p, np.empty(0), rng.child(1).normal(size=30))


def test_control_function_beats_naive_ols_under_endogeneity():
    beta_true = 1.2
    a = np.array([1.0, -0.7, 0.4])
    wins = 0
    for rep in range(50):
        rng = SeededRng(900 + rep)
        z = rng.child(0).normal(size=(5000, 3))
        w = rng.child(1).normal(size=5000)
        xi = 0.8 * w + 0.3 * rng.child(2).normal(size=5000)
        p = z @ a + w
        y = beta_true * p + xi
        p_hat = fit_ols(z, p).predict(z)
        cf = control_function_fit(p, p_hat, np.empty(0), y)
        naive = fit_ols(p.reshape(-1, 1), y, fit_intercept=True).coef[0]
        wins += abs(cf.beta - beta_true) < abs(naive - beta_true)
    assert wins >= 45


def test_pipeline_uncensored_is_two_stage_least_squares():
    spec = SyntheticSpec(n=300, m=8, m_redundant=0, k=2, k_null=0,
                         sigma_eps=0.3, coef_seed=1)
    ds, _ = gen_experiment1(spec, SeededRng(13))
    cfg = DplsConfig(layer_widths=(6,), first_layer_q=3,
                     sgd=SgdParams(epochs=10, seed=0))
    fit = dpls_iv_fit(ds, cfg, mode="rescale_gmm", censored=False)
    assert fit.constants == identity_constants()
    p_hat = fit.predict_treatment(ds.z, ds.x)
    ols = fit_ols(np.column_stack([p_hat, ds.x]), ds.y)
    np.testing.assert_allclose(fit.gmm.beta, ols.coef, atol=1e-10)


def test_pipeline_exogenous_treatment_matches_ols():
    """Without error correlation the instrumented and plain estimates differ
    only by noise; the replication-mean gap stays inside 2 standard errors."""
    spec = SyntheticSpec(n=400, m=10, m_redundant=0, k=3, k_null=0,
                         sigma_joint=((0.25, 0.0), (0.0, 0.25)), sigma_eps=0.3,
                         activation_f=False, coef_seed=3)
    cfg = DplsConfig(layer_widths=(8,), sgd=SgdParams(epochs=30, seed=0))
    diffs = []
    for s in range(10):
        ds, _ = gen_experiment1(spec, SeededRng(500 + s))
        fit = dpls_iv_fit(ds, cfg, mode="rescale_gmm", censored=False)
        ols = fit_ols(np.column_stack([ds.p, ds.x]), ds.y, fit_intercept=True)
        diffs.append(fit.gmm.beta[0] - ols.coef[0])
    diffs = np.asarray(diffs)
    mcse = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 2.0 * mcse


def test_pipeline_modes_agree_on_policy_effect():
    from dpls_iv import experiment1_spec

    spec = experiment1_spec()
    cfg = DplsConfig(layer_widths=(16,), sgd=SgdParams(epochs=40, seed=0))
    gaps = []
    for s in range(10):
        ds, _ = gen_experiment1(spec, SeededRng(700 + s))
        a = dpls_iv_fit(ds, cfg, mode="rescale_gmm")
        b = dpls_iv_fit(ds, cfg, mode="control_function")
        assert np.isfinite(a.policy_effect) and np.isfinite(b.policy_effect)
        gaps.append(abs(a.policy_effect - b.policy_effect))
    assert np.median(gaps) <= 0.2


def test_pipeline_mode_validation():
    spec = SyntheticSpec(n=100, m=4, m_redundant=0, k=1, k_null=0, coef_seed=0)
    ds, _ = gen_experiment1(spec, SeededRng(14))
    with pytest.raises(DataError, match="mode"):
        dpls_iv_fit(ds, DplsConfig(first_layer_q=2), mode="bayes")


def test_pipeline_censored_outcome_prediction_is_nonnegative():
    spec = SyntheticSpec(n=300, m=6, m_redundant=0, k=2, k_null=0, coef_seed=2)
    ds, _ = gen_experiment1(spec, SeededRng(15))
    cfg = DplsConfig(layer_widths=(6,), first_layer_q=3,
                     sgd=SgdParams(epochs=10, seed=0))
    fit = dpls_iv_fit(ds, cfg, mode="rescale_gmm", censored=True)
    assert np.all(fit.predict_outcome(ds.z, ds.x) >= 0.0)
    assert fit.gmm.corrected_matrix is not None


@pytest.mark.parametrize("mode", ivreg.MODES)
def test_predict_outcome_refuses_a_p_without_one_finite_entry_per_row(mode):
    spec = SyntheticSpec(n=300, m=6, m_redundant=0, k=2, k_null=0, coef_seed=2)
    ds, _ = gen_experiment1(spec, SeededRng(15))
    first = fit_first_stage("ols", augment_instruments(ds.z, ds.x), ds.p, "auto")
    fit = iv_fit(first, ds, mode=mode)
    assert np.isfinite(fit.predict_outcome(ds.z, ds.x, p=ds.p)).all()
    with pytest.raises(DataError, match="one entry per row"):
        fit.predict_outcome(ds.z, ds.x, p=ds.p[:-1])
    p = ds.p.copy()
    p[7] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        fit.predict_outcome(ds.z, ds.x, p=p)


@pytest.mark.parametrize("censored", [True, False])
def test_outcome_steps_by_hand_give_iv_fits_gmm_stage_bit_for_bit(censored):
    spec = SyntheticSpec(n=300, m=6, m_redundant=0, k=2, k_null=0, coef_seed=2)
    ds, _ = gen_experiment1(spec, SeededRng(15))
    zbar = augment_instruments(ds.z, ds.x)
    first = fit_first_stage("ols", zbar, ds.p, "auto")
    fit = iv_fit(first, ds, mode="rescale_gmm", censored=censored)
    assert fit.n_train == 300
    c = estimate_tobit_constants(ds.y) if censored else identity_constants()
    p_hat = first.predict(zbar)
    beta, residuals = gmm_beta(p_hat, ds.x, recenter_outcome(ds.y, c), ds.p)
    sigma = sandwich_variance(p_hat, ds.x, residuals, zbar)
    corrected = corrected_covariance(sigma, beta, c.psi1)
    for got, want in [(fit.gmm.beta, beta), (fit.gmm.sigma_star_matrix, sigma),
                      (fit.gmm.corrected_matrix, corrected)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["ols", "pls"])
def test_iv_fit_refuses_a_first_stage_of_another_width(method):
    spec = SyntheticSpec(n=200, m=6, m_redundant=0, k=2, k_null=0, coef_seed=2)
    ds, _ = gen_experiment1(spec, SeededRng(16))
    zbar = augment_instruments(ds.z, ds.x)
    assert zbar.shape[1] == 8
    first = fit_first_stage(method, zbar[:, :5], ds.p, 2)
    for mode in ivreg.MODES:
        with pytest.raises(DataError, match="fit expects 5 design columns, data has 8"):
            iv_fit(first, ds, mode=mode)


def _posterior_fixture(dim=3):
    return TobitGmmFit(
        beta=np.zeros(dim),
        sigma_star_matrix=np.eye(dim),
        corrected_matrix=np.eye(dim),
    )


def test_posterior_variance_scales_with_n():
    fit = _posterior_fixture()
    draws = sample_posterior(fit, n=100, draws=100000, rng=SeededRng(16))
    var = draws.beta_draws.var(axis=0, ddof=1)
    np.testing.assert_allclose(var, 0.01, rtol=0.1)


def test_posterior_same_seed_identical():
    fit = _posterior_fixture()
    a = sample_posterior(fit, 50, 200, SeededRng(17))
    b = sample_posterior(fit, 50, 200, SeededRng(17))
    np.testing.assert_array_equal(a.beta_draws, b.beta_draws)


def test_posterior_mean_recovers_beta_hat():
    fit = _posterior_fixture()
    draws = sample_posterior(fit, 100, 100000, SeededRng(18))
    mcse = draws.beta_draws.std(axis=0, ddof=1) / np.sqrt(draws.beta_draws.shape[0])
    np.testing.assert_array_less(np.abs(draws.beta_draws.mean(axis=0)), 3 * mcse)


def test_posterior_predictive_shape():
    fit = _posterior_fixture()
    draws = sample_posterior(fit, 100, 64, SeededRng(20))
    latent = draws.predictive(np.ones((5, 3)))
    assert latent.shape == (5, 64)


def _band_reference(draws, design, level):
    latent = draws.predictive(design)
    tail = (1.0 - level) / 2.0
    return np.quantile(latent, tail, axis=1), np.quantile(latent, 1.0 - tail, axis=1)


@pytest.mark.parametrize("cells, n_draws, rows", [
    (None, 2000, 1100),  # the module's budget: blocks of 524, 524 and a ragged 52
    (None, 2000, 1049),  # 524, 523, 2: no block of one row
    (1000, 30, 100),     # 33, 33, 32, 2
    (64, 100, 7),        # draws exceed the budget: 3, 2, 2 rows
    (64, 100, 1),        # a one-row design is one block
])
def test_band_matches_quantiles_of_the_full_matrix(monkeypatch, cells, n_draws, rows):
    if cells is not None:
        monkeypatch.setattr(ivreg, "_BAND_CELLS", cells)
    draws = sample_posterior(_posterior_fixture(), 100, n_draws, SeededRng(21))
    design = np.random.default_rng(22).normal(size=(rows, 3))
    for level in (0.95, 0.5):
        lo, hi = draws.band(design, level)
        ref_lo, ref_hi = _band_reference(draws, design, level)
        assert lo.tobytes() == ref_lo.tobytes()
        assert hi.tobytes() == ref_hi.tobytes()


def _edge_case_draws_and_design(case):
    rng = np.random.default_rng(24)
    beta_draws = rng.normal(size=(100, 3))
    design = rng.normal(size=(37, 3))
    if case == "tied":
        beta_draws[:] = [0.5, -1.0, 2.0]  # zero covariance: every draw alike
    elif case == "nan_lane":
        design[3] = [np.nan, 1.0, 1.0]  # a lane of NaN only
        design[17] = [np.inf, 1.0, 1.0]
        beta_draws[40, 0] = 0.0  # inf * 0: one NaN among +-inf in lane 17
    elif case == "inf":
        design[::4, 0] = np.inf
        design[1::4, 1] = -np.inf
        design[2::4] = 1e308  # overflows to +-inf in some draws
    elif case == "signed_zero":
        design[::3] = -0.0
        design[1::3] = 0.0
        beta_draws[::2, 1:] = -0.0
        beta_draws[1::5] = 0.0
    return PosteriorDraws(beta_draws=beta_draws), design


@pytest.mark.parametrize("cells", [None, 1000])  # one block; blocks of 10 rows
@pytest.mark.parametrize("case", ["tied", "nan_lane", "inf", "signed_zero"])
def test_band_matches_quantiles_on_ties_nan_inf_and_signed_zeros(monkeypatch, case, cells):
    if cells is not None:
        monkeypatch.setattr(ivreg, "_BAND_CELLS", cells)
    draws, design = _edge_case_draws_and_design(case)
    with np.errstate(invalid="ignore", over="ignore"):
        for level in (0.95, 0.5):
            lo, hi = draws.band(design, level)
            ref_lo, ref_hi = _band_reference(draws, design, level)
            assert lo.tobytes() == ref_lo.tobytes()
            assert hi.tobytes() == ref_hi.tobytes()


def test_band_blocks_stay_within_the_cell_budget(monkeypatch):
    shapes = []
    original = PosteriorDraws.predictive

    def recording(self, design):
        latent = original(self, design)
        shapes.append(latent.shape)
        return latent

    monkeypatch.setattr(PosteriorDraws, "predictive", recording)
    draws = sample_posterior(_posterior_fixture(), 100, 2000, SeededRng(23))
    for n in (1100, 1049, 524):
        shapes.clear()
        draws.band(np.ones((n, 3)), 0.9)
        assert all(rows * cols <= ivreg._BAND_CELLS and cols == 2000 for rows, cols in shapes)
        assert min(rows for rows, _ in shapes) >= 2
        assert sum(rows * cols for rows, cols in shapes) == n * 2000


def test_posterior_argument_validation():
    fit = _posterior_fixture()
    with pytest.raises(DataError):
        sample_posterior(fit, 100, 0, SeededRng(0))
    with pytest.raises(DataError):
        sample_posterior(fit, 0, 10, SeededRng(0))
