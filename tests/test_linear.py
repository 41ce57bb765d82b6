import numpy as np
import pytest

from dpls_iv import (
    ConvergenceError,
    DataError,
    SingularDesignError,
    fit_lasso,
    fit_ols,
    fit_ridge,
)
from dpls_iv import (
    SeededRng, augment_instruments, experiment1_spec, experiment2_spec, gen_experiment1,
    gen_experiment2, linear, split_dataset,
)
from dpls_iv.linear import _fold_errors, _lasso_path, soft_threshold
from lasso_oracle import lasso_path_by_solves


def test_ols_identity_design():
    fit = fit_ols(np.eye(2), np.array([3.0, 5.0]))
    np.testing.assert_allclose(fit.coef, [3.0, 5.0])
    assert fit.intercept == 0.0


def test_ols_with_intercept_recovers_affine_line():
    x = np.arange(10.0).reshape(-1, 1)
    y = 2.0 * x.ravel() + 1.0
    fit = fit_ols(x, y, fit_intercept=True)
    assert fit.coef[0] == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)


def test_ols_duplicate_column_raises():
    col = np.arange(6.0)
    design = np.column_stack([col, col])
    with pytest.raises(SingularDesignError, match="rank-deficient"):
        fit_ols(design, col)


def test_ols_shape_validation():
    with pytest.raises(DataError):
        fit_ols(np.ones((4, 2)), np.ones(3))


def test_ridge_shifted_normal_equations():
    # X'X = 2, X'y = 4, lam = 2 -> coef = 4 / (2 + 2) = 1
    fit = fit_ridge(np.array([[1.0], [1.0]]), np.array([2.0, 2.0]), lam=2.0)
    assert fit.coef[0] == pytest.approx(1.0)


def test_ridge_zero_penalty_equals_ols():
    rng = np.random.default_rng(2)
    design = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    np.testing.assert_allclose(
        fit_ridge(design, y, lam=0.0).coef, fit_ols(design, y).coef, atol=1e-12
    )


def test_ridge_rejects_negative_penalty():
    with pytest.raises(DataError):
        fit_ridge(np.eye(2), np.ones(2), lam=-1.0)


@pytest.mark.parametrize("fit", [fit_ridge, fit_lasso])
@pytest.mark.parametrize(
    "lam, message",
    [
        (float("nan"), "lam must be finite, got nan"),
        (float("inf"), "lam must be finite, got inf"),
        ("abc", "lam must be a non-negative real or 'auto'"),
        (-1.0, "lam must be non-negative"),
        # not real numbers: True used to fit at lam = 1.0, None and a list
        # to raise a bare TypeError
        (True, "lam must be a non-negative real or 'auto'"),
        (np.bool_(True), "lam must be a non-negative real or 'auto'"),
        (None, "lam must be a non-negative real or 'auto'"),
        ([0.5], "lam must be a non-negative real or 'auto'"),
        (np.array(0.5), "lam must be a non-negative real or 'auto'"),
        (0.5 + 0j, "lam must be a non-negative real or 'auto'"),
    ],
)
def test_penalty_rule_rejects_bad_lam_with_data_error(fit, lam, message):
    # one rule for both fitters; a non-finite lam used to reach scipy's
    # solver (ridge) or run the lasso sweeps to their cap
    design = np.random.default_rng(4).normal(size=(20, 3))
    with pytest.raises(DataError) as info:
        fit(design, design @ np.ones(3), lam=lam)
    assert str(info.value) == message


def test_ridge_auto_penalty_runs():
    rng = np.random.default_rng(3)
    design = rng.normal(size=(60, 5))
    y = design @ np.array([1.0, -1.0, 0.5, 0.0, 0.0]) + 0.1 * rng.normal(size=60)
    fit = fit_ridge(design, y, lam="auto")
    assert fit.lam >= 0.0 and np.all(np.isfinite(fit.coef))


def test_soft_threshold_values():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0


def test_lasso_full_shrinkage_above_max_penalty():
    rng = np.random.default_rng(4)
    design = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    lam_max = np.max(np.abs(design.T @ y)) / 50
    fit = fit_lasso(design, y, lam=lam_max * 1.01)
    np.testing.assert_array_equal(fit.coef, np.zeros(3))


def test_lasso_orthonormal_design_soft_thresholds():
    """With X'X/n = I the coordinate-descent solution is closed form."""
    n = 64
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(n, 4)))
    design = np.sqrt(n) * q
    y = design @ np.array([2.0, -0.5, 0.05, 0.0]) + 0.01 * rng.normal(size=n)
    lam = 0.1
    fit = fit_lasso(design, y, lam=lam)
    expected = soft_threshold(design.T @ y / n, lam)
    np.testing.assert_allclose(fit.coef, expected, atol=1e-8)


def test_lasso_raises_convergence_error_at_the_sweep_cap(monkeypatch):
    monkeypatch.setattr(linear, "_LASSO_TOL", 0.0)
    monkeypatch.setattr(linear, "_LASSO_MAX_SWEEPS", 3)
    rng = np.random.default_rng(6)
    base = rng.normal(size=(40, 1))
    design = np.column_stack([base, base + 0.01 * rng.normal(size=(40, 1))])
    y = design @ np.array([1.0, 1.0]) + 0.1 * rng.normal(size=40)
    with pytest.raises(ConvergenceError, match="did not converge in 3 sweeps"):
        fit_lasso(design, y, lam=0.01)


def test_lasso_auto_penalty_prefers_sparsity():
    rng = np.random.default_rng(7)
    design = rng.normal(size=(120, 8))
    coef = np.zeros(8)
    coef[:2] = [3.0, -2.0]
    y = design @ coef + 0.1 * rng.normal(size=120)
    fit = fit_lasso(design, y, lam="auto")
    assert fit.lam > 0.0
    assert np.all(np.abs(fit.coef[:2]) > 1.0)


def test_predict_applies_intercept():
    fit = fit_ols(np.arange(8.0).reshape(-1, 1), 3.0 * np.arange(8.0) + 4.0,
                  fit_intercept=True)
    np.testing.assert_allclose(fit.predict(np.array([[10.0]])), [34.0])


def _kkt_violation(design, y, lams, coefs):
    """Largest breach of the lasso optimality conditions over a grid."""
    n = len(y)
    worst = 0.0
    for lam, coef in zip(lams, coefs.T):
        corr = design.T @ (y - design @ coef) / n
        active = coef != 0.0
        worst = max(
            worst,
            np.max(np.abs(corr[~active]) - lam, initial=0.0),
            np.max(np.abs(corr[active] - lam * np.sign(coef[active])), initial=0.0),
        )
    return worst


def _grid(design, y):
    lam_max = np.max(np.abs(design.T @ y)) / len(y)
    return np.geomspace(lam_max * 10.0, lam_max * 1e-4, 50)


def test_lasso_path_meets_kkt_at_every_grid_point():
    rng = np.random.default_rng(8)
    design = rng.normal(size=(80, 12))
    y = design[:, :4] @ np.array([2.0, -1.0, 0.5, 0.2]) + rng.normal(size=80)
    lams = _grid(design, y)
    coefs = _lasso_path(design, y, lams)
    assert _kkt_violation(design, y, lams, coefs) <= 1e-10
    lam_max = np.max(np.abs(design.T @ y)) / 80
    np.testing.assert_array_equal(coefs[:, lams >= lam_max], 0.0)
    assert np.all(coefs[:, -1] != 0.0)  # the smallest penalty keeps every column


def test_lasso_path_meets_kkt_across_random_designs():
    """Paths whose coefficients drop out and rejoin with the other sign."""
    rng = np.random.default_rng(13)
    for _ in range(60):
        n, d = int(rng.integers(8, 60)), int(rng.integers(2, 25))
        design = rng.normal(size=(n, d))
        y = design[:, :3] @ rng.normal(size=min(d, 3)) + rng.normal(size=n)
        lams = _grid(design, y)
        assert _kkt_violation(design, y, lams, _lasso_path(design, y, lams)) <= 1e-10


def test_lasso_path_soft_thresholds_orthonormal_design():
    n = 64
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(n, 4)))
    design = np.sqrt(n) * q
    y = design @ np.array([2.0, -0.5, 0.05, 0.0]) + 0.01 * rng.normal(size=n)
    lams = _grid(design, y)
    coefs = _lasso_path(design, y, lams)
    for lam, coef in zip(lams, coefs.T):
        np.testing.assert_allclose(
            coef, soft_threshold(design.T @ y / n, lam), rtol=0.0, atol=1e-12
        )


def _duplicated_column(rng):
    design = rng.normal(size=(40, 6))
    design[:, 3] = design[:, 0]
    return design


def _zero_column(rng):
    design = rng.normal(size=(40, 6))
    design[:, 2] = 0.0
    return design


def _wide(rng):
    return rng.normal(size=(12, 30))  # fewer rows than columns


@pytest.mark.parametrize("make", [_duplicated_column, _zero_column, _wide])
def test_lasso_path_degenerate_design_is_finite_and_optimal(make):
    rng = np.random.default_rng(9)
    design = make(rng)
    y = design[:, :3] @ np.array([1.5, -1.0, 0.5]) + rng.normal(size=len(design))
    lams = _grid(design, y)
    coefs = _lasso_path(design, y, lams)
    assert np.all(np.isfinite(coefs))
    assert _kkt_violation(design, y, lams, coefs) <= 1e-10


def _training_half(dgp, seed):
    """A benchmark replication's training half of a default design: (zbar, p)."""
    gen, spec = {"experiment1": (gen_experiment1, experiment1_spec),
                 "experiment2": (gen_experiment2, experiment2_spec)}[dgp]
    rng = SeededRng(seed)
    ds, _ = gen(spec(), rng.child(0))
    train, _ = split_dataset(ds, 0.5, rng.child(1))
    return augment_instruments(train.z, train.x), train.p


def _cv_paths(path, design, y):
    """The lasso CV's six paths by the given path function: each fold's,
    then the full data's, over the CV grid."""
    grid = linear._cv_grid(design, y)
    paths = []
    for fold in range(5):
        mask = np.zeros(len(y), dtype=bool)
        mask[fold::5] = True
        paths.append(path(design[~mask], y[~mask], grid))
    return paths + [path(design, y, grid)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dgp", ["experiment1", "experiment2"])
def test_lasso_path_has_the_bits_of_a_solve_per_kink(dgp, seed):
    design, y = _training_half(dgp, seed)
    for ours, reference in zip(_cv_paths(_lasso_path, design, y),
                               _cv_paths(lasso_path_by_solves, design, y)):
        assert ours.tobytes() == reference.tobytes()


@pytest.mark.parametrize("make", [_duplicated_column, _zero_column, _wide])
def test_degenerate_lasso_path_has_the_bits_of_a_solve_per_kink(make):
    rng = np.random.default_rng(9)
    design = make(rng)
    y = design[:, :3] @ np.array([1.5, -1.0, 0.5]) + rng.normal(size=len(design))
    for ours, reference in zip(_cv_paths(_lasso_path, design, y),
                               _cv_paths(lasso_path_by_solves, design, y)):
        assert ours.tobytes() == reference.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lasso_path_on_a_non_finite_design_raises_value_error(bad):
    """At its first kink, as scipy.linalg.solve's finiteness check did."""
    rng = np.random.default_rng(9)
    design, y = rng.normal(size=(40, 5)), rng.normal(size=40)
    design[3, 2] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _lasso_path(design, y, [1.0, 0.1])


def test_lasso_path_raises_linalg_error_when_the_factor_fails():
    """Moments whose Gram matrix is not positive definite in the upper
    triangle the factor reads; symmetric moments of a design never are."""
    gram, cross = np.array([[1.0, 2.0], [0.5, 1.0]]), np.array([1.0, 0.9])
    with pytest.raises(np.linalg.LinAlgError):
        _lasso_path(None, None, [0.5, 0.01], (gram, cross))


def test_lasso_auto_penalty_on_wide_folds():
    rng = np.random.default_rng(10)
    design = rng.normal(size=(20, 30))  # each CV fold trains on 16 rows
    y = design[:, 0] - design[:, 1] + 0.1 * rng.normal(size=20)
    fit = fit_lasso(design, y, lam="auto")
    assert fit.lam > 0.0 and np.all(np.isfinite(fit.coef))


def test_lasso_fit_is_certified_by_one_sweep(monkeypatch):
    monkeypatch.setattr(linear, "_LASSO_MAX_SWEEPS", 1)
    rng = np.random.default_rng(11)
    base = rng.normal(size=(60, 1))
    design = np.column_stack([base, base + 0.01 * rng.normal(size=(60, 1)),
                              rng.normal(size=(60, 3))])
    y = design @ np.array([1.0, 1.0, 0.5, 0.0, -0.3]) + 0.1 * rng.normal(size=60)
    for lam in (0.5, 0.05, 0.001):
        fit = fit_lasso(design, y, lam=lam)
        path = _lasso_path(design, y, [lam])[:, 0]
        np.testing.assert_allclose(fit.coef, path, rtol=0.0, atol=1e-12)


def _ridge_cv_reference(design, y, grid, n_folds=5):
    """Held-out error of one fit_ridge solve per fold and penalty."""
    errors = np.zeros(len(grid))
    for fold in range(n_folds):
        mask = np.zeros(len(y), dtype=bool)
        mask[fold::n_folds] = True
        for gi, lam in enumerate(grid):
            fit = fit_ridge(design[~mask], y[~mask], lam)
            errors[gi] += np.sum((y[mask] - fit.predict(design[mask])) ** 2)
    return errors


def test_ridge_svd_cv_errors_match_per_penalty_solves():
    rng = np.random.default_rng(12)
    design = rng.normal(size=(45, 7)) + 0.5
    y = design @ rng.normal(size=7) + 2.0 + rng.normal(size=45)
    grid = _grid(design, y)
    errors = sum(_fold_errors(design, y, grid, fold, "ridge") for fold in range(5))
    reference = _ridge_cv_reference(design, y, grid)
    np.testing.assert_allclose(errors, reference, rtol=1e-9)
    chosen = fit_ridge(design, y, lam="auto").lam
    assert chosen == grid[np.argmin(reference)]
