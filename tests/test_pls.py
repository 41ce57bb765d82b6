import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpls_iv import (
    DataError,
    SeededRng,
    SingularDesignError,
    augment_instruments,
    experiment1_spec,
    experiment2_spec,
    fit_ols,
    fit_pls_closed_form,
    gen_experiment1,
    gen_experiment2,
    select_q_cv,
    split_dataset,
)
from dpls_iv.data import _heldout_sse
from dpls_iv.pls import AUTO_Q_CAP, compute_krylov
from pls_oracle import fit_pls_deflation
from dpls_iv.pls import CovPair, sample_cov_pair


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
    )
    weights = compute_krylov(cov, 2)
    assert weights.shape == (2, 2)
    # the first weight is s_zp = (1, 1) over its S_zz norm sqrt(3)
    np.testing.assert_allclose(weights[:, 0], np.array([1.0, 1.0]) / np.sqrt(3.0))
    np.testing.assert_allclose(weights.T @ cov.s_zz @ weights, np.eye(2), atol=1e-10)
    # W W' S_zz projects onto the span of s_zp and S_zz s_zp = (1, 2)
    raw = np.array([[1.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(weights @ weights.T @ cov.s_zz @ raw, raw, atol=1e-12)


def test_krylov_rejects_zero_cross_covariance():
    cov = CovPair(s_zz=np.eye(2), s_zp=np.zeros(2), means=np.zeros(2), p_mean=0.0)
    with pytest.raises(DataError, match="zero vector"):
        compute_krylov(cov, 1)


def _training_half(name, seed=0):
    """zbar and p of the benchmark's training half of one default design."""
    spec, gen = {"experiment1": (experiment1_spec, gen_experiment1),
                 "experiment2": (experiment2_spec, gen_experiment2)}[name]
    rng = SeededRng(seed)
    ds, _truth = gen(spec(), rng.child(0))
    train, _test = split_dataset(ds, 0.5, rng.child(1))
    return augment_instruments(train.z, train.x), train.p


def test_krylov_orthonormal_basis():
    zbar, p = _regression_data(0)
    cov = sample_cov_pair(zbar, p)
    weights = compute_krylov(cov, 4)
    assert weights.shape == (6, 4)
    assert weights.flags.c_contiguous
    np.testing.assert_allclose(weights.T @ cov.s_zz @ weights, np.eye(4), atol=1e-10)
    raw = np.column_stack([np.linalg.matrix_power(cov.s_zz, j) @ cov.s_zp for j in range(4)])
    np.testing.assert_allclose(weights @ weights.T @ cov.s_zz @ raw, raw,
                               atol=1e-10 * np.abs(raw).max())


@pytest.mark.parametrize("name", ["experiment1", "experiment2"])
def test_krylov_basis_stays_orthonormal_up_to_the_auto_cap(name):
    cov = sample_cov_pair(*_training_half(name))
    weights = compute_krylov(cov, AUTO_Q_CAP)
    assert weights.shape[1] == AUTO_Q_CAP
    np.testing.assert_allclose(weights.T @ cov.s_zz @ weights, np.eye(AUTO_Q_CAP), atol=1e-10)


def test_closed_form_reaches_the_auto_cap_on_experiment2():
    # the benchmark's seed-0 training half: q = "auto" may pick any q up to
    # the cap, so every one of them must fit
    rng = SeededRng(0)
    ds, _truth = gen_experiment2(experiment2_spec(), rng.child(0))
    train, _test = split_dataset(ds, 0.5, rng.child(1))
    zbar = augment_instruments(train.z, train.x)
    fit = fit_pls_closed_form(zbar, train.p, AUTO_Q_CAP)
    ref = fit_pls_deflation(zbar, train.p, AUTO_Q_CAP)
    assert fit.q == ref.q == AUTO_Q_CAP
    np.testing.assert_allclose(fit.coef, ref.coef, rtol=0,
                               atol=1e-8 * np.abs(ref.coef).max())


def _cg_iterates(cov, qs, digits=60):
    """The conjugate-gradient iterates on S_zz b = s_zp, started from 0, at
    each q of qs, computed in `digits`-digit arithmetic: the q-th iterate is
    the PLS coefficient with q components."""
    mp = pytest.importorskip("mpmath")
    out = {}
    with mp.workdps(digits):
        s_zz = [[mp.mpf(v) for v in row] for row in cov.s_zz.tolist()]
        r = [mp.mpf(v) for v in cov.s_zp.tolist()]
        b, d = [mp.mpf(0)] * len(r), list(r)
        rr = mp.fdot(r, r)
        for q in range(1, max(qs) + 1):
            sd = [mp.fdot(row, d) for row in s_zz]
            alpha = rr / mp.fdot(d, sd)
            b = [bi + alpha * di for bi, di in zip(b, d)]
            r = [ri - alpha * sdi for ri, sdi in zip(r, sd)]
            rr, rr_old = mp.fdot(r, r), rr
            d = [ri + (rr / rr_old) * di for ri, di in zip(r, d)]
            if q in qs:
                out[q] = np.array([float(v) for v in b])
    return out


def test_closed_form_matches_high_precision_conjugate_gradient_past_q_16():
    # the benchmark's seed-0 experiment1 training half, where the deflation
    # oracle drifts above q = 16 (2e-9 at 16, 3e-4 at 30); the CG iterate in
    # 60 digits is a reference that does not
    rng = SeededRng(0)
    ds, _truth = gen_experiment1(experiment1_spec(), rng.child(0))
    train, _test = split_dataset(ds, 0.5, rng.child(1))
    zbar = augment_instruments(train.z, train.x)
    for q, ref in _cg_iterates(sample_cov_pair(zbar, train.p), {16, 25, 30}).items():
        coef = fit_pls_closed_form(zbar, train.p, q).coef
        assert np.linalg.norm(coef - ref) <= 1e-12 * np.linalg.norm(ref)


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
    cov = sample_cov_pair(zbar, p)
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(DataError, match="^q must be an integer"):
            fit_pls_closed_form(zbar, p, bad)
        with pytest.raises(DataError, match="^q must be an integer"):
            compute_krylov(cov, bad)
    assert fit_pls_closed_form(zbar, p, np.int64(2)).q == 2


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
        hits += select_q_cv(zbar, p, 8, SeededRng(100 + s)) == 3
    assert hits >= 8


def test_select_q_respects_q_max_one():
    zbar, p = _regression_data(9)
    assert select_q_cv(zbar, p, 1, SeededRng(0)) == 1


def test_select_q_on_pure_noise_prefers_one():
    ones = 0
    for s in range(10):
        rng = SeededRng(200 + s)
        zbar = rng.child(0).normal(size=(400, 10))
        p = rng.child(1).normal(size=400)
        ones += select_q_cv(zbar, p, 6, rng.child(2)) == 1
    assert ones >= 6


def test_select_q_argument_validation():
    zbar, p = _regression_data(10, d=4)
    with pytest.raises(DataError):
        select_q_cv(zbar, p, 5, SeededRng(0))
    with pytest.raises(DataError, match="one entry per row"):
        select_q_cv(zbar, p[:-1], 3, SeededRng(0))
    with pytest.raises(DataError, match="must be a matrix"):
        select_q_cv(zbar[:, 0], p, 1, SeededRng(0))
    for bad in (3.0, 2.5, True):
        with pytest.raises(DataError, match="^q_max must be an integer"):
            select_q_cv(zbar, p, bad, SeededRng(0))


def test_select_q_needs_a_row_per_fold():
    zbar, p = _regression_data(10, n=4, d=2)
    with pytest.raises(DataError, match="at least 5 rows"):
        select_q_cv(zbar, p, 1, SeededRng(0))


def _factorial(d, reps):
    """The 2^d design of +-1 factors, each row repeated reps times: S_zz of
    all rows is a multiple of the identity, so their Krylov space has rank 1,
    while that of an unbalanced fold may reach higher."""
    levels = np.array([[1.0 if (row >> j) & 1 else -1.0 for j in range(d)]
                       for row in range(2**d)])
    return np.repeat(levels, reps, axis=0)


def test_select_q_stays_within_the_rank_of_all_rows():
    z = _factorial(2, 5)
    p = z @ np.array([1.0, 0.2]) + 0.01 * SeededRng(0).normal(size=len(z))
    assert compute_krylov(sample_cov_pair(z, p), 2).shape[1] == 1
    # every fold of 16 rows reaches rank 2, and their errors alone favor q = 2
    perm = SeededRng(0).permutation(len(z))
    for f in range(5):
        mask = np.ones(len(z), dtype=bool)
        mask[perm[f::5]] = False
        assert compute_krylov(sample_cov_pair(z[mask], p[mask]), 2).shape[1] == 2
    assert select_q_cv(z, p, 2, SeededRng(0)) == 1


@pytest.mark.parametrize("name", ["experiment1", "experiment2"])
def test_select_q_path_scores_equal_per_q_closed_form_fits(name, monkeypatch):
    # each fold scores its whole cumulative coefficient path at once: entry
    # q - 1 must be the held-out error of the q-component fit on its rows
    scores = []

    def record(design, target, coefs):
        scores.append(_heldout_sse(design, target, coefs))
        return scores[-1]

    monkeypatch.setattr("dpls_iv.pls._heldout_sse", record)
    zbar, p = _training_half(name)
    n, q_max = len(p), AUTO_Q_CAP
    q = select_q_cv(zbar, p, q_max, SeededRng(0).child(7))
    assert len(scores) == 5
    perm = SeededRng(0).child(7).permutation(n)
    for f, fold_scores in enumerate(scores):
        test = perm[f::5]
        train = np.setdiff1d(np.arange(n), test)
        rank = compute_krylov(sample_cov_pair(zbar[train], p[train]), q_max).shape[1]
        assert len(fold_scores) == rank == q_max
        for qq in range(1, rank + 1):
            fit = fit_pls_closed_form(zbar[train], p[train], qq)
            ref = np.sum((p[test] - fit.predict(zbar[test])) ** 2)
            assert fold_scores[qq - 1] == pytest.approx(ref, rel=1e-10)
    assert q == np.argmin(np.sum(scores, axis=0)) + 1


@st.composite
def _designs(draw, shapes=("tall", "wide", "duplicated", "factorial")):
    """Tall (n > d), wide (n < d), duplicated-column and balanced +-1
    factorial designs, or only those of the given shapes."""
    shape = draw(st.sampled_from(shapes))
    if shape == "factorial":
        zbar = _factorial(draw(st.integers(1, 4)), draw(st.integers(3, 6)))
        n, d = zbar.shape
    elif shape == "wide":
        n = draw(st.integers(5, 30))
        d = draw(st.integers(n + 1, 45))
    else:
        d = draw(st.integers(1, 12))
        n = draw(st.integers(max(5, d + 2), 80))
    rng = SeededRng(draw(st.integers(0, 2**32 - 1)))
    if shape != "factorial":
        zbar = rng.child(0).normal(size=(n, d))
    p = zbar @ rng.child(1).normal(size=d) + draw(
        st.sampled_from([0.01, 0.3, 3.0])) * rng.child(2).normal(size=n)
    if shape == "duplicated":
        copies = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d))
        zbar = np.column_stack([zbar, zbar[:, copies]])
    return zbar, p, rng.child(3)


@settings(max_examples=150, deadline=None)
@given(design=_designs())
def test_select_q_returns_a_q_that_fits_on_all_rows(design):
    zbar, p, rng = design
    q_max = min(zbar.shape[1], AUTO_Q_CAP)
    q = select_q_cv(zbar, p, q_max, rng)
    assert 1 <= q <= q_max
    assert fit_pls_closed_form(zbar, p, q).q == q


@settings(max_examples=100, deadline=None)
@given(design=_designs(shapes=["wide"]))
def test_select_q_picks_a_q_that_every_usable_fold_scored(design):
    # on a wide design the folds' Krylov ranks differ, and a q above the
    # smallest would be scored on fewer held-out rows than a q below it
    zbar, p, rng = design
    n, d = zbar.shape
    q_max = min(d, AUTO_Q_CAP)
    perm = SeededRng(rng.seed, rng.path).permutation(n)  # the folds select_q_cv draws
    q = select_q_cv(zbar, p, q_max, rng)
    for f in range(5):
        mask = np.ones(n, dtype=bool)
        mask[perm[f::5]] = False
        try:
            rank = compute_krylov(sample_cov_pair(zbar[mask], p[mask]), q_max).shape[1]
        except DataError:
            continue
        assert q <= rank


def test_cov_pair_two_point_example():
    # centered column (1, -1) has sample variance 2 with the n-1 divisor
    cov = sample_cov_pair(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    np.testing.assert_allclose(cov.s_zz, [[2.0]])
    np.testing.assert_allclose(cov.s_zp, [2.0])


def test_cov_pair_matches_numpy_cov():
    rng = np.random.default_rng(0)
    zbar = rng.normal(size=(40, 3))
    p = rng.normal(size=40)
    cov = sample_cov_pair(zbar, p)
    full = np.cov(np.column_stack([zbar, p]).T)
    np.testing.assert_allclose(cov.s_zz, full[:3, :3], atol=1e-12)
    np.testing.assert_allclose(cov.s_zp, full[:3, 3], atol=1e-12)
    np.testing.assert_allclose(cov.means, zbar.mean(axis=0))
    assert cov.p_mean == pytest.approx(p.mean())


def test_cov_pair_is_symmetric():
    rng = np.random.default_rng(1)
    cov = sample_cov_pair(rng.normal(size=(30, 5)), rng.normal(size=30))
    np.testing.assert_array_equal(cov.s_zz, cov.s_zz.T)


def test_cov_pair_needs_two_rows():
    with pytest.raises(DataError):
        sample_cov_pair(np.ones((1, 2)), np.ones(1))


def test_cov_pair_rejects_misaligned_p():
    with pytest.raises(DataError):
        sample_cov_pair(np.ones((4, 2)), np.ones(3))

