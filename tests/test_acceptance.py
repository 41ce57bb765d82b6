"""Twelve end-to-end checks, one per promised behavior of the library.

Each test prints its measured numbers, so a verbose run doubles as a
report. Thresholds are bands rather than point targets: the synthetic
draws vary by seed, and every band below was sized on pilot runs over
independent seeds before being frozen here.
"""
import os
import time

import numpy as np
import pytest

from dpls_iv import (
    DplsConfig,
    ExperimentConfig,
    KNOWN_METHODS,
    SeededRng,
    SgdParams,
    dpls_iv_fit,
    estimate_tobit_constants,
    experiment1_spec,
    experiment2_spec,
    fit_ols,
    fit_pls_closed_form,
    gen_experiment1,
    gmm_beta,
    network_loss_and_grads,
    recenter_outcome,
    run_benchmark,
    sample_posterior,
    sandwich_variance,
)
from dpls_iv.cli import main
from dpls_iv.dataio import write_config
from pls_oracle import fit_pls_deflation


@pytest.fixture(scope="module")
def exp1_report():
    cfg = ExperimentConfig(
        dgp="experiment1",
        spec=experiment1_spec(),
        methods=KNOWN_METHODS,
        dpls=DplsConfig(),
        replications=10,
        base_seed=0,
        test_fraction=0.5,
    )
    start = time.monotonic()
    report = run_benchmark(cfg)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def exp2_report():
    cfg = ExperimentConfig(
        dgp="experiment2",
        spec=experiment2_spec(),
        methods=KNOWN_METHODS,
        dpls=DplsConfig(),
        replications=10,
        base_seed=0,
        test_fraction=0.5,
    )
    start = time.monotonic()
    report = run_benchmark(cfg)
    return report, time.monotonic() - start


def _median(report, method, metric):
    return report.aggregates[(method, metric)]["median"]


def _by_rep(report, method, metric):
    return {
        rep: value
        for m, rep, met, value in report.rows
        if m == method and met == metric
    }


def test_criterion_01_treatment_network_beats_plain_pls(exp1_report):
    report, elapsed = exp1_report
    dpls = _median(report, "dpls_iv", "treatment_r2")
    pls = _median(report, "pls", "treatment_r2")
    print(f"treatment r2 medians: dpls_iv={dpls:.4f} pls={pls:.4f} "
          f"elapsed={elapsed:.1f}s failures={len(report.failures)}")
    assert 0.90 <= dpls <= 0.99
    assert dpls - pls >= 0.10
    assert elapsed <= 120.0


def test_criterion_02_outcome_fit_tracks_every_baseline(exp1_report):
    report, _ = exp1_report
    dpls = _median(report, "dpls_iv", "outcome_r2")
    baselines = {m: _median(report, m, "outcome_r2")
                 for m in ("ols", "ridge", "lasso", "pls")}
    print(f"outcome r2 medians: dpls_iv={dpls:.4f} baselines={baselines}")
    assert dpls >= 0.90
    assert dpls >= max(baselines.values()) - 0.01


def test_criterion_03_pls_coefficient_bias_ordering(exp1_report):
    report, _ = exp1_report
    ols = _by_rep(report, "ols", "coef_abs_bias_sum")
    pls = _by_rep(report, "pls", "coef_abs_bias_sum")
    lasso = _by_rep(report, "lasso", "coef_abs_bias_sum")
    reps = sorted(pls)
    beats_ols = sum(pls[r] < ols[r] for r in reps)
    at_most_lasso = sum(pls[r] <= lasso[r] for r in reps)
    print(f"bias wins over {len(reps)} replications: "
          f"pls<ols {beats_ols}, pls<=lasso {at_most_lasso}")
    assert beats_ols >= 8
    assert at_most_lasso >= 6


def test_criterion_04_network_design_outcome_rank(exp2_report):
    report, elapsed = exp2_report
    dpls = _median(report, "dpls_iv", "outcome_r2")
    near_top = 0
    for rep in range(report.replications):
        values = {m: _by_rep(report, m, "outcome_r2").get(rep)
                  for m in report.methods}
        values = {m: v for m, v in values.items() if v is not None}
        if values.get("dpls_iv") is not None:
            near_top += values["dpls_iv"] >= max(values.values()) - 0.01
    print(f"outcome r2 median dpls_iv={dpls:.4f} near-top={near_top}/10 "
          f"elapsed={elapsed:.1f}s failures={len(report.failures)}")
    assert dpls >= 0.92
    assert near_top >= 7
    assert elapsed <= 180.0


def test_criterion_05_full_rank_pls_reduces_to_ols():
    worst = 0.0
    for s in range(20):
        rng = SeededRng(600 + s)
        d = 3 + (s % 8)
        z = rng.child(0).normal(size=(200, d))
        coef = rng.child(1).normal(size=d)
        p = z @ coef + 0.5 * rng.child(2).normal(size=200)
        pls_pred = fit_pls_closed_form(z, p, d).predict(z)
        ols_pred = fit_ols(z, p, fit_intercept=True).predict(z)
        rel = np.max(np.abs(pls_pred - ols_pred)) / np.max(np.abs(ols_pred))
        worst = max(worst, rel)
        assert rel <= 1e-6
    print(f"worst relative disagreement over 20 designs: {worst:.3e}")


def test_criterion_06_closed_form_matches_deflation():
    worst = 0.0
    for s in range(20):
        rng = SeededRng(650 + s)
        d = 6 + (s % 5)
        z = rng.child(0).normal(size=(200, d))
        coef = rng.child(1).normal(size=d)
        p = z @ coef + 0.5 * rng.child(2).normal(size=200)
        scale = np.max(np.abs(p))
        for q in range(1, 6):
            a = fit_pls_closed_form(z, p, q).predict(z)
            b = fit_pls_deflation(z, p, q).predict(z)
            rel = np.max(np.abs(a - b)) / scale
            worst = max(worst, rel)
            assert rel <= 1e-6
    print(f"worst closed-form vs deflation gap: {worst:.3e}")


def test_criterion_07_direction_recovery_improves_with_n():
    m = 8
    sigma = np.array([[0.5 ** abs(i - j) for j in range(m)] for i in range(m)])
    chol = np.linalg.cholesky(sigma)
    alpha = np.array([1.0, -0.8, 0.6, -0.4, 0.3, -0.2, 0.1, 0.5])

    def cosine(n, seed):
        rng = SeededRng(seed)
        z = rng.child(0).normal(size=(n, m)) @ chol.T
        u = z @ alpha
        p = u + 0.5 * u ** 3 + 0.5 * rng.child(1).normal(size=n)
        coef = fit_pls_closed_form(z, p, m).coef
        return abs(coef @ alpha) / (np.linalg.norm(coef) * np.linalg.norm(alpha))

    medians = [
        float(np.median([cosine(n, 1000 + s) for s in range(20)]))
        for n in (500, 2000, 10000)
    ]
    print(f"median cosine by sample size: {medians}")
    assert medians[0] <= medians[1] <= medians[2]
    assert medians[2] >= 0.95


def test_criterion_08_recentering_removes_censoring_bias():
    a = np.array([0.8, -0.6, 0.5, 0.3])
    beta_p, beta0 = 1.5, -0.5
    n = 5000

    def one_rep(seed):
        rng = SeededRng(seed)
        z = rng.child(0).normal(size=(n, 4))
        w = rng.child(1).normal(size=n)
        u2 = rng.child(2).normal(size=n)
        p = z @ a + w
        xi = 0.8 * w + 0.6 * u2
        x = np.ones((n, 1))
        y = np.maximum(beta_p * p + beta0 + xi, 0.0)
        p_hat = fit_ols(z, p).predict(z)
        constants = estimate_tobit_constants(y)
        beta, _ = gmm_beta(p_hat, x, recenter_outcome(y, constants), p_observed=p)
        naive, _ = gmm_beta(p_hat, x, y, p_observed=p)
        return beta[0], naive[0]

    draws = np.array([one_rep(3000 + r) for r in range(50)])
    bias = abs(draws[:, 0].mean() - beta_p)
    mcse = draws[:, 0].std(ddof=1) / np.sqrt(len(draws))
    naive_bias = abs(draws[:, 1].mean() - beta_p)
    print(f"recentered bias={bias:.5f} (3*mcse={3 * mcse:.5f}), "
          f"naive bias={naive_bias:.3f}")
    assert bias <= 3.0 * mcse
    assert naive_bias >= 3.0 * bias


def test_criterion_09_sandwich_interval_coverage():
    a = np.array([1.0, 0.5, -0.5])
    beta_p, beta0 = 1.5, -0.5
    n = 5000

    def covers(seed):
        rng = SeededRng(seed)
        z = rng.child(0).normal(size=(n, 3))
        w = rng.child(1).normal(size=n)
        u2 = rng.child(2).normal(size=n)
        p = z @ a + w
        xi = 0.7 * w + 0.7 * u2
        x = np.ones((n, 1))
        y = beta_p * p + beta0 + xi
        p_hat = fit_ols(z, p).predict(z)
        beta, residuals = gmm_beta(p_hat, x, y, p_observed=p)
        sigma = sandwich_variance(p_hat, x, residuals, np.column_stack([z, x]))
        se = np.sqrt(sigma[0, 0] / n)
        return abs(beta[0] - beta_p) <= 1.96 * se

    coverage = sum(covers(4000 + r) for r in range(50)) / 50.0
    print(f"empirical coverage of nominal 95% intervals: {coverage:.2f}")
    assert 0.88 <= coverage <= 0.99


def test_criterion_10_posterior_matches_asymptotic_target():
    spec = experiment1_spec(n=500, m=20, m_redundant=4, k=6, k_null=3)
    ds, _ = gen_experiment1(spec, SeededRng(777))
    cfg = DplsConfig(layer_widths=(8,), first_layer_q=5,
                     sgd=SgdParams(epochs=20, seed=0))
    fit = dpls_iv_fit(ds, cfg, censored=True)
    n, draws = 500, 100000
    target_cov = fit.gmm.corrected_matrix / n
    post = sample_posterior(fit.gmm, n, draws, SeededRng(5))
    mean_gap = np.abs(post.beta_draws.mean(axis=0) - fit.gmm.beta)
    mcse = np.sqrt(np.diag(target_cov) / draws)
    sample_cov = np.cov(post.beta_draws.T)
    frob = np.linalg.norm(sample_cov - target_cov) / np.linalg.norm(target_cov)
    print(f"max mean gap {np.max(mean_gap / mcse):.2f} mcse units, "
          f"relative Frobenius gap {frob:.4f}")
    assert np.all(mean_gap <= 3.0 * mcse)
    assert frob <= 0.10


def test_criterion_11_analytic_gradients_match_finite_differences():
    eps = 1e-5
    checked = 0
    for seed in range(200):
        rng = SeededRng(seed)
        widths = (3,) if seed % 2 == 0 else (4, 2)
        feats = rng.child(0).normal(size=(12, 3))
        target = rng.child(1).normal(size=12)
        sizes = [3, *widths, 1]
        layers = []
        for i in range(len(sizes) - 1):
            w = rng.child(2, i).normal(size=(sizes[i], sizes[i + 1]))
            b = rng.child(3, i).normal(size=sizes[i + 1]) + 1.0
            layers.append((w, b))
        h = feats
        closest = np.inf
        for w, b in layers:
            pre = h @ w + b
            closest = min(closest, float(np.min(np.abs(pre))))
            h = np.maximum(pre, 0.0)
        if closest < 1e-2:
            continue  # a kink this close would poison the finite difference
        _, grads = network_loss_and_grads(layers, feats, target)
        for li, (w, b) in enumerate(layers):
            for arr, gi in ((w, 0), (b, 1)):
                for idx in np.ndindex(arr.shape):
                    arr[idx] += eps
                    up, _ = network_loss_and_grads(layers, feats, target)
                    arr[idx] -= 2 * eps
                    dn, _ = network_loss_and_grads(layers, feats, target)
                    arr[idx] += eps
                    fd = (up - dn) / (2 * eps)
                    assert grads[li][gi][idx] == pytest.approx(fd, rel=1e-4,
                                                               abs=1e-7)
        checked += 1
        if checked == 10:
            break
    print(f"networks fully checked: {checked}")
    assert checked == 10


def test_criterion_12_cli_runs_are_byte_identical(tmp_path):
    spec_cfg = {
        "spec.n": "200", "spec.m": "20", "spec.m_redundant": "4",
        "spec.k": "6", "spec.k_null": "3",
    }
    net_cfg = {"dpls.widths": "4", "dpls.q": "3", "dpls.epochs": "5"}

    def run_pair(name, argv_for):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            assert main(argv_for(str(out))) == 0
            outs.append(out)
        first, second = outs
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        for fname in names:
            assert (first / fname).read_bytes() == (second / fname).read_bytes(), \
                f"{name}: {fname} differs between identical runs"
        return first

    sim_conf = tmp_path / "sim.txt"
    write_config(sim_conf, spec_cfg)
    sim_dir = run_pair("simulate", lambda out: [
        "simulate", "--config", str(sim_conf), "--seed", "3", "--out-dir", out])

    fit_conf = tmp_path / "fit.txt"
    write_config(fit_conf, {"data": str(sim_dir / "data.csv"), **net_cfg})
    fit_dir = run_pair("fit", lambda out: [
        "fit", "--config", str(fit_conf), "--out-dir", out])

    bench_conf = tmp_path / "bench.txt"
    write_config(bench_conf, {**spec_cfg, **net_cfg})
    run_pair("benchmark", lambda out: [
        "benchmark", "--config", str(bench_conf), "--method", "pls",
        "--replications", "2", "--out-dir", out])

    pred_conf = tmp_path / "pred.txt"
    write_config(pred_conf, {"fit": str(fit_dir / "fit.json"),
                             "data": str(sim_dir / "data.csv")})
    run_pair("predict", lambda out: [
        "predict", "--config", str(pred_conf), "--draws", "25",
        "--seed", "11", "--out-dir", out])
