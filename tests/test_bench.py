import dataclasses
import functools
import os
import warnings

import numpy as np
import pytest

from dpls_iv import (
    DataError,
    DplsConfig,
    ExperimentConfig,
    SeededRng,
    SgdParams,
    SyntheticSpec,
    augment_instruments,
    experiment1_spec,
    experiment2_spec,
    fit_ols,
    gen_experiment1,
    run_benchmark,
    split_dataset,
)
from dpls_iv import bench, cli, data, synthetic


def _linear_noiseless_spec(monkeypatch):
    """A noiseless design whose treatment is linear in z: gamma drawn as zero."""
    draw = synthetic._draw_coefficients

    def without_gamma(spec):
        alpha, gamma, alpha_x, beta, beta_x = draw(spec)
        return alpha, np.zeros_like(gamma), alpha_x, beta, beta_x

    monkeypatch.setattr(synthetic, "_draw_coefficients", without_gamma)
    return SyntheticSpec(
        n=120, m=6, m_redundant=0, k=2, k_null=0,
        sigma_joint=((0.0, 0.0), (0.0, 0.0)), sigma_eps=0.0,
        activation_g=False, activation_f=False, coef_seed=4,
    )


def _small_cfg(**overrides):
    base = dict(
        dgp="experiment1",
        spec=SyntheticSpec(n=100, m=5, m_redundant=0, k=2, k_null=0, coef_seed=2),
        methods=("ols", "pls"),
        dpls=DplsConfig(layer_widths=(4,), first_layer_q=2,
                        sgd=SgdParams(epochs=5, seed=0)),
        replications=3,
        test_fraction=0.5,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_ols_is_exact_on_noiseless_linear_data(monkeypatch):
    cfg = _small_cfg(spec=_linear_noiseless_spec(monkeypatch), methods=("ols",),
                     censored=False, replications=1)
    report = run_benchmark(cfg)
    values = {metric: value for _, _, metric, value in report.rows}
    assert values["treatment_r2"] == pytest.approx(1.0, abs=1e-8)
    assert values["outcome_r2"] == pytest.approx(1.0, abs=1e-8)
    assert values["outcome_rmse"] == pytest.approx(0.0, abs=1e-6)


def test_coef_bias_is_the_abs_error_against_the_truth():
    cfg = _small_cfg(methods=("ols",), replications=1)
    report = run_benchmark(cfg)
    rng = SeededRng(cfg.base_seed)
    ds, truth = gen_experiment1(cfg.spec, rng.child(0))
    train, _ = split_dataset(ds, cfg.test_fraction, rng.child(1))
    coef = fit_ols(augment_instruments(train.z, train.x), train.p).coef
    abs_bias = np.abs(coef - np.concatenate([truth.alpha, truth.alpha_x]))
    values = {metric: value for _, _, metric, value in report.rows}
    assert values["coef_abs_bias_sum"] == abs_bias.sum()
    np.testing.assert_array_equal(report.bias_samples["ols"], np.sort(abs_bias))


def test_identical_config_identical_report():
    a = run_benchmark(_small_cfg())
    b = run_benchmark(_small_cfg())
    assert a.rows == b.rows
    assert a.seed_ledger == b.seed_ledger
    assert a.aggregates == b.aggregates


def test_parallel_merge_matches_serial():
    serial = run_benchmark(_small_cfg(replications=4))
    parallel = run_benchmark(_small_cfg(replications=4, jobs=2))
    assert serial.rows == parallel.rows
    assert serial.aggregates == parallel.aggregates
    for m in serial.methods:
        np.testing.assert_array_equal(
            serial.bias_samples[m], parallel.bias_samples[m]
        )


_forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="parts are forked")


_TEST_PID = os.getpid()
_run_replication = bench._run_replication


def _checks_its_share(ran_here, share, cfg, rep):
    """_run_replication, but a part child first asserts that it sees share[0]
    CPUs, and fails, leaving its part to this process, if it does not;
    ran_here lists what this process ran."""
    if os.getpid() == _TEST_PID:
        ran_here.append(rep)
    else:
        assert data._usable_cpus() == share[0]
    return _run_replication(cfg, rep)


@_forks
def test_parts_fork_no_more_children_than_replications(monkeypatch):
    """A child per worker, min(jobs, replications) of them, each on usable
    CPUs // workers of them (six CPUs, so each count gives its own share),
    and none for one worker, which runs the replications as this process
    does, a fork later."""
    forks, ran_here, share = [], [], [None]
    fork = data._Children.fork

    def counted(self, work, *args):
        forks.append(work)
        return fork(self, work, *args)

    monkeypatch.setattr(data._Children, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    monkeypatch.setattr(bench, "_run_replication",
                        functools.partial(_checks_its_share, ran_here, share))
    serial = run_benchmark(_small_cfg(replications=3))
    one = run_benchmark(_small_cfg(replications=1))
    alone = run_benchmark(_small_cfg(replications=1, jobs=4))
    assert forks == [] and ran_here == [0, 1, 2, 0, 0]
    assert (alone.rows, alone.failures, alone.seed_ledger) == (one.rows, one.failures,
                                                              one.seed_ledger)
    assert alone.aggregates == one.aggregates
    for replications, jobs in ((2, 64), (3, 2), (3, 3)):
        del forks[:]
        share[0] = 6 // min(jobs, replications)
        pooled = run_benchmark(_small_cfg(replications=replications, jobs=jobs))
        assert len(forks) == min(jobs, replications)
        assert ran_here == [0, 1, 2, 0, 0]  # every child saw its share
        assert pooled.rows == serial.rows[:len(pooled.rows)]
        assert pooled.seed_ledger == serial.seed_ledger[:replications]


def _dies_in_a_child(ran_here, cfg, rep):
    """_run_replication, but a part child given replication 1 dies, as an
    out-of-memory kill would end it; ran_here lists what this process ran."""
    if os.getpid() == _TEST_PID:
        ran_here.append(rep)
    elif rep == 1:
        os._exit(1)
    return _run_replication(cfg, rep)


@_forks
def test_a_dead_part_child_leaves_its_replications_alone_to_the_caller(
        monkeypatch, tmp_path, capsys):
    serial = run_benchmark(_small_cfg(replications=3, methods=("ols",)))
    ran_here = []
    monkeypatch.setattr(bench, "_run_replication", functools.partial(_dies_in_a_child, ran_here))
    pooled = run_benchmark(_small_cfg(replications=3, methods=("ols",), jobs=3))
    assert ran_here == [1]  # the other children's replications are not redone
    assert pooled.rows == serial.rows and pooled.aggregates == serial.aggregates
    assert pooled.failures == serial.failures == ()
    assert pooled.seed_ledger == serial.seed_ledger
    config = tmp_path / "study.txt"
    config.write_text("spec.n = 100\nspec.m = 5\nspec.m_redundant = 0\n"
                      "spec.k = 2\nspec.k_null = 0\n", encoding="utf-8")
    reports = {}
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert cli.main(["benchmark", "--config", str(config), "--replications", "2",
                         "--jobs", jobs, "--method", "ols", "--out-dir", str(out)]) == 0
        reports[jobs] = {name: (out / name).read_bytes()
                         for name in ("metrics.csv", "bias_cdf.csv", "summary.txt")}
    assert reports["2"] == reports["1"]
    assert "benchmark: 2 of 2 cells succeeded" in capsys.readouterr().out
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child reaped


@_forks
def test_parts_surface_the_warnings_of_a_serial_run():
    """The outcome stage clamps on 8 training rows and warns. A child that
    would warn leaves its part to this process, so the warnings reach the
    caller as a serial run gives them."""
    cfg = dict(spec=experiment1_spec(n=16, m=2, m_redundant=0, k=1, k_null=0),
               replications=2, dpls=DplsConfig(sgd=SgdParams(epochs=3)))
    seen = {}
    for jobs in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_benchmark(ExperimentConfig(**cfg, jobs=jobs))
        seen[jobs] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        seen[jobs, "rows"] = report.rows, report.failures
    assert seen[1] and seen[2] == seen[1]
    assert seen[2, "rows"] == seen[1, "rows"]


def test_the_default_config_is_the_experiment1_design():
    spec, reference = ExperimentConfig().spec, experiment1_spec()
    for f in dataclasses.fields(SyntheticSpec):  # eq=False: compare field by field
        assert getattr(spec, f.name) == getattr(reference, f.name), f.name


def test_per_method_failure_recorded_and_run_continues():
    # q beyond the design width makes every pls cell fail while ols proceeds
    cfg = _small_cfg(dpls=DplsConfig(layer_widths=(4,), first_layer_q=10,
                                     sgd=SgdParams(epochs=5, seed=0)))
    report = run_benchmark(cfg)
    assert len(report.failures) == cfg.replications
    assert all(method == "pls" for _, method, _ in report.failures)
    ols_rows = [r for r in report.rows if r[0] == "ols"]
    assert len(ols_rows) == cfg.replications * 5
    assert report.bias_samples["pls"].size == 0


def test_seed_ledger_lists_every_replication():
    cfg = _small_cfg(replications=4, base_seed=17)
    report = run_benchmark(cfg)
    assert report.seed_ledger == ((0, 17), (1, 18), (2, 19), (3, 20))
    assert {rep for _, rep, _, _ in report.rows} == {0, 1, 2, 3}


def test_aggregates_are_median_and_iqr_of_rows():
    report = run_benchmark(_small_cfg(replications=5))
    values = sorted(
        v for m, _, metric, v in report.rows
        if m == "ols" and metric == "treatment_r2"
    )
    agg = report.aggregates[("ols", "treatment_r2")]
    assert agg["count"] == 5
    assert agg["median"] == pytest.approx(values[2])
    q25, q75 = np.percentile(values, [25, 75])
    assert agg["iqr"] == pytest.approx(q75 - q25)


def test_r2_rows_never_exceed_one():
    report = run_benchmark(_small_cfg(replications=3))
    for _, _, metric, value in report.rows:
        if metric.endswith("_r2"):
            assert value <= 1.0
        if metric.endswith("_rmse"):
            assert value >= 0.0


def test_config_validation():
    with pytest.raises(DataError):
        _small_cfg(dgp="experiment3")
    with pytest.raises(DataError):
        _small_cfg(methods=())
    with pytest.raises(DataError):
        _small_cfg(methods=("ols", "xgboost"))
    # a repeat would fit the method twice in every replication and report it twice
    with pytest.raises(DataError, match=r"^methods must name each method once, "
                                        r"repeated: \['ols', 'pls'\]$"):
        _small_cfg(methods=("ols", "pls", "ridge", "pls", "ols"))
    with pytest.raises(DataError):
        _small_cfg(replications=0)
    with pytest.raises(DataError):
        _small_cfg(test_fraction=1.0)
    with pytest.raises(DataError):
        _small_cfg(jobs=0)
    with pytest.raises(DataError):
        _small_cfg(mode="bayes")


def test_config_rejects_a_spec_of_the_other_design():
    # raised by the constructor, so no study can start drawing data
    with pytest.raises(DataError, match="dgp 'experiment2' needs spec.cov_mode 'network'"):
        ExperimentConfig(dgp="experiment2")
    with pytest.raises(DataError, match="needs spec.cov_mode 'near_diagonal'"):
        ExperimentConfig(dgp="experiment1", spec=experiment2_spec())


def test_experiment2_lasso_seed_5_records_no_failure():
    """This replication's final lasso fit once stopped at its sweep cap."""
    cfg = ExperimentConfig(dgp="experiment2", spec=experiment2_spec(),
                           methods=("lasso",), replications=1, base_seed=5)
    report = run_benchmark(cfg)
    assert report.failures == ()
    assert len(report.rows) == 5
