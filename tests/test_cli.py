"""End-to-end command-line behavior through in-process main() calls."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dpls_iv
from dpls_iv import cli
from dpls_iv.cli import main
from dpls_iv.dataio import read_config, write_config

_SMALL_SPEC = {
    "spec.n": "200",
    "spec.m": "20",
    "spec.m_redundant": "4",
    "spec.k": "6",
    "spec.k_null": "3",
}

_FAST_NET = {"dpls.widths": "4", "dpls.q": "3", "dpls.epochs": "5"}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    cfg = root / "spec.txt"
    write_config(cfg, _SMALL_SPEC)
    rc = main(["simulate", "--config", str(cfg), "--seed", "3",
               "--out-dir", str(root)])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def dpls_fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit_dpls")
    cfg = out / "fit.txt"
    write_config(cfg, {"data": str(sim_dir / "data.csv"), **_FAST_NET})
    rc = main(["fit", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 0
    return out


def _fit_baseline(sim_dir, out, method, *flags):
    out.mkdir(exist_ok=True)
    cfg = out / "fit.txt"
    write_config(cfg, {"data": str(sim_dir / "data.csv")})
    rc = main(["fit", "--config", str(cfg), "--method", method, *flags,
               "--out-dir", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def ols_fit_dir(sim_dir, tmp_path_factory):
    return _fit_baseline(sim_dir, tmp_path_factory.mktemp("fit_ols"), "ols")


@pytest.fixture(scope="module")
def ols_cf_fit_dir(sim_dir, tmp_path_factory):
    return _fit_baseline(sim_dir, tmp_path_factory.mktemp("fit_ols_cf"), "ols",
                         "--mode", "control_function")


def _read_predictions(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {
        name: np.array([float(r[i]) for r in rows])
        for i, name in enumerate(header)
        if name != "row"
    }
    return header, cols


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_simulate_outputs(sim_dir):
    data_lines = (sim_dir / "data.csv").read_text().splitlines()
    assert len(data_lines) == 201
    truth = json.loads((sim_dir / "truth.json").read_text())
    assert truth["format"] == "dpls-iv-truth"
    echo = read_config(sim_dir / "config.txt")
    assert echo["dgp"] == "experiment1"
    assert echo["spec.n"] == "200"
    assert echo["seed"] == "3"


def test_simulate_is_deterministic_and_seed_sensitive(tmp_path):
    cfg = tmp_path / "spec.txt"
    write_config(cfg, _SMALL_SPEC)
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for out, seed in zip(dirs, ("5", "5", "6")):
        rc = main(["simulate", "--config", str(cfg), "--seed", seed,
                   "--out-dir", str(out)])
        assert rc == 0
    a, b, c = [(d / "data.csv").read_bytes() for d in dirs]
    assert a == b
    assert a != c
    assert (dirs[0] / "truth.json").read_bytes() == (dirs[1] / "truth.json").read_bytes()


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "spec.txt"
    write_config(cfg, {"bogus": "1", "spec.n": "100"})
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown config keys: bogus" in capsys.readouterr().err


def test_simulate_rejects_a_singular_instrument_covariance(tmp_path, capsys):
    cfg = tmp_path / "spec.txt"
    write_config(cfg, {**_SMALL_SPEC, "spec.cov_param": "1"})
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "cov_param must lie in (-1/(m-1), 1)" in capsys.readouterr().err


def test_simulate_with_no_covariates_names_k_null(tmp_path, capsys):
    cfg = tmp_path / "spec.txt"
    write_config(cfg, {**_SMALL_SPEC, "spec.k": "0"})
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "k_null = 3 must lie in [0, k = 0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_with_a_negative_n_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "spec.txt"
    write_config(cfg, {**_SMALL_SPEC, "spec.n": "-5"})
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "data error: n = -5 must be at least 1\n"
    assert not (tmp_path / "out").exists()


def test_fit_requires_data_path(tmp_path, capsys):
    rc = main(["fit", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "fit requires a data path" in capsys.readouterr().err


def test_fit_dpls_writes_bundle_and_predictions(dpls_fit_dir):
    doc = json.loads((dpls_fit_dir / "fit.json").read_text())
    assert doc["format"] == "dpls-iv-fit"
    assert "gmm" in doc and "cf" not in doc
    assert doc["n_train"] == 200
    header, cols = _read_predictions(dpls_fit_dir / "predictions.csv")
    assert header == ["row", "p_hat", "y_hat"]
    assert len(cols["y_hat"]) == 200
    echo = read_config(dpls_fit_dir / "config.txt")
    assert echo["method"] == "dpls_iv"


def test_fit_linear_baseline_record(ols_fit_dir):
    doc = json.loads((ols_fit_dir / "fit.json").read_text())
    assert doc["format"] == "dpls-iv-fit"
    assert doc["first_stage"]["method"] == "ols"
    # structural-form coefficients over the 20 + 6 augmented columns
    assert len(doc["first_stage"]["coef"]) == 26
    # treatment slope plus the six covariate slopes
    assert len(doc["gmm"]["beta"]) == 7


def test_fit_baseline_honours_control_function_mode(ols_cf_fit_dir):
    doc = json.loads((ols_cf_fit_dir / "fit.json").read_text())
    assert "cf" in doc and "gmm" not in doc
    assert set(doc["cf"]) == {"beta", "beta_eta", "beta_x"}
    assert len(doc["cf"]["beta_x"]) == 6


def test_fit_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,p\n1,abc\n")
    cfg = tmp_path / "fit.txt"
    write_config(cfg, {"data": str(bad)})
    rc = main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "non-numeric cell" in capsys.readouterr().err


def test_fit_rejects_unknown_method_in_config(tmp_path, sim_dir, capsys):
    cfg = tmp_path / "fit.txt"
    write_config(cfg, {"data": str(sim_dir / "data.csv"), "method": "frob"})
    rc = main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown method" in capsys.readouterr().err


def test_fit_rejects_non_integer_width(tmp_path, sim_dir, capsys):
    cfg = tmp_path / "fit.txt"
    write_config(cfg, {"data": str(sim_dir / "data.csv"), "dpls.widths": "a"})
    rc = main(["fit", "--config", str(cfg), "--method", "ols",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "dpls.widths must be integers" in capsys.readouterr().err


def test_predict_reproduces_fit_predictions(sim_dir, dpls_fit_dir, tmp_path):
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(dpls_fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv")})
    rc = main(["predict", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "predictions.csv").read_bytes() == \
        (dpls_fit_dir / "predictions.csv").read_bytes()


@pytest.mark.parametrize("method", ["ols", "ridge", "lasso", "pls"])
def test_predict_baseline_round_trip(sim_dir, method, tmp_path):
    fit_dir = _fit_baseline(sim_dir, tmp_path / "fit", method)
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv")})
    rc = main(["predict", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "predictions.csv").read_bytes() == \
        (fit_dir / "predictions.csv").read_bytes()


def test_predict_draws_on_baseline_fit(sim_dir, ols_fit_dir, tmp_path):
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(ols_fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv")})
    rc = main(["predict", "--config", str(cfg), "--draws", "10",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, cols = _read_predictions(tmp_path / "predictions.csv")
    lo, hi = cols["y_lo_0.95"], cols["y_hi_0.95"]
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    assert np.all(lo <= hi)


def test_predict_draws_rejected_without_gmm_stage(sim_dir, ols_cf_fit_dir,
                                                  tmp_path, capsys):
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(ols_cf_fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv")})
    rc = main(["predict", "--config", str(cfg), "--draws", "10",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "posterior intervals need" in capsys.readouterr().err


def test_predict_intervals_from_posterior_draws(sim_dir, dpls_fit_dir, tmp_path):
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(dpls_fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv")})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["predict", "--config", str(cfg), "--draws", "50",
                   "--seed", "11", "--out-dir", str(out)])
        assert rc == 0
    header, cols = _read_predictions(out_a / "predictions.csv")
    assert header == ["row", "p_hat", "y_hat", "y_lo_0.95", "y_hi_0.95"]
    assert np.all(cols["y_lo_0.95"] <= cols["y_hi_0.95"])
    assert (out_a / "predictions.csv").read_bytes() == \
        (out_b / "predictions.csv").read_bytes()


def test_predict_requires_both_paths(sim_dir, capsys, tmp_path):
    rc = main(["predict", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "predict requires a fit path" in capsys.readouterr().err
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(tmp_path / "fit.json")})
    rc = main(["predict", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "predict requires a data path" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["header_only", "not_json", "constants_missing_keys",
                                  "deeply_nested", "missing_fit", "missing_data",
                                  "binary_data", "missing_config"])
def test_predict_bad_input_file_is_data_error(case, sim_dir, dpls_fit_dir, tmp_path,
                                              capsys):
    fit_path, data_path = dpls_fit_dir / "fit.json", sim_dir / "data.csv"
    bad = tmp_path / "bad_input"
    if case == "header_only":
        bad.write_text('{"format": "dpls-iv-fit", "version": 3}')
    elif case == "not_json":
        bad.write_text("p_hat,y_hat\n1.0,2.0\n")
    elif case == "deeply_nested":  # deeper than the JSON decoder's recursion limit
        bad.write_text("[" * 100000 + "]" * 100000)
    elif case == "constants_missing_keys":
        doc = json.loads(fit_path.read_text())
        del doc["constants"]["psi2"]
        bad.write_text(json.dumps(doc))
    elif case == "binary_data":
        bad.write_bytes(b"\xff\xfey,p\n")
    if case in ("missing_data", "binary_data"):
        data_path = bad
    elif case != "missing_config":
        fit_path = bad
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(fit_path), "data": str(data_path)})
    if case == "missing_config":
        cfg = bad
    rc = main(["predict", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(bad) in err


def test_predict_rejects_bad_level(sim_dir, dpls_fit_dir, tmp_path, capsys):
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(dpls_fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv"),
                       "level": "1.5"})
    rc = main(["predict", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "level must lie in (0, 1)" in capsys.readouterr().err


def test_predict_band_columns_keep_every_digit_of_the_level(sim_dir, ols_fit_dir, tmp_path):
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(ols_fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv"), "level": "0.9999999"})
    rc = main(["predict", "--config", str(cfg), "--draws", "10", "--out-dir", str(tmp_path)])
    assert rc == 0
    header, _ = _read_predictions(tmp_path / "predictions.csv")
    assert header[-2:] == ["y_lo_0.9999999", "y_hi_0.9999999"]


def test_predict_out_of_memory_is_a_one_line_data_error(sim_dir, ols_fit_dir, tmp_path,
                                                        capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 1.5 TiB")

    monkeypatch.setattr(cli, "sample_posterior", no_memory)
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(ols_fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv")})
    rc = main(["predict", "--config", str(cfg), "--draws", "10",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "data error: not enough memory: Unable to allocate 1.5 TiB\n"
    assert not (tmp_path / "out").exists()


def test_benchmark_writes_reports(tmp_path, capsys):
    cfg = tmp_path / "bench.txt"
    write_config(cfg, {**_SMALL_SPEC, **_FAST_NET})
    out = tmp_path / "out"
    rc = main(["benchmark", "--config", str(cfg), "--method", "pls",
               "--replications", "2", "--out-dir", str(out)])
    assert rc == 0
    for name in ("metrics.csv", "bias_cdf.csv", "summary.txt", "config.txt"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert summary.splitlines()[0] == "experiment1 benchmark, 2 replications"
    echo = read_config(out / "config.txt")
    assert echo["methods"] == "pls"
    assert echo["replications"] == "2"
    metric_lines = (out / "metrics.csv").read_text().splitlines()[1:]
    assert metric_lines and all(line.startswith("pls,") for line in metric_lines)
    assert "benchmark: 2 of 2 cells succeeded" in capsys.readouterr().out


def test_benchmark_exit_3_when_every_cell_fails(tmp_path, capsys):
    cfg = tmp_path / "bench.txt"
    # q far above the 26 available design columns sinks every replication
    write_config(cfg, {**_SMALL_SPEC, "dpls.q": "50"})
    out = tmp_path / "out"
    rc = main(["benchmark", "--config", str(cfg), "--method", "pls",
               "--replications", "2", "--out-dir", str(out)])
    assert rc == 3
    assert "every method failed in every replication" in capsys.readouterr().err
    # the failure report is still written for the post-mortem
    assert (out / "summary.txt").exists()


def test_benchmark_method_named_twice_exits_2_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "bench.txt"
    write_config(cfg, {**_SMALL_SPEC, "methods": "ols,pls,ols", "replications": "1"})
    out = tmp_path / "out"
    rc = main(["benchmark", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "data error: methods must name each method once, repeated: ['ols']\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "benchmark", "predict"])
def test_unwritable_output_exits_2_with_one_line(command, sim_dir, dpls_fit_dir, tmp_path,
                                                  capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / "sub"
    cfg = tmp_path / "cfg.txt"
    keys = {
        "simulate": _SMALL_SPEC,
        "fit": {"data": str(sim_dir / "data.csv"), "method": "ols"},
        "benchmark": {**_SMALL_SPEC, "methods": "ols", "replications": "1"},
        "predict": {"fit": str(dpls_fit_dir / "fit.json"), "data": str(sim_dir / "data.csv")},
    }[command]
    write_config(cfg, keys)
    rc = main([command, "--config", str(cfg), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"data error: cannot write {out}: Not a directory\n"


def test_unwritable_output_file_names_the_file(sim_dir, dpls_fit_dir, tmp_path, capsys):
    target = tmp_path / "out" / "predictions.csv"
    target.mkdir(parents=True)
    cfg = tmp_path / "cfg.txt"
    write_config(cfg, {"fit": str(dpls_fit_dir / "fit.json"), "data": str(sim_dir / "data.csv")})
    rc = main(["predict", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"data error: cannot write {target}: Is a directory\n"


def _modules_loaded_by(code):
    """Names in sys.modules after a fresh interpreter runs code."""
    src = os.path.dirname(os.path.dirname(dpls_iv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    return set(json.loads(run.stdout.splitlines()[-1]))


def _scipy(modules):
    return {name for name in modules if name.split(".")[0] == "scipy"}


def test_package_import_loads_no_scipy_and_no_process_pool():
    modules = _modules_loaded_by("import dpls_iv")
    assert _scipy(modules) == set()
    assert "concurrent.futures.process" not in modules


@pytest.mark.parametrize("fit_fixture, draws", [
    ("dpls_fit_dir", ["--draws", "50"]),
    ("ols_cf_fit_dir", []),  # posterior draws need a gmm stage
], ids=["rescale_gmm", "control_function"])
def test_predict_loads_no_scipy(sim_dir, fit_fixture, draws, request, tmp_path):
    fit_dir = request.getfixturevalue(fit_fixture)
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(fit_dir / "fit.json"), "data": str(sim_dir / "data.csv")})
    argv = ["predict", "--config", str(cfg), "--out-dir", str(tmp_path), *draws]
    code = f"from dpls_iv.cli import main\nassert main({argv!r}) == 0"
    assert _scipy(_modules_loaded_by(code)) == set()
    assert (tmp_path / "predictions.csv").exists()


def test_simulate_loads_scipy_special_but_not_linalg(tmp_path):
    cfg = tmp_path / "spec.txt"
    write_config(cfg, _SMALL_SPEC)
    argv = ["simulate", "--config", str(cfg), "--seed", "3", "--out-dir", str(tmp_path)]
    modules = _modules_loaded_by(f"from dpls_iv.cli import main\nassert main({argv!r}) == 0")
    assert "scipy.special" in modules
    assert "scipy.linalg" not in modules


def test_predict_rejects_negative_draws(sim_dir, dpls_fit_dir, tmp_path, capsys):
    cfg = tmp_path / "pred.txt"
    write_config(cfg, {"fit": str(dpls_fit_dir / "fit.json"),
                       "data": str(sim_dir / "data.csv")})
    rc = main(["predict", "--config", str(cfg), "--draws", "-5",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "data error: draws must be non-negative, got -5\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epochs", ["0", "3"])
def test_fit_rejects_a_non_finite_learning_rate(sim_dir, tmp_path, capsys, epochs):
    cfg = tmp_path / "fit.txt"
    write_config(cfg, {"data": str(sim_dir / "data.csv"), **_FAST_NET,
                       "dpls.epochs": epochs, "dpls.learning_rate": "nan"})
    rc = main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "learning_rate must be finite and non-negative, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out" / "config.txt").exists()


def test_simulate_rejects_a_non_finite_sigma_eps(tmp_path, capsys):
    cfg = tmp_path / "spec.txt"
    write_config(cfg, {**_SMALL_SPEC, "spec.sigma_eps": "nan"})
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "sigma_eps must be finite and non-negative, got nan" in capsys.readouterr().err


def test_cli_import_loads_no_module_of_the_parallel_row_work():
    # the band's thread pool and the signal used to kill CSV children are
    # imported where they run
    modules = _modules_loaded_by("import dpls_iv.cli")
    assert _scipy(modules) == set()
    assert {"concurrent.futures", "concurrent.futures.thread", "signal"} & modules == set()


# The defaults each command resolved to while the CLI spelled them out.
_SPEC_TABLE = {
    "dgp": "experiment1", "spec.n": "1000", "spec.m": "50", "spec.m_redundant": "10",
    "spec.k": "25", "spec.k_null": "20", "spec.sigma_eps": "0.5", "spec.coef_seed": "28",
    "spec.cov_param": "auto", "spec.edges_per_node": "2",
}
_DPLS_TABLE = {
    "dpls.widths": "30", "dpls.q": "auto", "dpls.epochs": "200",
    "dpls.learning_rate": "0.001", "dpls.batch_size": "32",
}
_DEFAULT_TABLES = {
    "simulate": {**_SPEC_TABLE, "seed": "0"},
    "fit": {"data": "", "method": "dpls_iv", "mode": "rescale_gmm", "censored": "true",
            **_DPLS_TABLE, "seed": "0"},
    "benchmark": {**_SPEC_TABLE, **_DPLS_TABLE, "methods": "ols,ridge,lasso,pls,dpls_iv",
                  "mode": "rescale_gmm", "censored": "true", "replications": "10",
                  "test_fraction": "0.5", "jobs": "1", "seed": "0"},
    "predict": {"fit": "", "data": "", "draws": "0", "level": "0.95", "seed": "0"},
}


@pytest.mark.parametrize("command", sorted(_DEFAULT_TABLES))
def test_defaults_resolve_to_the_literal_table(command):
    args = cli._build_parser().parse_args([command])
    assert cli._resolve_config(command, args) == _DEFAULT_TABLES[command]


def test_every_flag_overrides_its_config_key():
    args = cli._build_parser().parse_args([
        "benchmark", "--seed", "4", "--method", "pls", "--mode", "control_function",
        "--replications", "3", "--jobs", "2",
    ])
    resolved = cli._resolve_config("benchmark", args)
    assert {k: resolved[k] for k in ("seed", "methods", "mode", "replications", "jobs")} == {
        "seed": "4", "methods": "pls", "mode": "control_function",
        "replications": "3", "jobs": "2",
    }
    args = cli._build_parser().parse_args(["predict", "--draws", "7", "--out-dir", "x"])
    assert cli._resolve_config("predict", args)["draws"] == "7"
