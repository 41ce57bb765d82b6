"""Round trips and error reporting for the on-disk formats."""
import dataclasses
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from dpls_iv import (
    Dataset,
    DplsConfig,
    MetricsReport,
    SeededRng,
    SgdParams,
    augment_instruments,
    dpls_iv_fit,
    experiment1_spec,
    experiment2_spec,
    fit_first_stage,
    gen_experiment1,
    gen_experiment2,
    iv_fit,
)
from dpls_iv.dataio import (
    csv_read,
    csv_write,
    fit_from_dict,
    fit_to_dict,
    parse_config_text,
    read_config,
    read_fit,
    read_truth,
    render_config,
    render_summary,
    truth_from_dict,
    truth_to_dict,
    write_bias_cdf_csv,
    write_config,
    write_fit,
    write_metrics_csv,
    write_predictions_csv,
    write_summary,
    write_truth,
)
from dpls_iv.errors import DataError


def _tiny_dataset():
    rng = np.random.default_rng(3)
    return Dataset(
        y=rng.normal(size=6),
        p=rng.normal(size=6),
        z=rng.normal(size=(6, 2)),
        x=rng.normal(size=(6, 1)),
    )


# ----------------------------------------------------------------- dataset CSV


def test_csv_round_trip_is_bit_exact(tmp_path):
    ds, _ = gen_experiment1(experiment1_spec(n=80), SeededRng(9))
    path = tmp_path / "data.csv"
    csv_write(path, ds)
    back = csv_read(path)
    assert back.y.tobytes() == ds.y.tobytes()
    assert back.p.tobytes() == ds.p.tobytes()
    assert back.z.tobytes() == ds.z.tobytes()
    assert back.x.tobytes() == ds.x.tobytes()


def test_csv_header_names_follow_roles(tmp_path):
    path = tmp_path / "data.csv"
    csv_write(path, _tiny_dataset())
    first = path.read_text().splitlines()[0]
    assert first == "y,p,z_1,z_2,x_1"


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8))
def test_csv_cells_round_trip_any_finite_float(values):
    # shortest-repr formatting must survive write -> read for every finite double
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    ds = Dataset(y=y, p=np.zeros(n), z=y.reshape(n, 1), x=np.zeros((n, 0)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        csv_write(path, ds)
        back = csv_read(path)
    assert back.y.tobytes() == y.tobytes()
    assert back.z.tobytes() == ds.z.tobytes()


def test_csv_read_maps_columns_by_name_not_position(tmp_path):
    path = tmp_path / "shuffled.csv"
    lines = ["p,x_1,y,z_1"]
    for i in range(4):
        lines.append(f"{i + 1}.0,{i + 5}.0,{i + 9}.0,{i + 13}.0")
    path.write_text("\n".join(lines) + "\n")
    ds = csv_read(path)
    assert_array_equal(ds.p, [1.0, 2.0, 3.0, 4.0])
    assert_array_equal(ds.x[:, 0], [5.0, 6.0, 7.0, 8.0])
    assert_array_equal(ds.y, [9.0, 10.0, 11.0, 12.0])
    assert_array_equal(ds.z[:, 0], [13.0, 14.0, 15.0, 16.0])


def test_csv_read_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("y,p,z_1\n\n1.0,2.0,3.0\n   \n4.0,5.0,6.0\n\n")
    ds = csv_read(path)
    assert len(ds.y) == 2
    assert_array_equal(ds.y, [1.0, 4.0])


def test_csv_read_rejects_duplicate_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,y\n1,2,3\n")
    with pytest.raises(DataError, match="line 1: duplicate column 'y'"):
        csv_read(path)


def test_csv_read_rejects_bad_suffixes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,z_0\n1,2,3\n")
    with pytest.raises(DataError, match="column 'z_0' needs a positive integer suffix"):
        csv_read(path)
    path.write_text("y,p,x_a\n1,2,3\n")
    with pytest.raises(DataError, match="column 'x_a' needs a positive integer suffix"):
        csv_read(path)


def test_csv_read_rejects_unknown_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,q\n1,2,3\n")
    msg = re.escape("line 1: unrecognized column 'q' (expected y, p, z_*, x_*)")
    with pytest.raises(DataError, match=msg):
        csv_read(path)


def test_csv_read_requires_y_and_p(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,z_1\n1,2\n")
    with pytest.raises(DataError, match="missing required column 'p'"):
        csv_read(path)
    path.write_text("p,z_1\n1,2\n")
    with pytest.raises(DataError, match="missing required column 'y'"):
        csv_read(path)


def test_csv_read_requires_contiguous_suffixes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p,z_1,z_3\n1,2,3,4\n")
    with pytest.raises(DataError, match=re.escape("z_* suffixes must cover 1..2")):
        csv_read(path)


def test_csv_read_reports_cell_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3: expected 2 cells, found 1"):
        csv_read(path)


def test_csv_read_reports_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p\n1,abc\n")
    with pytest.raises(DataError, match="line 2, column p: non-numeric cell 'abc'"):
        csv_read(path)


def test_csv_read_reports_non_finite_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,p\ninf,2\n")
    with pytest.raises(DataError, match="line 2, column y: non-finite value 'inf'"):
        csv_read(path)


def test_csv_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty file, header row required"):
        csv_read(path)
    path.write_text("\n   \n")
    with pytest.raises(DataError, match="empty file"):
        csv_read(path)


# --------------------------------------------------------------- config files


def test_config_parse_render_round_trip():
    mapping = {"dgp": "experiment1", "spec.n": "200", "dpls.widths": "8,4"}
    assert parse_config_text(render_config(mapping)) == mapping


def test_render_config_sorts_keys():
    assert render_config({"b": "2", "a": "1"}) == "a = 1\nb = 2\n"


def test_config_parser_skips_comments_and_keeps_equals_in_values():
    text = "# top comment\n\na.b = x=y\n  # indented comment\nc = 3\n"
    assert parse_config_text(text) == {"a.b": "x=y", "c": "3"}


def test_config_parser_rejects_line_without_equals():
    with pytest.raises(DataError, match=re.escape("line 2: expected 'key = value'")):
        parse_config_text("a = 1\nbogus line\n")


def test_config_parser_rejects_bad_keys():
    with pytest.raises(DataError, match="line 1: bad key 'a b'"):
        parse_config_text("a b = 1\n")
    with pytest.raises(DataError, match="line 1: bad key ''"):
        parse_config_text("= 5\n")


def test_config_parser_rejects_duplicate_key():
    with pytest.raises(DataError, match="line 3: duplicate key 'k'"):
        parse_config_text("k = 1\n# gap\nk = 2\n")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.txt"
    mapping = {"spec.n": "500", "seed": "7"}
    write_config(path, mapping)
    assert read_config(path) == mapping


# -------------------------------------------------------------- truth sidecar


def test_truth_round_trip_preserves_arrays_bitwise(tmp_path):
    _, truth = gen_experiment1(experiment1_spec(n=100), SeededRng(21))
    back = truth_from_dict(truth_to_dict(truth))
    for name in ("alpha", "gamma", "alpha_x", "beta_x", "w", "xi", "eps",
                 "treat_index", "out_index"):
        assert getattr(back, name).tobytes() == getattr(truth, name).tobytes()
    assert back.beta == truth.beta
    assert back.cov_repair == truth.cov_repair
    # sigma_z and the graph are derivable from the config, so they are dropped
    assert back.sigma_z.shape == (0, 0)
    assert back.graph is None
    path = tmp_path / "truth.json"
    write_truth(path, truth)
    from_file = read_truth(path)
    assert from_file.alpha.tobytes() == truth.alpha.tobytes()
    assert from_file.eps.tobytes() == truth.eps.tobytes()


def test_truth_round_trip_keeps_graph_experiment_repair(tmp_path):
    spec = experiment2_spec(n=100, m=20)
    _, truth = gen_experiment2(spec, SeededRng(5))
    assert truth.graph is not None
    path = tmp_path / "truth.json"
    write_truth(path, truth)
    back = read_truth(path)
    assert back.graph is None
    assert back.cov_repair == truth.cov_repair
    assert back.w.tobytes() == truth.w.tobytes()


def test_truth_from_dict_rejects_foreign_documents():
    with pytest.raises(DataError, match="not a truth record"):
        truth_from_dict({"format": "something-else"})
    doc = truth_to_dict(gen_experiment1(experiment1_spec(n=80), SeededRng(1))[1])
    doc["version"] = 99
    with pytest.raises(DataError, match="unsupported truth version 99"):
        truth_from_dict(doc)


# ----------------------------------------------------------------- fit bundle


def _small_fit(mode, censored=True):
    ds, _ = gen_experiment1(experiment1_spec(n=200), SeededRng(41))
    cfg = DplsConfig(layer_widths=(4,), first_layer_q=3,
                     sgd=SgdParams(epochs=5, seed=0))
    return ds, dpls_iv_fit(ds, cfg, mode=mode, censored=censored)


def test_fit_bundle_round_trip_gmm_mode(tmp_path):
    ds, fit = _small_fit("rescale_gmm")
    back, n_train = fit_from_dict(fit_to_dict(fit, n_train=200))
    assert n_train == 200
    assert back.mode == "rescale_gmm"
    assert back.censored is True
    assert back.cf is None
    assert back.gmm.beta.tobytes() == fit.gmm.beta.tobytes()
    assert_array_equal(back.gmm.sigma_star_matrix, fit.gmm.sigma_star_matrix)
    assert_array_equal(back.gmm.corrected_matrix, fit.gmm.corrected_matrix)
    for field in ("psi1", "psi2", "sigma_star", "phi_hat", "c_k"):
        assert getattr(back.constants, field) == getattr(fit.constants, field)
    assert_array_equal(back.predict_treatment(ds.z, ds.x),
                       fit.predict_treatment(ds.z, ds.x))
    assert_array_equal(back.predict_outcome(ds.z, ds.x),
                       fit.predict_outcome(ds.z, ds.x))


def test_fit_bundle_round_trip_control_function_mode(tmp_path):
    ds, fit = _small_fit("control_function")
    path = tmp_path / "fit.json"
    write_fit(path, fit, n_train=200)
    back, n_train = read_fit(path)
    assert n_train == 200
    assert back.mode == "control_function"
    assert back.gmm is None
    assert back.cf.beta == fit.cf.beta
    assert back.cf.beta_eta == fit.cf.beta_eta
    assert back.cf.beta_x.tobytes() == fit.cf.beta_x.tobytes()
    assert_array_equal(back.predict_outcome(ds.z, ds.x),
                       fit.predict_outcome(ds.z, ds.x))


def _assert_bit_equal(a, b):
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            _assert_bit_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bit_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert a == b


@pytest.mark.parametrize("method", ["dpls_iv", "pls", "ols", "ridge", "lasso"])
def test_fit_record_reproduces_the_first_stage(method):
    if method == "dpls_iv":
        _, fit = _small_fit("rescale_gmm")
    else:
        ds, _ = gen_experiment1(experiment1_spec(n=200), SeededRng(41))
        zbar = augment_instruments(ds.z, ds.x)
        first = fit_first_stage(method, zbar, ds.p, "auto", SeededRng(0))
        fit = iv_fit(first, ds)
    back, _ = fit_from_dict(fit_to_dict(fit, n_train=200))
    _assert_bit_equal(back.first_stage, fit.first_stage)


def test_fit_from_dict_rejects_foreign_documents():
    with pytest.raises(DataError, match="not a fit record"):
        fit_from_dict({"format": "something-else"})
    _, fit = _small_fit("rescale_gmm", censored=False)
    doc = fit_to_dict(fit, n_train=200)
    # version 1 is the record layout before every method shared one format
    for old in (0, 1):
        doc["version"] = old
        with pytest.raises(DataError, match=f"unsupported fit version {old}"):
            fit_from_dict(doc)


# -------------------------------------------------------------- report files


def _hand_report():
    return MetricsReport(
        rows=(
            ("ols", 0, "treatment_r2", 0.5),
            ("ols", 1, "treatment_r2", 0.7),
            ("pls", 0, "treatment_r2", 0.9),
            ("ols", 0, "outcome_r2", 0.8),
        ),
        aggregates={
            ("ols", "treatment_r2"): {"median": 0.6, "iqr": 0.2, "count": 2},
            ("pls", "treatment_r2"): {"median": 0.9, "iqr": 0.0, "count": 1},
            ("ols", "outcome_r2"): {"median": 0.8, "iqr": 0.0, "count": 1},
        },
        bias_samples={"ols": np.array([1.0, 2.0, 4.0]), "pls": np.array([0.5])},
        seed_ledger=((0, 17), (1, 18)),
        failures=((1, "pls", "boom"),),
        replications=2,
        methods=("ols", "pls"),
    )


def test_write_predictions_csv_layout(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions_csv(path, {"y": np.array([1.5, 2.5]),
                                 "y_hat": np.array([1.0, 3.0])})
    assert path.read_text() == "row,y,y_hat\n1,1.5,1.0\n2,2.5,3.0\n"


def test_write_predictions_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "pred.csv"
    with pytest.raises(DataError, match="column y_hat has 1 rows, expected 2"):
        write_predictions_csv(path, {"y": np.zeros(2), "y_hat": np.zeros(1)})


def test_write_metrics_csv_layout(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, _hand_report())
    lines = path.read_text().splitlines()
    assert lines[0] == "method,replication,metric,value"
    assert lines[1] == "ols,0,treatment_r2,0.5"
    assert lines[3] == "pls,0,treatment_r2,0.9"
    assert len(lines) == 5


def test_write_bias_cdf_csv_pads_short_curves(tmp_path):
    path = tmp_path / "cdf.csv"
    write_bias_cdf_csv(path, _hand_report())
    lines = path.read_text().splitlines()
    assert lines[0] == "ols_x,ols_y,pls_x,pls_y"
    assert lines[1] == "1.0,0.3333333333333333,0.5,1.0"
    assert lines[2] == "2.0,0.6666666666666666,,"
    assert lines[3] == "4.0,1.0,,"
    # every curve must end at probability one
    assert lines[-1].split(",")[1] == "1.0"


def test_write_bias_cdf_csv_skips_methods_without_samples(tmp_path):
    from dataclasses import replace

    report = replace(_hand_report(), bias_samples={"ols": np.array([2.0])})
    path = tmp_path / "cdf.csv"
    write_bias_cdf_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "ols_x,ols_y"
    assert lines[1] == "2.0,1.0"


def test_render_summary_contents(tmp_path):
    text = render_summary(_hand_report(), "demo run")
    assert text.startswith("demo run\n========\n")
    assert "replications: 2" in text
    assert "methods: ols, pls" in text
    assert "treatment_r2 (median [IQR])" in text
    assert "0.6 [0.2] over 2" in text
    # pls posted no outcome_r2 aggregate at all
    assert "no successful replications" in text
    assert "failures: 1 of 4 method-replication cells" in text
    assert "replication 1, pls: boom" in text
    assert "0: 17" in text and "1: 18" in text
    path = tmp_path / "summary.txt"
    write_summary(path, _hand_report(), "demo run")
    assert path.read_text() == text
