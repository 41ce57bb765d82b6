"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    argv = [sys.executable] + SPEC["command"][1:] + list(args)
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload, trace, seed=3):
    done = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    line = done.stdout.strip().splitlines()[-1]
    return json.loads(line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = _result(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_with_repeatable_counts(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] is True
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert [first["metrics"][k] for k in exact] == [second["metrics"][k] for k in exact]


def test_layer_self_times_and_unattributed_add_up_to_the_unit():
    spans = [
        ["unit", 0.0, 10.0, -1, 0],
        ["bench.run_benchmark", 1.0, 9.0, 0, 0],
        ["linear.fit_lasso", 2.0, 6.0, 1, 0],
        ["linear.fit_ols", 3.0, 4.0, 2, 0],
        ["synthetic.gen", 6.5, 7.0, 1, 0],
        ["unit", 20.0, 21.0, -1, 1],
    ]
    s = tracing.unit_summary(spans, 0)
    assert s["total"]["linear.fit_lasso"] == 4.0
    assert s["self"]["linear.fit_lasso"] == 3.0
    assert s["layer"]["linear"] == 4.0
    assert s["layer"]["bench"] == 3.5
    assert s["layer"]["synthetic"] == 0.5
    assert s["unattributed"] == 2.0
    assert sum(s["layer"].values()) + s["unattributed"] == 10.0


def test_guard_rejects_a_missing_call_site(monkeypatch):
    import dpls_iv.bench

    monkeypatch.delattr(dpls_iv.bench, "_outcome_stage")
    with pytest.raises(tracing.PatchPointMissing, match="_outcome_stage"):
        tracing.install(tracing.Tracer())


def test_guard_fails_the_run_when_an_expected_span_stays_silent(monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    sites = tuple(s for s in tracing.SPAN_SITES if s[2] != "network.init")
    monkeypatch.setattr(tracing, "SPAN_SITES", sites)
    code = run.main(["--workload", "fit_10k", "--seed", "0", "--seconds", "0.1",
                     "--trace", "1", "--smoke"])
    assert code == 3
    assert "network.init" in capsys.readouterr().err


def test_uninstall_restores_the_original_functions():
    import dpls_iv.network

    tracer = tracing.Tracer()
    original = dpls_iv.network.sgd_refine
    patches = tracing.install(tracer)
    assert dpls_iv.network.sgd_refine is not original
    tracing.uninstall(patches)
    assert dpls_iv.network.sgd_refine is original


def test_run_without_the_package_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
