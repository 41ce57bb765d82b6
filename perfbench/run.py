"""End-to-end and per-layer benchmark of dpls-iv.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see NOTES.md for why each exists): study_exp1, fit_10k and
cli_chain_10k; study_exp2 runs on request. Each is a closed loop with one
caller: unit j+1 starts when unit j has finished, and no unit starts that
would, at the median unit time so far, end after S seconds.

With ``--trace 0`` the run reports the end-to-end metrics and no wrapper is
installed. It also times a fixed reference job between units
(``workloads.Reference``) and gates on unit time in multiples of it,
because the host's speed drifts (see NOTES.md).

With ``--trace 1`` every unit index runs twice, untraced and then traced
with wrappers at the package's call sites (``tracing.py``). The per-layer
metrics come from the traced units and the tracing overhead from the
pairs.

The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
prefixed ``perfbench report``, holds every figure with its unit and sample
count, the correctness problems found and the environment.

BLAS and OpenMP are pinned to one thread here, before numpy is imported,
and the CLI children inherit the setting.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_run")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median of 5
now = tracing.now


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import plus input set-up and print it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# ------------------------------------------------------------- per-layer map

def _total(name):
    return lambda s, c: s["total"].get(name, 0.0)


def _self(name):
    return lambda s, c: s["self"].get(name, 0.0)


def _count(name):
    return lambda s, c: c.get(name, 0)


def _ratio(num, den, scale):
    return lambda s, c: num(s, c) * scale / den(s, c) if den(s, c) else 0.0


# (metric, unit, value of one traced unit). Counts are taken from the first
# traced unit, whose inputs depend on the seed alone; times are means over
# the traced units, so the layer self times plus unattributed_s add up to
# trace.unit_s.
PER_LAYER = (
    ("linear.fit_lasso.s", "s", _total("linear.fit_lasso")),
    ("linear.fit_ridge.s", "s", _total("linear.fit_ridge")),
    ("linear.soft_threshold.calls", "count", _count("linear.soft_threshold.calls")),
    ("linear.fit_ols.s", "s", _total("linear.fit_ols")),
    ("linear.fit_ols.calls", "count", _count("linear.fit_ols.calls")),
    ("pls.select_q_cv.s", "s", _total("pls.select_q_cv")),
    ("pls.select_q_cv.calls", "count", _count("pls.select_q_cv.calls")),
    ("pls.fit_pls_closed_form.s", "s", _total("pls.fit_pls_closed_form")),
    ("network.dpls_fit.s", "s", _total("network.dpls_fit")),
    ("network.sgd_refine.s", "s", _total("network.sgd_refine")),
    ("network.sgd.steps", "count", _count("network.sgd.steps")),
    ("network.sgd.step_us", "us",
     _ratio(_total("network.sgd_refine"), _count("network.sgd.steps"), 1e6)),
    ("network.init.self_s", "s", _self("network.init")),
    ("ivreg.outcome.s", "s", _total("ivreg.outcome")),
    ("ivreg.sandwich_variance.s", "s", _total("ivreg.sandwich_variance")),
    ("ivreg.corrected_covariance.s", "s", _total("ivreg.corrected_covariance")),
    ("ivreg.sample_posterior.s", "s", _total("ivreg.sample_posterior")),
    ("ivreg.predictive.s", "s", _total("ivreg.predictive")),
    ("ivreg.predictive.cells", "count", _count("ivreg.predictive.cells")),
    ("dataio.csv_write.s", "s", _total("dataio.csv_write")),
    ("dataio.csv_read.s", "s", _total("dataio.csv_read")),
    ("dataio.csv.bytes", "bytes", _count("dataio.csv_write.bytes")),
    ("dataio.csv_write.mb_per_s", "MB/s",
     _ratio(_count("dataio.csv_write.bytes"), _total("dataio.csv_write"), 1e-6)),
    ("dataio.csv_read.mb_per_s", "MB/s",
     _ratio(_count("dataio.csv_read.bytes"), _total("dataio.csv_read"), 1e-6)),
    ("dataio.write_predictions_csv.s", "s", _total("dataio.write_predictions_csv")),
    ("dataio.fit_record.s", "s", _total("dataio.fit_record")),
    ("cli.simulate.s", "s", _total("cli.simulate")),
    ("cli.fit.s", "s", _total("cli.fit")),
    ("cli.predict.s", "s", _total("cli.predict")),
    ("cli.predict.self_s", "s", _self("cli.predict")),
    ("cli.startup_s", "s",
     lambda s, c: s["total"].get("cli.startup", 0.0) / max(s["spans"].get("cli.startup", 0), 1)),
    ("synthetic.gen.s", "s", _total("synthetic.gen")),
    ("bench.run_benchmark.self_s", "s", _self("bench.run_benchmark")),
) + tuple(
    (f"layer.{layer}.self_s", "s", (lambda name: lambda s, c: s["layer"][name])(layer))
    for layer in tracing.LAYERS
) + (
    ("unattributed_s", "s", lambda s, c: s["unattributed"]),
)
# Exact counts must repeat for units with the same inputs.
EXACT_COUNTS = ("linear.soft_threshold.calls", "network.sgd.steps",
                "dataio.csv_write.bytes", "ivreg.predictive.cells")


# ------------------------------------------------------------------- running

def _run_one(wl, j, traced, tracer, reference):
    """Time unit j, then check its outputs outside the timed interval.

    The outputs are dropped after the check, so memory and disk use do not
    grow with the number of units a run manages. Time the unit spends in
    the reference job (between CLI commands) is not unit time.
    """
    wl.prepare(j, traced)
    patches = None
    if traced:
        tracer.unit = j
        tracer.counts.clear()
        if wl.in_process:
            patches = tracing.install(tracer)
    paused = reference.paused_s if reference else 0.0
    try:
        start = now()
        root = tracer.open("unit", start) if traced else None
        result = wl.run_unit(j, traced, tracer if traced else None,
                             reference.pause if reference else None)
        end = now()
    finally:
        if patches:
            tracing.uninstall(patches)
    counts = None
    if traced:
        tracer.close(root, end)
        counts = dict(tracer.counts)
    if reference:
        end -= reference.paused_s - paused
        reference.pause()
    ops, failed, problems, quality = wl.check(j, traced, result)
    return {"j": j, "traced": traced, "s": end - start, "counts": counts, "ops": ops,
            "failed": failed, "problems": problems, "quality": quality}


def _loop(wl, seconds, tracer, reference):
    """Closed loop over unit indices; returns (records, wall seconds).

    A unit index (with its traced twin, in a traced run) starts only if the
    median time per index so far, checks included, still fits in the run.
    """
    records, per_index = [], []
    modes = (False, True) if tracer else (False,)
    start = now()
    j = 0
    while not per_index or (now() - start) + statistics.median(per_index) <= seconds:
        began = now()
        records += [_run_one(wl, j, traced, tracer, reference) for traced in modes]
        per_index.append(now() - began)
        j += 1
    return records, now() - start


def _setup_probe(args) -> float:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _trace_metrics(wl, tracer, records, setup_counts):
    """Per-layer metrics from the traced units, plus guard and count checks."""
    traced = [r for r in records if r["traced"]]
    untraced = {r["j"]: r["s"] for r in records if not r["traced"]}
    summaries = [tracing.unit_summary(tracer.spans, r["j"]) for r in traced]
    setup = tracing.unit_summary(tracer.spans, "setup")
    problems = []

    fired = set(setup["total"]) | {k for k, v in setup_counts.items() if v}
    for s, r in zip(summaries, traced):
        fired |= set(s["total"]) | {k for k, v in r["counts"].items() if v}
    missing = sorted(wl.expected - fired)
    if missing:
        raise tracing.PatchPointMissing(
            f"spans expected on this workload never fired: {', '.join(missing)}"
        )
    for s, r in zip(summaries, traced):
        covered = sum(s["layer"].values()) + s["unattributed"]
        if abs(covered - r["s"]) > 1e-6:
            problems.append(f"unit {r['j']}: spans cover {covered!r} s of {r['s']!r} s")
        steps, planned = r["counts"].get("network.sgd.steps", 0), r["counts"].get(
            "network.sgd.planned_steps", 0)
        if steps != planned:
            problems.append(f"unit {r['j']}: {steps} SGD steps, epochs x batches = {planned}")
    first_by_key = {}
    for r in traced:
        exact = {k: r["counts"].get(k, 0) for k in EXACT_COUNTS}
        ref = first_by_key.setdefault(wl.input_key(r["j"]), exact)
        if exact != ref:
            problems.append(f"unit {r['j']}: counts {exact} differ from {ref} on equal inputs")

    metrics = {}
    for name, unit, value in PER_LAYER:
        if unit in ("count", "bytes"):
            v = value(summaries[0], traced[0]["counts"])
        else:
            v = statistics.fmean(value(s, r["counts"]) for s, r in zip(summaries, traced))
        metrics[name] = {"value": v, "unit": unit}
    if metrics["synthetic.gen.s"]["value"] == 0.0:
        # fit_10k generates its datasets during set-up, not inside units
        metrics["synthetic.gen.s"]["value"] = setup["total"].get("synthetic.gen", 0.0)
    traced_s = [r["s"] for r in traced]
    metrics["trace.unit_s"] = {"value": statistics.fmean(traced_s), "unit": "s"}
    metrics["trace.untraced_unit_s"] = {
        "value": statistics.fmean(untraced[r["j"]] for r in traced), "unit": "s"}
    metrics["trace_overhead_s"] = {
        "value": statistics.fmean(r["s"] - untraced[r["j"]] for r in traced), "unit": "s"}
    return metrics, problems


def _run(args, workdir) -> int:
    tracer = tracing.Tracer() if args.trace else None
    start = now()
    import workloads  # numpy, scipy and dpls_iv load here, inside set-up

    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = make(args.seed, args.smoke, workdir)
    patches = []
    if tracer and wl.in_process:
        tracer.unit = "setup"
        patches = tracing.install(tracer)
    try:
        wl.setup()
    finally:
        tracing.uninstall(patches)
    setup_s = now() - start
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_counts = dict(tracer.counts) if tracer else {}

    reference = None if tracer else workloads.Reference()
    records, wall_s = _loop(wl, args.seconds, tracer, reference)
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                   if wl.in_process else wl.peak_rss_mb)

    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]]
    quality = [r["quality"] for r in records if r["quality"] is not None]

    times = [r["s"] for r in records if not r["traced"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "unit_s": times,
        "environment": workloads.environment(THREAD_VARS),
    }
    if tracer:
        metrics, trace_problems = _trace_metrics(wl, tracer, records, setup_counts)
        problems += trace_problems
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.dump(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"))
    else:
        probes = [setup_s] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
        ref_s = reference.samples
        unit_ref = statistics.fmean(times) / statistics.fmean(ref_s)
        metrics = {
            "unit_ref_mean": {"value": unit_ref, "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
        }
        report["end_to_end"] = {
            "setup_s": {"value": metrics["setup_s"]["value"], "unit": "s", "n": len(probes)},
            "wall_s": {"value": wall_s, "unit": "s", "n": 1},
            "unit_s_p50": {"value": statistics.median(times), "unit": "s", "n": len(times)},
            "unit_s_mean": {"value": statistics.fmean(times), "unit": "s", "n": len(times)},
            "reference_s_mean": {"value": statistics.fmean(ref_s), "unit": "s",
                                 "n": len(ref_s)},
            "unit_ref_mean": {"value": unit_ref, "unit": "ref", "n": len(times)},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
            "fail_share": {"value": failed / attempted, "unit": "share", "n": attempted},
            wl.quality_name: {"value": statistics.median(quality) if quality else None,
                              "unit": wl.quality_unit, "n": len(quality)},
        }
    report["problems"] = problems
    print("perfbench report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "dpls_iv", "__init__.py")):
        print(f"perfbench: no dpls_iv package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    except tracing.PatchPointMissing as exc:
        print(f"perfbench: trace guard failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
