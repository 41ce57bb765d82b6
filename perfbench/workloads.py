"""The benchmark's workloads: each sets up its inputs, runs one unit of
work through the public API or the command line, and checks the outputs.

A unit never reads the clock; ``run.py`` times it. Every input is derived
from the seed given on the command line, and unit ``j`` always gets the same
inputs for the same seed, so a traced unit can be paired with the untraced
unit of the same index.
"""
from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np

import dpls_iv
from dpls_iv import bench, dataio, ivreg, synthetic
from dpls_iv.data import SeededRng
from dpls_iv.errors import DataError, NumericalError
from dpls_iv.network import DplsConfig, SgdParams

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "cli_launch.py")

# Span and count names each workload must fire in a traced run; a name that
# stays silent means a wrapped call site moved and the trace would read zero.
_NETWORK = {
    "pls.select_q_cv", "pls.fit_pls_closed_form", "network.dpls_fit", "network.init",
    "network.sgd_refine", "network.sgd.steps", "linear.fit_ols",
    "ivreg.dpls_iv_fit", "ivreg.outcome", "ivreg.sandwich_variance",
    "ivreg.corrected_covariance",
}
_STUDY = _NETWORK | {
    "bench.run_benchmark", "synthetic.gen", "linear.fit_lasso", "linear.fit_ridge",
    "linear.soft_threshold.calls",
}
_CLI = _NETWORK | {
    "cli.startup", "cli.simulate", "cli.fit", "cli.predict", "synthetic.gen",
    "dataio.csv_write", "dataio.csv_read", "dataio.write_predictions_csv",
    "dataio.fit_record", "ivreg.sample_posterior", "ivreg.predictive",
}


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class Study:
    """One replication of the replicated study: every method, one process.

    Unit j is replication j of the study whose base seed is the benchmark
    seed (data seed = seed + j), exactly as ``run_benchmark`` would run it.
    """

    in_process = True
    quality_name = "dpls_treatment_r2"
    quality_unit = "r2"

    def __init__(self, dgp: str, seed: int, smoke: bool, workdir: str):
        self.dgp, self.seed, self.smoke = dgp, seed, smoke
        self.expected = _STUDY

    def setup(self) -> None:
        build = synthetic.experiment1_spec if self.dgp == "experiment1" else synthetic.experiment2_spec
        small = dict(n=200, m=10, m_redundant=2, k=6, k_null=3)
        self.spec = build(**small) if self.smoke else build()

    def prepare(self, j: int, traced: bool) -> None:
        pass

    def input_key(self, j: int):
        return j

    def run_unit(self, j: int, traced: bool, tracer, pause):
        cfg = bench.ExperimentConfig(
            dgp=self.dgp, spec=self.spec, replications=1, base_seed=self.seed + j, jobs=1,
        )
        return bench.run_benchmark(cfg)

    def check(self, j: int, traced: bool, report):
        """Returns (operations, failed, problems, quality)."""
        methods = report.methods
        problems = [f"unit {j}: {rep} {m}: {msg}" for rep, m, msg in report.failures]
        failed = {m for _rep, m, _msg in report.failures}
        rows = {}
        for method, _rep, metric, value in report.rows:
            rows.setdefault(method, {})[metric] = value
        for method in methods:
            values = rows.get(method, {})
            if method not in failed and (len(values) != 5 or not _finite(list(values.values()))):
                failed.add(method)
                problems.append(f"unit {j}: {method}: missing or non-finite metrics {values}")
        quality = rows.get("dpls_iv", {}).get("treatment_r2")
        return len(methods), len(failed), problems, quality


class Fit10k:
    """``dpls_iv_fit`` with the default network on an experiment1 dataset.

    Units cycle through three datasets, those ``dpls-iv simulate --seed s``
    would write for s = seed, seed + 1, seed + 2.
    """

    in_process = True
    quality_name = "policy_abs_err"
    quality_unit = "abs"
    n_datasets = 3

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed, self.smoke = seed, smoke
        self.expected = _NETWORK | {"synthetic.gen"}
        n, epochs = (600, 5) if smoke else (10000, 200)
        self.spec = synthetic.experiment1_spec(n=n)
        self.cfg = DplsConfig(sgd=SgdParams(epochs=epochs))

    def setup(self) -> None:
        self.data = [
            synthetic.gen_experiment1(self.spec, SeededRng(self.seed + i).child(0))
            for i in range(self.n_datasets)
        ]

    def prepare(self, j: int, traced: bool) -> None:
        pass

    def input_key(self, j: int):
        return j % self.n_datasets

    def run_unit(self, j: int, traced: bool, tracer, pause):
        ds, _truth = self.data[j % self.n_datasets]
        try:
            return ivreg.dpls_iv_fit(ds, self.cfg, mode="rescale_gmm", censored=True)
        except (DataError, NumericalError) as exc:
            return exc

    def check(self, j: int, traced: bool, fit):
        if isinstance(fit, Exception):
            return 1, 1, [f"unit {j}: {type(fit).__name__}: {fit}"], None
        problems = []
        effect = fit.policy_effect
        if not math.isfinite(effect):
            problems.append(f"unit {j}: policy effect {effect}")
        for name in ("sigma_star_matrix", "corrected_matrix"):
            problem = _covariance_problem(getattr(fit.gmm, name))
            if problem:
                problems.append(f"unit {j}: {name} {problem}")
        truth = self.data[j % self.n_datasets][1]
        quality = abs(effect - truth.beta) if math.isfinite(effect) else None
        return 1, int(bool(problems)), problems, quality


def _covariance_problem(mat) -> str | None:
    if mat is None:
        return "is missing"
    mat = np.asarray(mat, dtype=np.float64)
    if not _finite(mat):
        return "is not finite"
    scale = float(np.max(np.abs(mat))) or 1.0
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * scale):
        return "is not symmetric"
    low = float(np.linalg.eigvalsh((mat + mat.T) / 2.0).min())
    if low < -1e-10 * scale:
        return f"is not PSD (smallest eigenvalue {low!r})"
    return None


def spawn(argv: list[str], out_path: str, timeout: float = 170.0):
    """Run a child to completion; returns (exit code, peak RSS in MB).

    ``os.wait4`` gives this child's own resource usage, so the peak RSS is
    the child's, not the largest of every child this process ever had.
    """
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise TimeoutError(f"{argv[2:4]} ran longer than {timeout} s")
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class CliChain:
    """``simulate -> fit -> predict`` as three processes, as a user runs it.

    Each command runs through ``cli_launch.py``, which calls the package's
    CLI entry point; traced units ask the launcher to install the wrappers
    and write its spans next to the outputs. Units alternate between two
    simulate seeds, seed and seed + 1.
    """

    in_process = False
    quality_name = "policy_abs_err"
    quality_unit = "abs"
    n_datasets = 2
    commands = ("simulate", "fit", "predict")

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed, self.smoke, self.workdir = seed, smoke, workdir
        self.expected = _CLI
        self.n, self.epochs, self.draws = (300, 2, 50) if smoke else (10000, 20, 2000)
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        spec = synthetic.experiment1_spec(n=self.n)
        self.data = [
            synthetic.gen_experiment1(spec, SeededRng(self.seed + i).child(0))
            for i in range(self.n_datasets)
        ]

    def input_key(self, j: int):
        return j % self.n_datasets

    def _dir(self, j: int, traced: bool) -> str:
        return os.path.join(self.workdir, f"unit{j}{'t' if traced else ''}")

    def prepare(self, j: int, traced: bool) -> None:
        base = self._dir(j, traced)
        os.makedirs(base)
        configs = {
            "simulate.txt": f"dgp = experiment1\nspec.n = {self.n}\n",
            "fit.txt": f"data = {base}/sim/data.csv\ndpls.epochs = {self.epochs}\n",
            "predict.txt": f"fit = {base}/fit/fit.json\ndata = {base}/sim/data.csv\n",
        }
        for name, text in configs.items():
            with open(os.path.join(base, name), "w", encoding="utf-8") as fh:
                fh.write(text)

    def _argv(self, base: str, command: str, j: int) -> list[str]:
        out = {"simulate": "sim", "fit": "fit", "predict": "pred"}[command]
        argv = [command, "--config", os.path.join(base, f"{command}.txt"),
                "--out-dir", os.path.join(base, out)]
        if command == "simulate":
            argv += ["--seed", str(self.seed + j % self.n_datasets)]
        if command == "predict":
            argv += ["--draws", str(self.draws)]
        return argv

    def run_unit(self, j: int, traced: bool, tracer, pause):
        """Run the chain; ``pause``, if given, runs between commands and
        its time is not the chain's."""
        base = self._dir(j, traced)
        codes = []
        for command in self.commands:
            log = os.path.join(base, f"{command}.log")
            argv = [sys.executable, LAUNCHER]
            if tracer is not None:
                trace_path = os.path.join(base, f"{command}.trace.json")
                argv += ["--trace-out", trace_path, "--spawned", repr(time.perf_counter())]
            code, rss = spawn(argv + ["--"] + self._argv(base, command, j), log)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if tracer is not None and code == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh))
            codes.append(code)
            if code != 0:
                break
            if pause is not None:
                pause()
        return codes

    def check(self, j: int, traced: bool, codes):
        """Check one chain's outputs, then remove them."""
        try:
            return self._check(j, traced, codes)
        finally:
            shutil.rmtree(self._dir(j, traced), ignore_errors=True)

    def _check(self, j: int, traced: bool, codes):
        base = self._dir(j, traced)
        ops = len(self.commands)
        problems = [
            f"unit {j}: {cmd} exited with {code}: {_tail(os.path.join(base, cmd + '.log'))}"
            for cmd, code in zip(self.commands, codes) if code != 0
        ]
        if len(codes) < ops or problems:
            return ops, ops - codes.count(0), problems, None
        bad = set()
        ds, truth = self.data[j % self.n_datasets]
        read = dataio.csv_read(os.path.join(base, "sim", "data.csv"))
        if not all(getattr(read, f).tobytes() == getattr(ds, f).tobytes() for f in "ypzx"):
            bad.add("simulate")
            problems.append(f"unit {j}: data.csv does not round-trip the generated dataset")
        fit_rows = _lines(os.path.join(base, "fit", "predictions.csv"))
        pred_rows = _lines(os.path.join(base, "pred", "predictions.csv"))
        if [r.split(",")[:3] for r in pred_rows] != [r.split(",")[:3] for r in fit_rows]:
            bad.add("predict")
            problems.append(f"unit {j}: predict p_hat/y_hat differ from fit's predictions.csv")
        bands = np.array([[float(v) for v in r.split(",")[3:5]] for r in pred_rows[1:]])
        if bands.shape != (self.n, 2) or not _finite(bands) or np.any(bands[:, 0] > bands[:, 1]):
            bad.add("predict")
            problems.append(f"unit {j}: predictive bands are not finite ordered pairs")
        match = re.search(r"policy_effect=(\S+)", _tail(os.path.join(base, "fit.log")))
        effect = float(match.group(1)) if match else math.nan
        if not math.isfinite(effect):
            bad.add("fit")
            problems.append(f"unit {j}: fit printed no finite policy effect")
        quality = abs(effect - truth.beta) if math.isfinite(effect) else None
        return ops, len(bad), problems, quality


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-400:].strip()


class Reference:
    """A fixed job that mixes the program's kinds of work: minibatch-sized
    products in a Python loop (SGD, lasso coordinate descent), float
    formatting (the CSV writer) and a sort of a large array.

    The host this benchmark was tuned on switches between a fast and a slow
    state every fraction of a second, and the share of slow time drifts
    over minutes. Running this job between units, and between the commands
    of a CLI chain, samples that share at the times the program runs;
    dividing the mean unit time by the mean job time cancels most of it.
    """

    every_s = 0.6  # one run per 0.6 s of other work: about a tenth of a run

    def __init__(self):
        rng = np.random.default_rng(20261017)
        self.a = rng.standard_normal((32, 30))
        self.w = rng.standard_normal((30, 30))
        self.big = rng.standard_normal(200_000)
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._due = 1.0
        self._mark = time.perf_counter()

    def job(self) -> float:
        total = 0.0
        for _ in range(5000):
            total += float(np.maximum(self.a @ self.w, 0.0).sum())
        total += len(",".join(repr(float(v)) for v in self.big[:20000]))
        return total + float(np.sort(self.big).sum())

    def pause(self) -> None:
        """Run the job once per ``every_s`` of time since the last pause."""
        began = time.perf_counter()
        self._due += (began - self._mark) / self.every_s
        while self._due >= 1.0:
            start = time.perf_counter()
            self.job()
            self.samples.append(time.perf_counter() - start)
            self._due -= 1.0
        self._mark = time.perf_counter()
        self.paused_s += self._mark - began


WORKLOADS = {
    "study_exp1": lambda seed, smoke, wd: Study("experiment1", seed, smoke, wd),
    "study_exp2": lambda seed, smoke, wd: Study("experiment2", seed, smoke, wd),
    "fit_10k": Fit10k,
    "cli_chain_10k": CliChain,
}


def environment(thread_vars) -> dict:
    """Interpreter, library and BLAS facts recorded next to every result."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "dpls_iv": dpls_iv.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
    }


def _blas_threads():
    """Ask the OpenBLAS that numpy loaded how many threads it uses."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
