"""Replicated train/test benchmark over first-stage treatment methods.

Each replication draws a fresh dataset (seed = base_seed + replication),
splits it, fits every requested method's treatment model on the training
half, and pushes the resulting treatment predictions through the one
outcome stage (ivreg.iv_fit) so outcome numbers differ only through the
first stage, and scores each cell out of sample (r_squared, rmse). Per-cell
failures are recorded and the study continues.

A replication that fits both lasso and dpls_iv forks the lasso CV's paths
before its first fit (linear._LassoCv.early), fits lasso last, and puts
its rows back in method order, so the paths run beside the network fit,
the only fit long enough to hide them. On two CPUs this took a traced
experiment1 replication's fit_lasso from 30.8 to 2.0 ms and the untraced
replication from 90 to 63 ms. Without the network an early child only
adds its fork and its wait: (ols, ridge, lasso) went from 37-40 to
55-63 ms with one and (lasso,) from 29-31 to 50-65 ms; on one CPU an
early fork took all five methods from 97-99 to 109-124 ms (medians of 20
experiment1 seeds, four runs each, one BLAS thread, a two-CPU VM). So
neither forks early.

A process pool starts when more than one worker would, min(jobs,
replications) of them, and each worker uses its share of the usable CPUs,
usable CPUs // workers and at least 1 (data._share_cpus), for the parts
and helpers it forks: the lasso CV paths and the SGD loss helper. Without
that share, two workers on two CPUs each forked lasso parts, and eight
experiment1 replications with jobs = 2 took 0.61-0.64 s against
0.52-0.62 s with it (medians of five, one BLAS thread). One worker would
run the replications as this process does, a fork and a pickle later, so
they run here: one experiment1 replication in a one-worker pool took
91.7-97.6 ms against 79.9-93.1 ms in this process (medians of 20 seeds,
four runs each).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (
    SeededRng, _Children, _share_cpus, augment_instruments, check_int, split_dataset,
)
from .errors import DataError, DegenerateDataError, NumericalError
from .ivreg import _check_mode, dpls_iv_fit
from .ivreg import iv_fit as _outcome_stage
from .linear import _LassoCv, fit_lasso, fit_ols, fit_ridge
from .network import DplsConfig
from .pls import AUTO_Q_CAP, fit_pls_closed_form, select_q_cv
from .synthetic import SyntheticSpec, gen_experiment1, gen_experiment2

__all__ = [
    "ExperimentConfig",
    "MetricsReport",
    "fit_first_stage",
    "run_benchmark",
    "KNOWN_METHODS",
    "r_squared",
    "rmse",
]

KNOWN_METHODS = ("ols", "ridge", "lasso", "pls", "dpls_iv")


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark settings; spec carries the DGP, dpls the network knobs."""

    dgp: str = "experiment1"
    spec: SyntheticSpec = field(default_factory=SyntheticSpec)
    methods: tuple[str, ...] = KNOWN_METHODS
    dpls: DplsConfig = field(default_factory=DplsConfig)
    mode: str = "rescale_gmm"
    censored: bool = True
    test_fraction: float = 0.5
    replications: int = 10
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        cov_mode = {"experiment1": "near_diagonal", "experiment2": "network"}.get(self.dgp)
        if cov_mode is None:
            raise DataError("dgp must be 'experiment1' or 'experiment2'")
        if self.spec.cov_mode != cov_mode:
            raise DataError(
                f"dgp {self.dgp!r} needs spec.cov_mode {cov_mode!r}, "
                f"got {self.spec.cov_mode!r}"
            )
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if not self.methods or unknown:
            raise DataError(
                f"methods must be a non-empty subset of {KNOWN_METHODS}, "
                f"unknown: {sorted(unknown)}"
            )
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise DataError(f"methods must name each method once, repeated: {repeated}")
        for name in ("replications", "base_seed", "jobs"):
            check_int(name, getattr(self, name))
        if self.replications < 1:
            raise DataError("replications must be >= 1")
        _check_mode(self.mode)
        if not (0.0 < self.test_fraction < 1.0):
            raise DataError("test_fraction must lie in (0, 1)")
        if self.jobs < 1:
            raise DataError("jobs must be >= 1")


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Long-form rows (method, replication, metric, value) plus aggregates.

    Every value is traceable: rows carry the replication index and
    seed_ledger maps each replication to the seed that generated its data.
    """

    rows: tuple[tuple[str, int, str, float], ...]
    aggregates: dict
    bias_samples: dict
    seed_ledger: tuple[tuple[int, int], ...]
    failures: tuple[tuple[int, str, str], ...]
    replications: int
    methods: tuple[str, ...]


def _vectors(actual, predicted):
    a = np.asarray(actual, dtype=np.float64).ravel()
    b = np.asarray(predicted, dtype=np.float64).ravel()
    if a.shape != b.shape or len(a) < 2:
        raise DataError("actual and predicted must be equal-length vectors, n >= 2")
    return a, b


def r_squared(actual, predicted) -> float:
    """1 - SS_residual / SS_total; undefined for a constant actual."""
    a, b = _vectors(actual, predicted)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateDataError("R^2 undefined: actual values are constant")
    return 1.0 - float(np.sum((a - b) ** 2)) / ss_tot


def rmse(actual, predicted) -> float:
    a, b = _vectors(actual, predicted)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def fit_first_stage(method: str, zbar, p, q, rng: SeededRng):
    """Fit one baseline treatment model: ols, ridge, lasso or pls.

    OLS, ridge and lasso fit no constant, though the designs' treatment has
    one, which PLS (PlsFit.means) and the network fit (ROADMAP item 16). q
    is the PLS component count or "auto", picked by 5-fold CV on the
    rng.child(7) stream. The network (dpls_iv) is fit by dpls_iv_fit.
    """
    if method == "ols":
        return fit_ols(zbar, p)
    if method == "ridge":
        return fit_ridge(zbar, p, lam="auto")
    if method == "lasso":
        return fit_lasso(zbar, p, lam="auto")
    if method == "pls":
        if q == "auto":
            q = select_q_cv(zbar, p, min(zbar.shape[1], AUTO_Q_CAP), rng.child(7))
        return fit_pls_closed_form(zbar, p, q)
    raise DataError(f"unknown first-stage method: {method}")


def _run_replication(cfg: ExperimentConfig, rep: int):
    """Fit and score every method of one replication. When it fits the
    network, whose fit is the one long enough to hide them, the lasso CV's
    paths start in forked children first (linear._LassoCv.early) and lasso
    is fit last; rows, failures and bias samples come out in cfg.methods
    order all the same, and each method draws from its own rng child, so
    the fit order changes no number."""
    seed = cfg.base_seed + rep
    rng = SeededRng(seed)
    gen = gen_experiment1 if cfg.dgp == "experiment1" else gen_experiment2
    ds, truth = gen(cfg.spec, rng.child(0))
    train, test = split_dataset(ds, cfg.test_fraction, rng.child(1))
    zbar_tr = augment_instruments(train.z, train.x)
    truth_coefs = np.concatenate([truth.alpha, truth.alpha_x])
    rows, failures, bias = {m: [] for m in cfg.methods}, {}, {}
    with _Children() as children:
        lasso_cv = None
        if {"lasso", "dpls_iv"} <= set(cfg.methods):
            lasso_cv = _LassoCv.early(zbar_tr, train.p, children)
        order = cfg.methods
        if lasso_cv is not None:
            order = [m for m in cfg.methods if m != "lasso"] + ["lasso"]
        for method in order:
            try:
                if method == "dpls_iv":
                    fit = dpls_iv_fit(train, cfg.dpls, mode=cfg.mode, censored=cfg.censored)
                else:
                    if method == "lasso" and lasso_cv is not None:
                        first = fit_lasso(zbar_tr, train.p, lasso_cv)
                    else:
                        first = fit_first_stage(
                            method, zbar_tr, train.p, cfg.dpls.first_layer_q, rng
                        )
                    fit = _outcome_stage(first, train, mode=cfg.mode, censored=cfg.censored)
                p_hat_te = fit.predict_treatment(test.z, test.x)
                y_hat_te = fit.predict_outcome(test.z, test.x)
                add = rows[method].append
                add((method, rep, "treatment_r2", r_squared(test.p, p_hat_te)))
                add((method, rep, "treatment_rmse", rmse(test.p, p_hat_te)))
                add((method, rep, "outcome_r2", r_squared(test.y, y_hat_te)))
                add((method, rep, "outcome_rmse", rmse(test.y, y_hat_te)))
                abs_bias = np.abs(fit.first_stage.coef - truth_coefs)
                add((method, rep, "coef_abs_bias_sum", float(abs_bias.sum())))
                bias[method] = np.sort(abs_bias)
            except (DataError, NumericalError) as exc:
                failures[method] = f"{type(exc).__name__}: {exc}"
    return (
        seed,
        [row for method in cfg.methods for row in rows[method]],
        [(rep, method, failures[method]) for method in cfg.methods if method in failures],
        {method: bias[method] for method in cfg.methods if method in bias},
    )


def _aggregate(rows):
    by_key = {}
    for method, _rep, metric, value in rows:
        by_key.setdefault((method, metric), []).append(value)
    out = {}
    for (method, metric), values in sorted(by_key.items()):
        arr = np.asarray(values, dtype=np.float64)
        q25, q50, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
        out[(method, metric)] = {
            "median": float(q50),
            "iqr": float(q75 - q25),
            "count": len(values),
        }
    return out


def run_benchmark(cfg: ExperimentConfig) -> MetricsReport:
    """Run all replications; aggregation is keyed by replication index, so
    the report is identical whether replications ran serially or in a pool."""
    reps, results = range(cfg.replications), None
    # fork starts every worker up front, so no more than there are tasks;
    # and one worker would run them as this process does, a fork later
    workers = min(cfg.jobs, cfg.replications)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor, process

        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_share_cpus, initargs=(workers,)
            ) as pool:
                results = list(pool.map(_run_replication, [cfg] * cfg.replications, reps))
        except process.BrokenProcessPool:
            pass  # a worker died (killed, say, for memory): run them here
    if results is None:
        results = [_run_replication(cfg, r) for r in reps]
    rows, failures, ledger = [], [], []
    pooled = {m: [] for m in cfg.methods}
    for rep, (seed, rep_rows, rep_failures, rep_bias) in zip(reps, results):
        ledger.append((rep, seed))
        rows.extend(rep_rows)
        failures.extend(rep_failures)
        for method, samples in rep_bias.items():
            pooled[method].append(samples)
    bias_samples = {
        m: np.sort(np.concatenate(chunks)) if chunks else np.empty(0)
        for m, chunks in pooled.items()
    }
    return MetricsReport(
        rows=tuple(rows),
        aggregates=_aggregate(rows),
        bias_samples=bias_samples,
        seed_ledger=tuple(ledger),
        failures=tuple(failures),
        replications=cfg.replications,
        methods=cfg.methods,
    )
