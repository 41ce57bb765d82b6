"""Replicated train/test benchmark over first-stage treatment methods.

Each replication draws a fresh dataset (seed = base_seed + replication),
splits it, fits every requested method's treatment model on the training
half, and pushes the resulting treatment predictions through the one
outcome stage (ivreg.iv_fit) so outcome numbers differ only through the
first stage, and scores each cell out of sample (r_squared, rmse). Per-cell
failures are recorded and the study continues.

A replication that fits dpls_iv and ridge or lasso forks their lambda
CVs before its first fit (linear._LambdaCv.early: ridge's five SVD folds,
then lasso's five fold paths and its full-data path), fits ridge, then
lasso, last, and puts its rows back in method order, so the CVs run
beside the network fit, the only fit long enough to hide them. On two
CPUs the lasso paths alone took a traced experiment1 replication's
fit_lasso from 30.8 to 2.0 ms and the untraced replication from 90 to 63
ms. A lasso kink that factors once left the child time to spare, and
ridge's folds joined it: together the two took the untraced study_exp1
unit_ref_mean from 2.83 to 2.18 (medians of 10 alternating 30 s pairs;
the kink with ridge's folds left here: 2.45-2.52 in 3 runs).
Without the network an early child only adds its fork and its wait:
(ols, ridge, lasso) went from 37-40 to 55-63 ms with one and (lasso,)
from 29-31 to 50-65 ms; on one CPU an early fork took all five methods
from 97-99 to 109-124 ms (medians of 20 experiment1 seeds, four runs
each, one BLAS thread, a two-CPU VM). So neither forks early.

With jobs > 1, min(jobs, replications) forked children run contiguous
ranges of replications (data._Children.parts; this process keeps none),
pickling the results into their spills, each on usable CPUs // children
(at least 1; data._share_cpus) for its early CVs and loss helper: with
all CPUs each, eight experiment1 replications at jobs = 2 took 0.61-0.64
s against 0.52-0.62 s. The scipy modules every replication needs are
imported before anything forks, so no child imports them cold. A range
whose child was refused, died, warned or raised runs here, so it
surfaces as serially; neither default design warns, but the tests'
16-row one warns in every replication, and ten took 0.63 s at jobs = 2
against 0.52 s at 1, the children's work redone here (0.99 s when each
child imported scipy itself). One worker forks nothing.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from .data import (
    SeededRng, _child_bounds, _Children, _share_cpus, augment_instruments, check_int, split_dataset
)
from .errors import DataError, DegenerateDataError, NumericalError
from .ivreg import _check_mode, dpls_iv_fit
from .ivreg import iv_fit as _outcome_stage
from .linear import _LambdaCv, fit_lasso, fit_ols, fit_ridge
from .network import DplsConfig
from .pls import AUTO_Q_CAP, fit_pls_closed_form, select_q_cv
from .synthetic import SyntheticSpec, experiment1_spec, gen_experiment1, gen_experiment2

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
    spec: SyntheticSpec = field(default_factory=experiment1_spec)
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
    network, whose fit is the one long enough to hide them, the ridge and
    lasso lambda CVs start in forked children first (linear._LambdaCv.early)
    and ridge, then lasso, are fit last; rows, failures and bias samples
    come out in cfg.methods order all the same, and each method draws from
    its own rng child, so the fit order changes no number."""
    seed = cfg.base_seed + rep
    rng = SeededRng(seed)
    gen = gen_experiment1 if cfg.dgp == "experiment1" else gen_experiment2
    ds, truth = gen(cfg.spec, rng.child(0))
    train, test = split_dataset(ds, cfg.test_fraction, rng.child(1))
    zbar_tr = augment_instruments(train.z, train.x)
    truth_coefs = np.concatenate([truth.alpha, truth.alpha_x])
    rows, failures, bias = {m: [] for m in cfg.methods}, {}, {}
    with _Children() as children:
        cv = None
        if "dpls_iv" in cfg.methods:
            cv = _LambdaCv.early(zbar_tr, train.p, cfg.methods, children)
        late = () if cv is None else cv.methods
        for method in [m for m in cfg.methods if m not in late] + list(late):
            try:
                if method == "dpls_iv":
                    fit = dpls_iv_fit(train, cfg.dpls, mode=cfg.mode, censored=cfg.censored)
                else:
                    if method in late:
                        first = (fit_ridge if method == "ridge" else fit_lasso)(zbar_tr, train.p, cv)
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
    the report is identical whether they ran here or in forked parts."""
    # Every replication needs these: imported here, before anything forks,
    # no child imports them cold and no rerun imports them again.
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    if cfg.dgp == "experiment2":
        import scipy.sparse.csgraph  # noqa: F401
    reps, results = range(cfg.replications), []
    workers = min(cfg.jobs, cfg.replications)

    def child_part(start, stop, spill):  # on this child's share of the CPUs
        _share_cpus(workers)
        pickle.dump([_run_replication(cfg, rep) for rep in range(start, stop)], spill)

    bounds = _child_bounds(cfg.replications, workers) if workers > 1 else [0, cfg.replications]
    with _Children() as children:
        for start, stop, spill in children.parts(bounds, child_part):
            results += (pickle.load(spill) if spill is not None
                        else [_run_replication(cfg, rep) for rep in range(start, stop)])
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
