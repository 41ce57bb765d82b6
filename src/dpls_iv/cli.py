"""Command-line surface: simulate, fit, benchmark, predict.

Every run resolves a flat dotted-key config (file values overridden by
flags, flags overridden by nothing) and echoes the resolved config into
the output directory, so any emitted number is recomputable from that
echo alone. Exit codes: 0 success, 1 usage error, 2 data error (bad input
or unwritable output), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import dataio
from .bench import KNOWN_METHODS, ExperimentConfig, fit_first_stage, run_benchmark
from .data import SeededRng, augment_instruments
from .errors import DataError, NumericalError
from .ivreg import MODES, dpls_iv_fit, iv_fit, sample_posterior
from .network import DplsConfig, SgdParams
from .synthetic import experiment1_spec, experiment2_spec, gen_experiment1, gen_experiment2

__all__ = ["main"]

# The spec.<field> keys but cov_param, in parse order; all integers but sigma_eps.
_SPEC_FIELDS = (
    "n", "m", "m_redundant", "k", "k_null", "sigma_eps", "coef_seed", "edges_per_node",
)
_SPEC = experiment1_spec()
_DPLS = DplsConfig()
_STUDY = ExperimentConfig()

_SPEC_DEFAULTS = {
    "dgp": "experiment1",
    **{f"spec.{name}": str(getattr(_SPEC, name)) for name in _SPEC_FIELDS},
    "spec.cov_param": "auto",
}

_DPLS_DEFAULTS = {
    "dpls.widths": ",".join(map(str, _DPLS.layer_widths)),
    "dpls.q": str(_DPLS.first_layer_q),
    "dpls.epochs": str(_DPLS.sgd.epochs),
    "dpls.learning_rate": str(_DPLS.sgd.learning_rate),
    "dpls.batch_size": str(_DPLS.sgd.batch_size),
}

_DEFAULTS = {
    "simulate": {**_SPEC_DEFAULTS, "seed": "0"},
    "fit": {
        "data": "",
        "method": "dpls_iv",
        "mode": "rescale_gmm",
        "censored": "true",
        **_DPLS_DEFAULTS,
        "seed": "0",
    },
    "benchmark": {
        **_SPEC_DEFAULTS,
        **_DPLS_DEFAULTS,
        "methods": ",".join(KNOWN_METHODS),
        "mode": _STUDY.mode,
        "censored": str(_STUDY.censored).lower(),
        "replications": str(_STUDY.replications),
        "test_fraction": str(_STUDY.test_fraction),
        "jobs": str(_STUDY.jobs),
        "seed": "0",
    },
    "predict": {
        "fit": "",
        "data": "",
        "draws": "0",
        "level": "0.95",
        "seed": "0",
    },
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the documented code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="dpls-iv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "generate a synthetic dataset plus its truth sidecar"),
        ("fit", "fit one method on one dataset; emit fit record and predictions"),
        ("benchmark", "replicated train/test study over methods"),
        ("predict", "load a fit record, emit predictions for a dataset"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="dotted-key config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=".", help="output directory")
        if name in ("fit", "benchmark"):
            p.add_argument("--method", choices=KNOWN_METHODS, default=None,
                           help="restrict the study to a single method"
                           if name == "benchmark" else None)
            p.add_argument("--mode", choices=MODES, default=None)
        if name == "benchmark":
            p.add_argument("--replications", type=int, default=None)
            p.add_argument("--jobs", type=int, default=None, help="replications run in forked"
                           " children; a range that warns reruns serially, maybe slower than 1")
        if name == "predict":
            p.add_argument("--draws", type=int, default=None,
                           help="coefficient draws for the y_lo/y_hi columns, "
                           "quantiles of the latent index [p_hat, x] @ beta")
    return parser


def _resolve_config(command: str, args) -> dict[str, str]:
    resolved = dict(_DEFAULTS[command])
    if args.config is not None:
        loaded = dataio.read_config(args.config)
        unknown = sorted(set(loaded) - set(resolved))
        if unknown:
            raise DataError(f"unknown config keys: {', '.join(unknown)}")
        resolved.update(loaded)
    # each flag's dest is the config key it overrides
    for key, value in vars(args).items():
        if value is not None and key in resolved:
            resolved[key] = str(value)
    if getattr(args, "method", None) is not None and "methods" in resolved:
        resolved["methods"] = str(args.method)
    return resolved


def _as_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise DataError(f"config key {key} must be an integer, got {cfg[key]!r}")


def _as_float(cfg, key) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise DataError(f"config key {key} must be a real, got {cfg[key]!r}")


def _as_bool(cfg, key) -> bool:
    value = cfg[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise DataError(f"config key {key} must be true or false, got {cfg[key]!r}")


def _spec_from_config(cfg):
    dgp = cfg["dgp"]
    if dgp not in ("experiment1", "experiment2"):
        raise DataError(f"dgp must be experiment1 or experiment2, got {dgp!r}")
    build = experiment1_spec if dgp == "experiment1" else experiment2_spec
    overrides = {
        name: (_as_float if name == "sigma_eps" else _as_int)(cfg, f"spec.{name}")
        for name in _SPEC_FIELDS
    }
    if cfg["spec.cov_param"] != "auto":
        overrides["cov_param"] = _as_float(cfg, "spec.cov_param")
    return dgp, build(**overrides)


def _dpls_from_config(cfg, seed: int) -> DplsConfig:
    text = cfg["dpls.widths"]
    try:
        widths = tuple(int(w) for w in text.split(",") if w.strip() != "")
    except ValueError:
        raise DataError(f"config key dpls.widths must be integers, got {text!r}")
    q = cfg["dpls.q"]
    if q != "auto":
        q = _as_int(cfg, "dpls.q")
    return DplsConfig(
        layer_widths=widths,
        first_layer_q=q,
        sgd=SgdParams(
            learning_rate=_as_float(cfg, "dpls.learning_rate"),
            batch_size=_as_int(cfg, "dpls.batch_size"),
            epochs=_as_int(cfg, "dpls.epochs"),
            seed=seed,
        ),
    )


@contextlib.contextmanager
def _outputs(out_dir: str, cfg: dict):
    """Make out_dir, run the block's writes, echo cfg; an OSError is a data error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        yield
        dataio.write_config(os.path.join(out_dir, "config.txt"), cfg)
    except OSError as exc:
        path = out_dir if exc.filename is None else exc.filename
        raise DataError(f"cannot write {path}: {dataio._os_reason(exc)}") from None


def _predictions(fit, ds) -> dict:
    """The p_hat and y_hat columns of a fit on ds, as fit and predict write them."""
    return {
        "p_hat": fit.predict_treatment(ds.z, ds.x),
        "y_hat": fit.predict_outcome(ds.z, ds.x, p=ds.p),
    }


def _cmd_simulate(args) -> int:
    cfg = _resolve_config("simulate", args)
    dgp, spec = _spec_from_config(cfg)
    seed = _as_int(cfg, "seed")
    gen = gen_experiment1 if dgp == "experiment1" else gen_experiment2
    ds, truth = gen(spec, SeededRng(seed).child(0))
    with _outputs(args.out_dir, cfg):
        dataio.csv_write(os.path.join(args.out_dir, "data.csv"), ds)
        dataio.write_truth(os.path.join(args.out_dir, "truth.json"), truth)
    print(f"simulate: wrote {len(ds.y)} rows to {args.out_dir}/data.csv")
    return 0


def _cmd_fit(args) -> int:
    cfg = _resolve_config("fit", args)
    if cfg["data"] == "":
        raise _UsageError("fit requires a data path (config key 'data')")
    seed = _as_int(cfg, "seed")
    method = cfg["method"]
    if method not in KNOWN_METHODS:
        raise DataError(f"unknown method {method!r}")
    mode = cfg["mode"]
    censored = _as_bool(cfg, "censored")
    dpls = _dpls_from_config(cfg, seed)
    ds = dataio.csv_read(cfg["data"])
    if method == "dpls_iv":
        fit = dpls_iv_fit(ds, dpls, mode=mode, censored=censored)
    else:
        zbar = augment_instruments(ds.z, ds.x)
        first = fit_first_stage(method, zbar, ds.p, dpls.first_layer_q)
        fit = iv_fit(first, ds, mode=mode, censored=censored)
    with _outputs(args.out_dir, cfg):
        dataio.write_fit(os.path.join(args.out_dir, "fit.json"), fit)
        dataio.write_predictions_csv(
            os.path.join(args.out_dir, "predictions.csv"), _predictions(fit, ds)
        )
    print(f"fit: method={method} policy_effect={fit.policy_effect!r}")
    return 0


def _cmd_benchmark(args) -> int:
    cfg = _resolve_config("benchmark", args)
    dgp, spec = _spec_from_config(cfg)
    seed = _as_int(cfg, "seed")
    methods = tuple(m.strip() for m in cfg["methods"].split(",") if m.strip())
    exp_cfg = ExperimentConfig(
        dgp=dgp,
        spec=spec,
        methods=methods,
        dpls=_dpls_from_config(cfg, seed),
        mode=cfg["mode"],
        censored=_as_bool(cfg, "censored"),
        test_fraction=_as_float(cfg, "test_fraction"),
        replications=_as_int(cfg, "replications"),
        base_seed=seed,
        jobs=_as_int(cfg, "jobs"),
    )
    report = run_benchmark(exp_cfg)
    with _outputs(args.out_dir, cfg):
        dataio.write_metrics_csv(os.path.join(args.out_dir, "metrics.csv"), report)
        dataio.write_bias_cdf_csv(os.path.join(args.out_dir, "bias_cdf.csv"), report)
        dataio.write_summary(
            os.path.join(args.out_dir, "summary.txt"),
            report,
            f"{dgp} benchmark, {exp_cfg.replications} replications",
        )
    n_cells = exp_cfg.replications * len(methods)
    print(
        f"benchmark: {n_cells - len(report.failures)} of {n_cells} cells "
        f"succeeded; reports in {args.out_dir}"
    )
    if len(report.failures) == n_cells:
        raise NumericalError("every method failed in every replication")
    return 0


def _cmd_predict(args) -> int:
    cfg = _resolve_config("predict", args)
    if cfg["fit"] == "":
        raise _UsageError("predict requires a fit path (config key 'fit')")
    if cfg["data"] == "":
        raise _UsageError("predict requires a data path (config key 'data')")
    draws = _as_int(cfg, "draws")
    if draws < 0:
        raise DataError(f"draws must be non-negative, got {draws}")
    level = _as_float(cfg, "level")
    if not (0.0 < level < 1.0):
        raise DataError(f"level must lie in (0, 1), got {level}")
    seed = _as_int(cfg, "seed")
    fit = dataio.read_fit(cfg["fit"])
    ds = dataio.csv_read(cfg["data"])
    columns = _predictions(fit, ds)
    if draws > 0:
        if fit.gmm is None:
            raise DataError("posterior intervals need a fit with a gmm stage")
        post = sample_posterior(fit.gmm, fit.n_train, draws, SeededRng(seed))
        columns[f"y_lo_{level!r}"], columns[f"y_hi_{level!r}"] = post.band(
            np.column_stack([columns["p_hat"], ds.x]), level
        )
    with _outputs(args.out_dir, cfg):
        dataio.write_predictions_csv(os.path.join(args.out_dir, "predictions.csv"), columns)
    print(f"predict: wrote {len(ds.y)} rows to {args.out_dir}/predictions.csv")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "benchmark": _cmd_benchmark,
    "predict": _cmd_predict,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"data error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
