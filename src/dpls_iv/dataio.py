"""CSV, config, fit-record and report serialization for the command-line tools.

All numeric text is written with Python's shortest round-trip float repr,
so write-then-read reproduces arrays bit for bit. Errors carry 1-based
line numbers because the files are meant to be hand-editable.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .bench import MetricsReport
from .data import Dataset
from .errors import DataError
from .ivreg import (
    ControlFunctionFit,
    DplsIvFit,
    TobitConstants,
    TobitGmmFit,
)
from .linear import LinearFit
from .network import ActivationKind, DplsModel
from .pls import PlsFit
from .synthetic import SyntheticTruth

__all__ = [
    "csv_read",
    "csv_write",
    "parse_config_text",
    "read_config",
    "render_config",
    "write_config",
    "truth_to_dict",
    "truth_from_dict",
    "write_truth",
    "read_truth",
    "model_to_dict",
    "model_from_dict",
    "fit_to_dict",
    "fit_from_dict",
    "write_fit",
    "read_fit",
    "write_predictions_csv",
    "write_metrics_csv",
    "write_bias_cdf_csv",
    "render_summary",
    "write_summary",
]

_TRUTH_FORMAT = "dpls-iv-truth"
_TRUTH_VERSION = 1
_FIT_FORMAT = "dpls-iv-fit"
# 2: one record for every method, first stage tagged by method name
_FIT_VERSION = 2


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------- dataset CSV


def csv_write(path, ds: Dataset) -> None:
    """Write a dataset as CSV with role-prefixed headers y, p, z_*, x_*."""
    m, k = ds.z.shape[1], ds.x.shape[1]
    header = ["y", "p"]
    header += [f"z_{j + 1}" for j in range(m)]
    header += [f"x_{j + 1}" for j in range(k)]
    lines = [",".join(header)]
    for i in range(len(ds.y)):
        cells = [_fmt(ds.y[i]), _fmt(ds.p[i])]
        cells += [_fmt(v) for v in ds.z[i]]
        cells += [_fmt(v) for v in ds.x[i]]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _role_columns(header: list[str]):
    """Map header names to (role, order) slots; reject unknown or duplicate."""
    seen = set()
    roles = []
    for name in header:
        if name in seen:
            raise DataError(f"line 1: duplicate column '{name}'")
        seen.add(name)
        if name in ("y", "p"):
            roles.append((name, 0))
            continue
        for prefix in ("z_", "x_"):
            if name.startswith(prefix):
                suffix = name[len(prefix):]
                if not suffix.isdigit() or int(suffix) < 1:
                    raise DataError(
                        f"line 1: column '{name}' needs a positive integer suffix"
                    )
                roles.append((prefix[0], int(suffix)))
                break
        else:
            raise DataError(
                f"line 1: unrecognized column '{name}' (expected y, p, z_*, x_*)"
            )
    for required in ("y", "p"):
        if required not in seen:
            raise DataError(f"line 1: missing required column '{required}'")
    return roles


def _read_text(path) -> str:
    """Contents of an input file; an unreadable file is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None


def csv_read(path) -> Dataset:
    """Read a role-prefixed CSV back into a Dataset.

    Cells must parse as finite decimal reals; the offending 1-based line
    and column name are reported otherwise.
    """
    rows = [line for line in _read_text(path).splitlines() if line.strip() != ""]
    if not rows:
        raise DataError("line 1: empty file, header row required")
    header = [cell.strip() for cell in rows[0].split(",")]
    roles = _role_columns(header)
    z_orders = sorted(order for role, order in roles if role == "z")
    x_orders = sorted(order for role, order in roles if role == "x")
    for name, orders in (("z", z_orders), ("x", x_orders)):
        if orders and orders != list(range(1, len(orders) + 1)):
            raise DataError(
                f"line 1: {name}_* suffixes must cover 1..{len(orders)}"
            )
    n = len(rows) - 1
    y = np.empty(n)
    p = np.empty(n)
    z = np.empty((n, len(z_orders)))
    x = np.empty((n, len(x_orders)))
    for i, line in enumerate(rows[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(
                f"line {i + 2}: expected {len(header)} cells, found {len(cells)}"
            )
        for cell, (role, order), name in zip(cells, roles, header):
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                raise DataError(
                    f"line {i + 2}, column {name}: non-numeric cell '{text}'"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"line {i + 2}, column {name}: non-finite value '{text}'"
                )
            if role == "y":
                y[i] = value
            elif role == "p":
                p[i] = value
            elif role == "z":
                z[i, order - 1] = value
            else:
                x[i, order - 1] = value
    return Dataset(y=y, p=p, z=z, x=x)


# -------------------------------------------------------------- config files


def parse_config_text(text: str) -> dict[str, str]:
    """Parse a flat dotted-key config: 'section.key = value' lines.

    Blank lines and '#' comments are skipped; duplicates are rejected with
    the offending line number. Values stay strings; typing is the caller's.
    """
    out: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped == "" or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"line {i}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "" or not all(c.isalnum() or c in "._" for c in key):
            raise DataError(f"line {i}: bad key '{key}'")
        if key in out:
            raise DataError(f"line {i}: duplicate key '{key}'")
        out[key] = value
    return out


def read_config(path) -> dict[str, str]:
    return parse_config_text(_read_text(path))


def render_config(mapping: dict) -> str:
    lines = [f"{key} = {mapping[key]}" for key in sorted(mapping)]
    return "\n".join(lines) + "\n"


def write_config(path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_config(mapping))


# ------------------------------------------------------------- truth sidecar


def _vec(a) -> list:
    return [float(v) for v in np.asarray(a).ravel()]


def truth_to_dict(truth: SyntheticTruth) -> dict:
    doc = {
        "format": _TRUTH_FORMAT,
        "version": _TRUTH_VERSION,
        "alpha": _vec(truth.alpha),
        "gamma": _vec(truth.gamma),
        "alpha_x": _vec(truth.alpha_x),
        "beta": float(truth.beta),
        "beta_x": _vec(truth.beta_x),
        "w": _vec(truth.w),
        "xi": _vec(truth.xi),
        "eps": _vec(truth.eps),
        "treat_index": _vec(truth.treat_index),
        "out_index": _vec(truth.out_index),
        "cov_repair": float(truth.cov_repair),
    }
    return doc


def truth_from_dict(doc: dict) -> SyntheticTruth:
    if doc.get("format") != _TRUTH_FORMAT:
        raise DataError(f"not a truth record: format={doc.get('format')!r}")
    if doc.get("version") != _TRUTH_VERSION:
        raise DataError(f"unsupported truth version {doc.get('version')!r}")
    arr = lambda key: np.asarray(doc[key], dtype=np.float64)
    return SyntheticTruth(
        alpha=arr("alpha"),
        gamma=arr("gamma"),
        alpha_x=arr("alpha_x"),
        beta=float(doc["beta"]),
        beta_x=arr("beta_x"),
        w=arr("w"),
        xi=arr("xi"),
        eps=arr("eps"),
        treat_index=arr("treat_index"),
        out_index=arr("out_index"),
        sigma_z=np.zeros((0, 0)),
        cov_repair=float(doc["cov_repair"]),
    )


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path) -> dict:
    return json.loads(_read_text(path))


def write_truth(path, truth: SyntheticTruth) -> None:
    """Truth sidecar; sigma_z and the graph are derivable from the config."""
    _write_json(path, truth_to_dict(truth))


def read_truth(path) -> SyntheticTruth:
    return truth_from_dict(_read_json(path))


# ----------------------------------------------------------------- fit bundle


def _pls_to_dict(fl: PlsFit) -> dict:
    return {
        "method": fl.method,
        "q": int(fl.q),
        "coef": fl.coef.tolist(),
        "weights": fl.weights.tolist(),
        "y_loadings": fl.y_loadings.tolist(),
        "means": fl.means.tolist(),
        "p_mean": float(fl.p_mean),
    }


def _pls_from_dict(fl: dict) -> PlsFit:
    return PlsFit(
        coef=np.asarray(fl["coef"], dtype=np.float64),
        q=int(fl["q"]),
        y_loadings=np.asarray(fl["y_loadings"], dtype=np.float64),
        weights=np.asarray(fl["weights"], dtype=np.float64),
        means=np.asarray(fl["means"], dtype=np.float64),
        p_mean=float(fl["p_mean"]),
        method=str(fl["method"]),
    )


def model_to_dict(model: DplsModel) -> dict:
    """Network weights, activation, and SGD history as plain JSON values."""
    return {
        "activation": {"tag": model.activation.tag, "slope": model.activation.slope},
        "first_layer": _pls_to_dict(model.first_layer),
        "hidden": [
            {"w": w.tolist(), "b": b.tolist()} for w, b in model.hidden
        ],
        "history": list(model.history),
        "best_epoch": model.best_epoch,
    }


def model_from_dict(doc: dict) -> DplsModel:
    act = ActivationKind(doc["activation"]["tag"], float(doc["activation"]["slope"]))
    hidden = tuple(
        (np.asarray(h["w"], dtype=np.float64), np.asarray(h["b"], dtype=np.float64))
        for h in doc["hidden"]
    )
    return DplsModel(
        first_layer=_pls_from_dict(doc["first_layer"]),
        hidden=hidden,
        activation=act,
        history=tuple(float(v) for v in doc["history"]),
        best_epoch=doc["best_epoch"],
    )


def _first_stage_to_dict(first) -> dict:
    """First stage tagged with the method name that fit it."""
    if isinstance(first, DplsModel):
        return {"method": "dpls_iv", "network": model_to_dict(first)}
    if isinstance(first, PlsFit):
        return {"method": "pls", "pls": _pls_to_dict(first)}
    return {
        "method": first.method,
        "coef": _vec(first.coef),
        "intercept": float(first.intercept),
        "lam": float(first.lam),
    }


def _first_stage_from_dict(doc: dict):
    method = doc.get("method")
    if method == "dpls_iv":
        return model_from_dict(doc["network"])
    if method == "pls":
        return _pls_from_dict(doc["pls"])
    if method in ("ols", "ridge", "lasso"):
        return LinearFit(
            coef=np.asarray(doc["coef"], dtype=np.float64),
            intercept=float(doc["intercept"]),
            method=method,
            lam=float(doc["lam"]),
        )
    raise DataError(f"unknown first-stage method {method!r}")


def fit_to_dict(fit: DplsIvFit, n_train: int) -> dict:
    """Self-contained fit record: first stage plus outcome coefficients.

    Training-data-sized arrays (designs, residuals) are not kept; the
    record supports prediction and posterior sampling, not refitting.
    """
    doc = {
        "format": _FIT_FORMAT,
        "version": _FIT_VERSION,
        "mode": fit.mode,
        "censored": fit.censored,
        "n_train": int(n_train),
        "constants": asdict(fit.constants),
        "first_stage": _first_stage_to_dict(fit.first_stage),
    }
    if fit.gmm is not None:
        doc["gmm"] = {
            "beta": _vec(fit.gmm.beta),
            "sigma_star_matrix": [_vec(row) for row in fit.gmm.sigma_star_matrix],
            "corrected_matrix": [_vec(row) for row in fit.gmm.corrected_matrix],
        }
    if fit.cf is not None:
        doc["cf"] = {
            "beta": float(fit.cf.beta),
            "beta_eta": float(fit.cf.beta_eta),
            "beta_x": _vec(fit.cf.beta_x),
        }
    return doc


def fit_from_dict(doc: dict) -> tuple[DplsIvFit, int]:
    if doc.get("format") != _FIT_FORMAT:
        raise DataError(f"not a fit record: format={doc.get('format')!r}")
    if doc.get("version") != _FIT_VERSION:
        raise DataError(f"unsupported fit version {doc.get('version')!r}")
    constants = TobitConstants(**{k: float(v) for k, v in doc["constants"].items()})
    gmm = cf = None
    if "gmm" in doc:
        g = doc["gmm"]
        beta = np.asarray(g["beta"], dtype=np.float64)
        dim = len(beta)
        mat = lambda key: np.asarray(g[key], dtype=np.float64).reshape(dim, dim)
        gmm = TobitGmmFit(
            beta=beta,
            constants=constants,
            design=np.zeros((0, dim)),
            residuals=np.zeros(0),
            sigma_star_matrix=mat("sigma_star_matrix"),
            corrected_matrix=mat("corrected_matrix"),
        )
    if "cf" in doc:
        f = doc["cf"]
        cf = ControlFunctionFit(
            beta=float(f["beta"]),
            beta_eta=float(f["beta_eta"]),
            beta_x=np.asarray(f["beta_x"], dtype=np.float64),
        )
    fit = DplsIvFit(
        mode=doc["mode"],
        censored=bool(doc["censored"]),
        first_stage=_first_stage_from_dict(doc["first_stage"]),
        constants=constants,
        gmm=gmm,
        cf=cf,
    )
    return fit, int(doc["n_train"])


def write_fit(path, fit: DplsIvFit, n_train: int) -> None:
    _write_json(path, fit_to_dict(fit, n_train))


def read_fit(path) -> tuple[DplsIvFit, int]:
    """Load a fit record; a file that is not one is a data error."""
    try:
        return fit_from_dict(_read_json(path))
    except DataError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(
            f"{path} is not a valid fit record ({type(exc).__name__}: {exc})"
        ) from None


# -------------------------------------------------------------- report files


def write_predictions_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Aligned prediction columns, one row per observation."""
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=np.float64) for name in names]
    n = len(arrays[0]) if arrays else 0
    for name, arr in zip(names, arrays):
        if len(arr) != n:
            raise DataError(f"column {name} has {len(arr)} rows, expected {n}")
    lines = [",".join(["row"] + names)]
    for i in range(n):
        lines.append(",".join([str(i + 1)] + [_fmt(a[i]) for a in arrays]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_csv(path, report: MetricsReport) -> None:
    """Fixed column order: method, replication, metric, value."""
    lines = ["method,replication,metric,value"]
    for method, rep, metric, value in report.rows:
        lines.append(f"{method},{rep},{metric},{_fmt(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bias_cdf_csv(path, report: MetricsReport) -> None:
    """Plot-ready empirical CDF curves: one x,y column pair per method."""
    methods = [m for m in report.methods if m in report.bias_samples]
    curves = {}
    for method in methods:
        xs = np.asarray(report.bias_samples[method], dtype=np.float64)
        ys = (
            np.arange(1, len(xs) + 1) / len(xs)
            if len(xs)
            else np.zeros(0)
        )
        curves[method] = (xs, ys)
    depth = max((len(x) for x, _ in curves.values()), default=0)
    header = []
    for method in methods:
        header += [f"{method}_x", f"{method}_y"]
    lines = [",".join(header)]
    for i in range(depth):
        cells = []
        for method in methods:
            xs, ys = curves[method]
            if i < len(xs):
                cells += [_fmt(xs[i]), _fmt(ys[i])]
            else:
                cells += ["", ""]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def render_summary(report: MetricsReport, title: str) -> str:
    """Human-readable digest: medians with IQRs, failures, seed ledger."""
    metrics = sorted({metric for _, _, metric, _ in report.rows})
    lines = [title, "=" * len(title), ""]
    lines.append(f"replications: {report.replications}")
    lines.append(f"methods: {', '.join(report.methods)}")
    lines.append("")
    for metric in metrics:
        lines.append(f"{metric} (median [IQR])")
        for method in report.methods:
            agg = report.aggregates.get((method, metric))
            if agg is None or agg["count"] == 0:
                lines.append(f"  {method:10s} no successful replications")
            else:
                lines.append(
                    f"  {method:10s} {agg['median']:.6g} [{agg['iqr']:.6g}]"
                    f" over {agg['count']}"
                )
        lines.append("")
    n_cells = report.replications * len(report.methods)
    lines.append(
        f"failures: {len(report.failures)} of {n_cells} method-replication cells"
    )
    for rep, method, msg in report.failures:
        lines.append(f"  replication {rep}, {method}: {msg}")
    lines.append("")
    lines.append("seeds (replication: seed)")
    for rep, seed in report.seed_ledger:
        lines.append(f"  {rep}: {seed}")
    return "\n".join(lines) + "\n"


def write_summary(path, report: MetricsReport, title: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_summary(report, title))
