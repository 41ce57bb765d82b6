"""Span tracing from outside the package: wrappers installed at call sites.

Nothing under ``src/`` knows about tracing. A traced run replaces module
globals (and one method) that the package looks up at call time with
wrappers that record spans and counts, and puts the originals back when the
unit is done. Untraced runs never call :func:`install`.

Every span is one record ``[name, start, end, parent, unit]`` kept in memory;
self times are derived from the records after the run. A span name is
``<layer>.<what>`` where the layer is a module of the package, so layer self
time is the sum of self times over names with that prefix. A call whose span
name is already open (a function calling itself through the same global) is
counted but opens no second span.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict

now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

LAYERS = ("linear", "pls", "network", "ivreg", "dataio", "cli", "synthetic", "bench")


class PatchPointMissing(RuntimeError):
    """A call site the traced run wraps no longer exists."""


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.unit = None
        self._stack: list[int] = []
        self._open: set[str] = set()

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now() if start is None else start, None, parent, self.unit])
        self._stack.append(idx)
        self._open.add(name)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        assert self._stack and self._stack[-1] == idx, "spans must close in order"
        self._stack.pop()
        span = self.spans[idx]
        span[2] = now() if end is None else end
        self._open.discard(span[0])

    def add_closed(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere, as a child of the open span."""
        self.close(self.open(name, start), end)

    def merge(self, doc: dict) -> None:
        """Adopt a child process's spans under the currently open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p, _unit in doc["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else base + p, self.unit])
        self.counts.update(doc["counts"])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------- call sites

def _csv_write_hook(tracer, args, result):
    tracer.counts["dataio.csv_write.bytes"] += os.path.getsize(args[0])


def _csv_read_hook(tracer, args, result):
    tracer.counts["dataio.csv_read.bytes"] += os.path.getsize(args[0])


def _predictive_hook(tracer, args, result):
    tracer.counts["ivreg.predictive.cells"] += int(result.size)


def _sgd_hook(tracer, args, result):
    _model, _zbar, p, params = args[:4]
    tracer.counts["network.sgd.planned_steps"] += params.epochs * math.ceil(
        len(p) / params.batch_size
    )


# (owner, attribute, span name, hook). A hook runs after the call returns.
# Sites are the globals each caller module resolves at call time, so the
# same function is wrapped once per module that calls it.
SPAN_SITES = (
    ("dpls_iv.bench", "run_benchmark", "bench.run_benchmark", None),
    ("dpls_iv.bench", "gen_experiment1", "synthetic.gen", None),
    ("dpls_iv.bench", "gen_experiment2", "synthetic.gen", None),
    ("dpls_iv.cli", "gen_experiment1", "synthetic.gen", None),
    ("dpls_iv.synthetic", "gen_experiment1", "synthetic.gen", None),
    ("dpls_iv.bench", "fit_lasso", "linear.fit_lasso", None),
    ("dpls_iv.bench", "fit_ridge", "linear.fit_ridge", None),
    ("dpls_iv.bench", "fit_ols", "linear.fit_ols", None),
    ("dpls_iv.network", "fit_ols", "linear.fit_ols", None),
    ("dpls_iv.ivreg", "fit_ols", "linear.fit_ols", None),
    ("dpls_iv.bench", "select_q_cv", "pls.select_q_cv", None),
    ("dpls_iv.network", "select_q_cv", "pls.select_q_cv", None),
    ("dpls_iv.bench", "fit_pls_closed_form", "pls.fit_pls_closed_form", None),
    ("dpls_iv.network", "fit_pls_closed_form", "pls.fit_pls_closed_form", None),
    ("dpls_iv.ivreg", "dpls_fit", "network.dpls_fit", None),
    ("dpls_iv.network", "_init_hidden", "network.init", None),
    ("dpls_iv.network", "sgd_refine", "network.sgd_refine", _sgd_hook),
    ("dpls_iv.bench", "dpls_iv_fit", "ivreg.dpls_iv_fit", None),
    ("dpls_iv.cli", "dpls_iv_fit", "ivreg.dpls_iv_fit", None),
    ("dpls_iv.ivreg", "dpls_iv_fit", "ivreg.dpls_iv_fit", None),
    ("dpls_iv.bench", "_outcome_stage", "ivreg.outcome", None),
    ("dpls_iv.ivreg", "estimate_tobit_constants", "ivreg.outcome", None),
    ("dpls_iv.ivreg", "recenter_outcome", "ivreg.outcome", None),
    ("dpls_iv.ivreg", "gmm_beta", "ivreg.outcome", None),
    ("dpls_iv.ivreg", "sandwich_variance", "ivreg.sandwich_variance", None),
    ("dpls_iv.ivreg", "corrected_covariance", "ivreg.corrected_covariance", None),
    ("dpls_iv.cli", "sample_posterior", "ivreg.sample_posterior", None),
    ("dpls_iv.ivreg.PosteriorDraws", "predictive", "ivreg.predictive", _predictive_hook),
    ("dpls_iv.dataio", "csv_write", "dataio.csv_write", _csv_write_hook),
    ("dpls_iv.dataio", "csv_read", "dataio.csv_read", _csv_read_hook),
    ("dpls_iv.dataio", "write_predictions_csv", "dataio.write_predictions_csv", None),
    ("dpls_iv.dataio", "write_fit", "dataio.fit_record", None),
    ("dpls_iv.dataio", "read_fit", "dataio.fit_record", None),
    ("dpls_iv.dataio", "_read_json", "dataio.fit_record", None),
)

# Hot inner calls get a counter only: a span per call would cost more than
# the call itself.
COUNT_SITES = (
    ("dpls_iv.linear", "soft_threshold", "linear.soft_threshold.calls"),
    ("dpls_iv.network", "network_loss_and_grads", "network.sgd.steps"),
)


def _resolve(owner_path: str):
    parts = owner_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                raise PatchPointMissing(f"{owner_path} does not exist")
            obj = getattr(obj, attr)
        return obj
    raise PatchPointMissing(f"{owner_path} does not exist")


def _original(owner, owner_path: str, attr: str):
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(value):
        raise PatchPointMissing(f"{owner_path}.{attr} is not a callable call site")
    return value


def _span_wrapper(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name + ".calls"] += 1
        if name in tracer._open:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def check_sites() -> None:
    """Raise PatchPointMissing unless every wrapped call site exists.

    Checking all sites before patching any leaves nothing half-installed.
    """
    for owner_path, attr, *_ in SPAN_SITES + COUNT_SITES:
        _original(_resolve(owner_path), owner_path, attr)


def install(tracer: Tracer) -> list:
    """Wrap every call site; returns the patches for :func:`uninstall`."""
    check_sites()
    patches = []
    for owner_path, attr, name, hook in SPAN_SITES:
        owner = _resolve(owner_path)
        fn = _original(owner, owner_path, attr)
        patches.append((owner, attr, fn))
        setattr(owner, attr, _span_wrapper(tracer, name, fn, hook))
    for owner_path, attr, name in COUNT_SITES:
        owner = _resolve(owner_path)
        fn = _original(owner, owner_path, attr)
        patches.append((owner, attr, fn))
        setattr(owner, attr, _count_wrapper(tracer, name, fn))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, fn in reversed(patches):
        setattr(owner, attr, fn)


# ------------------------------------------------------------------ analysis

def unit_summary(spans: list[list], unit) -> dict:
    """Per-name total duration, span count and self time, per-layer self
    time, and the unattributed time (self time of the unit's root span)."""
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == unit]
    child_time: dict[int, float] = defaultdict(float)
    for _i, (_name, start, end, parent, _u) in mine:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    n_spans: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    layer: dict[str, float] = {name: 0.0 for name in LAYERS}
    unattributed = 0.0
    for i, (name, start, end, _parent, _u) in mine:
        own = (end - start) - child_time[i]
        total[name] += end - start
        n_spans[name] += 1
        self_s[name] += own
        head = name.split(".", 1)[0]
        if head in layer:
            layer[head] += own
        else:
            unattributed += own
    return {"total": dict(total), "spans": n_spans, "self": dict(self_s), "layer": layer,
            "unattributed": unattributed}
