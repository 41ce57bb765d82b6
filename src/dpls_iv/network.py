"""Deep PLS treatment network: frozen PLS first layer, ReLU layers after.

The first layer maps the augmented instruments to q closed-form PLS score
features and is never touched by SGD; consistency of the instrument
directions rests on the PLS estimator alone. Hidden layers (widths from
config) and a width-1 output layer are initialized by per-layer least
squares on the previous layer's activated features, then refined jointly by
mini-batch SGD on squared loss (with epochs = 0, the initialization stays).
ReLU is the only activation. With q = "auto", q is chosen by
pls.select_q_cv's fixed 5-fold CV (data.CV_FOLDS) over q <= pls.AUTO_Q_CAP.

SGD works on one flat parameter vector theta, of which every trainable
(weight, bias) is a view, and a flat gradient vector with the same layout: a
step is one network_loss_and_grads call that writes the gradient and one
theta -= lr * grad. Each epoch stages its shuffled rows once, with
ndarray.take into buffers allocated once per fit, and the list of its
batches, each a pair of contiguous slices of those buffers and the _LossWork
for that many rows, is built once per fit too. _forward is the one layer
loop behind layer initialization, predict, the training loss and the
gradients, over (weight, bias, out, floor) tuples. It writes each activation
over its pre-activation, and the backward pass reads the activation mask off
the activation, which is positive exactly where the pre-activation is.

A step works on 32 x 30 arrays, so numpy's per-call overhead, not
arithmetic, sets its cost, and a step calls numpy's C routines directly. Its
products are ndarray.dot: np.dot's routine without np.dot's
__array_function__ dispatch, and cheaper per call than np.matmul, to the
same bits. The ReLU and the mask are each one ufunc call, made in place with
out= as a keyword (numpy 2.4 deprecates a third positional argument to
np.maximum). A _LossWork binds every operand of a step once per fit, as
per-layer tuples (weights and their transposes, bias, activation, zero
floor, mask and gradient buffers, gradient views into grad), so a step walks
them and rebuilds no view, list or slice; the masks are float64, computed
for all layers in one call against the bound zeros. A step's ReLU takes the
larger of each activation and the zeros bound with it (numpy's two-array
loop; predict and the initialization pass the scalar 0.0), the width-1
output layer's bias is bound as a 0-d view, which numpy adds as a scalar
rather than by a broadcast, and the two scalars, 2 / rows and the learning
rate, are bound as 0-d float64 arrays: each costs less per call than the
other form and gives the same bits. A step takes no batch loss: sgd_refine
does not read it, so its bound calls get None for it. Each operand keeps its
layout, because a product's bits can depend on it, and the bias is added
after each product, never folded into it, which would change the summation
order.

Each epoch's full-data loss (_train_loss) is taken at a copy of theta at
the epoch's end. When the process may use two CPUs (data._usable_cpus: a
benchmark part child counts only its share) and the loss has at least
_LOSS_HELPER_CELLS cells, a forked helper (_LossHelper, one per
sgd_refine call) computes it while this process runs the next epoch's
steps; a thread would hold the interpreter lock. It runs under data._raising
and sends raw float64 cells (data._send_cells), as the early lambda CVs do.
The loss is then taken with the bits, warnings and errors that computing it
here would give.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import (
    SeededRng, _Children, _check_width, _raised_errstate, _receive_cells, _send_cells,
    _usable_cpus, check_design, check_int,
)
from .errors import DataError, NumericalError
from .linear import fit_ols
from .pls import AUTO_Q_CAP, PlsFit, fit_pls_closed_form, select_q_cv

__all__ = [
    "SgdParams",
    "DplsConfig",
    "DplsModel",
    "dpls_fit",
    "sgd_refine",
    "network_loss_and_grads",
]


# Least cells of the full-data loss (rows times trainable units, 31 per row
# at the default width) from which sgd_refine computes each epoch's loss in
# a forked helper. With one BLAS thread and 100 epochs at width 30, the
# helper was faster in 11 of 20 interleaved fits at 2,000 rows, 16 at 3,000
# and 17 to 20 from 4,000; in a process holding 100 MB more, the fork, kill
# and reaping cost 4 ms, and 20 epochs at 4,300 rows still came out ahead
# in 17 of 20 (72.7 -> 67.4 ms).
_LOSS_HELPER_CELLS = 2**17


@dataclass(frozen=True)
class SgdParams:
    """Minibatch SGD settings, stored as a float and plain ints."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise DataError(f"learning_rate must be a real number, got {rate!r}")
        if not (0.0 <= rate < np.inf):
            raise DataError(f"learning_rate must be finite and non-negative, got {rate}")
        object.__setattr__(self, "learning_rate", float(rate))
        for name in ("batch_size", "epochs", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.batch_size < 1 or self.epochs < 0:
            raise DataError("batch_size must be >= 1 and epochs >= 0")


@dataclass(frozen=True)
class DplsConfig:
    """Architecture and training knobs for the treatment network.

    layer_widths names the hidden widths, at least one; a width-1 output
    layer is always appended after the last hidden layer. A ReLU follows
    every trainable layer, the output layer included.
    """

    layer_widths: tuple[int, ...] = (30,)
    first_layer_q: int | str = "auto"
    sgd: SgdParams = field(default_factory=SgdParams)

    def __post_init__(self):
        widths = tuple(
            check_int(f"layer_widths[{i}]", w) for i, w in enumerate(self.layer_widths)
        )
        if not widths or any(w < 1 for w in widths):
            raise DataError("layer_widths needs at least one layer, all widths positive")
        object.__setattr__(self, "layer_widths", widths)
        if self.first_layer_q != "auto":
            q = check_int("first_layer_q", self.first_layer_q)
            if q < 1:
                raise DataError("first_layer_q must be >= 1 or 'auto'")
            object.__setattr__(self, "first_layer_q", q)


def _forward(layers, h):
    """The (n, 1) network output on the n rows of PLS features h.

    layers holds one (weight, bias, out, floor) tuple per trainable layer.
    Each pre-activation is computed into out (a fresh array when out is
    None), which then holds the layer's activation: the ReLU, in place,
    against floor (0.0, or the zeros bound with out).
    """
    for w, b, out, floor in layers:
        h = h.dot(w, out=out)
        h += b
        np.maximum(h, floor, out=h)
    return h


def _pls_features(first: PlsFit, zbar):
    """The q PLS score features of zbar: the frozen first layer's output."""
    return (zbar - first.means) @ first.weights


def _check_chain(hidden, inputs: int) -> None:
    """A DataError unless the (weight, bias) layers of hidden, at least one,
    chain from `inputs` values to one."""
    if not hidden:
        raise DataError("a network needs at least one trainable layer")
    for i, (w, b) in enumerate(hidden):
        if i == 0 and w.ndim == 2 and w.shape[0] != inputs:
            raise DataError(f"features have {inputs} columns, the first layer takes {w.shape[0]}")
        if (w.ndim != 2 or w.shape[0] != inputs or np.shape(b) != (w.shape[1],)
                or (i == len(hidden) - 1 and w.shape[1] != 1)):
            raise DataError(
                f"layer {i} has weight shape {w.shape} and bias shape {np.shape(b)}: "
                f"it must map the {inputs} values below it to k values with a "
                f"length-k bias, and the last layer to one"
            )
        inputs = w.shape[1]


@dataclass(frozen=True)
class DplsModel:
    """Fitted network; immutable. Centering lives in first_layer. Built only
    if hidden chains from first_layer.q features to one output, history
    holds numbers (kept as floats) and best_epoch is None or indexes it.
    The layers are kept as float64 arrays (np.asarray: a float64 array is
    kept as is, not copied)."""

    first_layer: PlsFit
    hidden: tuple[tuple[np.ndarray, np.ndarray], ...]
    history: tuple[float, ...] = ()
    best_epoch: int | None = None

    def __post_init__(self):
        hidden = tuple((np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                       for w, b in self.hidden or ())
        _check_chain(hidden, self.first_layer.q)
        history, best = self.history, self.best_epoch
        if not isinstance(history, (list, tuple)) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in history):
            raise DataError("network history must be an array of numbers")
        if best is not None and not (type(best) is int and 0 <= best < len(history)):
            raise DataError(f"network best_epoch must be null or an integer in "
                            f"[0, {len(history)}), got {best!r}")
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "history", tuple(float(v) for v in history))

    @property
    def coef(self) -> np.ndarray:
        """Instrument coefficients of the frozen PLS first layer."""
        return self.first_layer.coef

    def features(self, zbar) -> np.ndarray:
        return _pls_features(self.first_layer, _check_width(zbar, len(self.first_layer.means)))

    def predict(self, zbar) -> np.ndarray:
        return _forward([(w, b, None, 0.0) for w, b in self.hidden],
                        self.features(zbar)).ravel()


class _LossWork:
    """Scratch for network_loss_and_grads on `rows` rows, bound to the
    (weight, bias) pairs of hidden and to the gradient list out.

    Per trainable layer a (rows, width) activation, zero floor, mask and
    gradient wrt the activation (dhs), then the residual vector and 2 / rows
    as a 0-d float64 array (scale), which numpy multiplies by faster than a
    Python float, to the same bits. The activations are views into one flat
    array, and the floors (views into zeros) and masks into two more laid
    out alike, so one call computes every layer's mask against zeros; each
    mask is then overwritten with the gradient wrt its pre-activation. The
    gradients go into out, or into arrays of the work's own when out is None
    (grads).

    Each layer's operands are bound once, as tuples: forward holds
    _forward's (weight, bias, activation, floor) tuples, the output layer's
    bias a 0-d view of its (1,) bias, so an edit to that bias is seen by the
    next call and the add is a scalar one. backward holds, from the last
    layer to the first, (dh, mask, dW, db, input activation transposed,
    weight transposed, dh of the layer below). The first layer's input is
    the batch, which is not bound, and it has no layer below: those are
    None.
    """

    def __init__(self, hidden, rows, out=None):
        widths = [w.shape[1] for w, _ in hidden]
        shapes = [(rows, k) for k in widths]
        self.hidden, self.out, self.rows = hidden, out, rows
        self.grads = out if out is not None else [
            (np.empty(w.shape), np.empty(w.shape[1])) for w, _ in hidden
        ]
        self.act_flat = np.empty(rows * sum(widths))
        self.mask_flat, self.zeros = np.empty_like(self.act_flat), np.zeros_like(self.act_flat)
        self.acts = _views(self.act_flat, shapes)
        floors = _views(self.zeros, shapes)
        masks = _views(self.mask_flat, shapes)
        self.dhs = [np.empty(shape) for shape in shapes]
        self.resid = np.empty(rows)
        self.scale = np.array(2.0 / rows)
        # 1-d views of the (rows, 1) network output and its gradient
        self.out_flat, self.dh_out = self.acts[-1].reshape(-1), self.dhs[-1].reshape(-1)
        biases = [b for _, b in hidden[:-1]] + [np.reshape(hidden[-1][1], ())]
        self.forward = [
            (w, b, act, floor)
            for (w, _), b, act, floor in zip(hidden, biases, self.acts, floors)
        ]
        below = [(None, None, None)] + [
            (act.T, w.T, dh) for act, (w, _), dh in zip(self.acts, hidden[1:], self.dhs)
        ]
        self.backward = [
            (dh, mask, *grad, *down)
            for dh, mask, grad, down in zip(self.dhs, masks, self.grads, below)
        ][::-1]


def network_loss_and_grads(hidden, feats, target, out=None, work=None):
    """Mean-squared loss and reverse-mode gradients for the trainable stack.

    hidden is the ordered list of (weight, bias) pairs applied to feats, each
    followed by the ReLU, and target holds one value per row of feats.
    Returns (loss, [(dW, db), ...]) aligned with hidden. out, if given, is
    such a list of arrays: the gradients are written into it and it is the
    list returned; without out, new arrays are returned.
    work, if given, is a _LossWork (sgd_refine builds its works once per
    fit). When it is bound to this hidden and this out, the same objects,
    the call walks its bound operands and writes every intermediate into
    its arrays (the gradients into work.grads when out is None), and feats
    and target are taken unchecked: float64 arrays of work.rows rows. Such
    a call with an out, which is how sgd_refine steps, returns None for the
    loss, which no step reads. Otherwise feats, target and the chain of
    layer shapes are checked, any fault a DataError, and every array is new.
    No path changes a value.
    """
    bound = work is not None and work.hidden is hidden and work.out is out
    if not bound:
        feats, target = check_design(feats, target)
        _check_chain(hidden, feats.shape[1])
        work = _LossWork(hidden, len(target), out)
    _forward(work.forward, feats)
    resid = work.resid
    np.subtract(work.out_flat, target, out=resid)
    loss = None if bound and out is not None else float(resid.dot(resid)) / work.rows
    np.multiply(resid, work.scale, out=work.dh_out)
    # an activation is > 0 exactly where its pre-activation is (NaN compares
    # false, and the subgradient at 0 is 0): the mask is 1.0 or 0.0
    np.greater(work.act_flat, work.zeros, out=work.mask_flat)
    for dh, dpre, dw, db, act_t, w_t, dh_below in work.backward:
        np.multiply(dh, dpre, out=dpre)
        (feats.T if act_t is None else act_t).dot(dpre, out=dw)
        np.add.reduce(dpre, axis=0, out=db)
        if w_t is not None:
            dpre.dot(w_t, out=dh_below)
    return loss, work.grads


def _train_work(hidden, n):
    """_train_loss's arrays on n rows: per layer an (n, width) activation
    and a zero floor laid out like it."""
    return [(np.empty((n, w.shape[1])), np.zeros((n, w.shape[1]))) for w, _ in hidden]


def _train_loss(hidden, feats, p, work) -> float:
    """Mean squared loss on the full training set, computed in work
    (_train_work)."""
    resid = _forward([(w, b, *arrays) for (w, b), arrays in zip(hidden, work)], feats).ravel()
    resid -= p
    return float(np.mean(np.square(resid, out=resid)))


def _views(flat, shapes):
    """Consecutive row-major views into flat, one per shape, in order."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def _flat_views(flat, hidden):
    """(weight, bias) views into flat, shaped like the pairs of hidden.

    The layout is layer by layer, each weight row-major, then its bias.
    """
    views = _views(flat, [a.shape for layer in hidden for a in layer])
    return list(zip(views[::2], views[1::2]))


def _layer_solve(features, target):
    """Least-squares direction + intercept for layer initialization.

    lstsq (not the pivoted-QR fit) because activated features routinely
    contain dead all-zero columns mid-training and a minimum-norm solution
    is the right degenerate behavior here.
    """
    n = features.shape[0]
    design = np.hstack([features, np.ones((n, 1))])
    sol, *_ = np.linalg.lstsq(design, target, rcond=None)
    return sol[:-1], float(sol[-1])


def _init_hidden(feats, p, cfg: DplsConfig):
    """Stack layers: least-squares direction per layer, kinks spread over
    pre-activation quantiles."""
    layers = []
    h = feats
    for width in cfg.layer_widths:
        beta, b0 = _layer_solve(h, p)
        w = np.tile(beta.reshape(-1, 1), (1, width))
        scores = h @ beta + b0
        qs = np.quantile(scores, (np.arange(width) + 0.5) / width)
        # one unit keeps the plain least-squares offset so the layer can
        # always reproduce its own linear initialization
        b = b0 - qs
        b[0] = b0
        layers.append((w, b))
        h = _forward([(w, b, None, 0.0)], h)
    beta, b0 = _layer_solve(h, p)
    layers.append((beta.reshape(-1, 1), np.array([b0])))
    return layers


def dpls_fit(zbar, p, cfg: DplsConfig) -> DplsModel:
    """Fit the network: PLS first layer, initialized layers, SGD refinement."""
    zbar, p = check_design(zbar, p)
    q = cfg.first_layer_q
    if q == "auto":
        q_max = min(zbar.shape[1], AUTO_Q_CAP)
        q = select_q_cv(zbar, p, q_max, SeededRng(cfg.sgd.seed).child(0))
    first = fit_pls_closed_form(zbar, p, q)
    hidden = _init_hidden(_pls_features(first, zbar), p, cfg)
    return sgd_refine(DplsModel(first_layer=first, hidden=tuple(hidden)), zbar, p, cfg.sgd)


def _serve_losses(hidden, feats, p, requests, replies):
    """Helper side of _LossHelper: receive each theta sent down requests and
    send back the full-data loss at it, until requests ends. A loss that
    would warn or raise ends the helper (data._raising), and the parent
    then computes that loss itself."""
    requests[1].close()
    replies[0].close()
    theta = np.empty(sum(a.size for layer in hidden for a in layer))
    views = _flat_views(theta, hidden)
    work = _train_work(hidden, len(p))
    while _receive_cells(requests[0], theta):
        _send_cells(replies[1], _train_loss(views, feats, p, work))


class _LossHelper:
    """The parent's ends of a forked child that computes _train_loss at the
    theta snapshots sent to it (_serve_losses), in its own work arrays."""

    def __init__(self, requests, replies):
        self._requests, self._replies = requests, replies

    @classmethod
    def start(cls, children, hidden, feats, p):
        """Fork the helper under children (data._Children); None if the
        system refuses a pipe or the process."""
        requests, replies = children.pipe(), children.pipe()
        if requests is None or replies is None:
            return None
        pid = children.fork(_serve_losses, hidden, feats, p, requests, replies)
        requests[0].close()
        replies[1].close()
        return None if pid is None else cls(requests[1], replies[0])

    def send(self, theta) -> bool:
        """Ask for the loss at theta; False if the helper is gone or took
        only part of it."""
        try:
            return _send_cells(self._requests, theta)
        except OSError:
            return False

    def receive(self) -> float | None:
        """The loss at the oldest theta sent and not yet answered; None if
        the helper died, or raised on that loss."""
        loss = np.empty(1)
        return float(loss[0]) if _receive_cells(self._replies, loss) else None


def sgd_refine(model: DplsModel, zbar, p, params: SgdParams) -> DplsModel:
    """Mini-batch SGD over the trainable layers; first layer frozen.

    The returned model carries the parameters from the best epoch measured
    on the full training loss (epoch 0 is the pre-SGD state, so refinement
    can never end worse than it started) and this call's loss history alone,
    so history[best_epoch] is the returned model's loss.

    Every trainable weight and bias is a view into one flat vector theta,
    and every gradient a view into grad, which has the same layout, so a
    step is one network_loss_and_grads call that writes grad and one update
    of theta, by the learning rate bound once as a 0-d float64 array. Each
    epoch gathers its shuffled rows once, into buffers allocated once per
    call. The batches, each a pair of contiguous slices of those buffers
    with its _LossWork, are listed once per call; the two works, one for
    full batches and one for the ragged tail of n % batch_size rows, are
    bound to the views of theta and grad, with their zero floors and 2 /
    rows, and take no batch loss (the call returns None for it). With
    epochs = 0 only the initialization's loss is taken, and none of these
    is built.

    Each epoch's full-data loss is taken at a copy of theta at the end of
    that epoch, one way whoever computes it: into the history, the best
    state and the divergence check. When the process may use two CPUs and
    the loss has at least _LOSS_HELPER_CELLS cells, a forked helper
    (_LossHelper) computes the loss of epoch e while this process runs the
    steps of epoch e + 1, and the loss is taken after them. Those steps run
    with every floating-point error that is not ignored raised: on one,
    theta goes back to epoch e's copy, loss e is taken and the steps run
    again as they would in-process, so no warning comes early, and the
    helper is used no more. Otherwise, and from the first failure of the
    helper on (it died, or its loss raised or warned), the loss is computed
    here in (n, width) work arrays, each with its zero floor (_train_work).
    Either way the bits are the same.
    """
    zbar, p = check_design(zbar, p)
    feats = model.features(zbar)
    theta = np.concatenate([a.ravel() for layer in model.hidden for a in layer])
    hidden = _flat_views(theta, model.hidden)
    grad, step = np.empty_like(theta), np.empty_like(theta)
    grads = _flat_views(grad, model.hidden)
    rng = SeededRng(params.seed).child(2)
    n, batch, lr = len(p), params.batch_size, np.array(params.learning_rate)
    work = _train_work(hidden, n)
    if params.epochs:
        feats_epoch, p_epoch = np.empty(feats.shape), np.empty(n)
        sizes = {min(batch, n), n % batch} - {0}  # full batches, the ragged tail
        step_work = {rows: _LossWork(hidden, rows, grads) for rows in sizes}
        batches = [
            (feats_epoch[start:start + batch], p_epoch[start:start + batch],
             step_work[min(batch, n - start)])
            for start in range(0, n, batch)
        ]
    history, best = [], None

    def take(epoch, state, helper):
        """Take the loss at state, epoch's end: the helper's reply, or
        computed here when there is no helper or it failed. Returns the
        helper, or None once it has failed."""
        nonlocal best
        loss = None if helper is None else helper.receive()
        if loss is None:
            helper, loss = None, _train_loss(_flat_views(state, hidden), feats, p, work)
        if epoch and not np.isfinite(loss):
            raise NumericalError(f"SGD diverged at epoch {epoch}; reduce learning_rate")
        history.append(loss)
        if best is None or loss < best[0]:
            best = (loss, state, epoch)
        return helper

    def run_steps():
        for feats_batch, p_batch, batch_work in batches:
            # through the module global, with out and work as keywords:
            # step counters and test stubs replace that global
            network_loss_and_grads(hidden, feats_batch, p_batch, out=grads, work=batch_work)
            np.subtract(theta, np.multiply(grad, lr, out=step), out=theta)

    with _Children() as children:
        cells = n * sum(w.shape[1] for w, _ in hidden)
        helper = None
        if params.epochs and cells >= _LOSS_HELPER_CELLS and _usable_cpus() >= 2:
            helper = _LossHelper.start(children, hidden, feats, p)
        raised = _raised_errstate()
        flight = None  # (epoch, theta copy) whose loss the helper computes
        for epoch in range(params.epochs + 1):
            if epoch:
                order = rng.permutation(n)
                # order is a permutation, so clip never acts; it spares take
                # the temporary copy that mode="raise" makes of out
                feats.take(order, axis=0, out=feats_epoch, mode="clip")
                p.take(order, out=p_epoch, mode="clip")
                if flight is not None:
                    try:
                        with np.errstate(**raised):
                            run_steps()
                    except FloatingPointError:
                        # a step would warn or raise: take loss e - 1 first
                        theta[...] = flight[1]
                        take(*flight, helper)
                        flight = helper = None
                if flight is None:
                    run_steps()
                else:
                    helper = take(*flight, helper)
            state = theta.copy()
            if helper is not None and helper.send(state):
                flight = (epoch, state)
            else:
                flight = helper = None
                take(epoch, state, None)
        if flight is not None:
            take(*flight, helper)
    return DplsModel(
        first_layer=model.first_layer,
        hidden=tuple(_flat_views(best[1], model.hidden)),
        history=tuple(history),
        best_epoch=best[2],
    )
