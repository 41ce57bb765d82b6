"""Deep PLS treatment network: frozen PLS first layer, ReLU layers after.

The first layer maps the augmented instruments to q PLS score features and
is never touched by SGD; consistency of the instrument directions rests on
the PLS estimator alone. Hidden layers (widths from config) and a width-1
output layer are initialized by per-layer least squares on the previous
layer's activated features, then refined jointly by mini-batch SGD on
squared loss.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import SeededRng
from .errors import DataError, NumericalError
from .linear import fit_ols
from .pls import AUTO_Q_CAP, PlsFit, fit_pls_closed_form, select_q_cv

__all__ = [
    "ActivationKind",
    "SgdParams",
    "DplsConfig",
    "DplsModel",
    "activation_apply",
    "dpls_fit",
    "sgd_refine",
    "network_loss_and_grads",
]


@dataclass(frozen=True)
class ActivationKind:
    """relu or leaky_relu(slope); slope must lie in (0, 1)."""

    tag: str = "relu"
    slope: float = 0.0

    def __post_init__(self):
        if self.tag not in ("relu", "leaky_relu"):
            raise DataError(f"unknown activation tag: {self.tag!r}")
        if self.tag == "leaky_relu" and not (0.0 < self.slope < 1.0):
            raise DataError("leaky_relu slope must lie in (0, 1)")
        if self.tag == "relu" and self.slope != 0.0:
            raise DataError("relu takes no slope")

    @staticmethod
    def relu() -> "ActivationKind":
        return ActivationKind("relu", 0.0)

    @staticmethod
    def leaky(slope: float = 0.01) -> "ActivationKind":
        return ActivationKind("leaky_relu", slope)


def activation_apply(kind: ActivationKind, t):
    t = np.asarray(t, dtype=np.float64)
    if kind.tag == "relu":
        out = np.maximum(t, 0.0)
    else:
        out = np.where(t > 0.0, t, kind.slope * t)
    return float(out) if out.ndim == 0 else out


def _activation_grad(kind: ActivationKind, pre):
    """Derivative wrt pre-activation; the subgradient at 0 is 0 for relu."""
    if kind.tag == "relu":
        return (pre > 0.0).astype(np.float64)
    return np.where(pre > 0.0, 1.0, kind.slope)


@dataclass(frozen=True)
class SgdParams:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.learning_rate < np.inf):
            raise DataError(
                f"learning_rate must be finite and non-negative, got {self.learning_rate}"
            )
        if self.batch_size < 1 or self.epochs < 0:
            raise DataError("batch_size must be >= 1 and epochs >= 0")


@dataclass(frozen=True)
class DplsConfig:
    """Architecture and training knobs for the treatment network.

    layer_widths names the hidden widths, at least one; a width-1 output
    layer is always appended after the last hidden layer. The activation
    follows every trainable layer, the output layer included.
    """

    layer_widths: tuple[int, ...] = (30,)
    activation: ActivationKind = field(default_factory=ActivationKind.relu)
    first_layer_q: int | str = "auto"
    sgd: SgdParams = field(default_factory=SgdParams)

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        if not widths or any(w < 1 for w in widths):
            raise DataError("layer_widths needs at least one layer, all widths positive")
        object.__setattr__(self, "layer_widths", widths)
        if self.first_layer_q != "auto":
            if int(self.first_layer_q) < 1:
                raise DataError("first_layer_q must be >= 1 or 'auto'")
            object.__setattr__(self, "first_layer_q", int(self.first_layer_q))


def _forward(hidden, kind: ActivationKind, feats):
    """Pre-activations and activations of the trainable stack on PLS features.

    acts[0] is feats and acts[-1] the (n, 1) network output.
    """
    pres, acts = [], [feats]
    for w, b in hidden:
        pres.append(acts[-1] @ w + b)
        acts.append(activation_apply(kind, pres[-1]))
    return pres, acts


@dataclass(frozen=True)
class DplsModel:
    """Fitted network; immutable. Centering lives in first_layer."""

    first_layer: PlsFit
    hidden: tuple[tuple[np.ndarray, np.ndarray], ...]
    activation: ActivationKind
    history: tuple[float, ...] = ()
    best_epoch: int | None = None

    @property
    def coef(self) -> np.ndarray:
        """Instrument coefficients of the frozen PLS first layer."""
        return self.first_layer.coef

    def features(self, zbar) -> np.ndarray:
        zbar = np.asarray(zbar, dtype=np.float64)
        if zbar.ndim != 2 or zbar.shape[1] != len(self.first_layer.means):
            raise DataError(
                f"expected {len(self.first_layer.means)} input columns, "
                f"got shape {zbar.shape}"
            )
        return (zbar - self.first_layer.means) @ self.first_layer.weights

    def predict(self, zbar) -> np.ndarray:
        _, acts = _forward(self.hidden, self.activation, self.features(zbar))
        return acts[-1].ravel()


def network_loss_and_grads(hidden, kind: ActivationKind, feats, target):
    """Mean-squared loss and reverse-mode gradients for the trainable stack.

    hidden is the ordered list of (weight, bias) pairs applied to feats, each
    followed by the activation. Returns (loss, [(dW, db), ...]) aligned with
    hidden.
    """
    feats = np.asarray(feats, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    pres, acts = _forward(hidden, kind, feats)
    resid = acts[-1].ravel() - target
    n = len(target)
    loss = float(resid @ resid) / n
    dh = (2.0 / n) * resid.reshape(-1, 1)
    grads = [None] * len(hidden)
    for i in range(len(hidden) - 1, -1, -1):
        dpre = dh * _activation_grad(kind, pres[i])
        grads[i] = (acts[i].T @ dpre, dpre.sum(axis=0))
        if i:
            dh = dpre @ hidden[i][0].T
    return loss, grads


def _train_loss(hidden, kind: ActivationKind, feats, p) -> float:
    _, acts = _forward(hidden, kind, feats)
    return float(np.mean((acts[-1].ravel() - p) ** 2))


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
        h = activation_apply(cfg.activation, h @ w + b)
    beta, b0 = _layer_solve(h, p)
    layers.append((beta.reshape(-1, 1), np.array([b0])))
    return layers


def dpls_fit(zbar, p, cfg: DplsConfig) -> DplsModel:
    """Fit the network: PLS first layer, initialized layers, SGD refinement."""
    zbar = np.asarray(zbar, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if zbar.ndim != 2 or p.shape != (zbar.shape[0],):
        raise DataError("zbar must be a matrix and p a matching vector")
    q = cfg.first_layer_q
    if q == "auto":
        q_max = min(zbar.shape[1], AUTO_Q_CAP)
        q = select_q_cv(zbar, p, q_max, folds=5, rng=SeededRng(cfg.sgd.seed).child(0))
    first = fit_pls_closed_form(zbar, p, q)
    feats = (zbar - first.means) @ first.weights
    hidden = _init_hidden(feats, p, cfg)
    model = DplsModel(first_layer=first, hidden=tuple(hidden), activation=cfg.activation)
    if cfg.sgd.epochs > 0:
        return sgd_refine(model, zbar, p, cfg.sgd)
    loss0 = float(np.mean((model.predict(zbar) - p) ** 2))
    return replace(model, history=(loss0,), best_epoch=0)


def sgd_refine(model: DplsModel, zbar, p, params: SgdParams) -> DplsModel:
    """Mini-batch SGD over the trainable layers; first layer frozen.

    The returned model carries the parameters from the best epoch measured
    on the full training loss (epoch 0 is the pre-SGD state, so refinement
    can never end worse than it started) and the full loss history.
    """
    p = np.asarray(p, dtype=np.float64)
    feats = model.features(zbar)
    if not model.hidden:
        raise DataError("model has no trainable layers to refine")
    kind = model.activation
    hidden = [(w.copy(), b.copy()) for w, b in model.hidden]
    rng = SeededRng(params.seed).child(2)
    n = len(p)
    history = list(model.history)
    loss0 = _train_loss(hidden, kind, feats, p)
    history.append(loss0)
    best_loss = loss0
    best_state = [(w.copy(), b.copy()) for w, b in hidden]
    best_epoch = 0
    lr = params.learning_rate
    for epoch in range(1, params.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, params.batch_size):
            rows = order[start : start + params.batch_size]
            _, grads = network_loss_and_grads(hidden, kind, feats[rows], p[rows])
            for (w, b), (gw, gb) in zip(hidden, grads):
                w -= lr * gw
                b -= lr * gb
        loss = _train_loss(hidden, kind, feats, p)
        if not np.isfinite(loss):
            raise NumericalError(
                f"SGD diverged at epoch {epoch}; reduce learning_rate"
            )
        history.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_state = [(w.copy(), b.copy()) for w, b in hidden]
            best_epoch = epoch
    return DplsModel(
        first_layer=model.first_layer,
        hidden=tuple(best_state),
        activation=kind,
        history=tuple(history),
        best_epoch=best_epoch,
    )
