import numpy as np
import pytest

from dpls_iv import (
    ActivationKind,
    DataError,
    DplsConfig,
    DplsModel,
    NumericalError,
    PlsFit,
    SeededRng,
    SgdParams,
    activation_apply,
    dpls_fit,
    model_from_dict,
    model_to_dict,
    network_loss_and_grads,
    sgd_refine,
)


def test_relu_values():
    relu = ActivationKind.relu()
    np.testing.assert_array_equal(
        activation_apply(relu, np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
    )


def test_leaky_relu_values():
    leaky = ActivationKind.leaky(0.01)
    assert activation_apply(leaky, -3.0) == pytest.approx(-0.03)
    assert activation_apply(leaky, 3.0) == 3.0


def test_relu_positive_homogeneity():
    relu = ActivationKind.relu()
    t = SeededRng(0).normal(size=50)
    for c in (0.5, 2.0, 7.25):
        np.testing.assert_array_equal(
            activation_apply(relu, c * t), c * activation_apply(relu, t)
        )


def test_activation_validation():
    with pytest.raises(DataError):
        ActivationKind("tanh")
    with pytest.raises(DataError):
        ActivationKind("leaky_relu", 1.5)
    with pytest.raises(DataError):
        ActivationKind("relu", 0.3)


def _grad_check_layers(seed, widths, n=20, d=3):
    """Random stack whose pre-activations stay away from the relu kink."""
    rng = SeededRng(seed)
    feats = rng.child(0).normal(size=(n, d))
    target = rng.child(1).normal(size=n)
    sizes = [d, *widths, 1]
    layers = []
    for i in range(len(sizes) - 1):
        w = rng.child(2, i).normal(size=(sizes[i], sizes[i + 1]))
        b = rng.child(3, i).normal(size=sizes[i + 1]) + 1.0
        layers.append((w, b))
    return feats, target, layers


def _min_abs_preactivation(layers, kind, feats):
    h = feats
    lo = np.inf
    for w, b in layers:
        pre = h @ w + b
        lo = min(lo, float(np.min(np.abs(pre))))
        h = activation_apply(kind, pre)
    return lo


def test_gradients_match_central_differences():
    kind = ActivationKind.relu()
    checked = 0
    for seed in range(30):
        feats, target, layers = _grad_check_layers(seed, widths=(4,))
        if _min_abs_preactivation(layers, kind, feats) < 1e-2:
            continue  # a kink this close would poison the finite difference
        _, grads = network_loss_and_grads(layers, kind, feats, target)
        eps = 1e-5
        for li, (w, b) in enumerate(layers):
            for idx in np.ndindex(w.shape):
                w[idx] += eps
                up, _ = network_loss_and_grads(layers, kind, feats, target)
                w[idx] -= 2 * eps
                dn, _ = network_loss_and_grads(layers, kind, feats, target)
                w[idx] += eps
                fd = (up - dn) / (2 * eps)
                got = grads[li][0][idx]
                assert got == pytest.approx(fd, rel=1e-4, abs=1e-7)
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def _manual_model(weight, bias):
    first = PlsFit(
        coef=np.array([1.0]),
        q=1,
        y_loadings=np.array([1.0]),
        weights=np.array([[1.0]]),
        means=np.array([0.0]),
        p_mean=0.0,
        method="pls_closed_form",
    )
    return DplsModel(
        first_layer=first,
        hidden=((np.array([[weight]]), np.array([bias])),),
        activation=ActivationKind.relu(),
    )


def test_sgd_single_step_hand_computed():
    # one sample x=2, target 2, w=0.5, b=0: residual -1,
    # dW = (2/n) x resid = -4 and db = (2/n) resid = -2
    model = _manual_model(0.5, 0.0)
    lr = 0.01
    out = sgd_refine(
        model,
        np.array([[2.0]]),
        np.array([2.0]),
        SgdParams(learning_rate=lr, batch_size=1, epochs=1, seed=0),
    )
    w, b = out.hidden[0]
    assert w[0, 0] == 0.5 - lr * (-4.0)
    assert b[0] == 0.0 - lr * (-2.0)
    assert out.best_epoch == 1


def test_sgd_zero_learning_rate_is_identity():
    rng = SeededRng(1)
    zbar = rng.child(0).normal(size=(60, 4))
    p = rng.child(1).normal(size=60)
    cfg = DplsConfig(layer_widths=(5,), first_layer_q=2,
                     sgd=SgdParams(epochs=0, seed=0))
    model = dpls_fit(zbar, p, cfg)
    refined = sgd_refine(model, zbar, p,
                         SgdParams(learning_rate=0.0, epochs=3, seed=0))
    for (w0, b0), (w1, b1) in zip(model.hidden, refined.hidden):
        np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(b0, b1)


def test_sgd_divergence_raises():
    # the output unit is a relu: a step that does not overflow at once can
    # leave it dead with a finite loss, so the first epoch must overflow
    model = _manual_model(0.5, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="diverged"):
            sgd_refine(
                model,
                np.array([[2.0]]),
                np.array([2.0]),
                SgdParams(learning_rate=1e200, batch_size=1, epochs=400, seed=0),
            )


def _nonlinear_training_data(seed, n=200, d=6):
    rng = SeededRng(seed)
    zbar = rng.child(0).normal(size=(n, d))
    coef = rng.child(1).normal(size=d)
    p = np.maximum(zbar @ coef, 0.0) + 0.05 * rng.child(2).normal(size=n)
    return zbar, p


def test_refinement_never_ends_worse_than_start():
    zbar, p = _nonlinear_training_data(2)
    cfg = DplsConfig(layer_widths=(8,), first_layer_q=3,
                     sgd=SgdParams(epochs=25, seed=0))
    model = dpls_fit(zbar, p, cfg)
    history = np.asarray(model.history)
    assert history[model.best_epoch] == history.min()
    mse = float(np.mean((model.predict(zbar) - p) ** 2))
    assert mse == pytest.approx(history[model.best_epoch], rel=1e-9)
    assert history[model.best_epoch] <= history[0]


def test_treatment_scale_carries_to_first_layer():
    # doubling the target doubles every first-layer coefficient bit for bit
    zbar, p = _nonlinear_training_data(3)
    cfg = DplsConfig(layer_widths=(4,), first_layer_q=2,
                     sgd=SgdParams(epochs=5, seed=0))
    a = dpls_fit(zbar, p, cfg)
    b = dpls_fit(zbar, 2.0 * p, cfg)
    np.testing.assert_array_equal(2.0 * a.first_layer.coef, b.first_layer.coef)


def test_model_rejects_wrong_input_width():
    zbar, p = _nonlinear_training_data(5)
    model = dpls_fit(zbar, p, DplsConfig(layer_widths=(3,), first_layer_q=2,
                                         sgd=SgdParams(epochs=2, seed=0)))
    with pytest.raises(DataError, match="input columns"):
        model.predict(zbar[:, :-1])


def test_config_validation():
    with pytest.raises(DataError):
        DplsConfig(layer_widths=(0,))
    with pytest.raises(DataError, match="at least one layer"):
        DplsConfig(layer_widths=())
    with pytest.raises(DataError):
        DplsConfig(first_layer_q=0)
    with pytest.raises(DataError):
        SgdParams(learning_rate=-0.1)
    with pytest.raises(DataError):
        SgdParams(batch_size=0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_sgd_params_reject_a_non_finite_learning_rate(rate):
    with pytest.raises(DataError, match="learning_rate must be finite and non-negative"):
        SgdParams(learning_rate=rate, epochs=0)


def test_model_dict_round_trip():
    zbar, p = _nonlinear_training_data(6)
    model = dpls_fit(zbar, p, DplsConfig(layer_widths=(4,), first_layer_q=2,
                                         sgd=SgdParams(epochs=5, seed=1)))
    clone = model_from_dict(model_to_dict(model))
    np.testing.assert_array_equal(model.predict(zbar), clone.predict(zbar))
    assert clone.best_epoch == model.best_epoch


def test_fit_beats_linear_first_layer_on_kinked_target():
    zbar, p = _nonlinear_training_data(8, n=400)
    cfg = DplsConfig(layer_widths=(16,), first_layer_q=4,
                     sgd=SgdParams(epochs=40, seed=0))
    model = dpls_fit(zbar, p, cfg)
    mse_net = float(np.mean((model.predict(zbar) - p) ** 2))
    mse_pls = float(np.mean((model.first_layer.predict(zbar) - p) ** 2))
    assert mse_net < mse_pls
