import os
import signal

import numpy as np
import pytest

from dpls_iv import (
    DataError,
    DplsConfig,
    DplsModel,
    NumericalError,
    PlsFit,
    SeededRng,
    SgdParams,
    dpls_fit,
    network_loss_and_grads,
)
from dpls_iv.data import augment_instruments
from dpls_iv import network
from dpls_iv.network import _activate, sgd_refine
from dpls_iv.synthetic import experiment1_spec, gen_experiment1


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


def _min_abs_preactivation(layers, feats):
    h = feats
    lo = np.inf
    for w, b in layers:
        pre = h @ w + b
        lo = min(lo, float(np.min(np.abs(pre))))
        h = np.maximum(pre, 0.0)
    return lo


def test_gradients_match_central_differences():
    checked = 0
    for seed in range(30):
        feats, target, layers = _grad_check_layers(seed, widths=(4,))
        if _min_abs_preactivation(layers, feats) < 1e-2:
            continue  # a kink this close would poison the finite difference
        _, grads = network_loss_and_grads(layers, feats, target)
        eps = 1e-5
        for li, (w, b) in enumerate(layers):
            for idx in np.ndindex(w.shape):
                w[idx] += eps
                up, _ = network_loss_and_grads(layers, feats, target)
                w[idx] -= 2 * eps
                dn, _ = network_loss_and_grads(layers, feats, target)
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
        y_loadings=np.array([1.0]),
        weights=np.array([[1.0]]),
        means=np.array([0.0]),
        p_mean=0.0,
    )
    return DplsModel(
        first_layer=first,
        hidden=((np.array([[weight]]), np.array([bias])),),
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


def test_refining_a_refined_model_keeps_only_this_calls_history():
    zbar, p = _nonlinear_training_data(2)
    cfg = DplsConfig(layer_widths=(8,), first_layer_q=3,
                     sgd=SgdParams(epochs=5, seed=0))
    fitted = dpls_fit(zbar, p, cfg)
    assert len(fitted.history) == 6
    params = SgdParams(epochs=5, seed=1)
    model = sgd_refine(fitted, zbar, p, params)
    assert len(model.history) == 6
    mse = float(np.mean((model.predict(zbar) - p) ** 2))
    assert mse == pytest.approx(model.history[model.best_epoch], rel=1e-9)
    assert model.history[0] == fitted.history[fitted.best_epoch]
    _assert_same_refinement(model, _ref_sgd_refine(fitted, zbar, p, params), zbar)


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
    with pytest.raises(DataError, match="fit expects 6 design columns, data has 5"):
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
    for field, value in (("batch_size", 2.5), ("epochs", 1.5), ("batch_size", True),
                         ("epochs", False), ("batch_size", 32.0), ("epochs", "3")):
        with pytest.raises(DataError, match=f"{field} must be an integer"):
            SgdParams(**{field: value})
    for value in (True, np.bool_(False), "0.1", None, 1j):
        with pytest.raises(DataError, match="learning_rate must be a real number"):
            SgdParams(learning_rate=value)
    params = SgdParams(learning_rate=np.float32(0.5), batch_size=np.int64(8),
                       epochs=np.int32(2), seed=np.uint8(3))
    assert params == SgdParams(learning_rate=0.5, batch_size=8, epochs=2, seed=3)
    assert type(params.learning_rate) is float
    assert all(type(v) is int for v in (params.batch_size, params.epochs, params.seed))
    assert type(SgdParams(learning_rate=1).learning_rate) is float


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -np.inf, np.float32("inf")])
def test_sgd_params_reject_a_non_finite_learning_rate(rate):
    with pytest.raises(DataError, match="learning_rate must be finite and non-negative"):
        SgdParams(learning_rate=rate, epochs=0)


def test_model_takes_its_layers_as_float64_arrays():
    model, zbar, p = _initialized_model((3,))
    ints = tuple((np.rint(4 * w).astype(np.int64), np.rint(4 * b).astype(np.int64))
                 for w, b in model.hidden)
    floats = tuple((w.astype(np.float64), b.astype(np.float64)) for w, b in ints)
    params = SgdParams(learning_rate=0.01, batch_size=8, epochs=3, seed=1)
    ref = sgd_refine(DplsModel(first_layer=model.first_layer, hidden=floats), zbar, p, params)
    for hidden in (ints, tuple((w.tolist(), b.tolist()) for w, b in ints)):
        got = DplsModel(first_layer=model.first_layer, hidden=hidden)
        assert all(a.dtype == np.float64 for layer in got.hidden for a in layer)
        _assert_same_refinement(sgd_refine(got, zbar, p, params), ref, zbar)
    # a float64 layer is kept as it is, not copied
    kept = DplsModel(first_layer=model.first_layer, hidden=model.hidden)
    assert all(a is b for layer, same in zip(kept.hidden, model.hidden)
               for a, b in zip(layer, same))


def test_fit_beats_linear_first_layer_on_kinked_target():
    zbar, p = _nonlinear_training_data(8, n=400)
    cfg = DplsConfig(layer_widths=(16,), first_layer_q=4,
                     sgd=SgdParams(epochs=40, seed=0))
    model = dpls_fit(zbar, p, cfg)
    mse_net = float(np.mean((model.predict(zbar) - p) ** 2))
    mse_pls = float(np.mean((model.first_layer.predict(zbar) - p) ** 2))
    assert mse_net < mse_pls


# The SGD loop as it stood before every weight and bias became a view into
# one flat vector: a fresh array per gradient, fancy-indexed minibatches and
# masks read off kept pre-activations. The flat loop must match its bits.


def _ref_activation_apply(t):
    out = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
    return float(out) if out.ndim == 0 else out


def _ref_activation_grad(pre):
    return (pre > 0.0).astype(np.float64)


def _ref_forward(hidden, feats):
    pres, acts = [], [feats]
    for w, b in hidden:
        pres.append(acts[-1] @ w + b)
        acts.append(_ref_activation_apply(pres[-1]))
    return pres, acts


def _ref_network_loss_and_grads(hidden, feats, target):
    feats = np.asarray(feats, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    pres, acts = _ref_forward(hidden, feats)
    resid = acts[-1].ravel() - target
    n = len(target)
    loss = float(resid @ resid) / n
    dh = (2.0 / n) * resid.reshape(-1, 1)
    grads = [None] * len(hidden)
    for i in range(len(hidden) - 1, -1, -1):
        dpre = dh * _ref_activation_grad(pres[i])
        grads[i] = (acts[i].T @ dpre, dpre.sum(axis=0))
        if i:
            dh = dpre @ hidden[i][0].T
    return loss, grads


def _ref_train_loss(hidden, feats, p):
    _, acts = _ref_forward(hidden, feats)
    return float(np.mean((acts[-1].ravel() - p) ** 2))


def _ref_sgd_refine(model, zbar, p, params):
    p = np.asarray(p, dtype=np.float64)
    feats = model.features(zbar)
    hidden = [(w.copy(), b.copy()) for w, b in model.hidden]
    rng = SeededRng(params.seed).child(2)
    n = len(p)
    history = []
    loss0 = _ref_train_loss(hidden, feats, p)
    history.append(loss0)
    best_loss = loss0
    best_state = [(w.copy(), b.copy()) for w, b in hidden]
    best_epoch = 0
    lr = params.learning_rate
    for epoch in range(1, params.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, params.batch_size):
            rows = order[start : start + params.batch_size]
            _, grads = _ref_network_loss_and_grads(hidden, feats[rows], p[rows])
            for (w, b), (gw, gb) in zip(hidden, grads):
                w -= lr * gw
                b -= lr * gb
        loss = _ref_train_loss(hidden, feats, p)
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
        history=tuple(history),
        best_epoch=best_epoch,
    )


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _initialized_data(n, d):
    rng = SeededRng(21)
    zbar = rng.child(0).normal(size=(n, d))
    coef = rng.child(1).normal(size=d)
    p = np.maximum(zbar @ coef, 0.0) + 0.1 * rng.child(2).normal(size=n)
    return zbar, p


def _initialized_model(widths, n=50, d=4):
    zbar, p = _initialized_data(n, d)
    cfg = DplsConfig(layer_widths=widths, first_layer_q=2,
                     sgd=SgdParams(epochs=0))
    return dpls_fit(zbar, p, cfg), zbar, p


def _fixed_first_layer_model():
    """_initialized_model((4, 3)) with a first layer of fixed weights, whose
    features are z1 + z2 and z3 + z4: where SGD overflows on this model
    does not hang on the rounding of a PLS fit."""
    zbar, p = _initialized_data(50, 4)
    first = PlsFit(
        y_loadings=np.ones(2),
        weights=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
        means=np.zeros(4),
        p_mean=0.0,
    )
    cfg = DplsConfig(layer_widths=(4, 3), first_layer_q=2, sgd=SgdParams(epochs=0))
    hidden = network._init_hidden(network._pls_features(first, zbar), p, cfg)
    return DplsModel(first_layer=first, hidden=tuple(hidden)), zbar, p


# On _fixed_first_layer_model() with one 50-row batch an epoch, SGD stays
# finite up to a rate of about 1e154 and overflows in the second epoch from
# about 1e156 to 1e306; this rate lies well inside that window.
_DIVERGING = SgdParams(learning_rate=1e200, batch_size=50, epochs=50, seed=0)


def _production_model(widths, n):
    """An initialized network with q = 9 PLS features on experiment1 data,
    the q that a default fit picks at n = 10,000."""
    ds, _truth = gen_experiment1(experiment1_spec(n=n), SeededRng(0).child(0))
    zbar = augment_instruments(ds.z, ds.x)
    cfg = DplsConfig(layer_widths=widths, first_layer_q=9, sgd=SgdParams(epochs=0))
    return dpls_fit(zbar, ds.p, cfg), zbar, ds.p


def _assert_same_refinement(got, ref, zbar):
    assert len(got.hidden) == len(ref.hidden)
    for (w, b), (rw, rb) in zip(got.hidden, ref.hidden):
        assert _bits(w) == _bits(rw)
        assert _bits(b) == _bits(rb)
    assert _bits(got.history) == _bits(ref.history)
    assert got.best_epoch == ref.best_epoch
    assert _bits(got.predict(zbar)) == _bits(ref.predict(zbar))


@pytest.mark.parametrize("batch_size", [1, 16, 64], ids=["one", "ragged", "above_n"])
@pytest.mark.parametrize("widths", [(5,), (4, 3), (3, 4, 2)], ids=["1", "2", "3"])
def test_flat_sgd_matches_reference_loop_bit_for_bit(widths, batch_size):
    model, zbar, p = _initialized_model(widths)
    params = SgdParams(learning_rate=0.02, batch_size=batch_size, epochs=6, seed=3)
    _assert_same_refinement(sgd_refine(model, zbar, p, params),
                            _ref_sgd_refine(model, zbar, p, params), zbar)


@pytest.mark.parametrize("widths", [(30,), (30, 20)], ids=["30", "30_20"])
def test_flat_sgd_matches_reference_loop_at_the_production_shape(widths):
    # q = 9 features and 32-row batches reach the 32 x 9 x 30 products of a
    # default fit; 2023 rows leave a ragged tail of 7
    model, zbar, p = _production_model(widths, n=2023)
    assert model.first_layer.weights.shape[1] == 9
    params = SgdParams(batch_size=32, epochs=2, seed=5)
    _assert_same_refinement(sgd_refine(model, zbar, p, params),
                            _ref_sgd_refine(model, zbar, p, params), zbar)


def test_flat_sgd_matches_reference_when_units_die():
    # this rate kills the relu output unit in the first epoch: every later
    # gradient is zero and the loss stays flat
    model, zbar, p = _initialized_model((6,))
    params = SgdParams(learning_rate=0.2, batch_size=8, epochs=5, seed=0)
    got = sgd_refine(model, zbar, p, params)
    _assert_same_refinement(got, _ref_sgd_refine(model, zbar, p, params), zbar)
    epochs = got.history[-params.epochs:]
    assert len(set(epochs)) == 1 and epochs[0] > got.history[-params.epochs - 1]


def test_flat_sgd_diverges_like_reference_loop():
    model, zbar, p = _fixed_first_layer_model()
    messages = []
    for refine in (sgd_refine, _ref_sgd_refine):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as err:
                refine(model, zbar, p, _DIVERGING)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "SGD diverged at epoch 2; reduce learning_rate"


def test_loss_and_grads_write_into_out():
    feats, target, layers = _grad_check_layers(4, widths=(3, 2), n=9)
    loss, grads = network_loss_and_grads(layers, feats, target)
    ref_loss, ref_grads = _ref_network_loss_and_grads(layers, feats, target)
    bufs = [(np.full_like(w, np.nan), np.full_like(b, np.nan)) for w, b in layers]
    views = [(w, b) for w, b in bufs]
    out_loss, out = network_loss_and_grads(layers, feats, target, out=bufs)
    assert out is bufs
    assert out_loss == loss == ref_loss
    for (w, b), (gw, gb), (vw, vb), (rw, rb) in zip(bufs, grads, views, ref_grads):
        assert w is vw and b is vb
        assert _bits(w) == _bits(gw) == _bits(rw)
        assert _bits(b) == _bits(gb) == _bits(rb)


@pytest.mark.parametrize("rows", [1, 32])
@pytest.mark.parametrize("widths", [(30,), (3, 2)], ids=["30", "3_2"])
def test_loss_and_grads_write_into_work(rows, widths):
    from dpls_iv.network import _LossWork

    feats, target, layers = _grad_check_layers(6, widths=widths, n=rows, d=9)
    loss, grads = network_loss_and_grads(layers, feats, target)
    ref_loss, ref_grads = _ref_network_loss_and_grads(layers, feats, target)
    work = _LossWork(layers, rows)
    arrays = [work.act_flat, work.mask_flat, *work.dhs, work.resid]
    for a in arrays:
        a.fill(np.nan)
    work_loss, work_grads = network_loss_and_grads(layers, feats, target, work=work)
    assert work_loss == loss == ref_loss
    for (w, b), (gw, gb), (rw, rb) in zip(work_grads, grads, ref_grads):
        assert _bits(w) == _bits(gw) == _bits(rw)
        assert _bits(b) == _bits(gb) == _bits(rb)
    # every intermediate went into the arrays of work, which it keeps
    assert all(np.all(np.isfinite(a)) for a in arrays)
    kept = [work.act_flat, work.mask_flat, *work.dhs, work.resid]
    assert all(a is b for a, b in zip(arrays, kept, strict=True))
    _, ref_acts = _ref_forward(layers, feats)
    for act, ref in zip(work.acts, ref_acts[1:]):
        assert np.shares_memory(act, work.act_flat)
        assert _bits(act) == _bits(ref)
    assert _bits(work.resid) == _bits(ref_acts[-1].ravel() - target)


def _assert_same_loss_and_grads(got, want):
    assert got[0] == want[0]
    for (w, b), (rw, rb) in zip(got[1], want[1], strict=True):
        assert _bits(w) == _bits(rw)
        assert _bits(b) == _bits(rb)


@pytest.mark.parametrize("bound", ["hidden", "out"])
def test_loss_and_grads_with_a_work_bound_elsewhere_give_the_unbound_result(bound):
    from dpls_iv.network import _LossWork

    feats, target, layers = _grad_check_layers(7, widths=(5, 3), n=12)
    out = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    work = _LossWork(layers, 12, out)
    if bound == "hidden":
        # the work binds layers; the call passes a perturbed copy of them
        other = [(w + 0.25, b - 0.5) for w, b in layers]
        call_out = out
    else:
        # the work binds out; the call passes other gradient arrays
        other = layers
        call_out = [(np.full_like(w, np.nan), np.full_like(b, np.nan)) for w, b in layers]
    want = network_loss_and_grads(other, feats, target)
    got = network_loss_and_grads(other, feats, target, out=call_out, work=work)
    assert got[1] is call_out
    _assert_same_loss_and_grads(got, want)
    _assert_same_loss_and_grads(got, _ref_network_loss_and_grads(other, feats, target))


def test_one_work_serves_every_batch_view():
    # sgd_refine binds one work per batch size and passes it with each
    # batch's view of the epoch buffers
    from dpls_iv.network import _LossWork

    feats, target, layers = _grad_check_layers(8, widths=(6,), n=20, d=9)
    out = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    work = _LossWork(layers, 8, out)
    for start in (0, 12, 4):
        batch = (feats[start:start + 8], target[start:start + 8])
        want = network_loss_and_grads(layers, *batch)
        got = network_loss_and_grads(layers, *batch, out=out, work=work)
        # a step work skips the batch loss, which sgd_refine never reads;
        # the gradients keep the unbound call's bits
        assert got[0] is None and got[1] is out
        for ref in (want, _ref_network_loss_and_grads(layers, *batch)):
            _assert_same_loss_and_grads((ref[0], got[1]), ref)


@pytest.mark.parametrize("feats_shape,target_shape,message", [
    ((10, 3), (9,), "target must be a vector with one entry per row"),
    ((10, 3), (10, 1), "target must be a vector with one entry per row"),
    ((10, 5), (10,), "features have 5 columns, the first layer takes 3"),
], ids=["short_target", "column_target", "wide_features"])
def test_loss_and_grads_reject_a_mismatched_batch(feats_shape, target_shape, message):
    _feats, _target, layers = _grad_check_layers(9, widths=(4,), n=10)
    feats, target = np.ones(feats_shape), np.ones(target_shape)
    with pytest.raises(DataError, match=message):
        network_loss_and_grads(layers, feats, target)


@pytest.mark.parametrize("shapes,message", [
    ([((3, 4), (4,)), ((5, 1), (1,))],
     r"layer 1 has weight shape \(5, 1\) and bias shape \(1,\): it must map the 4 values"),
    ([((3, 4), (2,)), ((4, 1), (1,))],
     r"layer 0 has weight shape \(3, 4\) and bias shape \(2,\): it must map the 3 values"),
    ([((3, 4), (4,)), ((4, 2), (2,))],
     r"layer 1 has weight shape \(4, 2\) and bias shape \(2,\).*the last layer to one"),
], ids=["weights_do_not_chain", "short_bias", "two_outputs"])
def test_loss_and_grads_reject_a_stack_that_does_not_chain(shapes, message):
    feats, target = np.ones((10, 3)), np.ones(10)
    layers = [(np.ones(w), np.ones(b)) for w, b in shapes]
    with pytest.raises(DataError, match=message):
        network_loss_and_grads(layers, feats, target)


@pytest.mark.parametrize("order", ["C", "F"])
def test_predict_matches_reference_forward(order):
    model, zbar, _p = _production_model((30,), n=3000)
    zbar = np.asarray(zbar, order=order)
    assert zbar.flags[order + "_CONTIGUOUS"]
    feats = (zbar - model.first_layer.means) @ model.first_layer.weights
    _, ref_acts = _ref_forward(model.hidden, feats)
    assert _bits(model.predict(zbar)) == _bits(ref_acts[-1].ravel())


def test_activation_mask_from_activations_matches_pre_activations():
    from dpls_iv.network import _activation_grad

    tiny = np.nextafter(0.0, -1.0)  # the negative subnormal nearest zero
    pre = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, tiny,
                    2.2250738585072014e-308, -2.2250738585072014e-308, -1e-310,
                    1.0, -1.0, 1e300, -1e300])
    act = _activate(pre.copy(), 0.0)
    assert _bits(act) == _bits(_ref_activation_apply(pre))
    # against a zeros floor laid out like the activations, as a bound work
    # and the per-epoch loss take it, bit for bit against np.maximum(pre, 0.0)
    for shape in ((15,), (3, 5), (5, 3)):
        floored = _activate(pre.reshape(shape).copy(), np.zeros(shape))
        assert _bits(floored.ravel()) == _bits(np.maximum(pre, 0.0))
    ref = _ref_activation_grad(pre)
    got = _activation_grad(act)
    assert _bits(np.asarray(got, dtype=np.float64)) == _bits(ref)
    # as a factor on signed and infinite upstream gradients too
    dh = np.array([-2.0, 3.0, -0.0, np.inf, -np.inf] * 3)
    with np.errstate(invalid="ignore"):  # inf * 0
        assert _bits(dh * got) == _bits(dh * ref)


@pytest.mark.parametrize("n,batch_size,epochs", [(50, 16, 3), (50, 64, 2), (7, 1, 2), (9, 3, 0)])
def test_sgd_takes_one_loss_and_grads_call_per_step(monkeypatch, n, batch_size, epochs):
    # perfbench counts SGD steps at this module global
    import dpls_iv.network as network

    calls = []
    real = network.network_loss_and_grads

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return real(*args, **kwargs)

    model, zbar, p = _initialized_model((3,), n=n)
    monkeypatch.setattr(network, "network_loss_and_grads", counting)
    sgd_refine(model, zbar, p, SgdParams(learning_rate=0.01, batch_size=batch_size,
                                         epochs=epochs, seed=0))
    assert len(calls) == epochs * -(-n // batch_size)
    assert sum(calls) == epochs * n


def test_bound_steps_allocate_no_array(monkeypatch):
    # every operand of a step and of its update is bound once per fit, so
    # from one step call to the next (a step, then its update) less than
    # one (batch, width) block is allocated. A broadcast bias add takes an
    # iterator buffer of up to 8,192 values on every call, a whole block at
    # 32 rows, so the batches here have 512 rows: 15,360 values a block
    import tracemalloc

    rows = 512
    model, zbar, p = _initialized_model((30,), n=rows * 101)
    real, peaks, mark = network.network_loss_and_grads, [], []

    def traced(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if mark:
            peaks.append(peak - mark[0])
        tracemalloc.reset_peak()
        mark[:] = [current]
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "_usable_cpus", lambda: 1)  # no loss helper
    monkeypatch.setattr(network, "network_loss_and_grads", traced)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        sgd_refine(model, zbar, p, SgdParams(batch_size=rows, epochs=1, seed=0))
    finally:
        if started:
            tracemalloc.stop()
    assert len(peaks) == 100
    assert max(peaks) < rows * 30 * 8


def test_sgd_refine_without_epochs_builds_no_step_work(monkeypatch):
    # epochs = 0 only takes the loss at the initialization, so no step
    # work is built, nor the epoch buffers and batch list that go with it
    model, zbar, p = _initialized_model((3,), n=50)
    built = []
    monkeypatch.setattr(network, "_LossWork", lambda *args: built.append(args))
    got = sgd_refine(model, zbar, p, SgdParams(epochs=0))
    assert built == [] and got.best_epoch == 0 and len(got.history) == 1


# ------------------------------------------------------------ loss helper
#
# sgd_refine computes each epoch's full-data loss in a forked helper once
# the process may use two CPUs and the loss passes a size threshold. These
# tests lower the threshold and fake two CPUs, so small fits take the helper
# path, and compare every result with the reference loop.

_forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")


def _open_fds():
    return set(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def helper(monkeypatch):
    """Force the loss helper on any fit; returns the list of helpers started
    (None for one the system refused)."""
    monkeypatch.setattr(network, "_LOSS_HELPER_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    original = network._LossHelper.start

    def recording(*args):
        started.append(original(*args))
        return started[-1]

    monkeypatch.setattr(network._LossHelper, "start", recording)
    return started


def _in_process(monkeypatch, call):
    """call() with the loss helper out of reach."""
    with monkeypatch.context() as m:
        m.setattr(network, "_LOSS_HELPER_CELLS", 2**62)
        return call()


_HELPER_CASES = {
    # the production shape: q = 9 features, 32-row batches, a ragged tail of 7
    "30": (lambda: _production_model((30,), n=2023), SgdParams(batch_size=32, epochs=3, seed=5)),
    "4_3_ragged": (lambda: _initialized_model((4, 3)),
                   SgdParams(learning_rate=0.02, batch_size=16, epochs=6, seed=3)),
    # the relu output unit dies in the first epoch
    "units_die": (lambda: _initialized_model((6,)),
                  SgdParams(learning_rate=0.2, batch_size=8, epochs=5, seed=0)),
}


@_forks
@pytest.mark.parametrize("case", sorted(_HELPER_CASES))
def test_loss_helper_matches_reference_loop_bit_for_bit(helper, case):
    build, params = _HELPER_CASES[case]
    model, zbar, p = build()
    fds = _open_fds()
    got = sgd_refine(model, zbar, p, params)
    assert len(helper) == 1 and helper[0] is not None
    _assert_same_refinement(got, _ref_sgd_refine(model, zbar, p, params), zbar)
    assert _open_fds() == fds
    _assert_no_child_left()


@_forks
def test_loss_helper_survives_an_ignored_sigchld(monkeypatch, helper):
    # a host that ignores SIGCHLD has the helper reaped by the kernel
    build, params = _HELPER_CASES["30"]
    model, zbar, p = build()
    expected = _in_process(monkeypatch, lambda: sgd_refine(model, zbar, p, params))
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        fds = _open_fds()
        got = sgd_refine(model, zbar, p, params)
        assert len(helper) == 1 and helper[0] is not None
        _assert_same_refinement(got, expected, zbar)
        assert _open_fds() == fds
        _assert_no_child_left()
    finally:
        signal.signal(signal.SIGCHLD, previous)


@_forks
def test_loss_helper_diverges_like_reference_loop(helper):
    model, zbar, p = _fixed_first_layer_model()
    fds = _open_fds()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as err:
            sgd_refine(model, zbar, p, _DIVERGING)
    assert helper[0] is not None
    assert str(err.value) == "SGD diverged at epoch 2; reduce learning_rate"
    assert _open_fds() == fds
    _assert_no_child_left()


_WARNING_CASES = {
    # the diverging fit above with every warning on: the steps overflow
    "diverging": (1.0, _DIVERGING, "overflow encountered in dot", 2),
    # a target this large overflows the squared residuals of every loss:
    # the helper raises on it, and the caller computes it again
    "overflowing_loss": (1e160, SgdParams(learning_rate=0.0, batch_size=16, epochs=3, seed=0),
                         "overflow encountered in square", 1),
}


@_forks
@pytest.mark.parametrize("case", sorted(_WARNING_CASES))
def test_loss_helper_warnings_reach_the_caller_as_in_process(monkeypatch, helper, case):
    # each warning surfaces in the caller, in the same order and from the
    # same line as when every loss is computed here
    scale, params, warning, epoch = _WARNING_CASES[case]
    model, zbar, p = _fixed_first_layer_model()
    p = p * scale

    def warnings_and_message():
        with pytest.warns(RuntimeWarning) as record:
            with pytest.raises(NumericalError) as err:
                sgd_refine(model, zbar, p, params)
        return [(w.category, str(w.message), w.filename, w.lineno) for w in record], str(err.value)

    expected = _in_process(monkeypatch, warnings_and_message)
    assert helper == []
    assert warnings_and_message() == expected
    assert helper[0] is not None
    assert warning in [message for _, message, _, _ in expected[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as ref:
            _ref_sgd_refine(model, zbar, p, params)
    assert expected[1] == str(ref.value) == f"SGD diverged at epoch {epoch}; reduce learning_rate"
    _assert_no_child_left()


@_forks
def test_loss_helper_replays_the_steps_of_an_epoch_that_warns(monkeypatch, helper):
    # a step that warns while a loss is in the helper makes that epoch's
    # steps run again from the epoch's start once the loss is taken: the
    # warning surfaces once, after that loss, and theta keeps its bits
    model, zbar, p = _initialized_model((4, 3))
    params = SgdParams(learning_rate=0.02, batch_size=16, epochs=6, seed=3)
    batches, real = [], network.network_loss_and_grads

    def recording(hidden, feats, target, **kwargs):
        batches.append(target.tobytes())
        return real(hidden, feats, target, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(network, "network_loss_and_grads", recording)
        _in_process(m, lambda: sgd_refine(model, zbar, p, params))
    flagged = batches[9]  # the second step of epoch 3

    def overflows_on_the_flagged_batch(hidden, feats, target, **kwargs):
        if target.tobytes() == flagged:
            np.multiply(np.float64(1e308), 10.0)
        return real(hidden, feats, target, **kwargs)

    monkeypatch.setattr(network, "network_loss_and_grads", overflows_on_the_flagged_batch)
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply") as record:
        got = sgd_refine(model, zbar, p, params)
    assert len(record) == 1 and helper[0] is not None
    _assert_same_refinement(got, _ref_sgd_refine(model, zbar, p, params), zbar)
    _assert_no_child_left()


@_forks
def test_loss_helper_killed_mid_fit_leaves_the_losses_to_the_caller(monkeypatch, helper):
    model, zbar, p = _initialized_model((4, 3))
    params = SgdParams(learning_rate=0.02, batch_size=16, epochs=6, seed=3)
    parent, calls, original = os.getpid(), [], network._train_loss

    def dies_on_the_third_loss(*args):
        if os.getpid() != parent:
            calls.append(1)  # counts in the helper's own memory
            if len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
        else:
            calls.append(0)
        return original(*args)

    monkeypatch.setattr(network, "_train_loss", dies_on_the_third_loss)
    fds = _open_fds()
    got = sgd_refine(model, zbar, p, params)
    assert helper[0] is not None
    assert calls == [0] * 5  # epochs 2-6 were computed here
    _assert_same_refinement(got, _ref_sgd_refine(model, zbar, p, params), zbar)
    assert _open_fds() == fds
    _assert_no_child_left()


class _OneRequest:
    """A request reader that ends after the first theta."""

    def __init__(self, file):
        self.file, self.reads = file, 0

    def readinto(self, buf):
        self.reads += 1
        return self.file.readinto(buf) if self.reads == 1 else 0


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="waits for the helper to leave")
def test_loss_helper_gone_before_a_send_leaves_the_losses_to_the_caller(monkeypatch, helper):
    # the helper answers epoch 0 and leaves; the caller sees it gone when it
    # sends epoch 1's theta into the closed pipe
    model, zbar, p = _initialized_model((4, 3))
    params = SgdParams(learning_rate=0.02, batch_size=16, epochs=6, seed=3)
    serve, receive = network._serve_losses, network._LossHelper.receive

    def serve_one(hidden, feats, p, requests, replies):
        serve(hidden, feats, p, (_OneRequest(requests[0]), requests[1]), replies)

    def receive_then_wait(self):
        loss = receive(self)
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # the helper has left
        return loss

    monkeypatch.setattr(network, "_serve_losses", serve_one)
    monkeypatch.setattr(network._LossHelper, "receive", receive_then_wait)
    sends = []
    send = network._LossHelper.send
    monkeypatch.setattr(network._LossHelper, "send",
                        lambda self, theta: sends.append(send(self, theta)) or sends[-1])
    fds = _open_fds()
    got = sgd_refine(model, zbar, p, params)
    assert sends == [True, False]
    _assert_same_refinement(got, _ref_sgd_refine(model, zbar, p, params), zbar)
    assert _open_fds() == fds
    _assert_no_child_left()


def _refuse(*args, **kwargs):
    raise BlockingIOError(11, "Resource temporarily unavailable")


@_forks
@pytest.mark.parametrize("refused", ["fork", "pipe"])
def test_loss_helper_refused_leaves_the_losses_to_the_caller(monkeypatch, helper, refused):
    model, zbar, p = _initialized_model((4, 3))
    params = SgdParams(learning_rate=0.02, batch_size=16, epochs=6, seed=3)
    monkeypatch.setattr(os, refused, _refuse)
    fds = _open_fds()
    got = sgd_refine(model, zbar, p, params)
    assert helper == [None]
    _assert_same_refinement(got, _ref_sgd_refine(model, zbar, p, params), zbar)
    assert _open_fds() == fds
    _assert_no_child_left()


@_forks
def test_loss_helper_is_gone_after_an_interrupt(monkeypatch, helper):
    model, zbar, p = _initialized_model((4, 3))
    calls, real = [], network.network_loss_and_grads

    def interrupted(*args, **kwargs):
        calls.append(1)
        if len(calls) == 10:  # in epoch 3, with epoch 2's loss in the helper
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "network_loss_and_grads", interrupted)
    fds = _open_fds()
    with pytest.raises(KeyboardInterrupt):
        sgd_refine(model, zbar, p, SgdParams(learning_rate=0.02, batch_size=16, epochs=6))
    assert helper[0] is not None
    assert _open_fds() == fds
    _assert_no_child_left()


def test_loss_helper_needs_two_cpus_and_an_epoch(monkeypatch, helper):
    model, zbar, p = _initialized_model((4, 3))
    sgd_refine(model, zbar, p, SgdParams(epochs=0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    sgd_refine(model, zbar, p, SgdParams(epochs=2))
    assert helper == []


@pytest.mark.parametrize("rows", [59, 61, (60, 1)], ids=["short", "long", "column"])
def test_sgd_refine_checks_the_design_before_any_work(helper, rows):
    model, _zbar, _p = _initialized_model((4, 3), n=60)
    zbar = SeededRng(3).normal(size=(60, 4))
    p = np.zeros(rows)
    with pytest.raises(DataError, match="target must be a vector with one entry per row"):
        sgd_refine(model, zbar, p, SgdParams(epochs=2))
    assert helper == []  # refused before any fork
