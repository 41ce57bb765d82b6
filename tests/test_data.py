import os
import re
import signal
import tempfile
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpls_iv import (
    ControlFunctionFit,
    DataError,
    Dataset,
    DplsConfig,
    DplsIvFit,
    DplsModel,
    ExperimentConfig,
    LinearFit,
    PlsFit,
    SeededRng,
    SgdParams,
    TobitGmmFit,
    augment_instruments,
    dpls_fit,
    experiment1_spec,
    fit_ols,
    fit_pls_closed_form,
    identity_constants,
    sample_posterior,
    select_q_cv,
    split_dataset,
)
from dpls_iv import data
from dpls_iv.data import part_bounds, split_indices


def test_seeded_rng_same_seed_same_stream():
    a = SeededRng(42).normal(size=16)
    b = SeededRng(42).normal(size=16)
    np.testing.assert_array_equal(a, b)


def test_seeded_rng_children_are_independent_streams():
    root = SeededRng(7)
    a = root.child(0).normal(size=32)
    b = root.child(1).normal(size=32)
    c = SeededRng(7).child(0).normal(size=32)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_seeded_rng_nested_child_path():
    a = SeededRng(3).child(1).child(2).normal(size=8)
    b = SeededRng(3).child(1, 2).normal(size=8)
    np.testing.assert_array_equal(a, b)


def test_seeded_rng_rejects_negative_seed():
    with pytest.raises(DataError):
        SeededRng(-1)


@pytest.mark.parametrize("build", [lambda: SeededRng(0, (-1,)), lambda: SeededRng(0, (2, -3)),
                                   lambda: SeededRng(0).child(-1),
                                   lambda: SeededRng(0).child(1).child(0, -2)],
                         ids=["path", "path_inner", "child", "child_nested"])
def test_seeded_rng_rejects_a_negative_path_tag_at_construction(build):
    # numpy's SeedSequence would refuse it only at the first draw, with a bare ValueError
    with pytest.raises(DataError, match="^path tags must be non-negative integers, got "):
        build()


def _tiny_dataset(n=8, m=2, k=1):
    rng = SeededRng(0)
    return Dataset(
        y=rng.child(0).normal(size=n),
        p=rng.child(1).normal(size=n),
        z=rng.child(2).normal(size=(n, m)),
        x=rng.child(3).normal(size=(n, k)),
    )


def test_dataset_shape_properties():
    ds = _tiny_dataset(n=8, m=2, k=1)
    assert (ds.n, ds.m, ds.k) == (8, 2, 1)


def test_dataset_rejects_row_mismatch():
    ds = _tiny_dataset()
    with pytest.raises(DataError, match="row counts differ"):
        Dataset(y=ds.y[:-1], p=ds.p, z=ds.z, x=ds.x)


def test_dataset_rejects_wide_design():
    rng = SeededRng(1)
    with pytest.raises(DataError, match="must be < n"):
        Dataset(
            y=rng.child(0).normal(size=5),
            p=rng.child(1).normal(size=5),
            z=rng.child(2).normal(size=(5, 4)),
            x=rng.child(3).normal(size=(5, 1)),
        )


def test_dataset_rejects_non_finite():
    ds = _tiny_dataset()
    y = ds.y.copy()
    y[0] = np.nan
    with pytest.raises(DataError):
        Dataset(y=y, p=ds.p, z=ds.z, x=ds.x)


def test_dataset_allows_empty_covariates():
    rng = SeededRng(2)
    ds = Dataset(
        y=rng.child(0).normal(size=6),
        p=rng.child(1).normal(size=6),
        z=rng.child(2).normal(size=(6, 2)),
        x=np.empty(0),
    )
    assert ds.x.shape == (6, 0)


def test_augment_concatenates_instruments_first():
    zbar = augment_instruments(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(zbar, [[1.0, 3.0], [2.0, 4.0]])


def test_augment_empty_covariates():
    z = np.array([[1.0, 2.0], [3.0, 4.0]])
    zbar = augment_instruments(z, np.empty(0))
    np.testing.assert_array_equal(zbar, z)


def test_augment_rejects_row_mismatch():
    with pytest.raises(DataError, match="row counts differ"):
        augment_instruments(np.ones((3, 1)), np.ones((2, 1)))


def test_augment_rejects_non_finite_entries():
    with pytest.raises(DataError, match="non-finite"):
        augment_instruments(np.array([[1.0], [np.inf]]), np.ones((2, 1)))


def test_split_indices_partition_and_size():
    train, test = split_indices(20, 0.25, SeededRng(5))
    assert len(test) == 5 and len(train) == 15
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
    joined = np.sort(np.concatenate([train, test]))
    np.testing.assert_array_equal(joined, np.arange(20))


def test_split_indices_deterministic():
    a_train, a_test = split_indices(50, 0.5, SeededRng(9))
    b_train, b_test = split_indices(50, 0.5, SeededRng(9))
    np.testing.assert_array_equal(a_train, b_train)
    np.testing.assert_array_equal(a_test, b_test)


def test_split_indices_fraction_bounds():
    for frac in (0.0, 1.0, -0.2):
        with pytest.raises(DataError):
            split_indices(10, frac, SeededRng(0))


def test_split_dataset_round_trips_rows():
    ds = _tiny_dataset(n=16, m=2, k=1)
    train, test = split_dataset(ds, 0.25, SeededRng(4))
    assert train.n + test.n == ds.n
    # every test row must appear verbatim in the original
    for i in range(test.n):
        assert np.any(np.all(ds.z == test.z[i], axis=1))


def test_split_dataset_refuses_unidentified_partition():
    # 9 design columns cannot be identified from a 5-row half split
    rng = SeededRng(6)
    ds = Dataset(
        y=rng.child(0).normal(size=10),
        p=rng.child(1).normal(size=10),
        z=rng.child(2).normal(size=(10, 9)),
        x=np.empty(0),
    )
    with pytest.raises(DataError, match="violates m \\+ k < n"):
        split_dataset(ds, 0.5, SeededRng(1))


_GMM = TobitGmmFit(beta=np.zeros(2), sigma_star_matrix=np.eye(2), corrected_matrix=np.eye(2))


def _iv_fit(**fields):
    """A DplsIvFit with an OLS first stage, a gmm stage and the given fields."""
    values = dict(censored=True, first_stage=LinearFit(np.ones(1), 0.0, "ols"),
                  constants=identity_constants(), n_train=30, gmm=_GMM)
    return DplsIvFit(**{**values, **fields})

# (field named in the error, constructor of one value, a legal value)
_INTEGER_FIELDS = [
    ("layer_widths[1]", lambda v: DplsConfig(layer_widths=(4, v)), 3),
    ("first_layer_q", lambda v: DplsConfig(first_layer_q=v), 2),
    ("seed", lambda v: SgdParams(seed=v), 7),
    ("seed", lambda v: SeededRng(v), 7),
    ("path tag", lambda v: SeededRng(0, (1, v)), 7),
    ("path tag", lambda v: SeededRng(0).child(v), 7),
    ("n", lambda v: experiment1_spec(n=v), 300),
    ("m", lambda v: experiment1_spec(m=v), 12),
    ("m_redundant", lambda v: experiment1_spec(m_redundant=v), 3),
    ("k", lambda v: experiment1_spec(k=v), 21),
    ("k_null", lambda v: experiment1_spec(k_null=v), 3),
    ("coef_seed", lambda v: experiment1_spec(coef_seed=v), 3),
    ("edges_per_node", lambda v: experiment1_spec(edges_per_node=v), 3),
    ("replications", lambda v: ExperimentConfig(replications=v), 2),
    ("base_seed", lambda v: ExperimentConfig(base_seed=v), 2),
    ("jobs", lambda v: ExperimentConfig(jobs=v), 2),
    ("n", lambda v: sample_posterior(_GMM, v, 4, SeededRng(0)), 30),
    ("draws", lambda v: sample_posterior(_GMM, 30, v, SeededRng(0)), 4),
    ("n_train", lambda v: _iv_fit(n_train=v), 30),
]
_IDS = [f"{i}-{field}" for i, (field, _, _) in enumerate(_INTEGER_FIELDS)]


@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(2.0), "3"])
@pytest.mark.parametrize("field, build, legal", _INTEGER_FIELDS, ids=_IDS)
def test_integer_settings_reject_bools_and_non_integral_values(field, build, legal, value):
    with pytest.raises(DataError, match=f"^{re.escape(field)} must be an integer, got "
                                        f"{re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("field, build, legal", _INTEGER_FIELDS, ids=_IDS)
def test_integer_settings_accept_numpy_integers(field, build, legal):
    build(np.int64(legal))
    build(np.int32(legal))


def test_integer_settings_are_stored_as_ints():
    cfg = DplsConfig(layer_widths=(np.int64(3),), first_layer_q=np.int32(2))
    assert type(cfg.layer_widths[0]) is int and type(cfg.first_layer_q) is int
    rng = SeededRng(np.int64(4)).child(np.int32(1))
    assert type(rng.seed) is int and all(type(t) is int for t in rng.path)
    assert type(_iv_fit(n_train=np.int64(30)).n_train) is int


_PLS = dict(y_loadings=np.ones(2), weights=np.ones((3, 2)), means=np.zeros(3), p_mean=0.0)


def _network(*weight_shapes, **fields):
    """A DplsModel on _PLS whose layers have these weight shapes."""
    hidden = tuple((np.ones(shape), np.ones(shape[-1])) for shape in weight_shapes)
    return DplsModel(first_layer=PlsFit(**_PLS), hidden=hidden, **fields)


# (a fit whose fields do not fit together, the reason it is refused with)
_MALFORMED_FITS = {
    "pls_means": (lambda: PlsFit(**{**_PLS, "means": np.zeros(4)}),
                  "PLS weights (3, 2), means (4,) and y_loadings (2,) do not fit together"),
    "network_no_layers": (lambda: _network(), "a network needs at least one trainable layer"),
    "network_two_outputs": (lambda: _network((2, 3), (3, 2)),
                            "layer 1 has weight shape (3, 2) and bias shape (2,): it must map "
                            "the 3 values below it to k values with a length-k bias, and the "
                            "last layer to one"),
    "network_first_layer": (lambda: _network((3, 1)),
                            "features have 2 columns, the first layer takes 3"),
    "network_history_bool": (lambda: _network((2, 1), history=(1.0, True)),
                             "network history must be an array of numbers"),
    "network_best_epoch_past_history": (
        lambda: _network((2, 1), history=(1.0, 0.5), best_epoch=2),
        "network best_epoch must be null or an integer in [0, 2), got 2"),
    "gmm_covariances": (lambda: TobitGmmFit(np.zeros(2), np.eye(3), np.eye(3)),
                        "gmm beta (2,) and covariances (3, 3) and (3, 3) do not fit together"),
    "linear_coef_matrix": (lambda: LinearFit(np.ones((3, 1)), 0.0, "ols"),
                           "linear coef must be a vector, got shape (3, 1)"),
    "cf_beta_x_column": (lambda: ControlFunctionFit(1.0, 0.0, np.ones((2, 1))),
                         "cf beta_x must be a vector, got shape (2, 1)"),
    "censored_string": (lambda: _iv_fit(censored="yes"),
                        "censored must be true or false, got 'yes'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_FITS))
def test_a_fitted_type_refuses_fields_that_do_not_fit_together(case):
    build, reason = _MALFORMED_FITS[case]
    with pytest.raises(DataError, match=f"^{re.escape(reason)}$"):
        build()


def test_a_fitted_type_keeps_its_fields_in_their_plain_types():
    assert _iv_fit(censored=np.bool_(False)).censored is False
    model = _network((2, 1), history=[np.float64(2.0), 1], best_epoch=1)
    assert model.history == (2.0, 1.0) and all(type(v) is float for v in model.history)


def test_every_first_stage_refuses_another_width_with_one_message():
    rng = SeededRng(5)
    zbar, p = rng.child(0).normal(size=(40, 4)), rng.child(1).normal(size=40)
    cfg = DplsConfig(layer_widths=(3,), first_layer_q=2, sgd=SgdParams(epochs=0))
    for first in (fit_ols(zbar, p), fit_pls_closed_form(zbar, p, 2), dpls_fit(zbar, p, cfg)):
        first.predict(zbar)
        with pytest.raises(DataError, match="^fit expects 4 design columns, data has 3$"):
            first.predict(zbar[:, :3])
        with pytest.raises(DataError, match=re.escape("data has shape (40,)")):
            first.predict(zbar[:, 0])


@pytest.mark.parametrize("bad, phrase", [
    (lambda zbar, p: (zbar, p[:-1]), "one entry per row"),
    (lambda zbar, p: (zbar[:, 0], p), "must be a matrix"),
    (lambda zbar, p: (zbar[:, :0], p), "must be a matrix"),
], ids=["short_target", "vector_design", "no_columns"])
def test_every_design_stage_rejects_a_bad_pair_with_one_message(bad, phrase):
    rng = SeededRng(5)
    zbar, p = bad(rng.child(0).normal(size=(40, 4)), rng.child(1).normal(size=40))
    cfg = DplsConfig(layer_widths=(3,), sgd=SgdParams(epochs=0))
    messages = set()
    for fit in (
        lambda: dpls_fit(zbar, p, cfg),
        lambda: fit_ols(zbar, p),
        lambda: select_q_cv(zbar, p, 3, SeededRng(0)),
    ):
        with pytest.raises(DataError, match=phrase) as err:
            fit()
        messages.add(str(err.value))
    assert len(messages) == 1


@given(rows=st.integers(0, 10**6), work=st.integers(0, 10**9),
       part_min=st.integers(1, 10**6), cpus=st.integers(1, 64))
def test_part_bounds_give_no_more_parts_than_cpus_rows_or_part_min_allow(
        rows, work, part_min, cpus):
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
        bounds = part_bounds(rows, work, part_min)
    assert bounds[0] == 0 and bounds[-1] == rows
    parts = len(bounds) - 1
    if rows == 0:
        assert parts == 1  # one empty part: the caller still runs once
    else:
        assert all(a < b for a, b in zip(bounds, bounds[1:]))  # no part is empty
        assert 1 <= parts <= min(cpus, rows, max(1, work // part_min))


@pytest.mark.parametrize("cpus, workers, share", [(2, 2, 1), (8, 3, 2), (1, 4, 1), (4, 1, 4)])
def test_a_part_child_uses_its_share_of_the_cpus(monkeypatch, cpus, workers, share):
    monkeypatch.setattr(data, "_cpu_share", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    data._share_cpus(workers)
    assert data._usable_cpus() == share
    assert len(part_bounds(100, 100, 1)) - 1 == share


# ------------------------------------------------------------ forked parts

_forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="parts are forked")
_BOUNDS = [0, 2, 3, 6, 7]


def _open_fds():
    return set(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cells(start, stop):
    return np.arange(start, stop) / 3.0


def _send_range(start, stop, spill):
    data._send_cells(spill, _cells(start, stop))


def _run_parts(work, bounds=_BOUNDS):
    """(start, stop, the bytes of the cells received or None) of each part,
    in the order the runner yields them."""
    got = []
    with data._Children() as children:
        for start, stop, spill in children.parts(bounds, work):
            cells = None
            if spill is not None:
                cells = np.empty(stop - start)
                assert data._receive_cells(spill, cells)
                assert spill.read() == b""  # nothing sent past the cells, no end mark
                cells = cells.tobytes()
            got.append((start, stop, cells))
    return got


# every part but part 0, the caller's, back from its child with its cells
_EVERY_CHILDS_PART = [(0, 2, None)] + [
    (start, stop, _cells(start, stop).tobytes()) for start, stop in zip(_BOUNDS[1:], _BOUNDS[2:])]


@_forks
def test_parts_come_back_in_order_with_their_cells():
    fds = _open_fds()
    assert _run_parts(_send_range) == _EVERY_CHILDS_PART
    assert _run_parts(_send_range, [0, 5]) == [(0, 5, None)]  # one part forks nothing
    assert _open_fds() == fds
    _assert_no_child_left()


def _refuse(*args, **kwargs):
    raise BlockingIOError(11, "Resource temporarily unavailable")


@_forks
@pytest.mark.parametrize("failure", ["raised", "killed", "exited", "fork", "spill"])
def test_a_part_whose_child_failed_or_was_refused_comes_back_none(monkeypatch, failure):
    def work(start, stop, spill):
        _send_range(start, stop, spill)
        spill.flush()  # the whole result is in the spill, but not the end mark
        if start == 3 and failure == "raised":
            raise ValueError("part failed")
        if start == 3 and failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if start == 3 and failure == "exited":
            os._exit(0)

    if failure == "fork":
        monkeypatch.setattr(os, "fork", _refuse)
    elif failure == "spill":
        monkeypatch.setattr(tempfile, "TemporaryFile", _refuse)
    fds = _open_fds()
    got = _run_parts(work)
    assert [(start, stop) for start, stop, _ in got] == list(zip(_BOUNDS, _BOUNDS[1:]))
    none = [start for start, _, cells in got if cells is None]
    assert none == ([0, 3] if failure in ("raised", "killed", "exited") else _BOUNDS[:-1])
    assert _open_fds() == fds
    _assert_no_child_left()


def _warns(start, stop, spill):
    warnings.warn("a child's warning", UserWarning)
    _send_range(start, stop, spill)


def _overflows(start, stop, spill):
    np.float64(1e308) * np.float64(10.0)
    _send_range(start, stop, spill)


@_forks
@pytest.mark.parametrize("work", [_warns, _overflows], ids=["warning", "floating_point"])
def test_a_childs_warning_or_floating_point_error_ends_it(work):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the caller's own filters do not reach the child
        assert [cells for _, _, cells in _run_parts(work)] == [None] * 4
    with np.errstate(over="ignore"):  # an error the caller ignores is not raised
        assert [cells is None for _, _, cells in _run_parts(_overflows)] == [True] + [False] * 3
    _assert_no_child_left()


@_forks
def test_returning_from_inside_the_loop_leaves_no_child_or_file():
    def first_part():
        with data._Children() as children:
            for start, stop, spill in children.parts(_BOUNDS, lambda *args: time.sleep(60)):
                return start, stop, spill

    fds = _open_fds()
    assert first_part() == (0, 2, None)
    assert _open_fds() == fds
    _assert_no_child_left()


@_forks
def test_parts_survive_an_ignored_sigchld():
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        fds = _open_fds()
        assert _run_parts(_send_range) == _EVERY_CHILDS_PART  # no status is read
        with data._Children() as children:  # one left running is killed, one gone is skipped
            children.fork(time.sleep, 60)
            children.fork(int)
            time.sleep(0.05)
        assert _open_fds() == fds
        _assert_no_child_left()
    finally:
        signal.signal(signal.SIGCHLD, previous)
