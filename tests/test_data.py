import numpy as np
import pytest

from dpls_iv import (
    DataError,
    Dataset,
    SeededRng,
    augment_instruments,
    split_dataset,
    split_indices,
)


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
