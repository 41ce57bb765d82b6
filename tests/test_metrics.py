import numpy as np
import pytest

from dpls_iv import (
    DataError,
    DegenerateDataError,
    r_squared,
    rmse,
)


def test_perfect_fit():
    a = np.array([1.0, 2.0, 3.0])
    assert r_squared(a, a) == 1.0
    assert rmse(a, a) == 0.0


def test_null_model_scores_zero():
    a = np.array([1.0, 2.0, 3.0, 6.0])
    pred = np.full(4, a.mean())
    assert r_squared(a, pred) == pytest.approx(0.0, abs=1e-12)


def test_rmse_hand_value():
    assert rmse(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == 1.0


def test_r_squared_rejects_constant_actual():
    with pytest.raises(DegenerateDataError):
        r_squared(np.ones(5), np.arange(5.0))


def test_length_validation():
    with pytest.raises(DataError):
        rmse(np.ones(3), np.ones(4))
    with pytest.raises(DataError):
        r_squared(np.ones(1), np.ones(1))


def test_metrics_invariant_under_joint_permutation():
    rng = np.random.default_rng(0)
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    perm = rng.permutation(30)
    assert r_squared(a, b) == pytest.approx(r_squared(a[perm], b[perm]), abs=1e-14)
    assert rmse(a, b) == pytest.approx(rmse(a[perm], b[perm]), abs=1e-14)

