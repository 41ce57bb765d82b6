import numpy as np
import pytest

from dpls_iv import DataError
from dpls_iv.pls import sample_cov_pair


def test_cov_pair_two_point_example():
    # centered column (1, -1) has sample variance 2 with the n-1 divisor
    cov = sample_cov_pair(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    np.testing.assert_allclose(cov.s_zz, [[2.0]])
    np.testing.assert_allclose(cov.s_zp, [2.0])


def test_cov_pair_matches_numpy_cov():
    rng = np.random.default_rng(0)
    zbar = rng.normal(size=(40, 3))
    p = rng.normal(size=40)
    cov = sample_cov_pair(zbar, p)
    full = np.cov(np.column_stack([zbar, p]).T)
    np.testing.assert_allclose(cov.s_zz, full[:3, :3], atol=1e-12)
    np.testing.assert_allclose(cov.s_zp, full[:3, 3], atol=1e-12)
    np.testing.assert_allclose(cov.means, zbar.mean(axis=0))
    assert cov.p_mean == pytest.approx(p.mean())


def test_cov_pair_is_symmetric():
    rng = np.random.default_rng(1)
    cov = sample_cov_pair(rng.normal(size=(30, 5)), rng.normal(size=30))
    np.testing.assert_array_equal(cov.s_zz, cov.s_zz.T)


def test_cov_pair_needs_two_rows():
    with pytest.raises(DataError):
        sample_cov_pair(np.ones((1, 2)), np.ones(1))


def test_cov_pair_rejects_misaligned_p():
    with pytest.raises(DataError):
        sample_cov_pair(np.ones((4, 2)), np.ones(3))

