import numpy as np
import pytest
from scipy.special import expit

from dpls_iv import (
    DataError,
    NumericalError,
    SeededRng,
    SyntheticSpec,
    distance_to_cov,
    experiment1_spec,
    experiment2_spec,
    gen_experiment1,
    gen_experiment2,
    gen_preferential_attachment,
    shortest_path_matrix,
)
from dpls_iv.synthetic import InstrumentGraph


def _edges(graph):
    """The graph's edges (i, j), i < j, read off its adjacency matrix."""
    i, j = np.nonzero(np.triu(graph.adjacency))
    return frozenset(zip(i.tolist(), j.tolist()))


def test_spec_validation():
    for n in (-5, 0):
        with pytest.raises(DataError, match=rf"^n = {n} must be at least 1$"):
            SyntheticSpec(n=n)
    assert SyntheticSpec(n=1).n == 1
    with pytest.raises(DataError, match=r"^m_redundant = 6 must lie in \[0, m = 5\]$"):
        SyntheticSpec(m=5, m_redundant=6)
    with pytest.raises(DataError, match=r"^k_null = 4 must lie in \[0, k = 3\]$"):
        SyntheticSpec(k=3, k_null=4)
    with pytest.raises(DataError, match=r"^k_null = -1 must lie in \[0, k = 25\]$"):
        SyntheticSpec(k_null=-1)
    # no covariates needs k_null = 0 as well: its default is 20
    with pytest.raises(DataError, match=r"^k_null = 20 must lie in \[0, k = 0\]$"):
        SyntheticSpec(k=0)
    assert SyntheticSpec(k=0, k_null=0).k == 0
    with pytest.raises(DataError):
        SyntheticSpec(sigma_joint=((1.0, 0.5), (0.4, 1.0)))
    with pytest.raises(DataError):
        SyntheticSpec(sigma_joint=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(DataError):
        SyntheticSpec(sigma_eps=-0.1)
    with pytest.raises(DataError):
        SyntheticSpec(cov_mode="toeplitz")
    # the instrument covariance must be positive definite, never jittered
    for cov_param in (1.0, 1.5, -0.5, -0.03):  # m = 50 needs cov_param > -1/49
        with pytest.raises(DataError, match="cov_param"):
            SyntheticSpec(cov_param=cov_param)
    for cov_param in (0.0, 1.0, -0.1):
        with pytest.raises(DataError, match="cov_param"):
            SyntheticSpec(cov_mode="network", cov_param=cov_param)


@pytest.mark.parametrize("sigma_eps", [float("nan"), float("inf")])
def test_spec_rejects_a_non_finite_sigma_eps(sigma_eps):
    with pytest.raises(DataError, match="sigma_eps must be finite and non-negative"):
        SyntheticSpec(sigma_eps=sigma_eps)


def test_valid_cov_param_too_close_to_singular_is_a_numerical_error():
    spec = SyntheticSpec(n=20, m=10, m_redundant=0, k=1, k_null=0,
                         cov_param=np.nextafter(1.0, 0.0))
    with pytest.raises(NumericalError, match="not positive definite"):
        gen_experiment1(spec, SeededRng(0))


def test_experiment1_defaults_match_design_table():
    spec = experiment1_spec()
    assert (spec.n, spec.m, spec.m_redundant, spec.k, spec.k_null) == (
        1000, 50, 10, 25, 20
    )
    sj = np.asarray(spec.sigma_joint)
    np.testing.assert_allclose(sj, [[3.000, -0.087], [-0.087, 0.010]])
    assert (spec.sigma_eps, spec.cov_mode, spec.cov_param, spec.coef_seed) == (
        0.5, "near_diagonal", 0.001, 28
    )
    spec2 = experiment2_spec()
    assert (spec2.n, spec2.m, spec2.m_redundant, spec2.k, spec2.k_null) == (
        1000, 50, 10, 25, 20
    )
    assert (spec2.cov_mode, spec2.cov_param, spec2.edges_per_node,
            spec2.coef_seed) == ("network", 0.7, 2, 28)


def test_noiseless_identity_generator_is_deterministic_arithmetic():
    spec = SyntheticSpec(
        n=50, m=4, m_redundant=1, k=2, k_null=1,
        sigma_joint=((0.0, 0.0), (0.0, 0.0)), sigma_eps=0.0,
        activation_g=False, activation_f=False, coef_seed=5,
    )
    ds, truth = gen_experiment1(spec, SeededRng(0))
    np.testing.assert_array_equal(truth.w, np.zeros(50))
    np.testing.assert_array_equal(truth.eps, np.zeros(50))
    rebuilt_p = ds.z @ truth.alpha + expit(ds.z**2) @ truth.gamma + ds.x @ truth.alpha_x
    np.testing.assert_array_equal(ds.p, rebuilt_p)
    rebuilt_y = ds.p * truth.beta + ds.x @ truth.beta_x
    np.testing.assert_array_equal(ds.y, rebuilt_y)


def test_truth_record_recomputes_data_exactly():
    spec = SyntheticSpec(n=300, m=10, m_redundant=3, k=5, k_null=2, coef_seed=7)
    ds, truth = gen_experiment1(spec, SeededRng(1))
    index = ds.z @ truth.alpha + expit(ds.z**2) @ truth.gamma + ds.x @ truth.alpha_x
    np.testing.assert_allclose(index, truth.treat_index, atol=1e-12)
    np.testing.assert_array_equal(ds.p, np.maximum(truth.treat_index, 0.0) + truth.w)
    out = ds.p * truth.beta + ds.x @ truth.beta_x + truth.xi
    np.testing.assert_allclose(out, truth.out_index, atol=1e-12)
    np.testing.assert_array_equal(ds.y, np.maximum(truth.out_index, 0.0) + truth.eps)


def test_trailing_coefficients_are_zeroed():
    spec = SyntheticSpec(n=100, m=8, m_redundant=3, k=5, k_null=2, coef_seed=9)
    _, truth = gen_experiment1(spec, SeededRng(2))
    np.testing.assert_array_equal(truth.alpha[-3:], np.zeros(3))
    assert np.all(truth.alpha[:-3] != 0.0)
    np.testing.assert_array_equal(truth.beta_x[-2:], np.zeros(2))


def test_joint_noise_moments_match_sigma():
    spec = SyntheticSpec(n=100000, m=2, m_redundant=0, k=1, k_null=0, coef_seed=0)
    _, truth = gen_experiment1(spec, SeededRng(4))
    emp = np.cov(truth.w, truth.xi)
    # the treatment noise w takes the small-variance margin
    assert emp[0, 0] == pytest.approx(0.010, rel=0.05)
    assert emp[1, 1] == pytest.approx(3.000, rel=0.05)
    assert emp[0, 1] == pytest.approx(-0.087, rel=0.05)


def test_same_seed_reproduces_dataset():
    spec = SyntheticSpec(n=80, m=5, m_redundant=0, k=2, k_null=0, coef_seed=1)
    a, _ = gen_experiment1(spec, SeededRng(5))
    b, _ = gen_experiment1(spec, SeededRng(5))
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.z, b.z)


def test_new_seed_changes_data_not_structure():
    spec = SyntheticSpec(n=80, m=5, m_redundant=0, k=2, k_null=0, coef_seed=1)
    a, ta = gen_experiment1(spec, SeededRng(6))
    b, tb = gen_experiment1(spec, SeededRng(7))
    assert not np.array_equal(a.y, b.y)
    np.testing.assert_array_equal(ta.alpha, tb.alpha)
    np.testing.assert_array_equal(ta.beta_x, tb.beta_x)


def test_generator_mode_guards():
    with pytest.raises(DataError, match="near_diagonal"):
        gen_experiment1(experiment2_spec(), SeededRng(0))
    with pytest.raises(DataError, match="network"):
        gen_experiment2(experiment1_spec(), SeededRng(0))


def test_preferential_attachment_tree():
    g = gen_preferential_attachment(3, 1, SeededRng(0))
    assert len(_edges(g)) == 2
    assert g.n_nodes == 3


def test_preferential_attachment_precondition():
    with pytest.raises(DataError):
        gen_preferential_attachment(2, 2, SeededRng(0))
    with pytest.raises(DataError):
        gen_preferential_attachment(5, 0, SeededRng(0))


def test_preferential_attachment_heavy_tail():
    hits = 0
    for s in range(10):
        g = gen_preferential_attachment(100, 2, SeededRng(s))
        deg = g.degrees
        hits += deg.max() >= 3.0 * np.median(deg)
    assert hits >= 8


def test_preferential_attachment_same_seed_same_edges():
    a = gen_preferential_attachment(40, 2, SeededRng(11))
    b = gen_preferential_attachment(40, 2, SeededRng(11))
    assert _edges(a) == _edges(b)


def test_graph_rejects_disconnected_adjacency():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    with pytest.raises(DataError, match="connected"):
        InstrumentGraph(adjacency=adj)


def _path_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return InstrumentGraph(adjacency=adj)


def test_shortest_paths_on_a_path_graph():
    d = shortest_path_matrix(_path_graph(3))
    assert d[0, 2] == 2.0
    np.testing.assert_array_equal(np.diag(d), np.zeros(3))
    np.testing.assert_array_equal(d, d.T)


def test_shortest_paths_match_floyd_warshall():
    g = gen_preferential_attachment(50, 2, SeededRng(12))
    d = shortest_path_matrix(g)
    n = g.n_nodes
    fw = np.where(g.adjacency, 1.0, np.inf)
    np.fill_diagonal(fw, 0.0)
    for k in range(n):
        fw = np.minimum(fw, fw[:, k:k + 1] + fw[k:k + 1, :])
    np.testing.assert_array_equal(d, fw)


def test_distance_to_cov_on_path_graph_needs_no_repair():
    # powers of a scalar along a path form a positive-definite matrix
    d = shortest_path_matrix(_path_graph(6))
    cov, repair = distance_to_cov(d, 0.7)
    assert repair == pytest.approx(0.0, abs=1e-12)
    assert cov[0, 1] == pytest.approx(0.7, abs=1e-12)
    np.testing.assert_array_equal(np.diag(cov), np.ones(6))


def test_distance_to_cov_repair_is_small_and_psd():
    # pilot over seeds 0..19 put the 100-node repair between 0.063 and
    # 0.115, so 0.15 is the calibrated envelope for this graph family
    g = gen_preferential_attachment(100, 2, SeededRng(13))
    d = shortest_path_matrix(g)
    cov, repair = distance_to_cov(d, 0.7)
    assert repair <= 0.15
    assert np.linalg.eigvalsh(cov)[0] >= -1e-12
    np.testing.assert_array_equal(np.diag(cov), np.ones(100))
    assert np.max(np.abs(cov - 0.7**d)) <= repair + 1e-12


def test_distance_to_cov_repair_envelope_on_default_graph():
    # the 50-node graph behind the network design repairs below 0.08
    # (pilot envelope 0.070 over seeds 0..19)
    g = gen_preferential_attachment(50, 2, SeededRng(13))
    cov, repair = distance_to_cov(shortest_path_matrix(g), 0.7)
    assert repair <= 0.08
    assert np.linalg.eigvalsh(cov)[0] >= -1e-12


def test_distance_to_cov_base_domain():
    d = shortest_path_matrix(_path_graph(3))
    for base in (0.0, 1.0, 1.5):
        with pytest.raises(DataError):
            distance_to_cov(d, base)


def test_experiment2_adjacent_instruments_correlate_like_base():
    spec = experiment2_spec(n=100000, k=1, k_null=0)
    ds, truth = gen_experiment2(spec, SeededRng(14))
    i, j = sorted(_edges(truth.graph))[0]
    corr = np.corrcoef(ds.z[:, i], ds.z[:, j])[0, 1]
    assert corr == pytest.approx(0.7, abs=0.05)


def test_experiment2_distant_instruments_decorrelate():
    # the coef_seed=0 tree contains a pair eight hops apart
    spec = experiment2_spec(n=100000, k=1, k_null=0, edges_per_node=1,
                            coef_seed=0)
    ds, truth = gen_experiment2(spec, SeededRng(15))
    d = shortest_path_matrix(truth.graph)
    pairs = np.argwhere(d == 8)
    assert len(pairs) > 0
    i, j = pairs[0]
    corr = np.corrcoef(ds.z[:, i], ds.z[:, j])[0, 1]
    assert abs(corr) <= 0.1


def test_experiment2_graph_is_fixed_by_coef_seed():
    spec = experiment2_spec(n=60, k=2, k_null=0)
    _, ta = gen_experiment2(spec, SeededRng(16))
    _, tb = gen_experiment2(spec, SeededRng(17))
    assert _edges(ta.graph) == _edges(tb.graph)
    np.testing.assert_array_equal(ta.sigma_z, tb.sigma_z)


def test_experiment2_default_is_fifty_node_graph():
    spec = experiment2_spec(n=80, k=2, k_null=0)
    _, truth = gen_experiment2(spec, SeededRng(18))
    assert truth.graph.n_nodes == 50
    assert truth.sigma_z.shape == (50, 50)
    assert truth.cov_repair >= 0.0
