"""Synthetic designs: sparse near-independent instruments and a scale-free
instrument network whose shortest-path distances induce the covariance.

Both designs share one structural equation pair:

    p = g(z a + sigmoid(z^2) g_coef + x a_x) + w
    y = f(p b + x b_x + xi) + eps

where g and f are each the ReLU max(t, 0) or the identity, (w, xi) are
jointly normal and the coefficients are standard normal under a dedicated
coefficient seed, so replications redraw data while the structure stays
fixed. Trailing instrument coefficients and trailing outcome
covariate coefficients are zeroed to create a known sparsity pattern.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, SeededRng, check_int, psd_factor
from .errors import DataError, NumericalError

__all__ = [
    "SyntheticSpec",
    "SyntheticTruth",
    "InstrumentGraph",
    "experiment1_spec",
    "experiment2_spec",
    "gen_experiment1",
    "gen_experiment2",
    "gen_preferential_attachment",
    "shortest_path_matrix",
    "distance_to_cov",
]


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Design parameters for the synthetic generators.

    cov_mode selects the instrument covariance: "near_diagonal" uses
    I + cov_param * (off-diagonal ones); "network" uses cov_param ** D for
    shortest-path distances D of a preferential-attachment graph with
    edges_per_node links per arriving node. cov_param must keep that
    covariance positive definite: -1/(m-1) < cov_param < 1 for
    near_diagonal, 0 < cov_param < 1 for network. Coefficients are drawn
    from coef_seed. activation_g (g, on the treatment index) and
    activation_f (f, on the outcome index) are True for the ReLU and False
    for the identity.
    """

    n: int = 1000
    m: int = 50
    m_redundant: int = 10
    k: int = 25
    k_null: int = 20
    sigma_joint: tuple = ((3.000, -0.087), (-0.087, 0.010))
    sigma_eps: float = 0.5
    activation_g: bool = True
    activation_f: bool = True
    coef_seed: int = 0
    cov_mode: str = "near_diagonal"
    cov_param: float = 0.001
    edges_per_node: int = 2

    def __post_init__(self):
        for name in ("n", "m", "m_redundant", "k", "k_null", "coef_seed", "edges_per_node"):
            check_int(name, getattr(self, name))
        if self.n < 1:
            raise DataError(f"n = {self.n} must be at least 1")
        for part, whole in (("m_redundant", "m"), ("k_null", "k")):
            value, bound = getattr(self, part), getattr(self, whole)
            if not 0 <= value <= bound:
                raise DataError(f"{part} = {value} must lie in [0, {whole} = {bound}]")
        sj = np.asarray(self.sigma_joint, dtype=np.float64)
        if sj.shape != (2, 2) or not np.allclose(sj, sj.T):
            raise DataError("sigma_joint must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(sj)[0] < -1e-12:
            raise DataError("sigma_joint must be positive semidefinite")
        if not (0.0 <= self.sigma_eps < np.inf):
            raise DataError(
                f"sigma_eps must be finite and non-negative, got {self.sigma_eps}"
            )
        if self.cov_mode not in ("near_diagonal", "network"):
            raise DataError("cov_mode must be 'near_diagonal' or 'network'")
        c = self.cov_param
        if self.cov_mode == "near_diagonal":
            # I + c * (ones - I) has eigenvalues 1 - c and 1 + (m - 1) c
            if not (c < 1.0 and 1.0 + (self.m - 1) * c > 0.0):
                raise DataError(
                    f"cov_param must lie in (-1/(m-1), 1) for near_diagonal, got {c}"
                )
        elif not (0.0 < c < 1.0):
            raise DataError(f"cov_param must lie in (0, 1) for network, got {c}")


def experiment1_spec(**overrides) -> SyntheticSpec:
    """Sparse design: the SyntheticSpec defaults (fifty near-independent
    instruments, ten redundant, twenty-five covariates with twenty absent
    from the outcome equation) under coefficient seed 28."""
    return SyntheticSpec(**{"coef_seed": 28, **overrides})


def experiment2_spec(**overrides) -> SyntheticSpec:
    """Network design: same equations, instrument covariance 0.7^distance
    over a 50-node preferential-attachment graph."""
    return SyntheticSpec(
        **{"coef_seed": 28, "cov_mode": "network", "cov_param": 0.7, **overrides}
    )


@dataclass(frozen=True, eq=False)
class SyntheticTruth:
    """Realized structure: with the dataset's (z, x) and the stored noise,
    p and y are exactly recomputable."""

    alpha: np.ndarray
    gamma: np.ndarray
    alpha_x: np.ndarray
    beta: float
    beta_x: np.ndarray
    w: np.ndarray
    xi: np.ndarray
    eps: np.ndarray
    treat_index: np.ndarray
    out_index: np.ndarray
    sigma_z: np.ndarray
    cov_repair: float = 0.0
    graph: "InstrumentGraph | None" = None


def _draw_coefficients(spec: SyntheticSpec):
    crng = SeededRng(spec.coef_seed)
    alpha = crng.child(10).normal(size=spec.m)
    alpha[spec.m - spec.m_redundant :] = 0.0
    gamma = crng.child(11).normal(size=spec.m)
    alpha_x = crng.child(12).normal(size=spec.k)
    beta = float(crng.child(13).normal())
    beta_x = crng.child(14).normal(size=spec.k)
    beta_x[spec.k - spec.k_null :] = 0.0
    return alpha, gamma, alpha_x, beta, beta_x


def _gen_core(spec: SyntheticSpec, rng: SeededRng, sigma_z, cov_repair=0.0, graph=None):
    from scipy.special import expit

    alpha, gamma, alpha_x, beta, beta_x = _draw_coefficients(spec)
    try:
        factor = np.linalg.cholesky(np.asarray(sigma_z, dtype=np.float64))
    except np.linalg.LinAlgError:
        raise NumericalError("instrument covariance is not positive definite") from None
    z = rng.child(0).normal(size=(spec.n, spec.m)) @ factor.T
    x = rng.child(1).normal(size=(spec.n, spec.k))
    joint = rng.child(2).normal(size=(spec.n, 2)) @ psd_factor(
        np.asarray(spec.sigma_joint, dtype=np.float64), 1
    ).T
    # the small-variance margin of sigma_joint is the treatment noise w, the
    # regime where the ReLU signal dominates treatment variation
    w = joint[:, 1]
    xi = joint[:, 0]
    eps = spec.sigma_eps * rng.child(3).normal(size=spec.n)
    treat_index = z @ alpha + expit(z**2) @ gamma + x @ alpha_x
    p = (np.maximum(treat_index, 0.0) if spec.activation_g else treat_index) + w
    out_index = p * beta + x @ beta_x + xi
    y = (np.maximum(out_index, 0.0) if spec.activation_f else out_index) + eps
    ds = Dataset(y=y, p=p, z=z, x=x)
    truth = SyntheticTruth(
        alpha=alpha, gamma=gamma, alpha_x=alpha_x, beta=beta, beta_x=beta_x,
        w=w, xi=xi, eps=eps, treat_index=treat_index, out_index=out_index,
        sigma_z=np.asarray(sigma_z, dtype=np.float64),
        cov_repair=cov_repair, graph=graph,
    )
    return ds, truth


def gen_experiment1(spec: SyntheticSpec, rng: SeededRng):
    """Near-independent instruments: Sigma_z = I + c * (ones - I)."""
    if spec.cov_mode != "near_diagonal":
        raise DataError("gen_experiment1 requires cov_mode='near_diagonal'")
    c = spec.cov_param
    sigma_z = np.full((spec.m, spec.m), c)
    np.fill_diagonal(sigma_z, 1.0)
    return _gen_core(spec, rng, sigma_z)


@dataclass(frozen=True, eq=False)
class InstrumentGraph:
    """Undirected simple connected graph over the instruments."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataError("adjacency must be square")
        if np.any(np.diag(a)) or not np.array_equal(a, a.T):
            raise DataError("adjacency must be symmetric with empty diagonal")
        object.__setattr__(self, "adjacency", a)
        from scipy.sparse.csgraph import connected_components

        if connected_components(a, directed=False, return_labels=False) != 1:
            raise DataError("graph must be connected")

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


def gen_preferential_attachment(p: int, edges_per_node: int, rng: SeededRng) -> InstrumentGraph:
    """Growth process: seed clique of edges_per_node + 1 nodes, then each
    arriving node links to edges_per_node distinct existing nodes chosen with
    probability proportional to current degree."""
    if edges_per_node < 1 or p < edges_per_node + 1:
        raise DataError("need p >= edges_per_node + 1 and edges_per_node >= 1")
    adj = np.zeros((p, p), dtype=bool)
    seed_n = edges_per_node + 1
    for i in range(seed_n):
        for j in range(i + 1, seed_n):
            adj[i, j] = adj[j, i] = True
    gen = rng.generator
    degree = adj.sum(axis=1).astype(np.float64)
    for new in range(seed_n, p):
        weights = degree[:new] / degree[:new].sum()
        targets = gen.choice(new, size=edges_per_node, replace=False, p=weights)
        for t in targets:
            adj[new, t] = adj[t, new] = True
            degree[t] += 1.0
        degree[new] = edges_per_node
    return InstrumentGraph(adjacency=adj)


def shortest_path_matrix(g: InstrumentGraph) -> np.ndarray:
    """All-pairs unweighted shortest-path lengths (hop counts) as floats."""
    from scipy.sparse.csgraph import shortest_path

    return shortest_path(g.adjacency, directed=False, unweighted=True)


def distance_to_cov(dist: np.ndarray, base: float) -> tuple[np.ndarray, float]:
    """Elementwise base**distance, repaired to a unit-diagonal PSD matrix.

    Eigenvalues below 1e-10 are raised to 1e-10 and the matrix rescaled so
    the diagonal is exactly 1 again. Returns (covariance, repair magnitude)
    where the magnitude is the max absolute entry change the repair made.
    """
    if not (0.0 < base < 1.0):
        raise DataError("base must lie in (0, 1)")
    dist = np.asarray(dist, dtype=np.float64)
    raw = base**dist
    vals, vecs = np.linalg.eigh((raw + raw.T) / 2.0)
    clipped = (vecs * np.maximum(vals, 1e-10)) @ vecs.T
    d = np.sqrt(np.diag(clipped))
    cov = clipped / np.outer(d, d)
    np.fill_diagonal(cov, 1.0)
    return cov, float(np.max(np.abs(cov - raw)))


def gen_experiment2(spec: SyntheticSpec, rng: SeededRng):
    """Network design: instruments correlated as cov_param ** shortest-path
    distance; the graph is part of the fixed structure (coef_seed), so
    replications share it."""
    if spec.cov_mode != "network":
        raise DataError("gen_experiment2 requires cov_mode='network'")
    graph = gen_preferential_attachment(
        spec.m, spec.edges_per_node, SeededRng(spec.coef_seed).child(5)
    )
    dist = shortest_path_matrix(graph)
    sigma_z, repair = distance_to_cov(dist, spec.cov_param)
    return _gen_core(spec, rng, sigma_z, cov_repair=repair, graph=graph)
