"""Why the outcome is recentered before the moment step.

A censored outcome max(y*, 0) feeds biased moments to 2SLS. The affine
correction (y - psi2) / psi1 restores the latent scale, and the demo
measures both estimators against a known treatment slope.
"""
import numpy as np

from dpls_iv import (
    SeededRng,
    estimate_tobit_constants,
    fit_ols,
    gmm_beta,
    recenter_outcome,
)

BETA_P = 1.5
N = 5000


def one_replication(seed):
    rng = SeededRng(seed)
    z = rng.child(0).normal(size=(N, 4))
    w = rng.child(1).normal(size=N)
    p = z @ np.array([0.8, -0.6, 0.5, 0.3]) + w
    xi = 0.8 * w + 0.6 * rng.child(2).normal(size=N)
    x = np.ones((N, 1))
    y = np.maximum(BETA_P * p - 0.5 + xi, 0.0)

    p_hat = fit_ols(z, p).predict(z)
    constants = estimate_tobit_constants(y)
    # gmm_beta returns the coefficients and the moment residuals
    corrected, _ = gmm_beta(p_hat, x, recenter_outcome(y, constants), p_observed=p)
    naive, _ = gmm_beta(p_hat, x, y, p_observed=p)
    return corrected[0], naive[0], constants


def main():
    draws = []
    for rep in range(20):
        b_corr, b_naive, constants = one_replication(3000 + rep)
        draws.append((b_corr, b_naive))
    draws = np.array(draws)
    print(f"true slope {BETA_P}")
    print(f"estimated share uncensored psi1 = {constants.psi1:.3f}, "
          f"shift psi2 = {constants.psi2:.3f}")
    print(f"recentered: mean {draws[:, 0].mean():+.4f}  "
          f"bias {draws[:, 0].mean() - BETA_P:+.4f}")
    print(f"naive:      mean {draws[:, 1].mean():+.4f}  "
          f"bias {draws[:, 1].mean() - BETA_P:+.4f}")


if __name__ == "__main__":
    main()
