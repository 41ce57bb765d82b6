"""Simulate a censored IV dataset, fit the deep-PLS estimator, and compare
its out-of-sample fit against a plain OLS first stage."""
import numpy as np

from dpls_iv import (
    DplsConfig,
    SeededRng,
    SgdParams,
    augment_instruments,
    dpls_iv_fit,
    experiment1_spec,
    fit_ols,
    gen_experiment1,
    r_squared,
    split_dataset,
)


def main():
    spec = experiment1_spec(n=1000)
    ds, truth = gen_experiment1(spec, SeededRng(0))
    train, test = split_dataset(ds, 0.5, SeededRng(0).child(1))
    print(f"simulated {len(ds.y)} rows: m={spec.m} instruments, "
          f"k={spec.k} covariates, "
          f"{np.mean(ds.y <= 0):.0%} of outcomes at or below zero")

    cfg = DplsConfig(layer_widths=(30,), sgd=SgdParams(epochs=200, seed=0))
    fit = dpls_iv_fit(train, cfg, mode="rescale_gmm", censored=True)

    p_hat = fit.predict_treatment(test.z, test.x)
    y_hat = fit.predict_outcome(test.z, test.x)
    print(f"dpls_iv  treatment R2 {r_squared(test.p, p_hat):.3f}   "
          f"outcome R2 {r_squared(test.y, y_hat):.3f}")

    # linear first stage on the same augmented design, same outcome stage
    zbar_tr = augment_instruments(train.z, train.x)
    zbar_te = augment_instruments(test.z, test.x)
    ols = fit_ols(zbar_tr, train.p)
    print(f"ols      treatment R2 {r_squared(test.p, ols.predict(zbar_te)):.3f}")

    print(f"policy effect (treatment slope): {fit.policy_effect:+.3f} "
          f"(truth {truth.beta:+.3f})")


if __name__ == "__main__":
    main()
