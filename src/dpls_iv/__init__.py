"""Deep partial least squares for instrumental-variable regression.

The pipeline: project instruments and covariates onto a small set of
covariance-maximizing directions (PLS), refine the treatment prediction
with a shallow ReLU network trained by SGD on top of the frozen
projection, then recover policy coefficients from a censoring-recentered
outcome by linear GMM with a robust sandwich variance. A control-function
second stage, an asymptotic-normal posterior sampler, two synthetic data
designs, and a replicated benchmark harness round out the library; the
`dpls-iv` command line exposes simulate / fit / benchmark / predict.
"""
# scipy, the process and thread pools and signal are imported inside the
# functions that call them, never at module level: scipy about triples the
# package's import time and doubles its resident size, `predict` never calls
# it, and most runs never start a pool or kill a child.
from .bench import (
    KNOWN_METHODS,
    ExperimentConfig,
    MetricsReport,
    fit_first_stage,
    r_squared,
    rmse,
    run_benchmark,
)
from .data import (
    Dataset,
    SeededRng,
    augment_instruments,
    split_dataset,
)
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateDataError,
    NumericalError,
    SingularDesignError,
)
from .ivreg import (
    ControlFunctionFit,
    DplsIvFit,
    PosteriorDraws,
    TobitConstants,
    TobitGmmFit,
    dpls_iv_fit,
    estimate_tobit_constants,
    gmm_beta,
    identity_constants,
    iv_fit,
    recenter_outcome,
    sample_posterior,
    sandwich_variance,
)
from .linear import LinearFit, fit_lasso, fit_ols, fit_ridge
from .network import (
    DplsConfig,
    DplsModel,
    SgdParams,
    dpls_fit,
    network_loss_and_grads,
)
from .pls import PlsFit, fit_pls_closed_form, select_q_cv
from .synthetic import (
    SyntheticSpec,
    SyntheticTruth,
    distance_to_cov,
    experiment1_spec,
    experiment2_spec,
    gen_experiment1,
    gen_experiment2,
    gen_preferential_attachment,
    shortest_path_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ControlFunctionFit",
    "ConvergenceError",
    "DataError",
    "Dataset",
    "DegenerateDataError",
    "DplsConfig",
    "DplsIvFit",
    "DplsModel",
    "ExperimentConfig",
    "KNOWN_METHODS",
    "LinearFit",
    "MetricsReport",
    "NumericalError",
    "PlsFit",
    "PosteriorDraws",
    "SeededRng",
    "SgdParams",
    "SingularDesignError",
    "SyntheticSpec",
    "SyntheticTruth",
    "TobitConstants",
    "TobitGmmFit",
    "augment_instruments",
    "distance_to_cov",
    "dpls_fit",
    "dpls_iv_fit",
    "estimate_tobit_constants",
    "experiment1_spec",
    "experiment2_spec",
    "fit_first_stage",
    "fit_lasso",
    "fit_ols",
    "fit_pls_closed_form",
    "fit_ridge",
    "gen_experiment1",
    "gen_experiment2",
    "gen_preferential_attachment",
    "gmm_beta",
    "identity_constants",
    "iv_fit",
    "network_loss_and_grads",
    "r_squared",
    "recenter_outcome",
    "rmse",
    "run_benchmark",
    "sample_posterior",
    "sandwich_variance",
    "select_q_cv",
    "shortest_path_matrix",
    "split_dataset",
]
