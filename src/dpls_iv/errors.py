"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 2, NumericalError (and its
subclasses) -> 3. Anything else is a bug.
"""


class DataError(ValueError):
    """Input data, config, or file contents violate a documented contract."""


class NumericalError(RuntimeError):
    """A numerical procedure failed in a way the caller may want to handle."""


class SingularDesignError(NumericalError):
    """Design matrix is rank-deficient where a full-rank solve is required."""


class ConvergenceError(NumericalError):
    """Iterative solver hit its iteration cap before meeting tolerance."""


class DegenerateDataError(NumericalError):
    """Data are degenerate for the requested estimator (e.g. fully censored)."""
