"""Exception hierarchy shared across the package."""


class BiasCalError(Exception):
    """Base class for all errors raised by biascal."""


class CorpusFormatError(BiasCalError, ValueError):
    """A corpus or stats file could not be parsed. Messages carry the line number."""


class ValidationError(BiasCalError, ValueError):
    """Loaded or constructed data violates an invariant (bad score, index, count...)."""


class UndefinedBiasError(BiasCalError):
    """A bias ratio was requested where its denominator is zero."""


class DegenerateDistributionError(BiasCalError):
    """Reweighting left no probability mass on an instance's support."""


class SolverDivergenceError(BiasCalError):
    """The dual solver produced a non-finite value.

    ``coordinate`` is the index of the first non-finite entry of the vector
    the message names, the gradient or the dual vector.
    """

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate

