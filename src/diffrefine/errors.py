"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4, NoConvergenceError -> 5.
"""


class DiffRefineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DiffRefineError):
    """Invalid configuration value or file."""


def dataclass_from_config(cls, cfg: dict, what: str):
    """cls(**cfg) for a config dataclass; ConfigError names the keys
    of cfg that are not fields of cls."""
    extra = set(cfg) - set(cls.__dataclass_fields__)
    if extra:
        raise ConfigError(f"unknown {what} config keys: {sorted(extra)}")
    return cls(**cfg)


class DataError(DiffRefineError):
    """Missing, malformed, or infeasible input data."""


class ParseError(DataError):
    """Malformed structured text. Carries the 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(DataError):
    """Structurally parseable input that violates a documented invariant."""


class ZeroImpedanceBranchError(ValidationError):
    """Branch with r = x = 0; its series admittance is undefined."""


class DatasetInfeasibleError(DataError):
    """Too many sampled scenarios failed to produce a valid example."""


class NumericError(DiffRefineError):
    """Numeric failure inside an algorithm."""


class NonFiniteError(NumericError):
    """NaN or infinity encountered where a finite value is required."""


class NonFiniteGradientError(NonFiniteError):
    """Gradient evaluation produced a non-finite component."""


class NonFiniteLossError(NumericError):
    """Training loss became non-finite. Carries the epoch index."""

    def __init__(self, message: str, epoch: int = -1):
        self.epoch = epoch
        super().__init__(message)


class DimensionMismatchError(NumericError):
    """Operands with incompatible shapes."""


class SingularMatrixError(NumericError):
    """Linear solve hit a pivot below the singularity threshold.  A
    stacked solve lists the indices of the failing systems in
    ``systems``."""

    def __init__(self, message: str, systems=()):
        self.systems = list(systems)
        super().__init__(message)


class SingularHessianError(SingularMatrixError):
    """Newton step could not be computed from the local Hessian."""


class DegenerateAlphaError(NumericError):
    """Cumulative signal coefficient too close to zero to invert."""


class SamplerStalledError(NumericError):
    """Acceptance rate of a sampler collapsed below the stall threshold."""


class NoConvergenceError(DiffRefineError):
    """Iteration budget exhausted before reaching tolerance."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        self.iterations = iterations
        self.residual = residual
        super().__init__(message)
