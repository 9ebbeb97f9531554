"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):  # through __new__, not __init__: keeps step, seed and field
        return type(self).__new__, (type(self), *self.args), self.__dict__


class InvalidBoundsError(ToolkitError):
    """Domain endpoints are not ordered (x_max <= x_min)."""


class InvalidSizeError(ToolkitError):
    """Grid resolution below the supported minimum."""


class InvalidThetaError(ToolkitError):
    """Averaging radius is not positive or exceeds the domain width."""


class GridMismatchError(ToolkitError):
    """Two fields or paths do not live on the same grid."""


class NanDetectedError(ToolkitError):
    """A simulation produced a non-finite value.

    Carries the time-step index and, for ensembles, the seed of the
    offending path.
    """

    def __init__(self, message: str, step: int, seed: int | None = None):
        super().__init__(message)
        self.step = step
        self.seed = seed


class InadmissiblePerturbationError(ToolkitError):
    """Control perturbation leaves the admissible cone for every epsilon > 0."""


class NoConvergenceError(ToolkitError):
    """Semi-smooth fixed-point iteration exceeded its iteration cap."""


class SingularSystemError(ToolkitError):
    """An implicit step's tridiagonal system is singular."""


class NonCauchyError(ToolkitError):
    """Inter-level solution gaps failed to decrease across penalization levels."""


class DegenerateFitError(ToolkitError):
    """All penalization energies sit below the numerical floor (inactive obstacle)."""


class ConfigError(ToolkitError):
    """Base class for configuration problems; carries the offending field path."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class ParseError(ConfigError):
    """Configuration file is not syntactically valid JSON."""


class ValidationError(ConfigError):
    """Configuration is syntactically valid but violates the schema."""
