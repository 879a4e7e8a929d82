"""Exception types shared across the package."""


class GirsanovError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(GirsanovError):
    """Structural problem with a model definition (shapes, signs, balance)."""


class PathError(GirsanovError):
    """Malformed trajectory record or an operation outside its lifetime."""


class DomainError(GirsanovError):
    """Evaluation requested outside the mathematical domain of an operation."""


class TransformError(GirsanovError):
    """Invalid change-of-measure data (non-positive density, jump tilt <= -1, ...)."""


class ConfigError(GirsanovError):
    """Bad experiment configuration handed to the command-line driver."""
