"""Exception types shared across the toolkit, and the one check of integer counts."""

import operator


class TrapscopeError(Exception):
    """Base class for all toolkit errors."""


class NotUnitary(TrapscopeError):
    """Matrix fails the unitarity check required by the caller."""


class BadDimension(TrapscopeError):
    """Dimension or length arguments are inconsistent."""


class DegenerateSpectrum(TrapscopeError):
    """The two free energies coincide (a == b is forbidden)."""


class ZeroCoupling(TrapscopeError):
    """A nearest-neighbour coupling is zero."""


class OrderingViolation(TrapscopeError):
    """Observable eigenvalues violate the required ordering."""


class GridMismatch(TrapscopeError):
    """Two piecewise-constant objects live on different grids."""


class SeriesCheckFailed(TrapscopeError):
    """Power-series coefficients of a segment step disagree with its exponential."""


class DomainError(TrapscopeError):
    """Arguments outside the domain of a closed-form expression or of the model."""


class InsufficientOrder(TrapscopeError):
    """A form table does not extend to the requested order."""


class ConfigError(TrapscopeError):
    """A run configuration file failed to parse or validate."""


def count(name: str, value, minimum: int | None, error: type[Exception]) -> int:
    """value as a Python int, at least `minimum` unless that is None.

    Any integer passes, numpy integers included; anything else, a float
    such as 2.0 included, raises `error` naming `name` and is never
    truncated.  A caller whose range check has its own message passes
    minimum None and checks the returned int itself.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")
    return value
