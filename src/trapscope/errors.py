"""Exception types shared across the toolkit."""


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
