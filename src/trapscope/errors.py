"""Exception types shared across the toolkit."""


class TrapscopeError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(TrapscopeError):
    """Input matrix is not Hermitian within tolerance."""


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


class TooExpensive(TrapscopeError):
    """Requested brute-force computation exceeds its cost guard."""


class DomainError(TrapscopeError):
    """Arguments outside the domain of a closed-form expression or of the model."""


class InsufficientOrder(TrapscopeError):
    """A form table does not extend to the requested order."""


class NonRealResult(TrapscopeError):
    """A value that must be real came out with a large imaginary part."""


class ConfigError(TrapscopeError):
    """A run configuration file failed to parse or validate."""
