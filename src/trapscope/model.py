"""System family, target observable and problem instance.

The controlled pair is a ladder system on N levels:

    H0 = diag(a, b, b, ..., b)          (strongly degenerate free part)
    V  = tridiagonal, V[k,k+1] = V[k+1,k] = v_k, all v_k real and nonzero

with a != b.  The offset b is a global phase: the propagators of H0 + f V
and of the drift H0 - b I = diag(omega, 0, ..., 0) differ by the scalar
e^{-i b T}, so only the gap omega = a - b enters J, the forms and the Lie
rank, and every numerical kernel runs on the drift.  Both generators are
real symmetric, and this module is the one place that materializes them:
drift_matrix and v_matrix hand them out as float64 arrays, and _v_norm
gives ||V||_2.  Level indices are 1-based in every public interface;
internal arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadDimension, DegenerateSpectrum, DomainError, OrderingViolation, ZeroCoupling, count

# Relative floor below which a and b count as degenerate.
TOL_GAP = 1e-12


@dataclass(frozen=True)
class SystemSpec:
    """Validated parameters of the controlled pair (H0, V).

    Attributes
    ----------
    levels : number of levels N (>= 3)
    a, b : free energies of level 1 and of levels 2..N
    couplings : nearest-neighbour couplings (v_1, ..., v_{N-1}), all nonzero
    horizon : target time T, positive and finite
    """

    levels: int
    a: float
    b: float
    couplings: tuple[float, ...]
    horizon: float

    @property
    def omega(self) -> float:
        """Energy gap a - b, the only energy the numerics read: the drift's level-1 entry."""
        return self.a - self.b


def build_system(levels: int, a: float, b: float, couplings, horizon: float) -> SystemSpec:
    """Validate and construct a SystemSpec.

    Raises BadDimension, DegenerateSpectrum, DomainError or ZeroCoupling on
    invalid input.  levels must be an integer >= 3 (numpy integers
    included): a float such as 3.7 is a BadDimension, not truncated.  A gap
    a - b that overflows is a DomainError, not a degenerate spectrum.
    """
    levels = count("levels", levels, 3, BadDimension)
    v = tuple(float(x) for x in couplings)
    if len(v) != levels - 1:
        raise BadDimension(f"need {levels - 1} couplings for {levels} levels, got {len(v)}")
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError(f"energies must be finite, got a={a!r}, b={b!r}")
    if not np.isfinite(a - b):
        raise DomainError(f"gap a - b must be finite, got a={a!r}, b={b!r}")
    if abs(a - b) <= TOL_GAP * (1.0 + abs(a) + abs(b)):
        raise DegenerateSpectrum(f"a={a!r} and b={b!r} must differ")
    for k, vk in enumerate(v, start=1):
        if vk == 0.0 or not np.isfinite(vk):
            raise ZeroCoupling(f"coupling v_{k} must be finite and nonzero, got {vk!r}")
    horizon = float(horizon)
    if not 0.0 < horizon < np.inf:
        raise BadDimension(f"horizon must be positive and finite, got {horizon!r}")
    return SystemSpec(levels=levels, a=a, b=b, couplings=v, horizon=horizon)


def drift_matrix(sys: SystemSpec) -> np.ndarray:
    """Materialize the drift H0 - b I = diag(omega, 0, ..., 0) as a float64 matrix.

    Where b = 0 it is H0 itself.
    """
    m = np.zeros((sys.levels, sys.levels), dtype=np.float64)
    m[0, 0] = sys.omega
    return m


def v_matrix(sys: SystemSpec) -> np.ndarray:
    """Materialize the tridiagonal coupling operator V, real symmetric, as a float64 matrix."""
    n = sys.levels
    m = np.zeros((n, n), dtype=np.float64)
    for k, vk in enumerate(sys.couplings):
        m[k, k + 1] = vk
        m[k + 1, k] = vk
    return m


@lru_cache(maxsize=16)
def _v_norm(sys: SystemSpec) -> float:
    """||V||_2, the spectral norm of the coupling operator, once per system."""
    # The complex SVD, not the real one: every contour radius and witness
    # amplitude carries its bits, and the two differ in the last bits.
    return float(np.linalg.norm(v_matrix(sys).astype(np.complex128), 2))


@dataclass(frozen=True)
class Observable:
    """Diagonal target operator, normalized so the last eigenvalue is 0.

    `eigenvalues` are the normalized values; `shift` is the amount that was
    subtracted from the raw input (the raw last eigenvalue), kept so raw
    objective values can be reported unshifted.
    """

    eigenvalues: tuple[float, ...]
    shift: float


def build_observable(eigenvalues) -> Observable:
    """Validate ordering and normalize the observable spectrum.

    The spectrum must be finite and satisfy lambda_1 > lambda_N >
    lambda_{N-1}; the returned eigenvalues are shifted so lambda_N = 0
    exactly.
    """
    lam = tuple(float(x) for x in eigenvalues)
    if len(lam) < 3:
        raise BadDimension(f"need at least 3 eigenvalues, got {len(lam)}")
    if not all(np.isfinite(lam)):
        raise DomainError(f"eigenvalues must be finite, got {lam!r}")
    if not lam[0] > lam[-1] > lam[-2]:
        raise OrderingViolation(
            "need lambda_1 > lambda_N > lambda_{N-1}, "
            f"got lambda_1={lam[0]!r}, lambda_N={lam[-1]!r}, lambda_{{N-1}}={lam[-2]!r}"
        )
    shift = lam[-1]
    normalized = tuple(x - shift for x in lam)
    return Observable(eigenvalues=normalized, shift=shift)


@dataclass(frozen=True)
class ProblemInstance:
    """System and observable; the initial state is always the top level, |N><N|."""

    system: SystemSpec
    observable: Observable


def build_instance(system: SystemSpec, observable: Observable) -> ProblemInstance:
    """Bundle system and observable after checking their dimensions agree."""
    n = system.levels
    if len(observable.eigenvalues) != n:
        raise BadDimension(
            f"observable has {len(observable.eigenvalues)} eigenvalues for {n} levels"
        )
    return ProblemInstance(system=system, observable=observable)
