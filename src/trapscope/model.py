"""System family, target observable and problem instance.

The controlled pair is a ladder system on N levels:

    H0 = diag(a, b, b, ..., b)          (strongly degenerate free part)
    V  = tridiagonal, V[k,k+1] = V[k+1,k] = v_k, all v_k real and nonzero

with a != b.  Only the gap omega = a - b enters the interaction-picture
dynamics.  Level indices are 1-based in every public interface; internal
arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, DegenerateSpectrum, DomainError, OrderingViolation, ZeroCoupling

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
        """Energy gap a - b, the only frequency in the interaction picture."""
        return self.a - self.b


def build_system(levels: int, a: float, b: float, couplings, horizon: float) -> SystemSpec:
    """Validate and construct a SystemSpec.

    Raises BadDimension, DegenerateSpectrum, DomainError or ZeroCoupling on
    invalid input.
    """
    levels = int(levels)
    v = tuple(float(x) for x in couplings)
    if levels < 3:
        raise BadDimension(f"need at least 3 levels, got {levels}")
    if len(v) != levels - 1:
        raise BadDimension(f"need {levels - 1} couplings for {levels} levels, got {len(v)}")
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError(f"energies must be finite, got a={a!r}, b={b!r}")
    if abs(a - b) <= TOL_GAP * (1.0 + abs(a) + abs(b)):
        raise DegenerateSpectrum(f"a={a!r} and b={b!r} must differ")
    for k, vk in enumerate(v, start=1):
        if vk == 0.0 or not np.isfinite(vk):
            raise ZeroCoupling(f"coupling v_{k} must be finite and nonzero, got {vk!r}")
    horizon = float(horizon)
    if not 0.0 < horizon < np.inf:
        raise BadDimension(f"horizon must be positive and finite, got {horizon!r}")
    return SystemSpec(levels=levels, a=a, b=b, couplings=v, horizon=horizon)


def energies(sys: SystemSpec) -> np.ndarray:
    """Free energies (E_1, ..., E_N) = (a, b, ..., b)."""
    e = np.full(sys.levels, sys.b, dtype=np.float64)
    e[0] = sys.a
    return e


def h0_matrix(sys: SystemSpec) -> np.ndarray:
    """Materialize H0 = diag(a, b, ..., b) as a complex matrix."""
    return np.diag(energies(sys)).astype(np.complex128)


def v_matrix(sys: SystemSpec) -> np.ndarray:
    """Materialize the tridiagonal coupling operator V."""
    n = sys.levels
    m = np.zeros((n, n), dtype=np.complex128)
    for k, vk in enumerate(sys.couplings):
        m[k, k + 1] = vk
        m[k + 1, k] = vk
    return m


def interaction_element(sys: SystemSpec, l: int, k: int, t: float) -> complex:
    """Matrix element <l| V_t |k> of V_t = e^{i t H0} V e^{-i t H0}.

    Equals e^{i t (E_l - E_k)} V_{lk}; only elements touching level 1 carry
    a phase.  l and k are 1-based.
    """
    n = sys.levels
    if not (1 <= l <= n and 1 <= k <= n):
        raise BadDimension(f"level indices must be in 1..{n}, got l={l}, k={k}")
    if abs(l - k) != 1:
        return 0j
    v = sys.couplings[min(l, k) - 1]
    e_l = sys.a if l == 1 else sys.b
    e_k = sys.a if k == 1 else sys.b
    return complex(np.exp(1j * t * (e_l - e_k)) * v)


def interaction_matrix(sys: SystemSpec, t: float) -> np.ndarray:
    """Full V_t = e^{i t H0} V e^{-i t H0} via elementwise phases."""
    ph = np.exp(1j * t * energies(sys))
    return ph[:, None] * v_matrix(sys) * ph.conj()[None, :]


def v_power_element(sys: SystemSpec, l: int, n: int) -> float:
    """<l| V^n |N> by repeated tridiagonal matrix-vector products.

    n = 0 returns the Kronecker delta delta_{lN}.  Vanishes whenever
    n < N - l (a tridiagonal operator moves one level per power).
    """
    nlev = sys.levels
    if not 1 <= l <= nlev:
        raise BadDimension(f"level index must be in 1..{nlev}, got {l}")
    if n < 0:
        raise BadDimension(f"power must be nonnegative, got {n}")
    w = np.zeros(nlev, dtype=np.float64)
    w[nlev - 1] = 1.0
    v = np.asarray(sys.couplings, dtype=np.float64)
    for _ in range(n):
        nxt = np.zeros_like(w)
        nxt[:-1] += v * w[1:]
        nxt[1:] += v * w[:-1]
        w = nxt
    return float(w[l - 1])


@dataclass(frozen=True)
class Observable:
    """Diagonal target operator, normalized so the last eigenvalue is 0.

    `eigenvalues` are the normalized values; `shift` is the amount that was
    subtracted from the raw input (the raw last eigenvalue), kept so raw
    objective values can be reported unshifted.
    """

    eigenvalues: tuple[float, ...]
    shift: float

    @property
    def raw_eigenvalues(self) -> tuple[float, ...]:
        return tuple(x + self.shift for x in self.eigenvalues)


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
