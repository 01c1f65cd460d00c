"""Independent reference routes the test suite checks the certifier against.

Nothing here runs in a certificate.  These are the slow or narrow routes
whose agreement with the package is the evidence that its analytic forms are
right: the drift H0 - b I, built from a and b apart from model's, a
complex-Hermitian eigendecomposition and the unitary exponential built on
it, element-wise interaction-picture matrices, the closed forms of
the low orders, a brute-force enumeration and a plain midpoint quadrature of
the max-kernel integral for A^{N-1}_1, the resummation of the forms against
the propagator, a plain Taylor-action loop for the |N> column and its
extended-precision (clongdouble) copy, and the complex Lie closure over
u(N).  The control builders constant and zero, the control-file writer,
the shared test instances (n3_instance, n4_instance and the unit ladders)
and a seeded family of random instances live here too, as only the tests
use them.  Test files import it as `from oracles import ...`.  Only numpy and
the package are imported, so the suite needs nothing beyond numpy and
pytest.
"""

from __future__ import annotations

import math

import numpy as np

from trapscope.controls import PiecewiseControl, integral
from trapscope.dynamics import (
    _check_horizon,
    _taylor_degree,
    _taylor_substeps,
    dyson_forms,
    propagate,
)
from trapscope.errors import BadDimension, DomainError, TrapscopeError
from trapscope.landscape import TOLERANCES, LieAlgebraResult
from trapscope.model import (
    ProblemInstance,
    SystemSpec,
    build_instance,
    build_observable,
    build_system,
    v_matrix,
)


class NotHermitian(TrapscopeError):
    """Input matrix is not Hermitian within tolerance."""


class TooExpensive(TrapscopeError):
    """Requested brute-force computation exceeds its cost guard."""


# ---------------------------------------------------------------- dense kernel

# Absolute, entrywise tolerance for accepting a matrix as Hermitian.
# Inputs are constructed exactly Hermitian; this only absorbs roundoff.
TOL_HERM = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    """Validate and return a square complex128 matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def hermiticity_defect(h) -> float:
    """Max entrywise magnitude of H - H^dagger."""
    m = as_complex_matrix(h)
    return float(np.max(np.abs(m - m.conj().T)))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = Q diag(w) Q^dagger of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary eigenvector
    matrix Q (columns are eigenvectors).  Raises NotHermitian if the input
    deviates from Hermiticity by more than TOL_HERM in any entry.
    """
    m = as_complex_matrix(h)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > TOL_HERM:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {TOL_HERM:.3e}")
    w, q = np.linalg.eigh(m)
    return w, q


def expm_mih(h, s: float) -> np.ndarray:
    """exp(-i*s*H) for Hermitian H, via eigendecomposition.

    The result is unitary up to roundoff for any real s.
    """
    w, q = hermitian_eig(h)
    phases = np.exp(-1j * float(s) * w)
    return (q * phases) @ q.conj().T


def spectral_norm_hermitian(h) -> float:
    """Operator 2-norm of a Hermitian matrix (largest |eigenvalue|)."""
    w, _ = hermitian_eig(h)
    return float(np.max(np.abs(w)))


# ---------------------------------------------------------------- model


def drift(sys: SystemSpec) -> np.ndarray:
    """H0 - b I = diag(a - b, 0, ..., 0), built here from a and b, not taken from model."""
    h = np.zeros((sys.levels, sys.levels))
    h[0, 0] = sys.a - sys.b
    return h


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
    """Full V_t = e^{i t H0} V e^{-i t H0} via elementwise phases, from H0 - b I."""
    ph = np.exp(1j * t * np.diagonal(drift(sys)))
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


# ---------------------------------------------------------------- controls

def constant(value: float, horizon: float, segments: int = 64) -> PiecewiseControl:
    return PiecewiseControl(horizon, (float(value),) * int(segments))


def zero(horizon: float, segments: int = 64) -> PiecewiseControl:
    return constant(0.0, horizon, segments)


def write_control_file(path, f: PiecewiseControl):
    """Write the plain-text control format (17 significant digits) that
    trapscope.controls.read_control_file parses."""
    lines = [f"T {f.horizon:.17g}", f"M {f.segments}"]
    lines.extend(f"{x:.17g}" for x in f.values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def sample_midpoints(func, horizon: float, segments: int) -> PiecewiseControl:
    """Sample a closed-form function at segment midpoints.

    Midpoint sampling is second-order accurate and cancels exactly over full
    periods of trigonometric test functions.
    """
    m = int(segments)
    dt = horizon / m
    mids = (np.arange(m) + 0.5) * dt
    return PiecewiseControl(horizon, tuple(float(func(t)) for t in mids))


# ---------------------------------------------------------------- forms

def closed_form_AlN(sys: SystemSpec, f: PiecewiseControl, l: int, n: int) -> float:
    """A^n_l for l > 1 and n <= N-1: <l|V^n|N> / n! * (int f)^n.

    For these orders no path from level N to level l can touch level 1, so
    the interaction-picture phases drop out and the form collapses to a pure
    power of the control integral; in particular it vanishes on mean-zero
    controls.
    """
    nlev = sys.levels
    if l <= 1 or l > nlev:
        raise DomainError(f"closed form requires 1 < l <= {nlev}, got l={l}")
    if n < 0 or n > nlev - 1:
        raise DomainError(f"closed form requires 0 <= n <= {nlev - 1}, got n={n}")
    return v_power_element(sys, l, n) / math.factorial(n) * integral(f) ** n


def _phase_poly_integrals(omega: float, h: float, kmax: int) -> np.ndarray:
    """I_k = int_0^h u^k e^{i omega u} du for k = 0..kmax.

    Series in (i omega) for small |omega h| (avoids cancellation), upward
    recurrence otherwise.
    """
    out = np.empty(kmax + 1, dtype=np.complex128)
    z = 1j * omega
    if abs(omega * h) <= 2.0:
        for k in range(kmax + 1):
            term = h ** (k + 1) / (k + 1)
            total = term
            j = 1
            while True:
                term = term * z * h * (k + j) / (j * (k + j + 1))
                total += term
                if abs(term) <= 1e-18 * max(abs(total), h ** (k + 1)):
                    break
                j += 1
            out[k] = total
    else:
        eph = np.exp(z * h)
        out[0] = (eph - 1.0) / z
        for k in range(1, kmax + 1):
            out[k] = (h**k * eph - k * out[k - 1]) / z
    return out


# Guard for the brute-force path: enumeration visits segments^(levels-1) cells.
_BRUTEFORCE_MAX_LEVELS = 5
_BRUTEFORCE_MAX_SEGMENTS = 64
_CHUNK = 1 << 16


def kernel_bruteforce_A1N(sys: SystemSpec, f: PiecewiseControl) -> complex:
    """A^{N-1}_1 by direct enumeration of the (N-1)-dimensional grid.

    Every cell of the tensor grid is visited; f is constant on each cell and
    the phase e^{i omega max(t)} is integrated exactly inside the cell (for a
    cell whose top segment is shared by r coordinates,
    int_{[l,l+h]^r} e^{i w max} = r e^{i w l} int_0^h u^{r-1} e^{i w u} du).
    Serves as the oracle for kernel_form_A1N and dyson_forms.
    """
    _check_horizon(sys, f)
    nlev = sys.levels
    m = nlev - 1
    mseg = f.segments
    if nlev > _BRUTEFORCE_MAX_LEVELS or mseg > _BRUTEFORCE_MAX_SEGMENTS:
        raise TooExpensive(
            f"brute force needs levels <= {_BRUTEFORCE_MAX_LEVELS} and "
            f"segments <= {_BRUTEFORCE_MAX_SEGMENTS}, got {nlev} and {mseg}"
        )
    omega = sys.omega
    dt = f.dt
    vals = f.as_array()
    ints = _phase_poly_integrals(omega, dt, m - 1)
    seg_phase = np.exp(1j * omega * np.arange(mseg) * dt)
    rvals = np.arange(1, m + 1, dtype=np.float64)

    total = 0j
    n_cells = mseg**m
    for lo in range(0, n_cells, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, n_cells), dtype=np.int64)
        digits = np.empty((m, idx.size), dtype=np.int64)
        rem = idx
        for ax in range(m):
            digits[ax] = rem % mseg
            rem = rem // mseg
        top = digits.max(axis=0)
        is_top = digits == top[None, :]
        r = is_top.sum(axis=0)
        lower = np.where(is_top, 1.0, vals[digits] * dt).prod(axis=0)
        contrib = lower * vals[top] ** r * rvals[r - 1] * seg_phase[top] * ints[r - 1]
        total += complex(contrib.sum())
    vprod = float(np.prod(sys.couplings))
    return vprod * total / math.factorial(m)


def _kernel_midpoint_A1N(sys: SystemSpec, f: PiecewiseControl, subdiv: int = 1) -> complex:
    """Plain tensor-product midpoint quadrature of the max-kernel integral.

    O(h^2) accurate only; the no-tricks cross-check of the exact-cell brute
    force.  Cost (segments*subdiv)^(N-1).
    """
    nlev = sys.levels
    m = nlev - 1
    pts = f.segments * subdiv
    if nlev > _BRUTEFORCE_MAX_LEVELS or pts**m > 1 << 24:
        raise TooExpensive(f"midpoint grid of {pts}^{m} points is too large")
    omega = sys.omega
    hh = f.horizon / pts
    mids = (np.arange(pts) + 0.5) * hh
    fmid = f.as_array()[np.arange(pts) // subdiv]

    total = 0j
    n_cells = pts**m
    for lo in range(0, n_cells, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, n_cells), dtype=np.int64)
        tmax = np.full(idx.size, -np.inf)
        fprod = np.ones(idx.size)
        rem = idx
        for _ in range(m):
            d = rem % pts
            rem = rem // pts
            tmax = np.maximum(tmax, mids[d])
            fprod *= fmid[d]
        total += complex(np.sum(fprod * np.exp(1j * omega * tmax)))
    vprod = float(np.prod(sys.couplings))
    return vprod * total * hh**m / math.factorial(m)


def dyson_resum_defect(sys: SystemSpec, f: PiecewiseControl, n_max: int) -> float:
    """Distance between the resummed forms and the |N> column of the true propagator.

    Compares sum_{n<=n_max} (-i)^n A^n(T) against (e^{i T (H0 - b I)} U_T)|N>
    in the 2-norm, with U_T = propagate(sys, f), the propagator of
    H0 - b I + f V.  The forms are exact, so up to roundoff the distance is
    the truncation remainder of the series, whose leading term is of size
    (||V||_2 int|f|)^{n_max+1}/(n_max+1)!; it vanishes rapidly for small
    controls.
    """
    forms = dyson_forms(sys, f, n_max).table
    resum = sum((-1j) ** k * forms[k] for k in range(n_max + 1))
    u_int = expm_mih(drift(sys), -sys.horizon) @ propagate(sys, f)
    return float(np.linalg.norm(resum - u_int[:, -1]))


# ---------------------------------------------------------------- column


def column_reference(sys: SystemSpec, values: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The |N> column at complex amplitudes by the plain Taylor-action loop.

    The same arguments, substep plan and result as dynamics._column_at, and
    the same arithmetic per term: the real (N, N+1) matrix [V | omega e_1] / m,
    its last column the first column of this module's drift, times the
    float view of (hzf term; h term[0]), where hzf is h z f_j on every
    level.  Every term is built on fresh arrays in one pass over all
    columns, with no buffer reused and no result written in place, so
    _column_at's buffers, and any slicing of its callers, must agree with
    it bit for bit.
    """
    z = np.asarray(z, dtype=np.complex128)
    n = sys.levels
    dt = sys.horizon / values.shape[1]
    step = np.concatenate([v_matrix(sys), drift(sys)[:, :1]], axis=1)
    psi = np.zeros((n, z.size), dtype=np.complex128)
    psi[-1] = 1.0
    for fj, theta, substeps in zip(values.T, *_taylor_substeps(sys, values, z)):
        h = -1j * dt / substeps
        hzf = np.tile(h * (z * fj[:, None]).reshape(1, -1), (n, 1))
        terms = _taylor_degree(theta / substeps)
        for _ in range(int(substeps)):
            term = psi.copy()
            for m in range(1, terms + 1):
                arg = np.concatenate([hzf * term, h * term[:1]])
                term = ((step / m) @ arg.view(np.float64)).view(np.complex128)
                psi = psi + term
    return np.ascontiguousarray(psi.T).reshape(*z.shape, n)


def column_reference_ld(sys: SystemSpec, values: np.ndarray, z: np.ndarray, degree=_taylor_degree) -> np.ndarray:
    """The |N> column of dynamics._column_at in clongdouble, to measure float64's error.

    The same arguments and substep plan (_taylor_substeps, and the Taylor
    degree that degree(theta / substeps) gives, by default _column_at's own
    _taylor_degree, computed in float64), but every number the loop touches
    is extended precision, and each term is the naive h/m (H0 - b I + zf V)
    term, its gap a - b rounded once in float64 like _column_at's.  numpy
    has no BLAS for clongdouble, so V, which is tridiagonal, is applied
    through its two off-diagonals: three times faster than its dense matmul,
    and the same sums, as V's other entries are zero.  The result
    is a (D, K, N) clongdouble array.  Where longdouble is no finer than
    float64 (MSVC, some ARM builds) the oracle measures nothing, so it
    fails instead of skipping.
    """
    eps = np.finfo(np.longdouble).eps
    assert eps < 1e-18, f"longdouble eps is {eps}: no extended precision on this platform"
    z = np.asarray(z, dtype=np.complex128)
    z_ld = z.astype(np.clongdouble)
    dt = np.longdouble(sys.horizon) / values.shape[1]
    e = np.zeros((sys.levels, 1), dtype=np.longdouble)
    e[0] = drift(sys)[0, 0]
    v = np.array(sys.couplings, dtype=np.longdouble)[:, None]
    psi = np.zeros((sys.levels, z.size), dtype=np.clongdouble)
    psi[-1] = 1
    for fj, theta, substeps in zip(values.T, *_taylor_substeps(sys, values, z)):
        h = -1j * dt / np.longdouble(substeps)
        zf = (z_ld * fj.astype(np.longdouble)[:, None]).reshape(-1)
        terms = degree(theta / substeps)
        for _ in range(int(substeps)):
            term = psi.copy()
            for m in range(1, terms + 1):
                v_term = np.zeros_like(term)
                v_term[:-1] = v * term[1:]
                v_term[1:] += v * term[:-1]
                term = (h / m) * (e * term + zf * v_term)
                psi += term
    return np.ascontiguousarray(psi.T).reshape(*z.shape, sys.levels)


# ---------------------------------------------------------------- lie rank


def lie_rank_reference(gen_a, gen_b) -> LieAlgebraResult:
    """The complex closure landscape.lie_rank_matrices replaced, kept verbatim.

    It takes the skew-Hermitian generators i h_a, i h_b and runs on interleaved
    (Re, Im) vectors of length 2 N^2; the package runs on h_a, h_b themselves
    in R^{N^2}.  Both must give the same (dimension, saturated, depth_reached).
    """
    tol = TOLERANCES["lie_tol"]
    gens = np.array([gen_a, gen_b], dtype=np.complex128)
    n = gens.shape[-1]
    size = n * n
    # Orthonormal rows in R^{2 N^2}: never more than 2 N^2 of them.
    basis = np.empty((2 * size, 2 * size))
    dim = 0

    def extend(candidates: np.ndarray) -> np.ndarray:
        nonlocal dim
        start = dim
        vecs = candidates.reshape(-1, size).view(np.float64)  # (Re, Im) interleaved
        nrm = np.linalg.norm(vecs, axis=1)
        keep = nrm >= 1e-300
        for v in vecs[keep] / nrm[keep, None]:
            for _ in range(2):  # twice, for orthogonality to roundoff
                v -= (basis[:dim] @ v) @ basis[:dim]
            res = float(np.linalg.norm(v))
            if res > tol:
                basis[dim] = v / res
                dim += 1
        return basis[start:dim].view(np.complex128).reshape(-1, n, n)

    gnrm = np.linalg.norm(gens, axis=(1, 2))
    gens = gens[gnrm > 0.0] / gnrm[gnrm > 0.0, None, None]
    frontier = extend(gens)
    depth = 1
    # span of skew-Hermitian matrices can never exceed dim u(N) = N^2
    while len(frontier) and dim < size:
        depth += 1
        frontier = extend((gens[:, None] @ frontier - frontier @ gens[:, None]).reshape(-1, n, n))
    return LieAlgebraResult(
        dimension=dim,
        saturated=dim >= size - 1,
        depth_reached=depth,
        tolerance=tol,
    )


# ---------------------------------------------------------------- instances

TWO_PI = 2 * math.pi


def n3_instance(omega: float = 1.0, horizon: float = TWO_PI) -> ProblemInstance:
    """N = 3 ladder with a = omega, b = 0, unit couplings and lambda = (1, -1, 0)."""
    sys = build_system(3, omega, 0.0, (1.0, 1.0), horizon)
    return build_instance(sys, build_observable((1.0, -1.0, 0.0)))


def n4_instance(horizon: float = TWO_PI) -> ProblemInstance:
    """N = 4 unit ladder with lambda = (1, 0.3, -1, 0)."""
    return build_instance(ladder(4, horizon), build_observable((1.0, 0.3, -1.0, 0.0)))


def ladder(levels: int, horizon: float = TWO_PI, coupling: float = 1.0) -> SystemSpec:
    """The ladder with a = 1, b = 0 and every coupling equal to `coupling`."""
    return build_system(levels, 1.0, 0.0, (coupling,) * (levels - 1), horizon)


def ladder_instance(levels: int, horizon: float = TWO_PI, coupling: float = 1.0) -> ProblemInstance:
    """ladder(levels, horizon, coupling) with lambda = (1, 0.5 .. 0.1, -1, 0)."""
    lam = (1.0, *np.linspace(0.5, 0.1, levels - 3), -1.0, 0.0)
    return build_instance(ladder(levels, horizon, coupling), build_observable(lam))


def random_instances(count: int = 120) -> list[tuple[ProblemInstance, int]]:
    """`count` random instances with their certificate seeds, from default_rng(12345).

    Each instance draws, in this order: N uniform in 3..10; a, then b,
    uniform in [-3, 3]; the signs of its N - 1 couplings, then their
    magnitudes log-uniform in [0.2, 3]; T log-uniform in [pi/2, 8 pi]; the
    N - 3 inner eigenvalues uniform in (-0.9, 0.9), sorted descending
    between lambda_1 = 1 and lambda_{N-1}, lambda_N = -1, 0; and the
    certificate seed uniform in 0..999.
    """
    rng = np.random.default_rng(12345)
    out = []
    for _ in range(count):
        levels = int(rng.integers(3, 11))
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        sign = rng.choice([-1.0, 1.0], levels - 1)
        couplings = sign * np.exp(rng.uniform(math.log(0.2), math.log(3.0), levels - 1))
        horizon = float(np.exp(rng.uniform(math.log(math.pi / 2), math.log(8 * math.pi))))
        inner = np.sort(rng.uniform(-0.9, 0.9, levels - 3))[::-1]
        seed = int(rng.integers(0, 1000))
        system = build_system(levels, a, b, tuple(couplings.tolist()), horizon)
        out.append((build_instance(system, build_observable((1.0, *inner.tolist(), -1.0, 0.0))), seed))
    return out
