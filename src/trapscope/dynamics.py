"""Controlled dynamics, the objective, and chronological iterated-integral forms.

The propagator solves i dU/dt = (H0 + f(t) V) U with U(0) = I.  Because f is
piecewise constant, each segment is advanced by one exact exponential, so
propagation carries no time-discretization error beyond roundoff.  One core,
propagate_batch, serves every sampled objective value at real amplitude
(scan, the witness search): H0 + x V is real symmetric, so the steps of a whole
stack of controls come from one float64 eigendecomposition, and each
U_T = S_M ... S_1 is a pairwise tree product.  Controls pass through in
blocks of BLOCK_MATRICES segment matrices, which keeps peak memory flat in
the number of controls.  propagate is its B = 1 case, so a batched row and a
single call agree bit for bit.  The witness refinement keeps the tree levels
of one control and recomputes only the path above a changed segment
(_tree_path), with the same operands in the same order, so its propagators
agree with propagate bit for bit too.  The Taylor cross-check samples the
|N> column at complex amplitudes, where the step is not Hermitian, with an
exponential of its own (_column_at) that shares nothing with the forms.

The chronological forms of order n are

    A^n_l(f) = int_{T >= t_1 >= ... >= t_n >= 0} f(t_1)...f(t_n)
               <l| V_{t_1} ... V_{t_n} |N> dt_n ... dt_1,

with V_t = e^{i t H0} V e^{-i t H0} and A^0_l = delta_{lN}.  They are the
interaction-picture Taylor data of the propagator:

    e^{i T H0} U_T = sum_n (-i)^n A^n(T).

Because f is piecewise constant, the propagator of the scaled control x f is
a product of segment steps S(x f_j), S(x) = exp(-i dt (H0 + x V)) =
sum_k x^k C_k, so the forms are a finite computation:

    A^n = i^n e^{i T H0} [S(x f_M) ... S(x f_1)]_n |N>,

where [.]_n is the coefficient of x^n, taken by a truncated Cauchy product
of the stack (C_0, ..., C_{n_max}) with the |N> column.  The C_k come once
per (system, dt, n_max) from the block-triangular exponential of Van Loan
(IEEE TAC 1978), in the auxiliary-matrix form of Goodwin & Kuprov (J. Chem.
Phys. 143, 084113, 2015), and are checked against numerics.expm_mih.

Three independent evaluation routes are provided for the distinguished form
A^{N-1} at l = 1:

  * dyson_forms        -- the exact truncated series above;
  * kernel_form_A1N    -- a 1-D reduction of the (N-1)-dimensional kernel
                          integral with kernel ~ e^{i omega max(t_1..t_{N-1})},
                          using that the integrand is symmetric:
                          int_{[0,T]^m} e^{i w max} prod f
                              = m int_0^T e^{i w s} f(s) F(s)^{m-1} ds,
                          F(s) = int_0^s f;
  * kernel_bruteforce_A1N -- direct enumeration of every cell of the
                          m-dimensional grid with the phase factor integrated
                          exactly inside each cell.

The reduction identity is not taken on faith: the test suite checks the three
routes against each other and against a plain midpoint tensor quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .controls import PiecewiseControl, integral
from .errors import (
    DomainError,
    GridMismatch,
    NotUnitary,
    SeriesCheckFailed,
    TooExpensive,
)
from .model import ProblemInstance, SystemSpec, energies, h0_matrix, v_matrix, v_power_element
from .numerics import expm_mih, unitarity_defect


# Segment matrices per block of propagate_batch.  The working set (the
# stacked H0 + x V, its eigenvectors, the steps and the tree levels) is a few
# times this many N x N matrices however many controls come in, so peak RSS
# does not grow with the batch; one unblocked scan direction (401 controls of
# 64 segments) raised it by a third.
BLOCK_MATRICES = 256


def block_controls(segments: int) -> int:
    """How many controls of `segments` segments fill one propagation block."""
    if segments < 1:
        raise DomainError(f"segments must be >= 1, got {segments}")
    return max(1, BLOCK_MATRICES // segments)


def _segment_steps(sys: SystemSpec, values: np.ndarray) -> np.ndarray:
    """Segment steps S(x) = exp(-i dt (H0 + x V)) for finite values of shape (..., M).

    H0 + x V is real symmetric, so each step is Q diag(e^{-i dt w}) Q^T from
    one float64 eigendecomposition over the stack; the result has shape
    (..., M, N, N), dt = T / M.
    """
    dt = sys.horizon / values.shape[-1]
    w, q = np.linalg.eigh(h0_matrix(sys).real + values[..., None, None] * v_matrix(sys).real)
    return (q * np.exp(-1j * dt * w)[..., None, :]) @ q.swapaxes(-1, -2)


def _tree_levels(steps: np.ndarray) -> list[np.ndarray]:
    """Every level of the pairwise product S_M ... S_1 of steps[..., k, :, :] = S_{k+1}.

    levels[0] is the steps themselves.  Each next level multiplies every
    later node onto its earlier neighbour in one batched matmul; a level of
    odd length carries its last node up unchanged.  The last level holds the
    single product, after ceil(log2 M) levels.
    """
    levels = [steps]
    while steps.shape[-3] > 1:
        m = steps.shape[-3]
        paired = steps[..., 1::2, :, :] @ steps[..., 0 : m - 1 : 2, :, :]
        if m % 2:
            paired = np.concatenate([paired, steps[..., m - 1 :, :, :]], axis=-3)
        steps = paired
        levels.append(steps)
    return levels


def _tree_path(levels: list[np.ndarray], leaf: int, step: np.ndarray) -> list[np.ndarray]:
    """The nodes from leaf to root of the tree `levels` with leaf `leaf` replaced by step.

    path[l] is the new node at index leaf >> l of levels[l], computed with the
    operands and order _tree_levels uses (later @ earlier, a carried node
    passed up unchanged), so path[-1] is bit for bit the product a fresh
    tree over the changed steps would give.  `levels` is not modified.
    """
    path = [step]
    for level in levels[:-1]:
        if leaf % 2:
            step = step @ level[..., leaf - 1, :, :]
        elif leaf + 1 < level.shape[-3]:
            step = level[..., leaf + 1, :, :] @ step
        path.append(step)
        leaf //= 2
    return path


def propagate_batch(sys: SystemSpec, values) -> np.ndarray:
    """Final-time propagators U_T[b] for the B controls values[b] (shape (B, M)).

    Each control is piecewise constant on M equal segments of [0, T], T the
    system horizon.  Every segment step comes from _segment_steps and
    U_T = S_M ... S_1 is the root of _tree_levels.  Controls go through in
    blocks of BLOCK_MATRICES segment matrices, and every row is computed the
    same way whatever its block, so a row equals the B = 1 result for that
    control bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise DomainError(f"expected control values of shape (B, M) with M >= 1, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DomainError("control values must be finite")
    batch, segments = values.shape
    n = sys.levels
    out = np.empty((batch, n, n), dtype=np.complex128)
    rows = block_controls(segments)
    for lo in range(0, batch, rows):
        out[lo : lo + rows] = _tree_levels(_segment_steps(sys, values[lo : lo + rows]))[-1][:, 0]
    return out


def _check_horizon(sys: SystemSpec, f: PiecewiseControl):
    if f.horizon != sys.horizon:
        raise GridMismatch(
            f"control horizon {f.horizon!r} does not match system horizon {sys.horizon!r}"
        )


def propagate(sys: SystemSpec, f: PiecewiseControl) -> np.ndarray:
    """Final-time propagator U_T for the control f: the B = 1 case of
    propagate_batch, after checking that f lives on the system horizon."""
    _check_horizon(sys, f)
    return propagate_batch(sys, f.as_array()[None])[0]


# Largest unitarity defect objective accepts from a propagator.
_UNITARITY_TOL = 1e-8


def objective(u: np.ndarray, inst: ProblemInstance) -> float | np.ndarray:
    """Mayer objective Tr(O U |N><N| U^dagger) = sum_l lambda_l |<l|U|N>|^2.

    u is one propagator (N, N), giving a float, or a stack (B, N, N), giving
    an array of B values.  Each matrix must pass the unitarity check on its
    own.  Uses the normalized observable (last eigenvalue 0), so the zero
    control scores exactly 0.
    """
    defect = np.atleast_1d(unitarity_defect(u))
    worst = int(np.argmax(defect))
    if defect[worst] > _UNITARITY_TOL:
        raise NotUnitary(
            f"unitarity defect {defect[worst]:.3e} of matrix {worst} exceeds {_UNITARITY_TOL:.3e}"
        )
    lam = np.asarray(inst.observable.eigenvalues)
    stack = np.asarray(u)
    values = np.sum(lam * np.abs(stack[..., :, -1]) ** 2, axis=-1)
    return float(values) if stack.ndim == 2 else values


@dataclass(frozen=True)
class DysonForms:
    """Final-time chronological forms A^n_l for 0 <= n <= n_max, 1 <= l <= N.

    table[n, l-1] = A^n_l(T).  Row 0 is the Kronecker row (0, ..., 0, 1).
    """

    n_max: int
    levels: int
    table: np.ndarray

    @property
    def substeps(self) -> int:
        """Always 0: the forms come from an exact series, not time stepping.

        Kept because the benchmark harness under bench/ still reads it.
        """
        return 0

    def value(self, n: int, l: int) -> complex:
        """A^n_l with 1-based level index l."""
        if not 0 <= n <= self.n_max:
            raise DomainError(f"order {n} outside 0..{self.n_max}")
        if not 1 <= l <= self.levels:
            raise DomainError(f"level {l} outside 1..{self.levels}")
        return complex(self.table[n, l - 1])


def _taylor_terms(theta: float) -> int:
    """Taylor terms of exp(A), ||A|| <= theta, past which it adds < 1e-18."""
    terms, bound = 0, 1.0
    while bound > 1e-18:
        terms += 1
        bound *= theta / terms
    return terms


def _exp_series(b0: np.ndarray, b1: np.ndarray, order: int) -> np.ndarray:
    """Coefficients X_0..X_order of exp(b0 + x b1) as a power series in x.

    By Van Loan's block-triangular identity these are the first block row of
    the exponential of the block-bidiagonal matrix with b0 on the diagonal
    and b1 above it.  That matrix and its exponential are block Toeplitz, so
    only the first block row is carried: matrix products become truncated
    Cauchy products of coefficient sequences.  Scaling and squaring with a
    Taylor polynomial; each coefficient X_k keeps roundoff relative to its
    own natural size ||b1||^k / k!, which tiny high-order coefficients need.
    """
    n = b0.shape[0]
    theta = float(np.linalg.norm(b0, 2) + np.linalg.norm(b1, 2))
    squarings = max(0, math.ceil(math.log2(theta / 0.25)))
    b0 = b0 / 2.0**squarings
    b1 = b1 / 2.0**squarings
    # Taylor terms beyond order + tail add less than 1e-18 of every coefficient.
    tail = _taylor_terms(float(np.linalg.norm(b0, 2)))
    term = np.zeros((order + 1, n, n), dtype=np.complex128)
    term[0] = np.eye(n)
    total = term.copy()
    for m in range(1, order + tail + 1):
        nxt = b0 @ term
        nxt[1:] += b1 @ term[:-1]
        term = nxt / m
        total += term
    for _ in range(squarings):
        total = np.stack([sum(total[j] @ total[k - j] for j in range(k + 1)) for k in range(order + 1)])
    return total


# Frobenius tolerance of the series self-check; both sides are unitary to roundoff.
_SERIES_CHECK_TOL = 1e-12


@lru_cache(maxsize=16)
def _segment_series(sys: SystemSpec, dt: float, n_max: int) -> np.ndarray:
    """Coefficients C_0..C_{n_max} of the segment step, as a read-only stack.

    S(x) = exp(-i dt (H0 + x V)) = sum_k x^k C_k, and the result has shape
    (n_max+1, N, N) with C_k in slot k.  The coefficients are checked once
    against the eigenvalue route: C_0 against exp(-i dt H0) and
    sum_k x^k C_k at one probe x.
    """
    h0 = h0_matrix(sys)
    v = v_matrix(sys)
    coeffs = _exp_series(-1j * dt * h0, -1j * dt * v, n_max)

    # Probe at |x| ||dt V||_2 = r, where dropping the terms past x^n_max costs
    # less than r^(n_max+1) e^r / (n_max+1)! <= 1e-15, as ||C_k|| <= ||dt V||^k / k!.
    r = min(1.0, (1e-15 * math.factorial(n_max + 1) / math.e) ** (1.0 / (n_max + 1)))
    x = r / (dt * float(np.linalg.norm(v, 2)))
    resummed = sum(x**k * c for k, c in enumerate(coeffs))
    defect = max(
        float(np.linalg.norm(coeffs[0] - expm_mih(h0, dt), "fro")),
        float(np.linalg.norm(resummed - expm_mih(h0 + x * v, dt), "fro")),
    )
    if defect > _SERIES_CHECK_TOL:
        raise SeriesCheckFailed(
            f"series coefficients miss the direct exponential by {defect:.3e} "
            f"(tolerance {_SERIES_CHECK_TOL:.0e})"
        )
    coeffs.setflags(write=False)
    return coeffs


def _interaction_series(sys: SystemSpec, f: PiecewiseControl, n_max: int, start: np.ndarray) -> np.ndarray:
    """A^0..A^{n_max} applied to start (N x c): A^n = i^n e^{i T H0} P_n.

    P_n is the coefficient of x^n in U_T(x f) start.  As U_T(x f) =
    S(x f_M) ... S(x f_1), each segment applies the truncated Cauchy product
    P_m <- sum_k f_j^k C_k P_{m-k}: a Toeplitz gather Q[m, k] = f_j^k P_{m-k}
    (zero for k > m), then one batched product of [C_0 ... C_{n_max}] with
    every Q[m].  Exact up to roundoff.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    _check_horizon(sys, f)
    n = sys.levels
    order = np.arange(n_max + 1)
    coeff_row = _segment_series(sys, f.dt, n_max).transpose(1, 0, 2).reshape(n, -1)
    lag = order[:, None] - order[None, :]
    lag[lag < 0] = n_max + 1  # the all-zero slot below
    series = np.zeros((n_max + 2, n, start.shape[1]), dtype=np.complex128)
    series[0] = start
    for fpow in f.as_array()[:, None] ** order:
        gathered = fpow[None, :, None, None] * series[lag]
        series[:-1] = coeff_row @ gathered.reshape(n_max + 1, (n_max + 1) * n, -1)
    ipow = 1j ** (order % 4)
    phase = np.exp(1j * sys.horizon * energies(sys))
    return ipow[:, None, None] * phase[None, :, None] * series[:-1]


def _column_at(sys: SystemSpec, f: PiecewiseControl, z: np.ndarray) -> np.ndarray:
    """e^{i b T} U_T(z f)|N> for every complex amplitude z[k], shape (K, N).

    Applies each step exp(-i dt (H0 - b I + z f_j V)) to psi by its Taylor
    series on the vector (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011),
    in substeps of norm <= 0.5.  The shift -b I is a global phase.  Neither
    eigh (the step is not Hermitian) nor the forms' C_k are used, so the
    sampled objective checks the forms independently.
    """
    _check_horizon(sys, f)
    z = np.asarray(z, dtype=np.complex128)
    h0 = np.diag(energies(sys) - sys.b).astype(np.complex128)
    v = v_matrix(sys)
    zv_norm = float(np.max(np.abs(z))) * float(np.linalg.norm(v, 2))  # bounds ||z V||
    psi = np.zeros((z.size, sys.levels, 1), dtype=np.complex128)
    psi[:, -1] = 1.0
    for fj in f.as_array():
        theta = f.dt * (abs(sys.omega) + abs(fj) * zv_norm)
        substeps = max(1, math.ceil(2.0 * theta))
        gen = (-1j * f.dt / substeps) * (h0 + (fj * z)[:, None, None] * v)
        terms = _taylor_terms(theta / substeps)
        for _ in range(substeps):
            term = psi
            for m in range(1, terms + 1):
                term = (gen @ term) / m
                psi = psi + term
    return psi[:, :, 0]


def dyson_forms(sys: SystemSpec, f: PiecewiseControl, n_max: int) -> DysonForms:
    """Chronological forms of order 0..n_max at the final time.

    Exact for piecewise-constant f up to roundoff: the |N> column of the
    propagator is expanded as a power series in the control amplitude.
    """
    n = sys.levels
    start = np.zeros((n, 1), dtype=np.complex128)
    start[n - 1, 0] = 1.0
    table = _interaction_series(sys, f, n_max, start)[:, :, 0]
    table[0] = 0.0  # A^0_l = delta_{lN} by definition, not up to roundoff
    table[0, n - 1] = 1.0
    table.setflags(write=False)
    return DysonForms(n_max=n_max, levels=n, table=table)


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


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def kernel_form_A1N(sys: SystemSpec, f: PiecewiseControl) -> complex:
    """A^{N-1}_1 via the 1-D reduction of the max-kernel integral.

    A = v_1...v_{N-1} / (N-2)! * int_0^T e^{i omega s} f(s) F(s)^{N-2} ds
    with F(s) = int_0^s f.  Per segment the integrand is e^{i omega s} times
    a polynomial, integrated by Gauss-Legendre quadrature.
    """
    m = sys.levels - 1
    omega = sys.omega
    vals = f.as_array()
    dt = f.dt
    nodes = max(12, m + 2 + int(math.ceil(1.5 * abs(omega) * dt)))
    x, w = _gauss_legendre(nodes)

    starts = np.arange(f.segments) * dt
    f_at_start = np.concatenate([[0.0], np.cumsum(vals)]) * dt  # F at segment starts
    u = 0.5 * dt * (x + 1.0)
    s = starts[:, None] + u[None, :]
    big_f = f_at_start[:-1, None] + vals[:, None] * u[None, :]
    integrand = np.exp(1j * omega * s) * vals[:, None] * big_f ** (m - 1)
    val = 0.5 * dt * complex(np.sum(integrand * w[None, :]))
    vprod = float(np.prod(sys.couplings))
    return vprod * val / math.factorial(m - 1)


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

    O(h^2) accurate only; used in tests as the no-tricks cross-check of the
    exact-cell brute force.  Cost (segments*subdiv)^(N-1).
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
    """Frobenius distance between the resummed forms and the true propagator.

    Compares sum_{n<=n_max} (-i)^n A^n(T), with the forms of every starting
    level, against e^{i T H0} U_T.  The forms are exact, so up to roundoff
    the distance is the truncation remainder of the series, whose leading
    term is of size (||V||_2 int|f|)^{n_max+1}/(n_max+1)!; it vanishes
    rapidly for small controls.
    """
    n = sys.levels
    forms = _interaction_series(sys, f, n_max, np.eye(n, dtype=np.complex128))
    resum = np.eye(n, dtype=np.complex128)
    for k in range(1, n_max + 1):
        resum = resum + (-1j) ** k * forms[k]
    u_int = expm_mih(h0_matrix(sys), -sys.horizon) @ propagate(sys, f)
    return float(np.linalg.norm(resum - u_int, "fro"))
