"""Controlled dynamics, the objective, and chronological iterated-integral forms.

The propagator solves i dU/dt = (H0 + f(t) V) U with U(0) = I.  Because f is
piecewise constant, each segment is advanced by one exact exponential, so
propagation carries no time-discretization error beyond roundoff.  One core,
propagate_batch, serves every sampled objective value at real amplitude
(scan, the witness search): H0 + x V is real symmetric, so the steps of a whole
stack of controls come from one float64 eigendecomposition and two real
matrix products, and each U_T = S_M ... S_1 is a pairwise tree product
(_tree_product) that keeps only its current level.  The ladder's parity
P = diag(1, -1, 1, ...) (P H0 P = H0, P V P = -V) is built into the steps,
so U_T(-f) = P U_T(f) P and J(-f) = J(f) hold bit for bit; scan relies on
it to propagate only t >= 0.  Controls pass through in
blocks of BLOCK_MATRICES segment matrices, which keeps peak memory flat in
the number of controls.  propagate is its B = 1 case, so a batched row and a
single call agree bit for bit.  The Taylor cross-check samples the
|N> column at complex amplitudes, where the step is not Hermitian, with an
exponential of its own (_column_at) that shares nothing with the forms.

Both certificate layers take every probe direction in one stacked pass.
dyson_forms and _column_at accept one control, or a sequence of controls on
one grid, like objective: one control in gives one result, a sequence gives
one result with a leading direction axis.  A sequence runs through one
segment loop, with the directions as extra columns of each segment's
products, so the loop's Python overhead is paid once per stack instead of
once per direction.  Stacks go through in blocks sized by direction_block,
which keeps the working set near BLOCK_MATRICES N x N matrices however many
directions come in.

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
of the stack (C_0, ..., C_{n_max}) with the |N> column of every direction at
once.  The C_k come once
per (system, dt, n_max) from the block-triangular exponential of Van Loan
(IEEE TAC 1978), in the auxiliary-matrix form of Goodwin & Kuprov (J. Chem.
Phys. 143, 084113, 2015), and are checked against the propagation core's own
segment steps, so the package carries one unitary exponential.

Two evaluation routes for the distinguished form A^{N-1} at l = 1 live here:

  * dyson_forms     -- the exact truncated series above;
  * kernel_form_A1N -- a 1-D reduction of the (N-1)-dimensional kernel
                       integral with kernel ~ e^{i omega max(t_1..t_{N-1})},
                       using that the integrand is symmetric:
                       int_{[0,T]^m} e^{i w max} prod f
                           = m int_0^T e^{i w s} f(s) F(s)^{m-1} ds,
                       F(s) = int_0^s f.

The reduction identity is not taken on faith: the test oracles
(tests/oracles.py) enumerate every cell of the m-dimensional grid with the
phase integrated exactly inside each cell, and the test suite checks the
routes against each other and against a plain midpoint tensor quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .controls import PiecewiseControl, _check_grid
from .errors import DomainError, GridMismatch, NotUnitary, SeriesCheckFailed
from .model import ProblemInstance, SystemSpec, energies, h0_matrix, v_matrix


# Segment matrices per block of propagate_batch.  The working set (the
# stacked H0 + x V, its eigenvectors, the steps and one tree level) is a few
# times this many N x N matrices however many controls come in, so peak RSS
# does not grow with the batch; one unblocked scan direction (401 controls of
# 64 segments) raised it by a third.
BLOCK_MATRICES = 256


def block_controls(segments: int) -> int:
    """How many controls of `segments` segments fill one propagation block."""
    if segments < 1:
        raise DomainError(f"segments must be >= 1, got {segments}")
    return max(1, BLOCK_MATRICES // segments)


def _segment_steps(sys: SystemSpec, values: np.ndarray, dt: float) -> np.ndarray:
    """Segment steps S(x) = exp(-i dt (H0 + x V)) for finite values of shape (..., M).

    H0 + x V is real symmetric, so each step is Q diag(e^{-i dt w}) Q^T from
    one float64 eigendecomposition over the stack, formed in real arithmetic:
    Re S = (Q cos(dt w)) Q^T and Im S = -(Q sin(dt w)) Q^T.  The result has
    shape (..., M, N, N); the steps of a control on M segments take dt = T / M.

    The ladder's parity P = diag(1, -1, 1, ...) fixes H0 and flips V, so
    H0 - |x| V = P (H0 + |x| V) P.  Only H0 + |x| V is decomposed, and for
    x < 0 the rows of Q take the signs of P.  Sign flips are exact and leave
    every sum in its order, so S(-x) = P S(x) P, and with it
    U_T(-f) = P U_T(f) P and J(-f) = J(f), hold bit for bit on any LAPACK.
    """
    parity = (-1.0) ** np.arange(sys.levels)
    w, q = np.linalg.eigh(h0_matrix(sys).real + np.abs(values)[..., None, None] * v_matrix(sys).real)
    q = np.where((values < 0)[..., None, None], parity[:, None] * q, q)
    qt = np.ascontiguousarray(q.swapaxes(-1, -2))  # a strided Q^T makes matmul about 1.4x slower
    phase = dt * w[..., None, :]
    steps = np.empty(q.shape, dtype=np.complex128)
    steps.real = (q * np.cos(phase)) @ qt
    steps.imag = -((q * np.sin(phase)) @ qt)
    return steps


def _tree_product(steps: np.ndarray) -> np.ndarray:
    """The product S_M ... S_1 of steps[..., k, :, :] = S_{k+1}, as a pairwise tree.

    Each level multiplies every later node onto its earlier neighbour in one
    batched matmul; a level of odd length carries its last node up unchanged.
    After ceil(log2 M) levels one node is left, returned with shape (..., N, N).
    """
    while steps.shape[-3] > 1:
        m = steps.shape[-3]
        paired = steps[..., 1::2, :, :] @ steps[..., 0 : m - 1 : 2, :, :]
        if m % 2:
            paired = np.concatenate([paired, steps[..., m - 1 :, :, :]], axis=-3)
        steps = paired
    return steps[..., 0, :, :]


def propagate_batch(sys: SystemSpec, values) -> np.ndarray:
    """Final-time propagators U_T[b] for the B controls values[b] (shape (B, M)).

    Each control is piecewise constant on M equal segments of [0, T], T the
    system horizon.  Every segment step comes from _segment_steps and
    U_T = S_M ... S_1 comes from _tree_product.  Controls go through in
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
        steps = _segment_steps(sys, values[lo : lo + rows], sys.horizon / segments)
        out[lo : lo + rows] = _tree_product(steps)
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


def unitarity_defect(u):
    """Frobenius norm of U^dagger U - I.

    u is one matrix (N, N), giving a float, or a stack (B, N, N), giving an
    array with the defect of each matrix; a row of the stack gets the same
    value as that matrix alone.
    """
    m = np.asarray(u, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    g = m.conj().swapaxes(-1, -2) @ m
    defect = np.linalg.norm(g - np.eye(m.shape[-1]), "fro", axis=(-2, -1))
    return float(defect) if m.ndim == 2 else defect


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

    table[..., n, l-1] = A^n_l(T), with a leading direction axis when the
    forms of several controls were computed together.  Row 0 is the
    Kronecker row (0, ..., 0, 1).
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

    def value(self, n: int, l: int) -> complex | np.ndarray:
        """A^n_l with 1-based level index l: a complex, or an array over directions."""
        if not 0 <= n <= self.n_max:
            raise DomainError(f"order {n} outside 0..{self.n_max}")
        if not 1 <= l <= self.levels:
            raise DomainError(f"level {l} outside 1..{self.levels}")
        value = self.table[..., n, l - 1]
        return complex(value) if value.ndim == 0 else value


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
    against the propagation core's own steps (_segment_steps, the eigenvalue
    route): C_0 against S(0) = exp(-i dt H0) and sum_k x^k C_k against S(x)
    at one probe x.  Couplings so weak that some C_k would underflow raise
    DomainError instead: float64 cannot resolve those forms.
    """
    h0 = h0_matrix(sys)
    v = v_matrix(sys)
    # The natural size of C_k is s^k / k!, s = ||dt V||_2; it is log-concave in
    # k and 1 at k = 0, so its smallest value on 0..n_max is that of k = n_max.
    s = dt * float(np.linalg.norm(v, 2))
    log_size = n_max * math.log(s) - math.lgamma(n_max + 1) if s > 0.0 else -math.inf
    if log_size < math.log(np.finfo(float).tiny):
        raise DomainError(
            f"series coefficient C_{n_max} of natural size ||dt V||_2^{n_max} / {n_max}! "
            f"= 1e{log_size / math.log(10.0):.1f} would underflow in float64: not resolvable"
        )
    coeffs = _exp_series(-1j * dt * h0, -1j * dt * v, n_max)

    # Probe at |x| s = r, where dropping the terms past x^n_max costs less
    # than r^(n_max+1) e^r / (n_max+1)! <= 1e-15, as ||C_k|| <= s^k / k!.
    r = min(1.0, (1e-15 * math.factorial(n_max + 1) / math.e) ** (1.0 / (n_max + 1)))
    x = r / s
    # By Horner, which never forms x^k: x itself may be near the largest float.
    resummed = coeffs[-1]
    for c in coeffs[-2::-1]:
        resummed = resummed * x + c
    step_0, step_x = _segment_steps(sys, np.array([0.0, x]), dt)
    # np.max, unlike max, keeps a NaN from either side, and "not <=" fails on it.
    defect = float(
        np.max([np.linalg.norm(coeffs[0] - step_0, "fro"), np.linalg.norm(resummed - step_x, "fro")])
    )
    if not defect <= _SERIES_CHECK_TOL:
        raise SeriesCheckFailed(
            f"series coefficients miss the direct exponential by {defect:.3e} "
            f"(tolerance {_SERIES_CHECK_TOL:.0e})"
        )
    coeffs.setflags(write=False)
    return coeffs


def _as_stack(sys: SystemSpec, controls) -> tuple[list[PiecewiseControl], bool]:
    """The controls as a list on one grid of the system horizon, and whether one came in.

    controls is one PiecewiseControl or a sequence of them.  A control off the
    system horizon, or two on different grids, raise GridMismatch; an empty
    sequence raises DomainError.
    """
    single = isinstance(controls, PiecewiseControl)
    stack = [controls] if single else list(controls)
    if not stack:
        raise DomainError("expected at least one control")
    for f in stack:
        _check_horizon(sys, f)
        _check_grid(stack[0], f)
    return stack, single


def direction_block(entries: int, levels: int) -> int:
    """Directions per block when each needs `entries` numbers of working set.

    Sized like block_controls: a block holds about BLOCK_MATRICES N x N
    matrices, so peak memory does not grow with the number of directions.
    """
    return block_controls(-(-entries // (levels * levels)))


def _interaction_series(sys: SystemSpec, controls, n_max: int, start: np.ndarray) -> np.ndarray:
    """A^0..A^{n_max} applied to start (N x c) for each control: A^n = i^n e^{i T H0} P_n.

    P_n is the coefficient of x^n in U_T(x f) start.  As U_T(x f) =
    S(x f_M) ... S(x f_1), each segment applies the truncated Cauchy product
    P_m <- sum_k f_j^k C_k P_{m-k}: a Toeplitz gather Q[m, k] = f_j^k P_{m-k}
    (zero for k > m), then one batched product of [C_0 ... C_{n_max}] with
    every Q[m].  Exact up to roundoff.

    controls is one control, giving shape (n_max+1, N, c), or a sequence on
    one grid, giving (D, n_max+1, N, c).  All directions share one segment
    loop: the gather carries them as extra columns of the same product.  They
    pass through in blocks whose gather holds about BLOCK_MATRICES N x N
    matrices.  A control whose largest |f_j|^n_max overflows float64 raises
    DomainError before anything is computed.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    stack, single = _as_stack(sys, controls)
    values = np.array([f.values for f in stack], dtype=np.float64)
    peak = float(np.max(np.abs(values)))
    if peak > 0.0 and n_max * math.log(peak) > math.log(np.finfo(float).max):
        raise DomainError(
            f"control amplitude {peak:.3e} to the power {n_max} would overflow in float64: "
            "not resolvable"
        )
    n, cols = sys.levels, start.shape[1]
    order = np.arange(n_max + 1)
    coeff_row = _segment_series(sys, stack[0].dt, n_max).transpose(1, 0, 2).reshape(n, -1)
    lag = order[:, None] - order[None, :]
    lag[lag < 0] = n_max + 1  # the all-zero slot below
    out = np.empty((len(stack), n_max + 1, n, cols), dtype=np.complex128)
    rows = direction_block((n_max + 1) ** 2 * n * cols, n)
    for lo in range(0, len(stack), rows):
        block = values[lo : lo + rows]
        d = len(block)
        series = np.zeros((n_max + 2, n, d, cols), dtype=np.complex128)
        series[0] = start[:, None, :]
        for fpow in block.T[:, None, :] ** order[:, None]:  # (n_max+1, d): f_j^k per direction
            gathered = fpow[None, :, None, :, None] * series[lag]
            product = coeff_row @ gathered.reshape(n_max + 1, (n_max + 1) * n, d * cols)
            series[:-1] = product.reshape(n_max + 1, n, d, cols)
        out[lo : lo + d] = series[:-1].transpose(2, 0, 1, 3)
    ipow = 1j ** (order % 4)
    phase = np.exp(1j * sys.horizon * energies(sys))
    out *= ipow[:, None, None] * phase[None, :, None]
    return out[0] if single else out


def _column_at(sys: SystemSpec, controls, z: np.ndarray) -> np.ndarray:
    """e^{i b T} U_T(z f)|N> at complex amplitudes z for each control.

    controls is one control with z of shape (K,), giving shape (K, N), or a
    sequence of D controls on one grid with z of shape (D, K), each row its
    control's own amplitudes, giving (D, K, N).

    Applies each step exp(-i dt (H0 - b I + z f_j V)) to psi by its Taylor
    series on the vector (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011),
    in substeps of norm <= 0.5.  The shift -b I is a global phase.  All D K
    columns advance in one pass: H0 - b I is diagonal, so it acts
    elementwise, and V psi comes from one shared (D K, N) x (N, N) product.
    Each segment takes the largest step norm over the stack, which sets its
    substeps and Taylor terms.  Neither eigh (the step is not Hermitian) nor
    the forms' C_k are used, so the sampled objective checks the forms
    independently.
    """
    stack, single = _as_stack(sys, controls)
    values = np.array([f.values for f in stack], dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128).reshape(len(stack), -1)
    dt = stack[0].dt
    e = (energies(sys) - sys.b).astype(np.complex128)
    v = v_matrix(sys)
    zv_norm = np.max(np.abs(z), axis=1) * float(np.linalg.norm(v, 2))  # bounds ||z V|| per direction
    psi = np.zeros((z.size, sys.levels), dtype=np.complex128)
    psi[:, -1] = 1.0
    for fj in values.T:
        theta = dt * (abs(sys.omega) + float(np.max(np.abs(fj) * zv_norm)))
        substeps = max(1, math.ceil(2.0 * theta))
        h = -1j * dt / substeps
        zf = (z * fj[:, None]).reshape(-1, 1)
        terms = _taylor_terms(theta / substeps)
        for _ in range(substeps):
            term = psi
            for m in range(1, terms + 1):
                hm = h / m
                term = (hm * e) * term + (hm * zf) * (term @ v)
                psi = psi + term
    psi = psi.reshape(*z.shape, sys.levels)
    return psi[0] if single else psi


def dyson_forms(sys: SystemSpec, controls, n_max: int) -> DysonForms:
    """Chronological forms of order 0..n_max at the final time.

    Exact for piecewise-constant f up to roundoff: the |N> column of the
    propagator is expanded as a power series in the control amplitude.
    One control gives a table of shape (n_max+1, N); a sequence of controls
    on one grid gives one DysonForms whose table has a leading direction
    axis, (D, n_max+1, N), from one shared segment loop.
    """
    n = sys.levels
    start = np.zeros((n, 1), dtype=np.complex128)
    start[n - 1, 0] = 1.0
    table = _interaction_series(sys, controls, n_max, start)[..., 0]
    table[..., 0, :] = 0.0  # A^0_l = delta_{lN} by definition, not up to roundoff
    table[..., 0, n - 1] = 1.0
    table.setflags(write=False)
    return DysonForms(n_max=n_max, levels=n, table=table)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def kernel_form_A1N(sys: SystemSpec, f: PiecewiseControl) -> complex:
    """A^{N-1}_1 via the 1-D reduction of the max-kernel integral.

    A = v_1...v_{N-1} / (N-2)! * int_0^T e^{i omega s} f(s) F(s)^{N-2} ds
    with F(s) = int_0^s f.  Per segment the integrand is e^{i omega s} times
    a polynomial, integrated by Gauss-Legendre quadrature.  Raises
    GridMismatch if f does not live on the system horizon.
    """
    _check_horizon(sys, f)
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
