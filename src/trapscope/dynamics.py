"""Controlled dynamics, the objective, and chronological iterated-integral forms.

Every kernel here reads model's drift H0 - b I = diag(omega, 0, ..., 0) in
place of H0 (model states why: b is a global phase), so the propagator
solves i dU/dt = (H0 - b I + f(t) V) U with U(0) = I.  Because f is
piecewise constant, each segment is advanced by one exact exponential, so
propagation carries no time-discretization error beyond roundoff.  Two
routes sample the objective.

  * propagate_batch forms full propagators at real amplitude (propagate,
    the witness walk at every amplitude, and scan's sampler,
    landscape._sample_lines, on probes whose steps are long): H0 - b I + x V
    is real symmetric, so the steps of a whole stack of controls come from
    one float64 eigendecomposition and two real matrix products, and each
    U_T = S_M ... S_1 is a pairwise tree product (_tree_product) that keeps
    only its current level.  Controls pass through in blocks of
    BLOCK_MATRICES segment matrices, which keeps peak memory flat in the
    number of controls.  propagate is its B = 1 case, so a batched row and
    a single call agree bit for bit.
  * _column_at advances only the |N> column, by the Taylor action of each
    step, at any complex amplitude.  The columns of one call are held
    level-major, and the drift H0 - b I = diag(omega, 0, ..., 0) is one
    more column of V's real matrix, so a Taylor term is one full-shape
    complex scale, one real matrix product on the float view and the sum
    into psi, in one pass over the columns.  Each substep stops at the
    smallest Taylor degree whose backward error is within the unit
    roundoff (_taylor_degree).  The Taylor cross-check samples it where the
    step is not Hermitian, and scan's sampler at real t on each probe whose
    every segment step needs one substep, where it is several times cheaper
    than an eigendecomposition per step.  Its caller passes the plan,
    _taylor_substeps(sys, values, z), which that sampler also reads per
    probe to choose its route.  It shares nothing with the forms.

The ladder's parity P = diag(1, -1, 1, ...) (P fixes H0 - b I, P V P = -V)
holds exactly on both routes, so U_T(-f) = P U_T(f) P and J(-f) = J(f) hold
bit for bit; scan relies on it to sample only t >= 0.

Both certificate layers take every probe direction in one stacked pass.
propagate and dyson_forms accept one control, or a sequence of controls on
one grid, like objective: one control in gives one result, a sequence gives
one result with a leading direction axis.  They and landscape's
taylor_fit, witness_search and _sample_lines (scan's sampler) read
controls through one intake, _as_stack, which checks the grid once and
returns the (D, M) float64 array of values; the segment width is T / M.
_column_at is an array kernel: it takes that (D, M) array, from its
caller's one _as_stack call, with (D, K) amplitudes and a plan.  In
dyson_forms and _column_at a stack runs through one segment loop, with the
directions as extra columns of each segment's products, so the loop's
Python overhead is paid once per stack instead of once per direction.
Blocks of BLOCK_MATRICES N x N matrices (block_controls, direction_block)
and of the column route's one budget (column_block) keep the working set
flat however many directions or points come in.

The chronological forms of order n are

    A^n_l(f) = int_{T >= t_1 >= ... >= t_n >= 0} f(t_1)...f(t_n)
               <l| V_{t_1} ... V_{t_n} |N> dt_n ... dt_1,

with V_t = e^{i t H0} V e^{-i t H0}, which H0 - b I gives as well, and
A^0_l = delta_{lN}.  They are the interaction-picture Taylor data of the
propagator, on H0 - b I as on H0:

    e^{i T (H0 - b I)} U_T = sum_n (-i)^n A^n(T).

Because f is piecewise constant, the propagator of the scaled control x f is
a product of segment steps S(x f_j), S(x) = exp(-i dt (H0 - b I + x V)) =
sum_k x^k C_k, so the forms are a finite computation:

    A^n = i^n e^{i T (H0 - b I)} [S(x f_M) ... S(x f_1)]_n |N>,

where [.]_n is the coefficient of x^n.  dyson_forms is the forms kernel: it
takes that coefficient by a truncated Cauchy product of the stack
(C_0, ..., C_{n_max}) with the |N> column of every direction at once.  The
C_k come once per (system, dt, n_max) from the block-triangular exponential
of Van Loan (IEEE TAC 1978), in the auxiliary-matrix form of Goodwin &
Kuprov (J. Chem. Phys. 143, 084113, 2015), and are checked against the
propagation core's own segment steps, so the package carries one unitary
exponential.

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

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .controls import PiecewiseControl, _check_grid
from .errors import DomainError, GridMismatch, NotUnitary, SeriesCheckFailed, count
from .model import ProblemInstance, SystemSpec, _v_norm, drift_matrix, v_matrix


# Segment matrices per block of propagate_batch.  The working set (the
# stacked H0 - b I + x V, its eigenvectors, the steps and one tree level) is
# a few times this many N x N matrices however many controls come in, so peak
# RSS does not grow with the batch; one unblocked scan direction (401 controls of
# 64 segments) raised it by a third.
BLOCK_MATRICES = 256


def block_controls(segments: int) -> int:
    """How many controls of `segments` segments fill one propagation block.

    segments is an integer >= 1 (numpy integers included), else DomainError.
    """
    return max(1, BLOCK_MATRICES // count("segments", segments, 1, DomainError))


def _segment_steps(sys: SystemSpec, values: np.ndarray, dt: float) -> np.ndarray:
    """Segment steps S(x) = exp(-i dt (H0 - b I + x V)) for finite values of shape (..., M).

    The drift H0 - b I is model's drift_matrix, and H0 - b I + x V is real
    symmetric, so each step is Q diag(e^{-i dt w}) Q^T from one float64
    eigendecomposition over the stack, formed in real arithmetic:
    Re S = (Q cos(dt w)) Q^T and Im S = -(Q sin(dt w)) Q^T.  The result has
    shape (..., M, N, N); the steps of a control on M segments take dt = T / M.

    The ladder's parity P = diag(1, -1, 1, ...) fixes the drift and flips V,
    so H0 - b I - |x| V = P (H0 - b I + |x| V) P.  Only H0 - b I + |x| V is
    decomposed, and for x < 0 the rows of Q take the signs of P.  Sign flips
    are exact and leave every sum in its order, so S(-x) = P S(x) P, and
    with it U_T(-f) = P U_T(f) P and J(-f) = J(f), hold bit for bit on any
    LAPACK.
    """
    parity = (-1.0) ** np.arange(sys.levels)
    w, q = np.linalg.eigh(drift_matrix(sys) + np.abs(values)[..., None, None] * v_matrix(sys))
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
    system horizon.  U_T is the propagator of H0 - b I + f V, which is
    e^{i b T} times that of H0 + f V.  The scalar is left on: multiplying
    it out would move the last bits of |U|^2, and no J sees it.  Every
    segment step comes from _segment_steps and U_T = S_M ... S_1 comes from
    _tree_product.  Controls go through in blocks of BLOCK_MATRICES segment
    matrices, and every row is computed the same way whatever its block, so
    a row equals the B = 1 result for that control bit for bit.
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


def _as_stack(sys: SystemSpec, controls) -> tuple[np.ndarray, bool]:
    """The values of the controls as one (D, M) float64 array, and whether one came in.

    controls is one PiecewiseControl or a sequence of them.  A control off the
    system horizon, or two on different grids, raise GridMismatch; an empty
    sequence raises DomainError.  Past these checks each control's dt is the
    float sys.horizon / M.
    """
    single = isinstance(controls, PiecewiseControl)
    stack = [controls] if single else list(controls)
    if not stack:
        raise DomainError("expected at least one control")
    for f in stack:
        _check_horizon(sys, f)
        _check_grid(stack[0], f)
    return np.array([f.values for f in stack], dtype=np.float64), single


def propagate(sys: SystemSpec, f) -> np.ndarray:
    """Final-time propagator U_T for the control f: the B = 1 case of
    propagate_batch, after checking that f lives on the system horizon.
    Like it, U_T is that of H0 - b I + f V, e^{i b T} times that of H0 + f V.
    A sequence of controls on one grid gives their stack (D, N, N)."""
    values, single = _as_stack(sys, f)
    u = propagate_batch(sys, values)
    return u[0] if single else u


# Largest unitarity defect objective accepts from a propagator.
_UNITARITY_TOL = 1e-8


def unitarity_defect(u):
    """Frobenius norm of U^dagger U - I_k, for U of N rows and 1 <= k <= N columns.

    u is one matrix (N, k), giving a float, or a stack (B, N, k), giving an
    array with the defect of each matrix; a row of the stack gets the same
    value as that matrix alone.  A square U is checked for unitarity; a
    column (k = 1) only for unit norm.
    """
    m = np.asarray(u, dtype=np.complex128)
    if m.ndim not in (2, 3) or not 1 <= m.shape[-1] <= m.shape[-2]:
        raise ValueError(f"expected an N x k matrix with 1 <= k <= N or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    g = m.conj().swapaxes(-1, -2) @ m
    defect = np.linalg.norm(g - np.eye(m.shape[-1]), "fro", axis=(-2, -1))
    return float(defect) if m.ndim == 2 else defect


def objective(u: np.ndarray, inst: ProblemInstance) -> float | np.ndarray:
    """Mayer objective Tr(O U |N><N| U^dagger) = sum_l lambda_l |<l|U|N>|^2.

    u is one propagator (N, N), giving a float, or a stack (B, N, N), giving
    an array of B values.  Only the last column U|N> enters, so u may also
    be that column alone, (N, 1) or (B, N, 1), and scores the same bits.
    Each matrix must pass unitarity_defect on its own: a full U its
    unitarity, a column only its norm.  Uses the normalized observable
    (last eigenvalue 0), so the zero control scores exactly 0.
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
    Kronecker row (0, ..., 0, 1).  The table is the only field: n_max and
    levels are read off its shape, (..., n_max+1, N).
    """

    substeps: ClassVar[int] = 0  # not a field: the forms are an exact series; bench/launch.py reads it

    table: np.ndarray

    @property
    def n_max(self) -> int:
        return self.table.shape[-2] - 1

    @property
    def levels(self) -> int:
        return self.table.shape[-1]


def _taylor_terms(theta: float) -> int:
    """Taylor terms of exp(A), ||A|| <= theta, past which it adds < 1e-18."""
    terms, bound = 0, 1.0
    while bound > 1e-18:
        terms += 1
        bound *= theta / terms
    return terms


# theta_m for m = 1..14: the largest ||A|| at which the degree-m Taylor
# polynomial of exp(A) is exp(A + E) with ||E|| <= 2^-53 ||A|| (Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33, 2011, Table 3.1, double precision).
# _taylor_substeps keeps every substep's norm <= 0.5, below theta_14.
_TAYLOR_THETA = (
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2,
    5.00e-2, 8.96e-2, 0.144, 0.214, 0.300, 0.400, 0.514,
)


def _taylor_degree(theta: float) -> int:
    """Taylor degree of _column_at's substeps of norm <= theta: the smallest m
    with theta <= theta_m, whose backward error is within the unit roundoff."""
    return bisect.bisect_left(_TAYLOR_THETA, theta) + 1


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

    S(x) = exp(-i dt (H0 - b I + x V)) = sum_k x^k C_k, on model's drift
    H0 - b I, and the result has shape (n_max+1, N, N) with C_k in slot k.
    The coefficients are checked once against the propagation core's own
    steps (_segment_steps, the eigenvalue route): C_0 against
    S(0) = exp(-i dt (H0 - b I)) and sum_k x^k C_k against S(x) at one
    probe x.  Couplings so weak that some C_k would underflow raise
    DomainError instead: float64 cannot resolve those forms.
    """
    drift = drift_matrix(sys)
    v = v_matrix(sys)
    # The natural size of C_k is s^k / k!, s = ||dt V||_2; it is log-concave in
    # k and 1 at k = 0, so its smallest value on 0..n_max is that of k = n_max.
    s = dt * _v_norm(sys)
    log_size = n_max * math.log(s) - math.lgamma(n_max + 1) if s > 0.0 else -math.inf
    if log_size < math.log(np.finfo(float).tiny):
        raise DomainError(
            f"series coefficient C_{n_max} of natural size ||dt V||_2^{n_max} / {n_max}! "
            f"= 1e{log_size / math.log(10.0):.1f} would underflow in float64: not resolvable"
        )
    coeffs = _exp_series(-1j * dt * drift, -1j * dt * v, n_max)

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


def direction_block(entries: int, levels: int) -> int:
    """Directions per block when each needs `entries` numbers of working set.

    Sized like block_controls: a block holds about BLOCK_MATRICES N x N
    matrices, so peak memory does not grow with the number of directions.
    """
    return block_controls(-(-entries // (levels * levels)))


def _taylor_substeps(sys: SystemSpec, values: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norm bounds and substep counts of _column_at's segment steps, one plan per stack.

    values is a (D, M) stack of control values and z the (D, K) amplitudes,
    row d those of control d.  taylor_fit passes each block's plan to
    _column_at, and landscape._sample_lines the elementwise max of its
    column-route probes' own plans, which is this function on them bit for
    bit, as every step below is monotone.  So a column's substeps, Taylor
    degree and last bits depend on the other rows of its plan's stack.
    With the stack-wide peak
    p_j = max_d max_k |z_dk f_dj| on segment j,
    theta_j = dt (|omega| + p_j ||V||_2), dt = T / M, bounds the norm of
    every column's exponent dt (H0 - b I + z f_j V), as
    H0 - b I = diag(omega, 0, ..., 0), and the step runs in ceil(2 theta_j)
    substeps of norm <= 0.5, at least one, each of Taylor degree
    _taylor_degree(theta_j / substeps) <= 14.  The counts are floats, so a
    theta that is not finite (an overflowed z f) gives a count that is not
    finite instead of raising; an integer count converts to float exactly.
    The work of _column_at grows with theta, unlike an eigendecomposition's,
    so landscape._sample_lines takes the column route for a probe only
    where this plan, on that probe's row alone, gives a single substep
    everywhere.
    """
    dt = sys.horizon / values.shape[1]
    peaks = np.max(np.abs(values) * np.max(np.abs(z), axis=1)[:, None], axis=0)
    theta = dt * (abs(sys.omega) + peaks * _v_norm(sys))
    return theta, np.maximum(1.0, np.ceil(2.0 * theta))


# The column route's one budget: the largest size in bytes of one
# _column_at call's loop buffers (psi, term, the scale and the product's
# argument: 4 N + 1 complex numbers per column), so that they stay in a
# core's 2 MB L2 cache (2-vCPU Xeon).  There, one pass over a probe of
# 10001 columns at N = 8 took 356 ms and passes of this size 176 ms; a
# probe of 100001 columns at N = 3 took 1.67 s and 0.73 s.
_COLUMN_CHUNK_BYTES = 2**20


def column_block(levels: int, points: int) -> int:
    """Rows of `points` columns whose _column_at buffers fit _COLUMN_CHUNK_BYTES, at least one.

    At 4 N + 1 complex numbers a column, that is 229 of n3's 22-point
    contours, 13 of scan-n6's 201-point rows, or 5041 single columns at
    N = 3: the blocks of taylor_fit and landscape._sample_lines, which
    slices a row that alone is longer.
    """
    return max(1, _COLUMN_CHUNK_BYTES // (16 * (4 * levels + 1) * points))


def _column_at(sys: SystemSpec, values: np.ndarray, z: np.ndarray, plan) -> np.ndarray:
    """U_T(z f_d)|N> at complex amplitudes z for each control f_d of a stack.

    values is the (D, M) float64 array of control values that _as_stack
    returns, z the (D, K) complex amplitudes, row d those of control d, and
    plan the (theta, substeps) of _taylor_substeps on a stack that holds
    these columns; the result has shape (D, K, N).  Grids are not checked
    here: the caller validated them when it converted its controls.

    Applies each step exp(-i dt (H0 - b I + z f_j V)) to psi by its Taylor
    series on the vector (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011),
    in the plan's substeps of norm <= theta / substeps <= 0.5, each
    truncated at _taylor_degree(theta / substeps): the smallest degree m
    whose theta_m (that paper's double-precision table) covers the substep,
    so the truncated series is the exact exponential of an exponent
    perturbed by at most the unit roundoff, relative to its norm.  The
    R = D K columns are held level-major, as (N, R) arrays, so the drift
    and V act on all of them at once.  Term m of a substep is

        term_m = step_m (hzf term_{m-1}; h term_{m-1}[0]),
        step_m = [V | omega e_1] / m,

    with h = -i dt / substeps, omega = sys.omega and hzf = h z f_j on every
    level: the drift H0 - b I = diag(omega, 0, ..., 0) is the last column
    of the real (N, N+1) matrix step_m, so a term is one full-shape complex
    scale, one row scale, one real (N, N+1) x (N+1, 2R) product on the
    float view of its argument, and psi += term, into buffers made once
    per call: psi, term, hzf and the argument, 4 N + 1 complex numbers per
    column.  Each row of step_m has at most two nonzeros (V's
    off-diagonals, and on row 1 v_1/m and omega/m), so every entry of the
    product sums the same two products whatever order or thread count the
    BLAS uses.  No column's arithmetic reads another's, so a column's bits
    depend only on its amplitude, its control and the plan: a caller that
    splits a row into slices under one plan gets the bits of one call.
    The result is a C-contiguous (D, K, N) array, whose layout fixes the
    summation order of the callers' reductions over levels, written into
    the last term's buffer.
    Neither eigh (the step is not Hermitian) nor the forms' C_k are used,
    so the sampled objective checks the forms independently.  At real z,
    negating z negates hzf and leaves level 1 alone, so it only flips the
    signs of psi's odd entries (psi(-z) = psi(z) P, P the ladder's
    parity), exactly, and |psi| and J at -z equal those at z bit for bit.
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)  # a broadcast z converts to Fortran order
    n = sys.levels
    dt = sys.horizon / values.shape[1]
    # [V | omega e_1] / m for every degree: with the drift as its last column,
    # step_m @ (hzf term; h term[0]) is term m of a substep.
    step = np.concatenate([v_matrix(sys), drift_matrix(sys)[:, :1]], axis=1)
    steps = [step / m for m in range(1, len(_TAYLOR_THETA) + 1)]
    # Every term reuses these buffers: fresh temporaries this large go back
    # to the OS and are faulted in again on every term.
    psi = np.zeros((n, z.size), dtype=np.complex128)
    psi[-1] = 1.0
    term, hzf = np.empty_like(psi), np.empty_like(psi)
    arg = np.empty((n + 1, z.size), dtype=np.complex128)
    term_f, arg_f = term.view(np.float64), arg.view(np.float64)
    for fj, theta, substeps in zip(values.T, *plan):
        h = -1j * dt / substeps
        # Full shape, not a row broadcast over the levels, which takes
        # numpy's complex multiply off its SIMD loop.
        np.multiply(z, fj[:, None], out=hzf[0].reshape(z.shape))
        np.multiply(h, hzf[0], out=hzf[0])
        hzf[1:] = hzf[0]
        degree = _taylor_degree(theta / substeps)
        for _ in range(int(substeps)):
            prev = psi  # term 0 of the substep
            for step_m in steps[:degree]:
                np.multiply(hzf, prev, out=arg[:n])
                np.multiply(h, prev[0], out=arg[n])
                np.matmul(step_m, arg_f, out=term_f)
                psi += term
                prev = term
    out = term.reshape(z.size, n)
    out[...] = psi.T
    return out.reshape(*z.shape, n)


def dyson_forms(sys: SystemSpec, controls, n_max: int) -> DysonForms:
    """Chronological forms of order 0..n_max at the final time: A^n = i^n e^{i T (H0 - b I)} P_n.

    P_n is the coefficient of x^n in U_T(x f)|N>.  As U_T(x f) =
    S(x f_M) ... S(x f_1), each segment applies the truncated Cauchy product
    P_m <- sum_k f_j^k C_k P_{m-k}: a Toeplitz gather Q[m, k] = f_j^k P_{m-k}
    (zero for k > m), then one batched product of [C_0 ... C_{n_max}] with
    every Q[m], whose columns are the directions.  Exact for
    piecewise-constant f up to roundoff.

    One control gives a table of shape (n_max+1, N); a sequence of controls
    on one grid gives one DysonForms whose table has a leading direction
    axis, (D, n_max+1, N).  A control whose largest |f_j|^n_max overflows
    float64 raises DomainError before anything is computed, as does an
    n_max that is not an integer >= 1 (numpy integers pass).
    """
    n_max = count("n_max", n_max, 1, DomainError)
    values, single = _as_stack(sys, controls)
    peak = float(np.max(np.abs(values)))
    if peak > 0.0 and n_max * math.log(peak) > math.log(np.finfo(float).max):
        raise DomainError(
            f"control amplitude {peak:.3e} to the power {n_max} would overflow in float64: "
            "not resolvable"
        )
    n = sys.levels
    order = np.arange(n_max + 1)
    coeff_row = _segment_series(sys, sys.horizon / values.shape[1], n_max).transpose(1, 0, 2).reshape(n, -1)
    lag = order[:, None] - order[None, :]
    lag[lag < 0] = n_max + 1  # the all-zero slot below
    table = np.empty((len(values), n_max + 1, n), dtype=np.complex128)
    rows = direction_block((n_max + 1) ** 2 * n, n)
    for lo in range(0, len(values), rows):
        block = values[lo : lo + rows]
        d = len(block)
        series = np.zeros((n_max + 2, n, d), dtype=np.complex128)
        series[0, n - 1] = 1.0
        for fpow in block.T[:, None, :] ** order[:, None]:  # (n_max+1, d): f_j^k per direction
            gathered = fpow[None, :, None, :] * series[lag]
            product = coeff_row @ gathered.reshape(n_max + 1, (n_max + 1) * n, d)
            series[:-1] = product.reshape(n_max + 1, n, d)
        table[lo : lo + d] = series[:-1].transpose(2, 0, 1)
    table *= 1j ** (order % 4)[:, None] * np.exp(1j * sys.horizon * np.diagonal(drift_matrix(sys)))
    table[..., 0, :] = 0.0  # A^0_l = delta_{lN} by definition, not up to roundoff
    table[..., 0, n - 1] = 1.0
    table = table[0] if single else table
    table.setflags(write=False)
    return DysonForms(table)


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
