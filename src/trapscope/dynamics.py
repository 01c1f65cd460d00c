"""Controlled dynamics, the objective, and chronological iterated-integral forms.

The propagator solves i dU/dt = (H0 + f(t) V) U with U(0) = I.  Because f is
piecewise constant, each segment is advanced by one exact Hermitian
exponential, so propagation carries no time-discretization error beyond
roundoff.

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
on the |N> column.  The C_k come once per (system, dt, n_max) from the
block-triangular exponential of Van Loan (IEEE TAC 1978), in the
auxiliary-matrix form of Goodwin & Kuprov (J. Chem. Phys. 143, 084113,
2015), and are checked against the eigenvalue route of numerics.expm_mih.

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


def propagate(sys: SystemSpec, f: PiecewiseControl) -> np.ndarray:
    """Final-time propagator U_T for the control f.

    One exact Hermitian exponential per segment (eigendecompositions are
    batched over segments); exact for piecewise-constant f.
    """
    if f.horizon != sys.horizon:
        raise GridMismatch(
            f"control horizon {f.horizon!r} does not match system horizon {sys.horizon!r}"
        )
    h0 = h0_matrix(sys)
    v = v_matrix(sys)
    dt = f.dt
    stack = h0[None, :, :] + f.as_array()[:, None, None] * v[None, :, :]
    w, q = np.linalg.eigh(stack)
    steps = np.matmul(q * np.exp(-1j * dt * w)[:, None, :], q.conj().swapaxes(1, 2))
    u = np.eye(sys.levels, dtype=np.complex128)
    for k in range(f.segments):
        u = steps[k] @ u
    return u


# Largest unitarity defect objective accepts from a propagator.
_UNITARITY_TOL = 1e-8


def objective(u: np.ndarray, inst: ProblemInstance) -> float:
    """Mayer objective Tr(O U rho0 U^dagger) = sum_l lambda_l |<l|U|level>|^2.

    Uses the normalized observable (last eigenvalue 0), so the zero control
    scores exactly 0 when starting from level N.
    """
    defect = unitarity_defect(u)
    if defect > _UNITARITY_TOL:
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {_UNITARITY_TOL:.3e}")
    col = np.abs(u[:, inst.initial_level - 1]) ** 2
    lam = np.asarray(inst.observable.eigenvalues)
    return float(np.dot(lam, col))


@dataclass(frozen=True)
class DysonForms:
    """Final-time chronological forms A^n_l for 0 <= n <= n_max, 1 <= l <= N.

    table[n, l-1] = A^n_l(T).  Row 0 is the Kronecker row (0, ..., 0, 1).
    """

    n_max: int
    levels: int
    table: np.ndarray
    segments: int
    horizon: float

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
    theta0 = float(np.linalg.norm(b0, 2))
    tail, bound = 0, 1.0
    while bound > 1e-18:
        tail += 1
        bound *= theta0 / tail
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
    """Block matrices G_0..G_{n_max} of the segment step in series form.

    S(x) = exp(-i dt (H0 + x V)) = sum_k x^k C_k.  G_k has C_k on its k-th
    block subdiagonal, so for a stacked series P = (P_0, ..., P_{n_max}),
    sum_k x^k G_k P holds the coefficients of S(x) P(x) truncated at
    x^{n_max}.  The coefficients are checked once against the eigenvalue
    route: C_0 against exp(-i dt H0) and sum_k x^k C_k at one probe x.
    """
    n = sys.levels
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

    size = (n_max + 1) * n
    blocks = np.zeros((n_max + 1, size, size), dtype=np.complex128)
    for k in range(n_max + 1):
        for row in range(k, n_max + 1):
            col = row - k
            blocks[k, row * n : (row + 1) * n, col * n : (col + 1) * n] = coeffs[k]
    blocks.setflags(write=False)
    return blocks


def _interaction_series(sys: SystemSpec, f: PiecewiseControl, n_max: int, start: np.ndarray) -> np.ndarray:
    """A^0..A^{n_max} applied to start (N x c): A^n = i^n e^{i T H0} P_n.

    P_n is the coefficient of x^n in U_T(x f) start.  As U_T(x f) =
    S(x f_M) ... S(x f_1), each segment applies the truncated Cauchy product
    P_n <- sum_k f_j^k C_k P_{n-k}.  Exact up to roundoff.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if f.horizon != sys.horizon:
        raise GridMismatch(
            f"control horizon {f.horizon!r} does not match system horizon {sys.horizon!r}"
        )
    n = sys.levels
    blocks = _segment_series(sys, f.dt, n_max)
    stacked = np.zeros(((n_max + 1) * n, start.shape[1]), dtype=np.complex128)
    stacked[:n] = start
    for fpow in f.as_array()[:, None] ** np.arange(n_max + 1):
        stacked = np.tensordot(fpow, blocks @ stacked, axes=1)
    ipow = 1j ** (np.arange(n_max + 1) % 4)
    phase = np.exp(1j * sys.horizon * energies(sys))
    return ipow[:, None, None] * phase[None, :, None] * stacked.reshape(n_max + 1, n, -1)


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
    return DysonForms(n_max=n_max, levels=n, table=table, segments=f.segments, horizon=f.horizon)


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
