"""Landscape analysis at the zero control: arbitrary-order directional
differentials of the objective, sampled Taylor coefficients,
Lie-algebra controllability rank, a non-optimality witness search, and the
assembled trap certificate.

For a direction f, the Taylor coefficient of order n of t -> J(t*f) equals

    c_n = sum_{j=0}^{n} sum_{l=1}^{N-1} (-1)^{n-j} i^n lambda_l
          A^j_l(f) conj(A^{n-j}_l(f)),

with the chronological forms A of the dynamics module and the observable
normalized so lambda_N = 0.  The certificate checks, on every probe direction:
stationarity (c_1 = 0), strict second-order descent off the mean-zero
subspace, flatness of orders 3..2N-3 on it, and the non-negative matching
coefficient at order 2N-2; plus the Lie-rank controllability proxy and a
best-effort witness that the zero control is not a global maximum: the
first control t*f along the certificate's own probe lines, walked from the
largest amplitude down on the contour's scale, that scores well above it.

Analytic values (from the forms) are the primary evidence; a Cauchy
contour of the objective itself, continued to complex amplitudes,
cross-validates every order at once (taylor_fit).  Its samples come from an
exponential of their own, so they share no code with the forms.

dyson_forms, differential, order_2N2_value and taylor_fit follow the
objective idiom: one control (or its forms) gives one result, a sequence
gives one result with a leading direction axis.  The certificate builds its
direction table from one call of each on all probe directions, so the forms
and the contours of every direction each run in one stacked segment loop.

The recipe is fixed: probe amplitude and offset, contour points, witness
settings and every check threshold are the module constants below
(PROBE_AMPLITUDE .. TOLERANCES).  Only the instance and the sampling budget
(CertificateConfig, which owns its range checks) vary between runs, and
every report records TOLERANCES.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np

from .controls import PiecewiseControl, _direction_values, integral, norm
from .dynamics import (
    DysonForms,
    _as_stack,
    _column_at,
    _taylor_substeps,
    _v_norm,
    block_controls,
    direction_block,
    dyson_forms,
    objective,
    propagate_batch,
)
# propagate is not called here; bench/launch.py rebinds it by name.
from .dynamics import propagate  # noqa: F401
from .errors import (
    ConfigError,
    DomainError,
    InsufficientOrder,
    TrapscopeError,
)
from .model import ProblemInstance, SystemSpec, h0_matrix, v_matrix

# Mean-zero probe directions have L2 norm PROBE_AMPLITUDE sqrt(T); odd-index
# probes add a constant +-PROBE_OFFSET_FRACTION * PROBE_AMPLITUDE, so their
# predicted second-order coefficient is bounded away from zero and its
# relative check is well posed.
PROBE_AMPLITUDE = 0.5
PROBE_OFFSET_FRACTION = 0.6
CONTOUR_EXTRA_POINTS = 16  # contour points beyond the 2N sampled orders
# The witness walks tau log-spaced from the top of this range down to its
# bottom, at amplitudes tau / (||V||_2 int|f|) along each probe f.
WITNESS_AMPLITUDE_SCALE = (0.1, 1000.0)
# The witness builds its whole tau grid before the first evaluation: at this
# budget the n4 example peaks at about 20 MB, at 10^10 it would need about
# 20 GB.  CertificateConfig refuses a larger witness_budget.
MAX_WITNESS_BUDGET = 10**7
# A witness must score above J(0) + WITNESS_MARGIN (lambda_1 - lambda_N),
# where J(0) = lambda_N: the zero control's propagator is diagonal.
WITNESS_MARGIN = 0.01
# Check thresholds; every report carries a copy under "tolerances".
TOLERANCES = {
    "stationary_analytic": 1e-10,
    "stationary_fit": 1e-8,
    "descent_rel": 1e-3,
    "flat_analytic_scale": 1e-9,  # x (1 + ||f||)^n
    "flat_fit_scale": 1e-6,  # x max(1, ||f||)^n
    "order_match_rel": 5e-2,
    "order_nonneg": -1e-8,
    "lie_tol": 1e-9,
}


def differential(inst: ProblemInstance, forms: DysonForms, n: int) -> float | np.ndarray:
    """n-th Taylor coefficient (1/n! J^(n)) of the objective along forms' direction.

    A float for the forms of one control, an array over directions for
    forms with a direction axis.  Requires the normalized observable
    (lambda_N = 0), which every Observable built by this package satisfies.
    The double sum is real, as its terms j and n - j are complex conjugates;
    a coefficient that is not finite (forms that overflowed) raises
    DomainError.
    """
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    if n > forms.n_max:
        raise InsufficientOrder(f"forms extend to order {forms.n_max}, requested {n}")
    lam = np.asarray(inst.observable.eigenvalues[:-1])  # lambda_N = 0 removes l = N
    a = forms.table[..., : n + 1, :-1]
    sign = (-1.0) ** (n - np.arange(n + 1))
    terms = (1j ** (n % 4)) * sign[:, None] * lam[None, :] * a * np.conj(a[..., ::-1, :])
    value = np.asarray(terms.reshape(*terms.shape[:-2], -1).sum(axis=-1).real)
    bad = value[~np.isfinite(value)]
    if bad.size:
        raise DomainError(f"order {n} coefficient is {bad[0]} in float64: not resolvable")
    return float(value) if value.ndim == 0 else value


def order_2N2_value(inst: ProblemInstance, forms: DysonForms) -> float | np.ndarray:
    """Coefficient lambda_1 |A^{N-1}_1|^2 of order 2N-2, for mean-zero directions.

    A float for the forms of one control, an array over directions for
    forms with a direction axis.  The caller is responsible for the
    direction being mean-zero; only then is this the leading surviving
    Taylor coefficient.
    """
    nlev = inst.system.levels
    if forms.n_max < nlev - 1:
        raise InsufficientOrder(f"forms extend to order {forms.n_max}, need {nlev - 1}")
    lam1 = inst.observable.eigenvalues[0]
    value = lam1 * np.abs(forms.table[..., nlev - 1, 0]) ** 2
    return float(value) if value.ndim == 0 else value


def _line_scale(sys: SystemSpec, values: np.ndarray) -> np.ndarray:
    """||V||_2 int|f_d| for the rows f_d of a (D, M) stack.

    Along the line t f_d the coupling's exponent int ||t f_d V|| is t times
    this, so the amplitude tau / scale puts it at tau; a zero control has
    scale 0.
    """
    return _v_norm(sys) * (np.abs(values).sum(axis=1) * (sys.horizon / values.shape[1]))


def _sample_lines(inst: ProblemInstance, values: np.ndarray, z: np.ndarray) -> np.ndarray:
    """J(z_dk f_d) for the rows f_d of a (D, M) stack of control values at real (D, K) z.

    Scan and the witness sample through it.  Where the plan
    _taylor_substeps(sys, values, z) gives every step one Taylor substep,
    one _column_at pass gives the |N> columns; otherwise (more substeps, or
    a plan that is not finite) propagate_batch, whose eigendecomposition
    costs the same at any amplitude, and which refuses non-finite controls.
    """
    sys = inst.system
    if np.max(_taylor_substeps(sys, values, z)[1]) == 1.0:
        columns = _column_at(sys, values, z).reshape(-1, sys.levels, 1)
    else:
        columns = propagate_batch(sys, (z[:, :, None] * values[:, None, :]).reshape(-1, values.shape[1]))
    return objective(columns, inst).reshape(z.shape)


@dataclass(frozen=True)
class TaylorFit:
    """Sampled Taylor coefficients of t -> J(t*f): coefficients[..., k-1] is
    that of t^k, read off a Cauchy contour of radius `radius` (inf for f = 0).

    For several directions fitted together, coefficients has shape
    (D, max_order) and radius shape (D,).
    """

    max_order: int
    coefficients: np.ndarray
    radius: float | np.ndarray

    @property
    def accepted(self) -> bool:
        """Always True: the contour has no acceptance test.

        Kept because the benchmark harness under bench/ still reads it.
        """
        return True

    def coefficient(self, k: int) -> float | np.ndarray:
        if not 1 <= k <= self.max_order:
            raise DomainError(f"coefficient index {k} outside 1..{self.max_order}")
        value = self.coefficients[..., k - 1]
        return float(value) if value.ndim == 0 else value


def taylor_fit(inst: ProblemInstance, controls) -> TaylorFit:
    """Coefficients c_k, k = 1..2N, of J(t*f) from one Cauchy contour per direction.

    J(z) = sum_l lambda_l psi_l(z) conj(psi_l(conj z)), psi = U_T(z f)|N>,
    continues the objective to complex z.  It is sampled at the
    K = 2N + CONTOUR_EXTRA_POINTS points z_k = r e^{2 pi i (k + 1/2) / K},
    where conj z_k = z_{K-1-k}, and c_n = Re mean_k J(z_k) z_k^{-n}.  On the
    radius r = 2 / (||V||_2 int|f|) (_line_scale) J stays of order one
    (Bornemann, Found. Comput. Math. 11, 2011), so one radius serves all.

    controls is one control, or a sequence on one grid whose contours, each
    on its own radius, are sampled in one stacked pass (_column_at); the
    result then has a leading direction axis.  A zero control gets zero
    coefficients and radius inf.
    """
    sys = inst.system
    values, single = _as_stack(sys, controls)
    max_order = 2 * sys.levels
    with np.errstate(divide="ignore"):
        radius = 2.0 / _line_scale(sys, values)
    live = np.flatnonzero(radius < math.inf)
    points = max_order + CONTOUR_EXTRA_POINTS
    unit = np.exp(2j * np.pi * (np.arange(points) + 0.5) / points)
    lam = np.asarray(inst.observable.eigenvalues)
    orders = np.arange(1, max_order + 1)
    coeffs = np.zeros((len(values), max_order))
    rows = direction_block(points * sys.levels, sys.levels)
    for lo in range(0, len(live), rows):
        block = live[lo : lo + rows]
        z = radius[block, None] * unit
        psi = _column_at(sys, values[block], z)
        j = np.sum(lam * psi * np.conj(psi[:, ::-1]), axis=-1)
        coeffs[block] = np.mean(j[:, None, :] * z[:, None, :] ** -orders[:, None], axis=-1).real
    coeffs.setflags(write=False)
    if single:
        return TaylorFit(max_order, coeffs[0], float(radius[0]))
    return TaylorFit(max_order, coeffs, radius)


@dataclass(frozen=True)
class LieAlgebraResult:
    """Outcome of the dynamical Lie-algebra rank computation."""

    dimension: int
    saturated: bool
    depth_reached: int
    tolerance: float


def lie_rank_matrices(h_a, h_b) -> LieAlgebraResult:
    """Real dimension of the Lie algebra generated by i h_a and i h_b.

    The domain is two real symmetric N x N matrices h_a, h_b, the
    Hamiltonians themselves; a complex, non-finite or non-symmetric
    generator raises DomainError.  Every nested commutator of i h_a and
    i h_b is i S for a real symmetric S (odd depth) or a real antisymmetric
    A (even depth).  The map i S -> S, A -> A is a Frobenius isometry that
    takes the commutator with i h to the one with h, up to sign.  So the
    closure runs on real N x N matrices, as vectors of length N^2, and finds
    the dimension of the algebra over u(N).

    Breadth-first closure under commutators with the (normalized) generators.
    The basis is one (N^2, N^2) matrix of orthonormal rows.  Each level forms
    all its commutators in one broadcast product, generator-major; each
    candidate, normalized, is projected twice against the whole basis
    (v -= (B v) B) and joins it if its residual norm exceeds
    TOLERANCES["lie_tol"].  The level's new rows are the next frontier.
    Saturated means dimension >= N^2 - 1, full su(N) up to the global phase
    quotiented out in the controllability definition.  The closure ends when
    a level adds nothing or the dimension reaches N^2, so it needs no depth
    cap.
    """
    tol = TOLERANCES["lie_tol"]
    gens = np.array([h_a, h_b])
    if np.iscomplexobj(gens):
        raise DomainError("Lie generators must be real symmetric matrices, got complex ones")
    gens = gens.astype(np.float64)
    if not np.isfinite(gens).all():
        raise DomainError("Lie generators must be finite")
    if gens.ndim != 3 or not np.array_equal(gens, gens.swapaxes(1, 2)):
        raise DomainError("Lie generators must be real symmetric matrices")
    n = gens.shape[-1]
    size = n * n
    # Orthonormal rows in R^{N^2}: never more than N^2 of them.
    basis = np.empty((size, size))
    dim = 0

    def extend(candidates: np.ndarray) -> np.ndarray:
        nonlocal dim
        start = dim
        vecs = candidates.reshape(-1, size)
        nrm = np.linalg.norm(vecs, axis=1)
        keep = nrm >= 1e-300
        for v in vecs[keep] / nrm[keep, None]:
            for _ in range(2):  # twice, for orthogonality to roundoff
                v -= (basis[:dim] @ v) @ basis[:dim]
            res = float(np.linalg.norm(v))
            if res > tol:
                basis[dim] = v / res
                dim += 1
        return basis[start:dim].reshape(-1, n, n)

    gnrm = np.linalg.norm(gens, axis=(1, 2))
    gens = gens[gnrm > 0.0] / gnrm[gnrm > 0.0, None, None]
    frontier = extend(gens)
    depth = 1
    # real N x N matrices span at most N^2 dimensions
    while len(frontier) and dim < size:
        depth += 1
        frontier = extend((gens[:, None] @ frontier - frontier @ gens[:, None]).reshape(-1, n, n))
    return LieAlgebraResult(
        dimension=dim,
        saturated=dim >= size - 1,
        depth_reached=depth,
        tolerance=tol,
    )


def lie_rank(sys: SystemSpec) -> LieAlgebraResult:
    """Rank test for the controlled pair: algebra generated by iH0 and iV."""
    return lie_rank_matrices(h0_matrix(sys).real, v_matrix(sys).real)


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of the non-optimality search at one horizon: amplitude * probes[probe],
    the first control to clear the threshold, or on a miss (success False) the
    best walked.  `evaluations` counts the controls up to that one, or `budget`."""

    control: PiecewiseControl
    j_value: float
    success: bool
    evaluations: int
    probe: int
    amplitude: float


def witness_search(inst: ProblemInstance, probes, budget: int) -> WitnessResult:
    """First of `budget` controls along the probe lines that scores well above the zero control.

    The walk takes ceil(budget / D) values of tau, log-spaced from the top
    of WITNESS_AMPLITUDE_SCALE down, and at each the D probes (controls on
    one grid) in index order, at t = tau / (||V||_2 int|f|).  Its first
    `budget` controls go through _sample_lines in blocks of
    block_controls(M); the first with J > J(0) + WITNESS_MARGIN
    (lambda_1 - lambda_N) is returned, or on a miss the best, with success
    False.  J(0) is not computed: the zero control's propagator is
    diagonal, so J(0) = lambda_N.  There is no local refinement: ascent
    from near zero is pulled onto the zero control's plateau (Pechen &
    Tannor, PRL 106, 120402, 2011).  A miss is an outcome, not an error:
    the minimal horizon with good controls is unknown.  A zero probe has no
    scale: DomainError.
    """
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    sys = inst.system
    values, _ = _as_stack(sys, probes)
    directions, segments = values.shape
    lo, hi = WITNESS_AMPLITUDE_SCALE
    scale = _line_scale(sys, values)
    with np.errstate(divide="ignore"):
        if not np.all(hi / scale < math.inf):
            raise DomainError("a zero probe has no amplitude scale")
    taus = np.geomspace(hi, lo, -(-budget // directions))

    def walked(i):
        """Probe index and amplitude of control(s) i of the walk."""
        return i % directions, taus[i // directions] / scale[i % directions]

    lam = inst.observable.eigenvalues
    threshold = lam[-1] + WITNESS_MARGIN * (lam[0] - lam[-1])
    best, best_j, evals = 0, -math.inf, budget
    rows = block_controls(segments)
    for start in range(0, budget, rows):
        probe, amplitude = walked(np.arange(start, min(start + rows, budget)))
        js = _sample_lines(inst, values[probe], amplitude[:, None])[:, 0]
        hits = np.flatnonzero(js > threshold)
        # A hit beats every earlier control, as none of them cleared the threshold.
        k = int(hits[0]) if hits.size else int(np.argmax(js))
        if js[k] > best_j:
            best, best_j = start + k, float(js[k])
        if hits.size:
            evals = best + 1
            break
    probe, t = walked(best)
    return WitnessResult(
        control=PiecewiseControl(sys.horizon, tuple((t * values[probe]).tolist())),
        j_value=best_j,
        success=best_j > threshold,
        evaluations=evals,
        probe=probe,
        amplitude=float(t),
    )


@dataclass(frozen=True)
class CertificateConfig:
    """Sampling budget for trap_certificate: how many probe directions, from
    which seed, on how many segments, and how many controls the witness may
    walk along those probe lines at each of its horizons.

    At T the witness walks the certificate's own probes; at any other
    horizon in witness_horizons, the probe directions of the same seed and
    segments on that horizon (probe_directions).  The defaults and range
    checks here are the only ones, witness_budget's upper bound
    MAX_WITNESS_BUDGET among them; an out-of-range field raises ConfigError
    naming it.  Everything else about the certificate is fixed by the
    module constants.
    """

    amplitude: ClassVar[float] = PROBE_AMPLITUDE  # for callers that regenerate probe directions

    directions: int = 8
    seed: int = 20240901
    segments: int = 64
    witness_budget: int = 500
    witness_horizons: tuple[float, ...] | None = None  # default (T,)

    def __post_init__(self):
        for name, minimum in (("directions", 2), ("seed", 0), ("segments", 8), ("witness_budget", 1)):
            value = getattr(self, name)
            if value < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
        if self.witness_budget > MAX_WITNESS_BUDGET:
            raise ConfigError(
                f"witness_budget must be <= {MAX_WITNESS_BUDGET}, got {self.witness_budget!r}"
            )
        horizons = self.witness_horizons
        if horizons is not None and not (horizons and all(0.0 < h < math.inf for h in horizons)):
            raise ConfigError(
                f"witness_horizons must list positive finite horizons, got {horizons!r}"
            )


@dataclass(frozen=True)
class CheckResult:
    """One named certificate check with its headline measured/threshold pair."""

    name: str
    passed: bool
    measured: float
    threshold: float
    description: str
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrapReport:
    """Complete pass/fail record for the order-(2N-3) trap certificate."""

    instance: dict
    claimed_order: int
    checks: tuple[CheckResult, ...]
    directions: tuple[dict, ...]
    witness: tuple[dict, ...]
    lie: dict
    tolerances: dict
    seeds: tuple[int, ...]
    passed: bool
    failed_stage: str | None = None

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return asdict(self)


def probe_seed(seed: int, index: int) -> int:
    """Seed of probe direction `index` in the family drawn from base seed `seed`."""
    return seed + index


def probe_offset(index: int) -> float:
    """Constant part of probe direction `index`: 0, +c, 0, -c, 0, +c, ...

    A probe is mean-zero exactly when its offset is 0.0.
    """
    if index % 2 == 0:
        return 0.0
    sign = 1.0 if (index // 2) % 2 == 0 else -1.0
    return sign * PROBE_OFFSET_FRACTION * PROBE_AMPLITUDE


def probe_direction(seed: int, index: int, segments: int, horizon: float) -> PiecewiseControl:
    """Probe direction `index` of the family drawn from base seed `seed`.

    A mean-zero draw from probe_seed(seed, index) with L2 norm
    PROBE_AMPLITUDE sqrt(T); on odd indices it is shifted by
    +-PROBE_OFFSET_FRACTION * PROBE_AMPLITUDE, the sign alternating between
    consecutive odd indices.  The certificate and `trapscope scan` both
    probe these directions, drawn by probe_directions.
    """
    vals = _direction_values(probe_seed(seed, index), segments, horizon, True, PROBE_AMPLITUDE)
    offset = probe_offset(index)
    if offset:
        vals = vals + offset
    return PiecewiseControl(float(horizon), tuple(vals.tolist()))


def probe_directions(budget: CertificateConfig, horizon: float) -> list[PiecewiseControl]:
    """The probe family of a sampling budget on `horizon`: probe_direction(budget.seed,
    i, budget.segments, horizon) for i in range(budget.directions)."""
    return [probe_direction(budget.seed, i, budget.segments, horizon) for i in range(budget.directions)]


def _certificate_rows(inst: ProblemInstance, probes: list[PiecewiseControl], seed: int) -> list[dict]:
    """One row per probe direction of probes, the family probe_directions draws
    from base seed `seed`: forms, differentials and Taylor fit, each one
    stacked pass over all.
    """
    sys = inst.system
    nlev = sys.levels
    n_top = 2 * nlev - 2

    forms = dyson_forms(sys, probes, n_max=n_top)
    diffs = np.stack([differential(inst, forms, n) for n in range(1, n_top + 1)], axis=1)
    fit = taylor_fit(inst, probes)
    order_values = order_2N2_value(inst, forms)

    lam = inst.observable.eigenvalues
    v_last = sys.couplings[-1]
    rows = []
    for index, f in enumerate(probes):
        offset = probe_offset(index)
        mean_zero = offset == 0.0
        mean = integral(f)
        rows.append(
            {
                "index": index,
                "seed": probe_seed(seed, index),
                "mean_zero": mean_zero,
                "offset": offset,
                "norm": norm(f),
                "integral": mean,
                "substeps_used": forms.substeps,  # always 0; bench/run.py still reads it
                "differentials": diffs[index].tolist(),
                "d2_predicted": lam[nlev - 2] * v_last**2 * mean**2,
                "order_2N2_analytic": float(order_values[index]) if mean_zero else None,
                "fit_coefficients": fit.coefficients[index].tolist(),
                "fit_radius": float(fit.radius[index]),
            }
        )
    return rows


def _worst_relative_error(check: str, measured: np.ndarray, predicted: np.ndarray) -> float:
    """max |measured - predicted| / |predicted|, or 0.0 over no directions.

    A prediction of 0.0 (an underflow) leaves the relative error not
    resolvable in float64, which raises DomainError.
    """
    if np.any(predicted == 0.0):
        raise DomainError(
            f"{check}: a prediction is 0.0 in float64, so the relative check is not resolvable"
        )
    return float(np.max(np.abs(measured - predicted) / np.abs(predicted), initial=0.0))


def _direction_checks(rows: list[dict], nlev: int) -> list[CheckResult]:
    """The five per-direction checks, as reductions over one direction table.

    The rows are stacked once; each measured value reduces over every
    direction (stationarity), those off the mean-zero subspace (descent) or
    those on it (flatness and the order-(2N-2) coefficient).
    """
    n_top = 2 * nlev - 2
    on = np.array([r["mean_zero"] for r in rows], dtype=bool)  # on the mean-zero subspace
    diffs = np.array([r["differentials"] for r in rows], dtype=float)
    fitted = np.array([r["fit_coefficients"] for r in rows], dtype=float)
    fnorm = np.array([r["norm"] for r in rows], dtype=float)[on, None]
    d2_predicted = np.array([r["d2_predicted"] for r in rows], dtype=float)[~on]
    # None off the mean-zero subspace stacks as NaN, which the mask drops.
    analytic = np.array([r["order_2N2_analytic"] for r in rows], dtype=float)[on]

    worst_d1 = float(np.max(np.abs(diffs[:, 0])))
    worst_c1 = float(np.max(np.abs(fitted[:, 0])))
    c2 = fitted[~on, 1]
    descent_rel = _worst_relative_error("mean_descent", c2, d2_predicted)
    max_c2 = float(np.max(c2, initial=-math.inf))
    orders = np.arange(3, n_top)  # 3 .. 2N-3
    # Norm scales by the C library's pow, which float ** calls: numpy's
    # vectorized power can round differently in the last place.
    pow_ = np.frompyfunc(math.pow, 2, 1)
    flat_d = np.abs(diffs[on][:, orders - 1]) / pow_(1.0 + fnorm, orders).astype(float)
    flat_c = np.abs(fitted[on][:, orders - 1]) / pow_(np.maximum(1.0, fnorm), orders).astype(float)
    worst_flat_d = float(np.max(flat_d, initial=0.0))
    worst_flat_c = float(np.max(flat_c, initial=0.0))
    top = fitted[on, n_top - 1]
    match_rel = _worst_relative_error("order_2N2_match", top, analytic)
    min_top = float(np.min(top))
    min_analytic = float(np.min(analytic))

    tol = TOLERANCES
    return [
        CheckResult(
            name="stationarity",
            passed=worst_d1 <= tol["stationary_analytic"] and worst_c1 <= tol["stationary_fit"],
            measured=worst_d1,
            threshold=tol["stationary_analytic"],
            description="first differential and fitted c_1 vanish for every direction",
            extras={"max_fitted_c1": worst_c1, "fitted_c1_threshold": tol["stationary_fit"]},
        ),
        CheckResult(
            name="mean_descent",
            passed=descent_rel <= tol["descent_rel"] and max_c2 < 0.0,
            measured=descent_rel,
            threshold=tol["descent_rel"],
            description="fitted c_2 matches lambda_{N-1} v_{N-1}^2 (int f)^2 and is negative "
            "off the mean-zero subspace",
            extras={"max_c2": max_c2},
        ),
        CheckResult(
            name="flatness_3_to_2N-3",
            passed=worst_flat_d <= tol["flat_analytic_scale"] and worst_flat_c <= tol["flat_fit_scale"],
            measured=worst_flat_d,
            threshold=tol["flat_analytic_scale"],
            description="differentials and fitted coefficients of orders 3..2N-3 vanish on "
            "mean-zero directions (norm-scaled)",
            extras={
                "max_scaled_fitted": worst_flat_c,
                "fitted_threshold": tol["flat_fit_scale"],
                "orders": orders.tolist(),
            },
        ),
        CheckResult(
            name="order_2N2_match",
            passed=match_rel <= tol["order_match_rel"],
            measured=match_rel,
            threshold=tol["order_match_rel"],
            description=f"fitted c_{n_top} matches lambda_1 |A^{nlev - 1}_1|^2 on mean-zero directions",
        ),
        CheckResult(
            name="order_2N2_nonneg",
            passed=min_top >= tol["order_nonneg"] and min_analytic >= 0.0,
            measured=min_top,
            threshold=tol["order_nonneg"],
            description=f"coefficient of order {n_top} is non-negative on mean-zero directions",
            extras={"min_analytic": min_analytic},
        ),
    ]


def trap_certificate(inst: ProblemInstance, config: CertificateConfig | None = None) -> TrapReport:
    """Run every trap condition for the zero control and assemble the report.

    The verdict is the conjunction of stationarity, mean descent, flatness,
    the order-(2N-2) match and non-negativity, and controllability; the
    witness outcome is recorded separately because it depends on the horizon
    being long enough, which is not quantified.  A TrapscopeError in any
    stage fails the verdict and is recorded as `failed_stage`, with the
    checks and rows gathered before it.
    """
    cfg = config if config is not None else CertificateConfig()

    sys = inst.system
    nlev = sys.levels
    instance_summary = {
        "levels": nlev,
        "a": sys.a,
        "b": sys.b,
        "couplings": list(sys.couplings),
        "horizon": sys.horizon,
        "eigenvalues": list(inst.observable.eigenvalues),
        "eigenvalue_shift": inst.observable.shift,
        "initial_level": nlev,  # always |N>
        "segments": cfg.segments,
    }

    stage = "directions"
    rows: list[dict] = []
    checks: list[CheckResult] = []
    witness_rows: list[dict] = []
    lie_row: dict = {}
    failed_stage = None
    try:
        probes = probe_directions(cfg, sys.horizon)
        rows = _certificate_rows(inst, probes, cfg.seed)

        stage = "checks"
        checks.extend(_direction_checks(rows, nlev))

        stage = "lie_rank"
        lie = lie_rank(sys)
        lie_row = asdict(lie)
        checks.append(
            CheckResult(
                name="controllable",
                passed=lie.saturated,
                measured=float(lie.dimension),
                threshold=float(nlev * nlev - 1),
                description="dynamical Lie algebra saturates su(N) up to global phase",
            )
        )

        stage = "witness"
        for horizon in cfg.witness_horizons or (sys.horizon,):
            winst = ProblemInstance(replace(sys, horizon=float(horizon)), inst.observable)
            wprobes = probes if horizon == sys.horizon else probe_directions(cfg, horizon)
            res = witness_search(winst, wprobes, cfg.witness_budget)
            witness_rows.append(
                {
                    "horizon": float(horizon),
                    "j_value": res.j_value,
                    "success": res.success,
                    "evaluations": res.evaluations,
                    "probe": res.probe,
                    "amplitude": res.amplitude,
                }
            )
        lam = inst.observable.eigenvalues
        checks.append(
            CheckResult(
                name="witness_found",
                passed=any(w["success"] for w in witness_rows),
                measured=max(w["j_value"] for w in witness_rows),
                threshold=WITNESS_MARGIN * (lam[0] - lam[-1]),
                description="best-effort evidence that the zero control is not a global "
                "maximum (excluded from the verdict: the minimal sufficient horizon is "
                "unknown)",
            )
        )
    except TrapscopeError as exc:
        failed_stage = f"{stage}: {type(exc).__name__}: {exc}"

    return TrapReport(
        instance=instance_summary,
        claimed_order=2 * nlev - 3,
        checks=tuple(checks),
        directions=tuple(rows),
        witness=tuple(witness_rows),
        lie=lie_row,
        tolerances=dict(TOLERANCES),
        seeds=tuple(probe_seed(cfg.seed, i) for i in range(cfg.directions)),
        passed=failed_stage is None and all(c.passed for c in checks if c.name != "witness_found"),
        failed_stage=failed_stage,
    )
