"""Landscape analysis at the zero control: arbitrary-order directional
differentials of the objective, sampled Taylor coefficients,
Lie-algebra controllability rank, a non-optimality witness search, and the
assembled trap certificate.

For a direction f, the Taylor coefficient of order n of t -> J(t*f) equals

    c_n = sum_{j=0}^{n} sum_{l=1}^{N-1} (-1)^{n-j} i^n lambda_l
          A^j_l(f) conj(A^{n-j}_l(f)),

with the chronological forms A of the dynamics module and the observable
normalized so lambda_N = 0.  The certificate checks, direction by direction:
stationarity (c_1 = 0), strict second-order descent off the mean-zero
subspace, flatness of orders 3..2N-3 on it, and the non-negative matching
coefficient at order 2N-2; plus the Lie-rank controllability proxy and a
best-effort witness that the zero control is not a global maximum.

Analytic values (from the forms) are the primary evidence; a Cauchy
contour of the objective itself, continued to complex amplitudes,
cross-validates every order at once (taylor_fit).  Its samples come from an
exponential of their own, so they share no code with the forms.

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

from .controls import PiecewiseControl, integral, norm, random_direction
from .dynamics import (
    DysonForms,
    _column_at,
    _segment_steps,
    _tree_levels,
    _tree_path,
    block_controls,
    dyson_forms,
    objective,
    propagate,
    propagate_batch,
)
from .errors import (
    ConfigError,
    DomainError,
    InsufficientOrder,
    NonRealResult,
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
WITNESS_AMPLITUDE_RANGE = (0.1, 2.0)  # random witness controls draw their amplitude here
WITNESS_REFINE_ROUNDS = 5
WITNESS_SEED_OFFSET = 7_000_000  # witness seed = seed + offset + horizon index
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


def differential(inst: ProblemInstance, forms: DysonForms, n: int) -> float:
    """n-th Taylor coefficient (1/n! J^(n)) of the objective along forms' direction.

    Requires the normalized observable (lambda_N = 0), which every
    Observable built by this package satisfies.  The double sum is real up
    to roundoff; a large imaginary residue signals corrupted forms.
    """
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    if n > forms.n_max:
        raise InsufficientOrder(f"forms extend to order {forms.n_max}, requested {n}")
    lam = np.asarray(inst.observable.eigenvalues[:-1])  # lambda_N = 0 removes l = N
    a = forms.table[: n + 1, :-1]
    sign = (-1.0) ** (n - np.arange(n + 1))
    terms = (1j ** (n % 4)) * sign[:, None] * lam[None, :] * a * np.conj(a[::-1])
    total = complex(terms.sum())
    scale = float(np.abs(terms).sum())
    if abs(total.imag) > 1e-10 * max(1.0, scale):
        raise NonRealResult(
            f"imaginary residue {total.imag:.3e} too large for scale {scale:.3e} at order {n}"
        )
    return float(total.real)


def order_2N2_value(inst: ProblemInstance, forms: DysonForms) -> float:
    """Coefficient lambda_1 |A^{N-1}_1|^2 of order 2N-2, for mean-zero directions.

    The caller is responsible for the direction being mean-zero; only then
    is this the leading surviving Taylor coefficient.
    """
    nlev = inst.system.levels
    if forms.n_max < nlev - 1:
        raise InsufficientOrder(f"forms extend to order {forms.n_max}, need {nlev - 1}")
    lam1 = inst.observable.eigenvalues[0]
    return float(lam1 * abs(forms.value(nlev - 1, 1)) ** 2)


@dataclass(frozen=True)
class TaylorFit:
    """Sampled Taylor coefficients of t -> J(t*f): coefficients[k-1] is that
    of t^k, read off a Cauchy contour of radius `radius` (inf for f = 0)."""

    max_order: int
    coefficients: tuple[float, ...]
    radius: float

    @property
    def accepted(self) -> bool:
        """Always True: the contour has no acceptance test.

        Kept because the benchmark harness under bench/ still reads it.
        """
        return True

    def coefficient(self, k: int) -> float:
        if not 1 <= k <= self.max_order:
            raise DomainError(f"coefficient index {k} outside 1..{self.max_order}")
        return self.coefficients[k - 1]


def taylor_fit(inst: ProblemInstance, f: PiecewiseControl) -> TaylorFit:
    """Coefficients c_k, k = 1..2N, of J(t*f) from one Cauchy contour.

    J(z) = sum_l lambda_l psi_l(z) conj(psi_l(conj z)), psi = U_T(z f)|N>,
    continues the objective to complex z.  It is sampled at the
    K = 2N + CONTOUR_EXTRA_POINTS points z_k = r e^{2 pi i (k + 1/2) / K},
    where conj z_k = z_{K-1-k}, and c_n = Re mean_k J(z_k) z_k^{-n}.  On the
    radius r = 2 / (||V||_2 int|f|) J stays of order one (Bornemann, Found.
    Comput. Math. 11, 2011), so one radius serves every order.
    """
    sys = inst.system
    max_order = 2 * sys.levels
    mass = float(np.abs(f.as_array()).sum()) * f.dt
    if mass == 0.0:
        return TaylorFit(max_order, (0.0,) * max_order, math.inf)
    radius = 2.0 / (float(np.linalg.norm(v_matrix(sys), 2)) * mass)
    points = max_order + CONTOUR_EXTRA_POINTS
    z = radius * np.exp(2j * np.pi * (np.arange(points) + 0.5) / points)
    psi = _column_at(sys, f, z)
    j = np.sum(np.asarray(inst.observable.eigenvalues) * psi * np.conj(psi[::-1]), axis=1)
    orders = np.arange(1, max_order + 1)
    coeffs = np.mean(j * z ** -orders[:, None], axis=1).real
    return TaylorFit(max_order, tuple(float(c) for c in coeffs), radius)


@dataclass(frozen=True)
class LieAlgebraResult:
    """Outcome of the dynamical Lie-algebra rank computation."""

    dimension: int
    saturated: bool
    depth_reached: int
    tolerance: float


def _mat_from_vec(v: np.ndarray, n: int) -> np.ndarray:
    return v[: n * n].reshape(n, n) + 1j * v[n * n :].reshape(n, n)


def lie_rank_matrices(gen_a, gen_b) -> LieAlgebraResult:
    """Real dimension of the Lie algebra generated by two skew-Hermitian matrices.

    Breadth-first closure under commutators with the generators, with
    Gram-Schmidt orthonormalization over the real vector space of dimension
    2 N^2; a commutator whose residual norm is at most TOLERANCES["lie_tol"]
    adds nothing.  Saturated means dimension >= N^2 - 1, full su(N) up to the
    global phase quotiented out in the controllability definition.  The
    closure ends when a level adds nothing or the dimension reaches N^2, so
    it needs no depth cap.
    """
    tol = TOLERANCES["lie_tol"]
    a = np.asarray(gen_a, dtype=np.complex128)
    b = np.asarray(gen_b, dtype=np.complex128)
    n = a.shape[0]
    basis: list[np.ndarray] = []

    def try_add(x: np.ndarray) -> np.ndarray | None:
        nrm = float(np.linalg.norm(x, "fro"))
        if nrm < 1e-300:
            return None
        v = np.concatenate([(x.real / nrm).ravel(), (x.imag / nrm).ravel()])
        for _ in range(2):  # two Gram-Schmidt passes for orthogonality to roundoff
            for bv in basis:
                v = v - np.dot(bv, v) * bv
        res = float(np.linalg.norm(v))
        if res <= tol:
            return None
        v = v / res
        basis.append(v)
        return _mat_from_vec(v, n)

    gens = []
    frontier = []
    for g in (a, b):
        added = try_add(g)
        gnrm = float(np.linalg.norm(g, "fro"))
        if gnrm > 0.0:
            gens.append(g / gnrm)
        if added is not None:
            frontier.append(added)
    depth = 1
    # span of skew-Hermitian matrices can never exceed dim u(N) = N^2
    while frontier and len(basis) < n * n:
        depth += 1
        fresh = []
        for g in gens:
            for x in frontier:
                added = try_add(g @ x - x @ g)
                if added is not None:
                    fresh.append(added)
        frontier = fresh
    return LieAlgebraResult(
        dimension=len(basis),
        saturated=len(basis) >= n * n - 1,
        depth_reached=depth,
        tolerance=tol,
    )


def lie_rank(sys: SystemSpec) -> LieAlgebraResult:
    """Rank test for the controlled pair: algebra generated by iH0 and iV."""
    return lie_rank_matrices(1j * h0_matrix(sys), 1j * v_matrix(sys))


@dataclass(frozen=True)
class WitnessResult:
    """Best control found by the non-optimality search at one horizon."""

    control: PiecewiseControl
    j_value: float
    success: bool
    evaluations: int
    horizon: float


def witness_search(
    inst: ProblemInstance,
    seed: int,
    budget: int,
    segments: int,
) -> WitnessResult:
    """Search for a control scoring above the zero control.

    `budget` seeded random controls with amplitudes drawn from
    WITNESS_AMPLITUDE_RANGE, then coordinate-wise greedy refinement of the
    best: first-improvement scan in fixed index order, step halved after a
    fruitless full pass, WITNESS_REFINE_ROUNDS passes.  Success means
    J > J(0) + 0.01 (lambda_1 - lambda_N).  Failure is an outcome, not an
    error; existence of good controls is only guaranteed for long enough
    horizons, and the minimal such horizon is unknown.

    Refinement keeps the product tree of the current best control (the
    levels propagate_batch builds) between candidates.  A candidate changes
    one segment, so it recomputes only the ceil(log2 M) nodes on that leaf's
    path, and an accepted candidate writes its path into the tree.  The
    steps of every best +- step value come from one batched call per pass.
    Each candidate is still scored on its full propagator, which is bit for
    bit the one propagate gives.
    """
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    if segments < 1:
        raise DomainError(f"segments must be >= 1, got {segments}")
    lo, hi = WITNESS_AMPLITUDE_RANGE
    sys = inst.system

    # Each control draws its amplitude, then its values, so the stream is the
    # one a control-at-a-time loop reads; argmax keeps the first maximum,
    # the control a strict-> loop over the draws would keep.
    rng = np.random.default_rng(int(seed))
    best_vals = np.zeros(segments)
    best_j = -math.inf
    evals = 0
    rows = block_controls(segments)
    for start in range(0, budget, rows):
        block = np.empty((min(rows, budget - start), segments))
        for draw in block:
            amp = rng.uniform(lo, hi)
            draw[:] = rng.uniform(-amp, amp, segments)
        js = objective(propagate_batch(sys, block), inst)
        evals += len(js)
        k = int(np.argmax(js))
        if js[k] > best_j:
            best_j, best_vals = float(js[k]), block[k].copy()

    levels = _tree_levels(_segment_steps(sys, best_vals))
    step = 0.25 * hi
    for _ in range(WITNESS_REFINE_ROUNDS):
        improved = False
        # A pass changes best_vals only at indices it has already visited,
        # so the trial steps built at its start stay current.
        deltas = (step, -step)
        trial = _segment_steps(sys, best_vals + np.array(deltas)[:, None])
        for idx in range(segments):
            for delta, steps in zip(deltas, trial):
                path = _tree_path(levels, idx, steps[idx])
                evals += 1
                j = objective(path[-1], inst)
                if j > best_j:
                    best_j = j
                    best_vals[idx] += delta
                    for level, node in enumerate(path):
                        levels[level][idx >> level] = node
                    improved = True
                    break
        if not improved:
            step *= 0.5

    lam = inst.observable.eigenvalues
    j_zero = objective(propagate(sys, PiecewiseControl(sys.horizon, (0.0,) * segments)), inst)
    success = best_j > j_zero + 0.01 * (lam[0] - lam[-1])
    return WitnessResult(
        control=PiecewiseControl(sys.horizon, tuple(float(x) for x in best_vals)),
        j_value=best_j,
        success=success,
        evaluations=evals,
        horizon=sys.horizon,
    )


@dataclass(frozen=True)
class CertificateConfig:
    """Sampling budget for trap_certificate: how many probe directions, from
    which seed, on how many segments, and how hard the witness searches.

    The defaults and range checks here are the only ones; an out-of-range
    field raises ConfigError naming it.  Everything else about the
    certificate is fixed by the module constants.
    """

    amplitude: ClassVar[float] = PROBE_AMPLITUDE  # for callers that regenerate probe directions

    directions: int = 8
    seed: int = 20240901
    segments: int = 64
    witness_budget: int = 500
    witness_horizons: tuple[float, ...] | None = None  # default (T, 2T)

    def __post_init__(self):
        for name, minimum in (("directions", 2), ("seed", 0), ("segments", 8), ("witness_budget", 1)):
            value = getattr(self, name)
            if value < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
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


def _probe_offset(index: int) -> float:
    """Constant part of probe direction `index`: 0, +c, 0, -c, 0, +c, ..."""
    if index % 2 == 0:
        return 0.0
    sign = 1.0 if (index // 2) % 2 == 0 else -1.0
    return sign * PROBE_OFFSET_FRACTION * PROBE_AMPLITUDE


def probe_direction(seed: int, index: int, segments: int, horizon: float) -> PiecewiseControl:
    """Probe direction `index` of the family drawn from base seed `seed`.

    A mean-zero draw from seed + index with L2 norm PROBE_AMPLITUDE sqrt(T);
    on odd indices it is shifted by +-PROBE_OFFSET_FRACTION * PROBE_AMPLITUDE,
    the sign alternating between consecutive odd indices.  The certificate
    and `trapscope scan` both probe these directions.
    """
    f = random_direction(seed + index, segments, horizon, mean_zero=True, amplitude=PROBE_AMPLITUDE)
    offset = _probe_offset(index)
    return f.shifted(offset) if offset else f


def _certificate_direction(inst: ProblemInstance, cfg: CertificateConfig, index: int) -> dict:
    """Evaluate one probe direction: forms, differentials and Taylor fit."""
    sys = inst.system
    nlev = sys.levels
    n_top = 2 * nlev - 2
    mean_zero = index % 2 == 0
    f = probe_direction(cfg.seed, index, cfg.segments, sys.horizon)

    forms = dyson_forms(sys, f, n_max=n_top)
    diffs = [differential(inst, forms, n) for n in range(1, n_top + 1)]
    fit = taylor_fit(inst, f)

    lam = inst.observable.eigenvalues
    v_last = sys.couplings[-1]
    mean = integral(f)
    d2_predicted = lam[nlev - 2] * v_last**2 * mean**2
    order_value = order_2N2_value(inst, forms) if mean_zero else None
    return {
        "index": index,
        "seed": cfg.seed + index,
        "mean_zero": mean_zero,
        "offset": _probe_offset(index),
        "norm": norm(f),
        "integral": mean,
        "substeps_used": forms.substeps,  # always 0; bench/run.py still reads it
        "differentials": diffs,
        "d2_predicted": d2_predicted,
        "order_2N2_analytic": order_value,
        "fit_coefficients": list(fit.coefficients),
        "fit_radius": fit.radius,
    }


def _check_stationarity(rows: list[dict]) -> CheckResult:
    worst_d1 = max(abs(r["differentials"][0]) for r in rows)
    worst_c1 = max(abs(r["fit_coefficients"][0]) for r in rows)
    tol_analytic = TOLERANCES["stationary_analytic"]
    tol_fit = TOLERANCES["stationary_fit"]
    return CheckResult(
        name="stationarity",
        passed=worst_d1 <= tol_analytic and worst_c1 <= tol_fit,
        measured=worst_d1,
        threshold=tol_analytic,
        description="first differential and fitted c_1 vanish for every direction",
        extras={
            "max_fitted_c1": worst_c1,
            "fitted_c1_threshold": tol_fit,
        },
    )


def _check_mean_descent(rows: list[dict]) -> CheckResult:
    sel = [r for r in rows if not r["mean_zero"]]
    worst_rel = 0.0
    max_c2 = -math.inf
    for r in sel:
        c2 = r["fit_coefficients"][1]
        pred = r["d2_predicted"]
        worst_rel = max(worst_rel, abs(c2 - pred) / max(abs(pred), 1e-12))
        max_c2 = max(max_c2, c2)
    tol = TOLERANCES["descent_rel"]
    return CheckResult(
        name="mean_descent",
        passed=worst_rel <= tol and max_c2 < 0.0,
        measured=worst_rel,
        threshold=tol,
        description="fitted c_2 matches lambda_{N-1} v_{N-1}^2 (int f)^2 and is negative "
        "off the mean-zero subspace",
        extras={"max_c2": max_c2},
    )


def _check_flatness(rows: list[dict], nlev: int) -> CheckResult:
    sel = [r for r in rows if r["mean_zero"]]
    orders = range(3, 2 * nlev - 2)  # 3 .. 2N-3
    worst_analytic = 0.0
    worst_fit = 0.0
    for r in sel:
        fnorm = r["norm"]
        for n in orders:
            worst_analytic = max(
                worst_analytic, abs(r["differentials"][n - 1]) / (1.0 + fnorm) ** n
            )
            worst_fit = max(
                worst_fit, abs(r["fit_coefficients"][n - 1]) / max(1.0, fnorm) ** n
            )
    tol_analytic = TOLERANCES["flat_analytic_scale"]
    tol_fit = TOLERANCES["flat_fit_scale"]
    return CheckResult(
        name="flatness_3_to_2N-3",
        passed=worst_analytic <= tol_analytic and worst_fit <= tol_fit,
        measured=worst_analytic,
        threshold=tol_analytic,
        description="differentials and fitted coefficients of orders 3..2N-3 vanish on "
        "mean-zero directions (norm-scaled)",
        extras={
            "max_scaled_fitted": worst_fit,
            "fitted_threshold": tol_fit,
            "orders": list(orders),
        },
    )


def _check_order_match(rows: list[dict], nlev: int) -> CheckResult:
    sel = [r for r in rows if r["mean_zero"]]
    n_top = 2 * nlev - 2
    worst_rel = 0.0
    for r in sel:
        fitted = r["fit_coefficients"][n_top - 1]
        analytic = r["order_2N2_analytic"]
        worst_rel = max(worst_rel, abs(fitted - analytic) / abs(analytic))
    tol = TOLERANCES["order_match_rel"]
    return CheckResult(
        name="order_2N2_match",
        passed=worst_rel <= tol,
        measured=worst_rel,
        threshold=tol,
        description=f"fitted c_{n_top} matches lambda_1 |A^{nlev - 1}_1|^2 on mean-zero "
        "directions",
    )


def _check_order_nonneg(rows: list[dict], nlev: int) -> CheckResult:
    sel = [r for r in rows if r["mean_zero"]]
    n_top = 2 * nlev - 2
    min_fitted = min(r["fit_coefficients"][n_top - 1] for r in sel)
    min_analytic = min(r["order_2N2_analytic"] for r in sel)
    tol = TOLERANCES["order_nonneg"]
    return CheckResult(
        name="order_2N2_nonneg",
        passed=min_fitted >= tol and min_analytic >= 0.0,
        measured=min_fitted,
        threshold=tol,
        description=f"coefficient of order {n_top} is non-negative on mean-zero directions",
        extras={"min_analytic": min_analytic},
    )


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
        rows = [_certificate_direction(inst, cfg, i) for i in range(cfg.directions)]

        stage = "checks"
        checks.append(_check_stationarity(rows))
        checks.append(_check_mean_descent(rows))
        checks.append(_check_flatness(rows, nlev))
        checks.append(_check_order_match(rows, nlev))
        checks.append(_check_order_nonneg(rows, nlev))

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
        horizons = cfg.witness_horizons
        if horizons is None:
            horizons = (sys.horizon, 2.0 * sys.horizon)
        any_success = False
        best_overall = -math.inf
        for k, horizon in enumerate(horizons):
            wsys = replace(sys, horizon=float(horizon))
            winst = ProblemInstance(wsys, inst.observable)
            wseed = cfg.seed + WITNESS_SEED_OFFSET + k
            res = witness_search(winst, seed=wseed, budget=cfg.witness_budget, segments=cfg.segments)
            any_success = any_success or res.success
            best_overall = max(best_overall, res.j_value)
            witness_rows.append(
                {
                    "horizon": float(horizon),
                    "best_j": res.j_value,
                    "success": res.success,
                    "evaluations": res.evaluations,
                    "seed": wseed,
                }
            )
        lam = inst.observable.eigenvalues
        checks.append(
            CheckResult(
                name="witness_found",
                passed=any_success,
                measured=best_overall,
                threshold=0.01 * (lam[0] - lam[-1]),
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
        seeds=tuple(cfg.seed + i for i in range(cfg.directions)),
        passed=failed_stage is None and all(c.passed for c in checks if c.name != "witness_found"),
        failed_stage=failed_stage,
    )
