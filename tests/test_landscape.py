import json
import math

import numpy as np
import pytest

from trapscope import landscape
from trapscope.controls import (
    PiecewiseControl,
    constant,
    integral,
    norm,
    random_direction,
    sample_midpoints,
)
from trapscope.dynamics import block_controls, dyson_forms, kernel_form_A1N, objective, propagate
from trapscope.errors import ConfigError, DomainError, InsufficientOrder
from trapscope.landscape import (
    CertificateConfig,
    differential,
    lie_rank,
    lie_rank_matrices,
    order_2N2_value,
    probe_direction,
    taylor_fit,
    trap_certificate,
    witness_search,
)
from trapscope.model import build_instance, build_observable, build_system

TWO_PI = 2 * math.pi


def n3_instance(omega=1.0, horizon=TWO_PI):
    sys = build_system(3, omega, 0.0, (1.0, 1.0), horizon)
    return build_instance(sys, build_observable((1.0, -1.0, 0.0)))


def n4_instance(horizon=TWO_PI):
    sys = build_system(4, 1.0, 0.0, (1.0, 1.0, 1.0), horizon)
    return build_instance(sys, build_observable((1.0, 0.3, -1.0, 0.0)))


def forms_for(inst, f, n_max=None):
    nlev = inst.system.levels
    n = 2 * nlev - 2 if n_max is None else n_max
    return dyson_forms(inst.system, f, n_max=n)


# ---------------------------------------------------------------- differential


def test_first_differential_vanishes():
    inst = n3_instance()
    for seed in (0, 1, 2):
        f = random_direction(seed, 64, TWO_PI, mean_zero=seed % 2 == 0, amplitude=0.8)
        forms = forms_for(inst, f)
        assert abs(differential(inst, forms, 1)) <= 1e-10


def test_second_differential_closed_form():
    # N=3, lambda=(1,-1,0), v=(1,1), f == 1 on [0,1]: value -1
    sys = build_system(3, 1.0, 0.0, (1.0, 1.0), 1.0)
    inst = build_instance(sys, build_observable((1.0, -1.0, 0.0)))
    f = constant(1.0, 1.0, 64)
    forms = forms_for(inst, f)
    assert differential(inst, forms, 2) == pytest.approx(-1.0, abs=1e-12)


def test_second_differential_strictly_negative_off_mean_zero():
    inst = n3_instance()
    for seed in range(5):
        f = random_direction(seed, 64, TWO_PI, amplitude=0.7).shifted(0.2)
        forms = forms_for(inst, f)
        d2 = differential(inst, forms, 2)
        lam = inst.observable.eigenvalues
        predicted = lam[1] * integral(f) ** 2
        assert d2 < 0.0
        assert d2 == pytest.approx(predicted, rel=1e-9)


def test_flatness_window_on_mean_zero_directions():
    for inst in (n3_instance(), n4_instance()):
        nlev = inst.system.levels
        for seed in (3, 4):
            f = random_direction(seed, 64, TWO_PI, mean_zero=True, amplitude=0.8)
            forms = forms_for(inst, f)
            for n in range(2, 2 * nlev - 2):
                assert abs(differential(inst, forms, n)) <= 1e-9 * (1.0 + norm(f)) ** n


def test_differential_homogeneity_transfer():
    inst = n3_instance()
    f = random_direction(8, 48, TWO_PI, mean_zero=True, amplitude=0.6)
    base = forms_for(inst, f)
    scaled = forms_for(inst, f.scaled(2.0))
    for n in (2, 3, 4):
        want = 2.0**n * differential(inst, base, n)
        have = differential(inst, scaled, n)
        assert abs(have - want) <= 1e-9 * max(1.0, abs(want))


def test_differential_matches_term_by_term_sum():
    # reference: the double sum over (j, l) accumulated one term at a time
    inst = n4_instance()
    lam = inst.observable.eigenvalues
    f = random_direction(5, 32, TWO_PI, amplitude=0.7)
    forms = forms_for(inst, f)
    for n in range(1, forms.n_max + 1):
        total, scale = 0j, 0.0
        for j in range(n + 1):
            for l in range(1, forms.levels):
                term = (-1.0) ** (n - j) * 1j**n * lam[l - 1] * forms.value(j, l)
                term *= np.conj(forms.value(n - j, l))
                total += term
                scale += abs(term)
        terms = (n + 1) * (forms.levels - 1)
        assert abs(differential(inst, forms, n) - total.real) <= terms * np.finfo(float).eps * scale


def test_differential_requires_enough_orders():
    inst = n3_instance()
    f = random_direction(1, 32, TWO_PI)
    forms = forms_for(inst, f, n_max=2)
    with pytest.raises(InsufficientOrder):
        differential(inst, forms, 3)
    with pytest.raises(DomainError):
        differential(inst, forms, 0)


# ------------------------------------------------------------- order 2N-2


def test_order_value_zero_control():
    inst = n3_instance()
    forms = forms_for(inst, constant(0.0, TWO_PI, 32))
    assert order_2N2_value(inst, forms) == 0.0


def test_order_value_resonant_cos():
    # |i pi/2|^2 = pi^2/4 with lambda_1 = 1
    sys = build_system(3, 2.0, 0.0, (1.0, 1.0), TWO_PI)
    inst = build_instance(sys, build_observable((1.0, -1.0, 0.0)))
    f = sample_midpoints(math.cos, TWO_PI, 256)
    forms = forms_for(inst, f)
    assert order_2N2_value(inst, forms) == pytest.approx(math.pi**2 / 4, rel=1e-3)


def test_order_value_nonnegative():
    inst = n4_instance()
    for seed in range(5):
        f = random_direction(seed, 64, TWO_PI, mean_zero=True, amplitude=0.9)
        forms = forms_for(inst, f)
        assert order_2N2_value(inst, forms) >= 0.0


def test_order_value_insufficient_forms():
    inst = n4_instance()
    forms = forms_for(inst, random_direction(0, 32, TWO_PI), n_max=2)
    with pytest.raises(InsufficientOrder):
        order_2N2_value(inst, forms)


# ---------------------------------------------------------------- taylor fit


def test_taylor_fit_zero_direction():
    inst = n3_instance()
    fit = taylor_fit(inst, constant(0.0, TWO_PI, 32))
    assert max(abs(c) for c in fit.coefficients) <= 1e-12


def test_taylor_fit_constant_direction_c2():
    # f == 1/sqrt(2 pi) on [0, 2 pi]: c2 = lambda_2 v_2^2 (int f)^2 = -2 pi
    inst = n3_instance()
    f = constant(1.0 / math.sqrt(TWO_PI), TWO_PI, 64)
    fit = taylor_fit(inst, f)
    assert fit.coefficient(2) == pytest.approx(-TWO_PI, rel=1e-3)


def test_taylor_fit_resonant_cos_leading_order():
    sys = build_system(3, 2.0, 0.0, (1.0, 1.0), TWO_PI)
    inst = build_instance(sys, build_observable((1.0, -1.0, 0.0)))
    f = sample_midpoints(math.cos, TWO_PI, 256)
    fit = taylor_fit(inst, f)
    scale = max(1.0, norm(f))
    for k in (1, 2, 3):
        assert abs(fit.coefficient(k)) <= 1e-6 * scale**k
    assert fit.coefficient(4) == pytest.approx(math.pi**2 / 4, rel=1e-3)


def ladder_instance(nlev):
    """Unit couplings, lambda = 1, 0.5 .. 0.1, -1, 0."""
    sys = build_system(nlev, 1.0, 0.0, (1.0,) * (nlev - 1), TWO_PI)
    lam = (1.0, *np.linspace(0.5, 0.1, nlev - 3), -1.0, 0.0)
    return build_instance(sys, build_observable(lam))


def test_taylor_fit_cross_validates_differentials():
    # The checked orders, c_2 off the mean-zero subspace (seed 5) and
    # c_{2N-2} on it (seed 6), agree with the forms to 1e-10 relative; every
    # other order to 1e-15 absolute.  At N=8, c_14 = 1.9e-20 on seed 6 and
    # the contour's roundoff there is about 4e-29 (the |N-1> component's
    # cancellation at complex amplitude), 2e-9 of it.
    for nlev in range(3, 9):
        inst = ladder_instance(nlev)
        for seed, checked in ((5, 2), (6, 2 * nlev - 2)):
            f = random_direction(seed, 64, TWO_PI, mean_zero=seed % 2 == 0, amplitude=0.5)
            forms = forms_for(inst, f)
            fit = taylor_fit(inst, f)
            for n in range(1, 2 * nlev - 1):
                c = differential(inst, forms, n)
                if n == checked:
                    rel = 1e-10 if nlev < 8 else 1e-8
                    assert abs(fit.coefficient(n) - c) <= rel * abs(c), (nlev, seed, n)
                else:
                    assert abs(fit.coefficient(n) - c) <= 1e-15, (nlev, seed, n)


def test_taylor_fit_restated_trap_property():
    # R(t) = sum_{k=2}^{2N-3} c_k t^k stays below tolerance inside the fit radius
    inst = n3_instance()
    for seed in range(4):
        f = random_direction(seed, 64, TWO_PI, mean_zero=seed % 2 == 0, amplitude=0.5)
        fit = taylor_fit(inst, f)
        ts = np.linspace(-fit.radius, fit.radius, 33)
        r = sum(fit.coefficient(k) * ts**k for k in range(2, 4))
        assert np.max(r) <= 1e-8


def test_taylor_fit_resolves_strong_coupling_c2():
    # strong couplings on a long horizon, where a real-line fit at radius
    # 0.05 misses c_2; the contour resolves it to roundoff
    horizon = 4 * TWO_PI
    sys = build_system(3, 1.0, 0.0, (4.0, 4.0), horizon)
    inst = build_instance(sys, build_observable((1.0, -1.0, 0.0)))
    f = probe_direction(611, 1, 64, horizon)
    fit = taylor_fit(inst, f)
    c2 = differential(inst, forms_for(inst, f), 2)
    assert c2 == pytest.approx(-909.58, abs=0.01)
    assert abs(fit.coefficient(2) - c2) <= 1e-10 * abs(c2)


# ---------------------------------------------------------------- lie rank


def test_lie_rank_reference_chains():
    res3 = lie_rank(build_system(3, 1.0, 0.0, (1.0, 1.0), TWO_PI))
    assert res3.dimension >= 8 and res3.saturated
    res4 = lie_rank(build_system(4, 1.0, 0.0, (1.0, 1.0, 1.0), TWO_PI))
    assert res4.dimension >= 15 and res4.saturated


def test_lie_rank_saturates_past_depth_twelve():
    # saturation needs depth 2N - 1, beyond the old fixed cap of 12
    for nlev, depth in ((7, 13), (8, 15)):
        res = lie_rank(build_system(nlev, 1.0, 0.0, (1.0,) * (nlev - 1), TWO_PI))
        assert res.saturated
        assert res.dimension == nlev * nlev
        assert res.depth_reached == depth


def test_lie_rank_degenerate_pair():
    g = 1j * np.eye(3)
    res = lie_rank_matrices(g, g)
    assert res.dimension == 1
    assert not res.saturated


def test_lie_rank_invariant_under_coupling_rescale():
    base = lie_rank(build_system(4, 1.0, 0.0, (1.0, 1.0, 1.0), TWO_PI))
    scaled = lie_rank(build_system(4, 1.0, 0.0, (3.0, 3.0, 3.0), TWO_PI))
    assert base.dimension == scaled.dimension


# ---------------------------------------------------------------- witness


def test_witness_respects_kinematic_bound():
    inst = n3_instance()
    res = witness_search(inst, seed=7, budget=40, segments=32)
    assert res.j_value <= 1.0 + 1e-12
    assert res.evaluations >= 40


def test_witness_deterministic():
    inst = n3_instance()
    a = witness_search(inst, seed=11, budget=25, segments=16)
    b = witness_search(inst, seed=11, budget=25, segments=16)
    assert a.j_value == b.j_value
    assert a.control.values == b.control.values


def serial_witness_search(inst, seed, budget, segments):
    """The witness search as one propagate per control and a strict-> loop."""
    lo, hi = landscape.WITNESS_AMPLITUDE_RANGE
    sys = inst.system
    evals = 0

    def score(vals):
        nonlocal evals
        evals += 1
        return objective(propagate(sys, PiecewiseControl(sys.horizon, tuple(float(x) for x in vals))), inst)

    rng = np.random.default_rng(seed)
    best_vals, best_j = np.zeros(segments), -math.inf
    for _ in range(budget):
        amp = rng.uniform(lo, hi)
        vals = rng.uniform(-amp, amp, segments)
        j = score(vals)
        if j > best_j:
            best_j, best_vals = j, vals
    step = 0.25 * hi
    for _ in range(landscape.WITNESS_REFINE_ROUNDS):
        improved = False
        for idx in range(segments):
            for delta in (step, -step):
                cand = best_vals.copy()
                cand[idx] += delta
                j = score(cand)
                if j > best_j:
                    best_j, best_vals = j, cand
                    improved = True
                    break
        if not improved:
            step *= 0.5
    lam = inst.observable.eigenvalues
    j_zero = objective(propagate(sys, PiecewiseControl(sys.horizon, (0.0,) * segments)), inst)
    return best_vals, best_j, best_j > j_zero + 0.01 * (lam[0] - lam[-1]), evals


@pytest.mark.parametrize("seed", [3, 611, 20240901])
def test_witness_batched_draws_match_serial_search(seed):
    inst = n4_instance()
    segments = 16
    budget = 3 * block_controls(segments) + 5
    res = witness_search(inst, seed=seed, budget=budget, segments=segments)
    vals, j, success, evals = serial_witness_search(inst, seed, budget, segments)
    assert res.control.values == tuple(float(x) for x in vals)
    assert res.j_value == j
    assert res.success == success
    assert res.evaluations == evals


@pytest.mark.parametrize("levels, segments", [(3, 8), (3, 9), (4, 63), (5, 17), (6, 64), (8, 31)])
@pytest.mark.parametrize("periods", [1, 2])
def test_witness_refinement_on_cached_tree_matches_serial_search(levels, segments, periods):
    # Odd segment counts carry a node up some tree level; 2T is the second
    # default witness horizon.
    sys = build_system(levels, 1.0, 0.0, (1.0,) * (levels - 1), periods * TWO_PI)
    lam = (1.0, *np.linspace(-1.0, 0.5, levels - 2)[::-1], 0.0)
    inst = build_instance(sys, build_observable(lam))
    res = witness_search(inst, seed=5, budget=20, segments=segments)
    vals, j, success, evals = serial_witness_search(inst, 5, 20, segments)
    assert res.control.values == tuple(float(x) for x in vals)
    assert res.j_value == j
    assert res.success == success
    assert res.evaluations == evals


def test_witness_budget_validation():
    for budget, segments in ((0, 16), (1, 0), (1, -3)):
        with pytest.raises(DomainError):
            witness_search(n3_instance(), seed=1, budget=budget, segments=segments)


# ---------------------------------------------------------------- certificate


def quick_config(**kw):
    defaults = dict(directions=4, witness_budget=25, seed=20240901)
    defaults.update(kw)
    return CertificateConfig(**defaults)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -5),
        ("segments", 2),
        ("directions", 1),
        ("witness_budget", 0),
        ("witness_horizons", ()),
        ("witness_horizons", (0.0,)),
        ("witness_horizons", (math.inf,)),
        ("witness_horizons", (math.nan,)),
    ],
)
def test_certificate_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ConfigError, match=f"^{field} "):
        CertificateConfig(**{field: value})


def test_certificate_n3_reference_passes():
    report = trap_certificate(n3_instance(), quick_config())
    assert report.claimed_order == 3
    assert report.passed
    for name in (
        "stationarity",
        "mean_descent",
        "flatness_3_to_2N-3",
        "order_2N2_match",
        "order_2N2_nonneg",
        "controllable",
    ):
        assert report.check(name).passed, name
    assert report.failed_stage is None


def test_certificate_n4_claims_order_five():
    report = trap_certificate(n4_instance(), quick_config())
    assert report.claimed_order == 5
    assert report.passed
    assert report.check("flatness_3_to_2N-3").extras["orders"] == [3, 4, 5]


def test_certificate_strong_coupling_n4_passes():
    # v = 4 on T = 8 pi: a sampled c_2 that misses -909.58 by 0.3% failed
    # mean_descent, and its c_3..c_5 failed the fitted flatness bound
    sys = build_system(4, 1.0, 0.0, (4.0, 4.0, 4.0), 4 * TWO_PI)
    inst = build_instance(sys, build_observable((1.0, 0.3, -1.0, 0.0)))
    report = trap_certificate(inst, CertificateConfig(segments=64, witness_budget=1))
    assert report.check("mean_descent").passed
    assert report.check("flatness_3_to_2N-3").passed


def test_certificate_report_serializes():
    report = trap_certificate(n3_instance(), quick_config())
    payload = json.dumps(report.as_dict(), sort_keys=True)
    back = json.loads(payload)
    assert back["claimed_order"] == 3
    assert len(back["directions"]) == 4
    assert {c["name"] for c in back["checks"]} == {
        "stationarity",
        "mean_descent",
        "flatness_3_to_2N-3",
        "order_2N2_match",
        "order_2N2_nonneg",
        "controllable",
        "witness_found",
    }


def test_order_2N2_match_is_relative_without_floor():
    # N=3, so the order-(2N-2) coefficient is the 4th; a 5x misfit on a
    # 1e-12 coefficient fails the match however small the coefficient, while
    # the non-negativity check keeps its absolute bound, which a negative
    # fit of -1e-11 still passes
    def row(mean_zero, fitted, analytic):
        return {
            "mean_zero": mean_zero,
            "fit_coefficients": [0.0, 0.0, 0.0, fitted, 0.0, 0.0],
            "order_2N2_analytic": analytic,
        }

    rows = [
        row(True, 5e-12, 1e-12),
        row(False, 0.7, None),
        row(True, 0.2, 0.2),
        row(True, -1e-11, 1e-11),
    ]
    match = landscape._check_order_match(rows, 3)
    nonneg = landscape._check_order_nonneg(rows, 3)
    assert not match.passed and nonneg.passed
    assert match.threshold == landscape.TOLERANCES["order_match_rel"]
    assert nonneg.threshold == landscape.TOLERANCES["order_nonneg"]
    assert match.measured == pytest.approx(4.0)
    assert match.extras == {}
    assert nonneg.extras == {"min_analytic": 1e-12}
    assert landscape._check_order_match(rows[1:3], 3).passed


def test_certificate_failed_stage_keeps_earlier_checks(monkeypatch):
    def broken_lie_rank(*args, **kwargs):
        raise DomainError("injected")

    monkeypatch.setattr(landscape, "lie_rank", broken_lie_rank)
    report = trap_certificate(n3_instance(), quick_config())
    assert not report.passed
    assert report.failed_stage.startswith("lie_rank: DomainError")
    assert [c.name for c in report.checks] == [
        "stationarity",
        "mean_descent",
        "flatness_3_to_2N-3",
        "order_2N2_match",
        "order_2N2_nonneg",
    ]
    json.dumps(report.as_dict(), sort_keys=True)


def test_certificate_witness_miss_does_not_fail_verdict():
    # at a very short horizon nothing useful is reachable, but the witness
    # outcome is informational and the certificate still passes
    report = trap_certificate(
        n3_instance(), quick_config(witness_horizons=(0.01,), witness_budget=10)
    )
    assert not report.check("witness_found").passed
    assert report.passed


def test_certificate_kernel_agrees_with_order_value():
    # the reported order-(2N-2) analytic coefficient equals lambda_1 |kernel form|^2
    inst = n3_instance()
    f = random_direction(20240901, 64, TWO_PI, mean_zero=True, amplitude=0.5)
    forms = forms_for(inst, f)
    val = order_2N2_value(inst, forms)
    kern = kernel_form_A1N(inst.system, f)
    assert val == pytest.approx(abs(kern) ** 2, rel=1e-6)
