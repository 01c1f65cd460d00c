import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from trapscope import dynamics, landscape
from trapscope.controls import (
    PiecewiseControl,
    integral,
    norm,
    random_direction,
)
from trapscope.dynamics import (
    DysonForms,
    block_controls,
    dyson_forms,
    kernel_form_A1N,
    objective,
    propagate,
)
from trapscope.errors import ConfigError, DomainError, GridMismatch, InsufficientOrder
from trapscope.landscape import (
    CertificateConfig,
    _line_scale,
    differential,
    lie_rank,
    lie_rank_matrices,
    order_2N2_value,
    probe_direction,
    probe_directions,
    probe_offset,
    probe_seed,
    taylor_fit,
    trap_certificate,
    witness_search,
)
from trapscope.model import _v_norm, build_instance, build_observable, build_system, v_matrix

from oracles import (
    TWO_PI,
    column_reference_ld,
    constant,
    drift,
    ladder,
    ladder_instance,
    lie_rank_reference,
    n3_instance,
    n4_instance,
    random_instances,
    sample_midpoints,
    zero,
)


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
    inst = n3_instance(horizon=1.0)
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
                term = (-1.0) ** (n - j) * 1j**n * lam[l - 1] * forms.table[j, l - 1]
                term *= np.conj(forms.table[n - j, l - 1])
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
    # the order the forms extend to is read off the table, so a hand-built
    # table of orders 0..4 cannot claim more
    forms = DysonForms(np.ones((5, 4), dtype=np.complex128))
    assert (forms.n_max, forms.levels) == (4, 4)
    assert isinstance(differential(n4_instance(), forms, 4), float)
    with pytest.raises(InsufficientOrder, match=r"^forms extend to order 4, requested 6$"):
        differential(n4_instance(), forms, 6)


def test_differential_of_a_complex_table_is_finite_and_real():
    # the terms j and n - j of the double sum are conjugates, so any complex
    # table gives a real coefficient; only a non-finite one is refused
    inst = n4_instance()
    rng = np.random.default_rng(3)
    for scale in (1e-150, 1.0, 1e150):
        table = scale * (rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4)))
        forms = DysonForms(table)
        for n in range(1, 7):
            value = differential(inst, forms, n)
            assert isinstance(value, float) and math.isfinite(value)


def test_differential_of_a_non_finite_table_is_not_resolvable():
    inst = n4_instance()
    table = np.ones((7, 4), dtype=np.complex128)
    table[2, 1] = np.inf
    forms = DysonForms(table)
    # inf times the zero imaginary part sets numpy's invalid flag; silence
    # that warning so the raise itself is what is tested
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="not resolvable"):
        differential(inst, forms, 4)


@pytest.mark.parametrize("levels", range(3, 10))
def test_forms_and_odd_differentials_vanish_by_ladder_parity(levels):
    # P = diag(1, -1, 1, ...) fixes H0 and flips V, so A^n_l is zero unless
    # n = N - l (mod 2), and every odd-order coefficient is zero; both hold
    # exactly, not to roundoff
    lam = (1.0, *np.linspace(0.5, 0.1, levels - 3), -1.0, 0.0)
    instances = [
        (1.0, 0.0, TWO_PI, (1.0,) * (levels - 1)),
        (-0.7, 2.0, 3.0, tuple(0.5 + 0.25 * k for k in range(levels - 1))),
        (3.0, 1.0, 1.0, tuple((-1.0) ** k * (1.0 + k) for k in range(levels - 1))),
    ]
    for a, b, horizon, couplings in instances:
        inst = build_instance(build_system(levels, a, b, couplings, horizon), build_observable(lam))
        # even indices are mean-zero, odd ones offset
        for f in probe_directions(CertificateConfig(directions=4, seed=11, segments=16), horizon):
            forms = forms_for(inst, f)
            for n in range(forms.n_max + 1):
                for l in range(1, levels + 1):
                    if (n - (levels - l)) % 2:
                        assert forms.table[n, l - 1] == 0.0
            for n in range(1, forms.n_max + 1, 2):
                assert differential(inst, forms, n) == 0.0


# ------------------------------------------------------------- order 2N-2


def test_order_value_zero_control():
    inst = n3_instance()
    forms = forms_for(inst, constant(0.0, TWO_PI, 32))
    assert order_2N2_value(inst, forms) == 0.0


def test_order_value_resonant_cos():
    # |i pi/2|^2 = pi^2/4 with lambda_1 = 1
    inst = n3_instance(2.0)
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


def test_taylor_fit_coefficients_start_at_order_one():
    fit = taylor_fit(n3_instance(), constant(0.1, TWO_PI, 32))
    assert fit.accepted is True  # bench/launch.py reads the name
    with pytest.raises(DomainError, match=r"^coefficient index 0 outside 1\.\.6"):
        fit.coefficient(0)


def test_taylor_fit_constant_direction_c2():
    # f == 1/sqrt(2 pi) on [0, 2 pi]: c2 = lambda_2 v_2^2 (int f)^2 = -2 pi
    inst = n3_instance()
    f = constant(1.0 / math.sqrt(TWO_PI), TWO_PI, 64)
    fit = taylor_fit(inst, f)
    assert fit.coefficient(2) == pytest.approx(-TWO_PI, rel=1e-3)


def test_taylor_fit_resonant_cos_leading_order():
    inst = n3_instance(2.0)
    f = sample_midpoints(math.cos, TWO_PI, 256)
    fit = taylor_fit(inst, f)
    scale = max(1.0, norm(f))
    for k in (1, 2, 3):
        assert abs(fit.coefficient(k)) <= 1e-6 * scale**k
    assert fit.coefficient(4) == pytest.approx(math.pi**2 / 4, rel=1e-3)


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


def test_landscape_stack_of_one_equals_single_call_bit_for_bit():
    inst = n4_instance()
    f = random_direction(8, 64, TWO_PI, mean_zero=True, amplitude=0.5)
    single, stacked = forms_for(inst, f), forms_for(inst, [f])
    for n in range(1, 7):
        assert differential(inst, stacked, n)[0] == differential(inst, single, n)
    assert order_2N2_value(inst, stacked)[0] == order_2N2_value(inst, single)
    fit, fits = taylor_fit(inst, f), taylor_fit(inst, [f])
    assert np.array_equal(fits.coefficients[0], fit.coefficients)
    assert fits.radius[0] == fit.radius


@pytest.mark.parametrize("levels, count", [(n, 16) for n in range(3, 9)] + [(3, 40)])
def test_stacked_taylor_fit_matches_single_calls(levels, count):
    # The stack takes each segment's substeps from its largest step, which
    # moves last bits.  The checked orders (c_2 off the mean-zero subspace,
    # c_{2N-2} on it) stay within the bounds of the cross-check above.  At
    # N = 3 the 40 directions span two contour blocks.
    inst = ladder_instance(levels)
    fs = probe_directions(CertificateConfig(directions=count, seed=5, segments=64), TWO_PI)
    fits = taylor_fit(inst, fs)
    assert fits.coefficients.shape == (count, 2 * levels)
    rel = 1e-10 if levels < 8 else 1e-8
    for i, f in enumerate(fs):
        single = taylor_fit(inst, f)
        assert fits.radius[i] == single.radius
        checked = 2 if i % 2 else 2 * levels - 2
        assert abs(fits.coefficient(checked)[i] - single.coefficient(checked)) <= rel * abs(
            single.coefficient(checked)
        ), (levels, i)


def test_zero_control_inside_a_stack_gets_zeros_and_infinite_radius():
    inst = n4_instance()
    f, g = probe_directions(CertificateConfig(directions=2, seed=3, segments=32), TWO_PI)
    fits = taylor_fit(inst, [f, constant(0.0, TWO_PI, 32), g])
    assert np.all(fits.coefficients[1] == 0.0)
    assert fits.radius[1] == math.inf
    assert np.array_equal(fits.coefficients[[0, 2]], taylor_fit(inst, [f, g]).coefficients)
    forms = forms_for(inst, [f, constant(0.0, TWO_PI, 32), g])
    assert all(differential(inst, forms, n)[1] == 0.0 for n in range(1, 7))
    assert order_2N2_value(inst, forms)[1] == 0.0


@pytest.mark.parametrize(
    "inst, peak",
    [(n3_instance(), 1e-320), (n4_instance(), 1e45), (n3_instance(), 1e308)],
    ids=["n3-1e-320", "n4-1e45", "n3-1e308"],
)
def test_taylor_fit_refuses_radii_float64_cannot_hold(inst, peak):
    # The radius r = 2 / (||V||_2 int|f|) and its powers r^-n, n <= 2N, are
    # checked in log space before any is formed: at 1e-320 r overflows, at
    # 1e45 r^-8 does on N = 4, and at 1e308 int|f| itself.  Each is refused,
    # with no warning, alone and in a stack beside a resolvable direction.
    f = PiecewiseControl(TWO_PI, (peak, -peak, peak, -peak))
    for controls in (f, [constant(0.1, TWO_PI, 4), f]):
        with pytest.raises(DomainError, match="not resolvable$"):
            taylor_fit(inst, controls)


def test_taylor_fit_rejects_mixed_grids_and_empty_stacks():
    inst = n3_instance()
    f = random_direction(1, 16, TWO_PI)
    for mixed in ([f, random_direction(2, 32, TWO_PI)], [f, constant(0.0, 1.0, 16)]):
        with pytest.raises(GridMismatch):
            taylor_fit(inst, mixed)
    with pytest.raises(DomainError):
        taylor_fit(inst, [])


def reference_rows(inst, cfg):
    """(row, forms, control) per probe direction, from single-direction calls one at a time."""
    sys = inst.system
    nlev = sys.levels
    n_top = 2 * nlev - 2
    lam = inst.observable.eigenvalues
    out = []
    for index in range(cfg.directions):
        f = probe_direction(cfg.seed, index, cfg.segments, sys.horizon)
        forms = dyson_forms(sys, f, n_max=n_top)
        fit = taylor_fit(inst, f)
        mean_zero = landscape.probe_offset(index) == 0.0
        row = {
            "index": index,
            "seed": landscape.probe_seed(cfg.seed, index),
            "mean_zero": mean_zero,
            "offset": landscape.probe_offset(index),
            "norm": norm(f),
            "integral": integral(f),
            "substeps_used": 0,
            "differentials": [differential(inst, forms, n) for n in range(1, n_top + 1)],
            "d2_predicted": lam[nlev - 2] * sys.couplings[-1] ** 2 * integral(f) ** 2,
            "order_2N2_analytic": order_2N2_value(inst, forms) if mean_zero else None,
            "fit_coefficients": list(fit.coefficients),
            "fit_radius": fit.radius,
        }
        out.append((row, forms, f))
    return out


@pytest.mark.parametrize("levels", [3, 6, 8])
def test_certificate_rows_match_a_per_direction_loop(levels):
    inst = ladder_instance(levels)
    n_top = 2 * levels - 2
    cfg = CertificateConfig(directions=16, seed=611, segments=64)
    lam = np.abs(np.asarray(inst.observable.eigenvalues[:-1]))
    v_norm = _v_norm(inst.system)
    orders = np.arange(n_top + 1)
    rel = 1e-10 if levels < 8 else 1e-8
    probes = probe_directions(cfg, TWO_PI)
    rows = landscape._certificate_rows(inst, probes, cfg.seed)
    for row, (ref, forms, f) in zip(rows, reference_rows(inst, cfg), strict=True):
        assert row.keys() == ref.keys()
        for key in ("index", "seed", "mean_zero", "offset", "norm", "integral", "substeps_used",
                    "d2_predicted", "fit_radius"):
            assert row[key] == ref[key], key
        # The forms' bound of test_stacked_forms_match_single_calls, 1e-14 of
        # the natural size (||V||_2 int|f|)^n / n!, carried through c_n and
        # lambda_1 |A^{N-1}_1|^2.
        mass = v_norm * f.dt * float(np.sum(np.abs(f.as_array())))
        delta = np.array([1e-14 * mass**n / math.factorial(n) for n in orders])[:, None]
        a = np.abs(forms.table[:, :-1])
        for n in range(1, n_top + 1):
            j = orders[: n + 1]
            bound = np.sum(lam * (delta[j] * a[n - j] + a[j] * delta[n - j] + delta[j] * delta[n - j]))
            assert abs(row["differentials"][n - 1] - ref["differentials"][n - 1]) <= bound, n
        if ref["mean_zero"]:
            top, d = a[levels - 1, 0], delta[levels - 1, 0]
            bound = inst.observable.eigenvalues[0] * (2.0 * top * d + d * d)
            assert abs(row["order_2N2_analytic"] - ref["order_2N2_analytic"]) <= bound
        else:
            assert row["order_2N2_analytic"] is None
        checked = n_top if ref["mean_zero"] else 2
        want = ref["fit_coefficients"][checked - 1]
        assert abs(row["fit_coefficients"][checked - 1] - want) <= rel * abs(want)


def contour_top_coefficient(inst, psi, z):
    """c_{2N-2} = Re mean_k J(z_k) z_k^{-(2N-2)} from the |N> columns psi at
    the (D, K) contour points z, in the precision of psi and z."""
    lam = np.asarray(inst.observable.eigenvalues).astype(psi.real.dtype)
    j = np.sum(lam * psi * np.conj(psi[:, ::-1]), axis=-1)
    return np.mean(j * z ** -(2 * inst.system.levels - 2), axis=-1).real


def float64_top_error(levels, radius_scale):
    """Relative error of float64's sampled c_{2N-2} against the longdouble oracle.

    On the 4 mean-zero default probes of a uniform ladder whose middle
    lambda are spread evenly from 0.5 to -0.4, each sampled at the same
    K = 4(2N - 2) points of radius radius_scale / (||V||_2 int|f|) by
    dynamics._column_at and by oracles.column_reference_ld.
    """
    sys = ladder(levels)
    inst = build_instance(sys, build_observable((1.0, *np.linspace(0.5, -0.4, levels - 3), -1.0, 0.0)))
    values, _ = dynamics._as_stack(sys, probe_directions(CertificateConfig(), TWO_PI)[::2])
    points = 4 * (2 * levels - 2)
    radius = radius_scale / _line_scale(sys, values)
    z = radius[:, None] * np.exp(2j * np.pi * (np.arange(points) + 0.5) / points)
    c64 = contour_top_coefficient(inst, dynamics._column_at(sys, values, z), z)
    c_ld = contour_top_coefficient(inst, column_reference_ld(sys, values, z), z.astype(np.clongdouble))
    return (np.abs(c64 - c_ld) / np.abs(c_ld)).astype(float)


def test_longdouble_column_oracle_measures_the_contour_error():
    # The column half of an extended-precision oracle: _column_at in
    # clongdouble (eps 1.1e-19 on x86-64) separates float64's contour error
    # from the analytic side's.  At N = 8 on r_top = (2N - 2) / (||V||_2
    # int|f|), where float64 is good, the two agree (measured at most
    # 1.5e-14).  At N = 12 on the contour's radius r_0 = 2 / (||V||_2
    # int|f|), float64's c_{2N-2} is roundoff (measured up to 6.3e4 relative).
    assert np.max(float64_top_error(8, 2 * 8 - 2)) <= 1e-13
    assert np.max(float64_top_error(12, 2.0)) >= 1e3


def contour_j(inst, psi):
    """J(z_k) = sum_l lambda_l psi_l(z_k) conj(psi_l(conj z_k)) on contour columns psi."""
    lam = np.asarray(inst.observable.eigenvalues).astype(psi.real.dtype)
    return np.sum(lam * psi * np.conj(psi[:, ::-1]), axis=-1)


@pytest.mark.parametrize("levels, top_bound", [(4, 1e-14), (6, 5e-14), (8, 1e-10)])
def test_column_degree_adds_no_visible_truncation_on_the_contour(levels, top_bound):
    # _column_at stops each substep at the backward-error degree
    # _taylor_degree, two terms before the old 1e-18 stop _taylor_terms.
    # Against the longdouble column at _taylor_terms' degree, whose own
    # truncation is below float64's roundoff, float64 J on the certificate's
    # contour (uniform ladder, 8 probes, radius r_0 = 2 / (||V||_2 int|f|),
    # K = 2N + 16) stays within 1e-14 (measured 2.0-2.6e-15), and the sampled
    # c_{2N-2} of the mean-zero probes within top_bound relative (measured
    # 1.1e-15, 6.0e-15 and 1.7e-11 at N = 4, 6, 8; 1.2e-15, 2.4e-15 and
    # 9.2e-12 at the old degree).
    inst = ladder_instance(levels)
    sys = inst.system
    values, _ = dynamics._as_stack(sys, probe_directions(CertificateConfig(), TWO_PI))
    points = 2 * levels + landscape.CONTOUR_EXTRA_POINTS
    z = (2.0 / _line_scale(sys, values))[:, None] * np.exp(2j * np.pi * (np.arange(points) + 0.5) / points)
    psi = dynamics._column_at(sys, values, z)
    psi_ld = column_reference_ld(sys, values, z, degree=dynamics._taylor_terms)
    assert np.max(np.abs(contour_j(inst, psi) - contour_j(inst, psi_ld))) <= 1e-14
    c64 = contour_top_coefficient(inst, psi, z)[::2]
    c_ld = contour_top_coefficient(inst, psi_ld, z.astype(np.clongdouble))[::2]
    assert np.max(np.abs(c64 - c_ld) / np.abs(c_ld)) <= top_bound


def test_column_degree_adds_no_visible_truncation_on_the_scan_line():
    # scan-n6's line: the uniform N = 6 ladder's 8 probes at the 201 points
    # t = 0 .. 1 of `--points 401 --tmax 1`, one Taylor substep of norm up
    # to 0.316 per segment, 13 terms where _taylor_terms took 15.  J stays
    # within 1e-14 of the longdouble column at the old degree (measured
    # 1.9e-15).
    inst = ladder_instance(6)
    sys = inst.system
    values, _ = dynamics._as_stack(sys, probe_directions(CertificateConfig(), TWO_PI))
    z = np.broadcast_to(np.linspace(0.0, 1.0, 401)[200:], (8, 201))
    theta, substeps = dynamics._taylor_substeps(sys, values, z)
    assert np.all(substeps == 1.0) and dynamics._taylor_degree(np.max(theta)) == 13
    psi = dynamics._column_at(sys, values, z)
    psi_ld = column_reference_ld(sys, values, z, degree=dynamics._taylor_terms)
    assert np.max(np.abs(contour_j(inst, psi) - contour_j(inst, psi_ld))) <= 1e-14


# ---------------------------------------------------------------- lie rank


def test_lie_rank_reference_chains():
    res3 = lie_rank(ladder(3))
    assert res3.dimension >= 8 and res3.saturated
    res4 = lie_rank(ladder(4))
    assert res4.dimension >= 15 and res4.saturated


def test_lie_rank_saturates_past_depth_twelve():
    # saturation needs depth 2N - 1, beyond the old fixed cap of 12
    for nlev in range(3, 21):
        res = lie_rank(ladder(nlev))
        assert res.saturated
        assert res.dimension == nlev * nlev
        assert res.depth_reached == 2 * nlev - 1


def test_lie_rank_mixed_sign_couplings_below_the_gap():
    # a < b and couplings of both signs: the closure still fills u(5) at depth 2N - 1
    res = lie_rank(build_system(5, 0.0, 1.5, (1.0, -2.0, 0.5, -1.0), TWO_PI))
    assert (res.dimension, res.saturated, res.depth_reached) == (25, True, 9)


def test_lie_rank_degenerate_pair():
    g = np.eye(3)
    res = lie_rank_matrices(g, g)
    assert res.dimension == 1
    assert not res.saturated


_V4 = v_matrix(ladder(4))


@pytest.mark.parametrize(
    "pair, expected",
    [
        # a zero generator spans nothing and commutes with everything
        ((_V4, 0 * _V4), (1, False, 2)),
        ((0 * _V4, _V4), (1, False, 2)),
        ((np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1.0, -1.0])), (2, False, 2)),
    ],
    ids=["zero-second", "zero-first", "commuting-diagonal"],
)
def test_lie_rank_pairs_that_stop_at_depth_two(pair, expected):
    res = lie_rank_matrices(*pair)
    assert (res.dimension, res.saturated, res.depth_reached) == expected


@pytest.mark.parametrize(
    "pair",
    [(1j * _V4, _V4), (_V4, np.where(_V4 > 0, np.inf, 0.0)), (_V4, np.triu(_V4))],
    ids=["complex", "non-finite", "non-symmetric"],
)
def test_lie_rank_matrices_takes_real_symmetric_generators(pair):
    # i H passed where H is meant would otherwise lose its imaginary part to a
    # float cast and leave the closure with zero generators
    with pytest.raises(DomainError):
        lie_rank_matrices(*pair)


def _lie_sweep_systems():
    small = range(3, 11)
    return (
        [inst.system for inst, _ in random_instances()]
        + [ladder(n) for n in range(3, 21)]
        + [build_system(5, 0.0, 1.5, (1.0, -2.0, 0.5, -1.0), TWO_PI)]
        + [build_system(n, 1.0, 0.0, (1e-5,) * (n - 1), TWO_PI) for n in small]
        + [build_system(n, gap, 0.0, (1.0,) * (n - 1), TWO_PI) for gap in (1e6, 1e-6) for n in small]
        + [build_system(n, 1.0, 0.0, tuple(np.geomspace(1e-3, 1e3, n - 1)), TWO_PI) for n in small]
    )


def test_lie_rank_matches_the_complex_closure():
    systems = _lie_sweep_systems()
    assert len(systems) == 171
    for sys_ in systems:
        res = lie_rank(sys_)
        ref = lie_rank_reference(1j * drift(sys_), 1j * v_matrix(sys_))
        got = (res.dimension, res.saturated, res.depth_reached)
        assert got == (ref.dimension, ref.saturated, ref.depth_reached), sys_
        assert res.dimension <= sys_.levels**2


def test_lie_rank_invariant_under_coupling_rescale():
    base = lie_rank(ladder(4))
    scaled = lie_rank(ladder(4, coupling=3.0))
    assert base.dimension == scaled.dimension


# ---------------------------------------------------------------- witness


_RANDOM = random_instances()


def test_witness_respects_kinematic_bound():
    inst = n3_instance()
    res = witness_search(inst, probe_directions(CertificateConfig(seed=7, segments=32), TWO_PI), budget=40)
    assert res.j_value <= 1.0 + 1e-12
    if res.success:
        assert res.evaluations <= 40
    else:
        assert res.evaluations == 40


def test_witness_deterministic():
    inst = n3_instance()
    probes = probe_directions(CertificateConfig(seed=11, segments=16), TWO_PI)
    a = witness_search(inst, probes, budget=25)
    b = witness_search(inst, probes, budget=25)
    assert a == b


def serial_witness_steps(inst, probes):
    """(probe, amplitude, J) of each control of the witness walk in order, one propagate each.

    The walk enumerates its exponents u level by level: u = 0 first, then at
    level e = 1, 2, ... the odd multiples j / 2^e in increasing order, each
    at tau = hi (lo / hi)^u with the probes in index order.
    """
    sys = inst.system
    lo, hi = landscape.WITNESS_AMPLITUDE_SCALE
    v_norm = _v_norm(sys)
    levels = (j / 2**e for e in itertools.count(1) for j in range(1, 2**e, 2))
    for u in itertools.chain([0.0], levels):
        for k, f in enumerate(probes):
            t = hi * (lo / hi) ** u / (v_norm * float(np.sum(np.abs(f.as_array())) * (sys.horizon / f.segments)))
            yield k, t, objective(propagate(sys, f.scaled(t)), inst)


def serial_witness_walk(inst, probes, budget, steps=None):
    """The first `budget` steps of the witness walk (serial_witness_steps, or
    `steps` computed by it), stopping at the first hit.

    (probe, amplitude, J, success, evaluations) of the first hit, or of the
    best control on a miss.
    """
    sys = inst.system
    lam = inst.observable.eigenvalues
    zero = PiecewiseControl(sys.horizon, (0.0,) * probes[0].segments)
    threshold = objective(propagate(sys, zero), inst) + 0.01 * (lam[0] - lam[-1])
    walk = itertools.islice(serial_witness_steps(inst, probes) if steps is None else steps, budget)
    best = (None, None, -math.inf, False, budget)
    for count, (k, t, j) in enumerate(walk, start=1):
        if j > threshold:
            return k, t, j, True, count
        if j > best[2]:
            best = (k, t, j, False, budget)
    return best


def check_serial_walk(inst, probes, budget, steps=None):
    """witness_search at `budget` against serial_witness_walk; returns its result."""
    res = witness_search(inst, probes, budget)
    probe, t, j, success, evals = serial_witness_walk(inst, probes, budget, steps)
    assert (res.probe, res.success, res.evaluations) == (probe, success, evals)
    assert res.amplitude == pytest.approx(t, rel=1e-15)
    assert res.j_value == pytest.approx(j, rel=1e-12, abs=1e-15)
    # The walk scores each control by propagate_batch, whose rows equal
    # propagate's bit for bit, and res.amplitude scales the probe exactly as
    # the walk's block does: the reported J is the control's J exactly.
    control = probes[res.probe].scaled(res.amplitude)
    assert objective(propagate(inst.system, control), inst) == res.j_value
    return res


@pytest.mark.parametrize(
    "index, segments, budget, first_hit",
    [(50, 16, 160, 8), (62, 16, 160, 13), (16, 16, 160, 71), (6, 16, 160, None), (41, 64, 5, 5), (9, 256, 40, 29)],
)
def test_witness_blocks_match_serial_walk(index, segments, budget, first_hit):
    # Six probes, so the blocks of 1, 2, 4, ... controls, up to
    # block_controls(M) (16 on 16 segments, 4 on 64), end in the middle of
    # an amplitude's six.  The first hits fall at the start (8) and in the
    # middle (13) of the fourth block, controls 8..15, and in the eighth
    # (71); instance 6 misses all 160 and returns its best.  Instance 41
    # hits at the last of 5 controls, in the third block, cut to controls
    # 4..5 by the budget, so a budget of 4 walks the same controls one short
    # of the hit, and misses.  On 256 segments a block holds one control,
    # and instance 9 hits in its 29th.
    inst, seed = _RANDOM[index]
    probes = probe_directions(CertificateConfig(directions=6, seed=seed, segments=segments), inst.system.horizon)
    assert block_controls(segments) == {16: 16, 64: 4, 256: 1}[segments]
    res = check_serial_walk(inst, probes, budget)
    assert res.success == (first_hit is not None)
    if res.success:
        assert res.evaluations == first_hit
    if first_hit == budget:
        miss = check_serial_walk(inst, probes, budget - 1)
        assert not miss.success and miss.evaluations == budget - 1


@pytest.mark.parametrize(
    "index, segments, budget, rows",
    [(50, 16, 160, 15), (62, 16, 160, 15), (16, 16, 160, 79), (6, 16, 160, 160), (41, 64, 5, 5), (9, 256, 40, 29)],
)
def test_witness_blocks_start_at_one_control(monkeypatch, index, segments, budget, rows):
    # The walk's blocks hold 1, 2, 4, ... controls up to block_controls(M),
    # so it propagates only through the end of the block that holds its
    # first hit (or all `budget` controls on a miss): 15 rows for the hits
    # at 8 and 13 (blocks 1 + 2 + 4 + 8), 79 for the hit at 71, 5 and 29
    # where the budget or one-control blocks end the walk.  The results are
    # the serial walk's, as propagate_batch rows do not depend on their
    # block.  At the certificate's defaults on examples/n4.cfg the walk
    # hits on its first control, and propagates that one control alone.
    propagated = []
    batch = landscape.propagate_batch

    def counted(sys, values):
        propagated.append(len(values))
        return batch(sys, values)

    monkeypatch.setattr(landscape, "propagate_batch", counted)
    inst, seed = _RANDOM[index]
    probes = probe_directions(CertificateConfig(directions=6, seed=seed, segments=segments), inst.system.horizon)
    check_serial_walk(inst, probes, budget)
    cap = block_controls(segments)
    assert sum(propagated) == rows
    assert propagated[:-1] == [min(2**k, cap) for k in range(len(propagated) - 1)]
    propagated.clear()
    n4 = n4_instance()
    res = witness_search(n4, probe_directions(CertificateConfig(), n4.system.horizon), 500)
    assert res.success and res.evaluations == 1 and propagated == [1]


def test_witness_scores_every_control_by_full_propagators(monkeypatch):
    # The walk takes one route whatever its amplitudes: the eigenvalue route
    # of propagate_batch.  The column kernel and its substep plan serve scan
    # and the contour, never the witness.  Instance 6 misses all 160
    # controls, so the walk crosses every block and amplitude level.
    def unreachable(*args):
        raise AssertionError("the witness walk reached the column route")

    monkeypatch.setattr(landscape, "_column_at", unreachable)
    monkeypatch.setattr(landscape, "_taylor_substeps", unreachable)
    inst, seed = _RANDOM[6]
    probes = probe_directions(CertificateConfig(directions=6, seed=seed, segments=16), inst.system.horizon)
    res = witness_search(inst, probes, 160)
    assert not res.success and res.evaluations == 160


@pytest.mark.parametrize("index", [6, 16, 60])
def test_witness_every_budget_truncates_one_walk(index):
    # The walk is one sequence and the budget only cuts it: every budget
    # from 1 to 160 gives the serial walk's outcome over the same first
    # controls.  Instance 6 (N = 5) misses all 160, so each budget returns
    # the best of its prefix; instances 16 (N = 4) and 60 (N = 5) hit at 71
    # and 31, and every larger budget returns that hit.
    inst, seed = _RANDOM[index]
    probes = probe_directions(CertificateConfig(directions=6, seed=seed, segments=16), inst.system.horizon)
    steps = list(itertools.islice(serial_witness_steps(inst, probes), 160))
    for budget in range(1, 161):
        check_serial_walk(inst, probes, budget, steps)


def test_witness_hit_is_not_lost_to_a_larger_budget():
    # Random instance 61 (N = 9) at the certificate's defaults: its walk
    # first clears the threshold at its 340th control, so budget 200 misses
    # and budget 500 must find that hit: a larger budget walks the same
    # controls and more.
    inst, seed = _RANDOM[61]
    probes = probe_directions(CertificateConfig(seed=seed), inst.system.horizon)
    short, hit = (witness_search(inst, probes, budget) for budget in (200, 500))
    assert not short.success and short.evaluations == 200
    assert hit.success and hit.evaluations == 340


def test_probe_direction_is_the_shifted_draw():
    # One control built from the array route, equal to the draw's projection,
    # normalisation and shift through the control helpers.
    for index in range(6):
        f = random_direction(probe_seed(611, index), 64, TWO_PI, mean_zero=True, amplitude=landscape.PROBE_AMPLITUDE)
        offset = probe_offset(index)
        assert probe_direction(611, index, 64, TWO_PI) == (f.shifted(offset) if offset else f)


def test_probe_directions_enumerate_the_family():
    budget = CertificateConfig(directions=5, seed=611, segments=32)
    assert probe_directions(budget, 3.0) == [probe_direction(611, i, 32, 3.0) for i in range(5)]


# Instances of random_instances(), N = 3..10 in order.  On those with
# N = 6..10, budget-500 searches over random controls of amplitude
# [0.1, 100] / (||V||_2 T) missed.  Some hit late in the walk, on its finer
# levels of tau (evaluation 174 on instance 85, 140 on 100).
WITNESS_RANDOM = (2, 16, 82, 79, 31, 7, 35, 107, 29, 100, 13, 67, 85)


@pytest.mark.parametrize(
    "inst, seed",
    [
        pytest.param(ladder_instance(levels, horizon, coupling), 20240901, id=f"{levels}-{horizon}-{coupling}")
        for levels, horizon, coupling in [
            (4, TWO_PI, 1.0),
            (8, TWO_PI, 1.0),
            (10, TWO_PI, 1.0),
            (12, TWO_PI, 1.0),
            (4, math.pi / 2, 1.0),
            (12, math.pi, 1.0),
            (8, TWO_PI, 0.5),
            (4, 4 * TWO_PI, 4.0),
        ]
    ]
    + [pytest.param(*_RANDOM[k], id=f"random-{k}") for k in WITNESS_RANDOM],
)
def test_witness_hits_at_the_horizon(inst, seed):
    # The certificate's witness at T (its probes, budget and segments)
    # clears the threshold on every instance, from short horizons and weak
    # coupling to N = 12, and on random instances up to N = 10.
    cfg = CertificateConfig(seed=seed)
    res = witness_search(inst, probe_directions(cfg, inst.system.horizon), cfg.witness_budget)
    lam = inst.observable.eigenvalues
    assert res.success and res.j_value > 0.01 * (lam[0] - lam[-1])
    assert res.evaluations <= cfg.witness_budget


@pytest.mark.parametrize("peak", [1e-320, 1e308])
def test_witness_refuses_amplitudes_float64_cannot_hold(peak):
    # Amplitudes tau / (||V||_2 int|f|) beyond float64's normal range are
    # refused from their logarithms, before any of them is formed, so no
    # overflow warning is raised (the suite turns warnings into errors): a
    # subnormal probe is not a zero probe, and a huge one walks no zero
    # amplitudes.
    probe = PiecewiseControl(TWO_PI, (peak, -peak, peak, -peak))
    with pytest.raises(DomainError, match="not resolvable$"):
        witness_search(n3_instance(), [probe], budget=5)


def test_witness_budget_validation():
    inst = n3_instance()
    with pytest.raises(DomainError):
        witness_search(inst, probe_directions(CertificateConfig(segments=16), TWO_PI), budget=0)
    with pytest.raises(DomainError):
        witness_search(inst, [], budget=1)
    with pytest.raises(DomainError):
        witness_search(inst, [constant(0.0, TWO_PI, 16)], budget=1)


def test_witness_memory_does_not_grow_with_the_budget():
    # On the n4 example the walk hits on its first control.  Each block
    # forms its controls from their walk indices, so no budget-sized array
    # exists: at budget 10^7 the search peaks below 1 MB.  Any budget runs,
    # and a certificate accepts 10^12 as well as a search does 10^30.
    inst = n4_instance()
    probes = probe_directions(CertificateConfig(), TWO_PI)
    first = witness_search(inst, probes, budget=1)
    tracemalloc.start()
    try:
        res = witness_search(inst, probes, budget=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == first and res.evaluations == 1
    assert peak < 1e6
    for budget in (CertificateConfig(witness_budget=10**12).witness_budget, 10**30):
        assert witness_search(inst, probes, budget) == first


def zero_control_cases():
    """The 410 (instance, M) pairs of the J(0) sweep: the random instances at
    M = 8, 64 and 1024, and unit-coupled ladders at five gaps, N = 3, 4, 8,
    16 and 32, M = 8 and 64."""
    cases = [(inst, segments) for inst, _ in _RANDOM for segments in (8, 64, 1024)]
    for a, b in ((1e6, 0.0), (1e-6, 0.0), (0.0, 1.5), (3.0, -2.0), (1e3, 1e3 - 1)):
        for levels in (3, 4, 8, 16, 32):
            sys = build_system(levels, a, b, (1.0,) * (levels - 1), TWO_PI)
            inst = build_instance(sys, build_observable((1.0, *np.linspace(0.5, 0.1, levels - 3), -1.0, 0.0)))
            cases += [(inst, segments) for segments in (8, 64)]
    return cases


def test_zero_control_objective_is_lambda_N_exactly():
    # witness_search takes J(0) = lambda_N = 0.0 without propagating: the
    # zero control's propagator is diagonal, so |N> only gains a phase.  The
    # eigenvalue route must give exactly that, on every random instance and
    # at gaps from 1e-6 to 1e6.
    cases = zero_control_cases()
    assert len(cases) == 410
    for inst, segments in cases:
        assert inst.observable.eigenvalues[-1] == 0.0
        assert objective(propagate(inst.system, zero(inst.system.horizon, segments)), inst) == 0.0


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
        ("directions", 2.5),
        ("seed", 7.0),
        ("segments", "16"),
        ("witness_budget", np.float64(25.0)),
        ("directions", np.int64(1)),
    ],
)
def test_certificate_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ConfigError, match=f"^{field} "):
        CertificateConfig(**{field: value})


def test_certificate_config_stores_numpy_integers_as_int():
    cfg = CertificateConfig(directions=np.int64(4), seed=np.uint32(7), segments=np.int16(16), witness_budget=np.int8(3))
    assert cfg == CertificateConfig(directions=4, seed=7, segments=16, witness_budget=3)
    assert all(type(getattr(cfg, name)) is int for name in ("directions", "seed", "segments", "witness_budget"))


# Each library count argument as a one-argument call on the n3 instance.
COUNT_ARGUMENTS = {
    "n_max": lambda n: dyson_forms(n3_instance().system, constant(0.1, TWO_PI, 16), n),
    "order": lambda n: differential(n3_instance(), forms_for(n3_instance(), constant(0.1, TWO_PI, 16)), n),
    "budget": lambda n: witness_search(n3_instance(), probe_directions(CertificateConfig(directions=2), TWO_PI), n),
    "coefficient index": lambda n: taylor_fit(n3_instance(), constant(0.1, TWO_PI, 16)).coefficient(n),
    "index": lambda n: probe_direction(5, n, 8, 1.0),
}
COUNT_IDS = [name.replace(" ", "-") for name in COUNT_ARGUMENTS]


@pytest.mark.parametrize("value", [2.5, 2.0])
@pytest.mark.parametrize("name", list(COUNT_ARGUMENTS), ids=COUNT_IDS)
def test_count_arguments_refuse_non_integers(name, value):
    # a DomainError naming the argument: no bare TypeError or IndexError, no truncation
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
        COUNT_ARGUMENTS[name](value)


@pytest.mark.parametrize("name", list(COUNT_ARGUMENTS), ids=COUNT_IDS)
def test_count_arguments_take_numpy_integers_bit_for_bit(name):
    want, got = COUNT_ARGUMENTS[name](3), COUNT_ARGUMENTS[name](np.int64(3))
    if isinstance(want, DysonForms):
        assert got.table.tobytes() == want.table.tobytes()
    elif isinstance(want, float):
        assert type(got) is float and got.hex() == want.hex()
    else:
        assert got == want  # a PiecewiseControl or a WitnessResult, field by field


@pytest.mark.parametrize(
    "inst, horizons",
    [(n3_instance(), None), (n4_instance(), (TWO_PI, 2 * TWO_PI))],
    ids=["n3", "n4"],
)
def test_certificate_never_calls_propagate(monkeypatch, inst, horizons):
    # The witness measures against J(0) = lambda_N instead of propagating the
    # zero control, and every other stage samples through its own kernels,
    # so with landscape.propagate refusing every call the report is the
    # same.  The n4 run also walks a second horizon, on probes rebuilt there.
    config = CertificateConfig(witness_horizons=horizons)
    expected = json.dumps(trap_certificate(inst, config).as_dict(), sort_keys=True)

    def refuse(*args, **kwargs):
        raise AssertionError("trap_certificate called propagate")

    monkeypatch.setattr(landscape, "propagate", refuse)
    assert json.dumps(trap_certificate(inst, config).as_dict(), sort_keys=True) == expected


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
    with pytest.raises(KeyError, match="nope"):
        report.check("nope")


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


@pytest.mark.parametrize("inst", [n4_instance(), ladder_instance(8)], ids=["n4", "ladder-8"])
def test_certificate_is_invariant_under_an_energy_shift(inst):
    # (a, b) -> (a + c, b + c) with exact sums keeps the gap, and the offset
    # b is a global phase: every kernel reads the drift H0 - b I.  So the
    # report is the unshifted one but for the instance's a and b, every
    # float (the witness's j_value too) bit for bit.
    sys_ = inst.system
    base = json.dumps(trap_certificate(inst).as_dict(), sort_keys=True)
    for c in (2.0**10, 2.0**20, 2.0**30):
        shifted = build_system(sys_.levels, sys_.a + c, sys_.b + c, sys_.couplings, sys_.horizon)
        assert shifted.omega == sys_.omega
        report = trap_certificate(build_instance(shifted, inst.observable)).as_dict()
        assert (report["instance"]["a"], report["instance"]["b"]) == (sys_.a + c, sys_.b + c)
        report["instance"].update(a=sys_.a, b=sys_.b)
        assert json.dumps(report, sort_keys=True) == base


def direction_row(mean_zero, c2=-1.0, d2_predicted=-1.0, fitted=0.0, analytic=None):
    # A complete N=3 direction-table row: differentials of orders 1..4,
    # fitted coefficients of orders 1..6 (c_2 and c_4 set)
    return {
        "mean_zero": mean_zero,
        "differentials": [0.0, 0.0, 0.0, 0.0],
        "fit_coefficients": [0.0, c2, 0.0, fitted, 0.0, 0.0],
        "norm": 1.0,
        "d2_predicted": d2_predicted,
        "order_2N2_analytic": analytic,
    }


def test_order_2N2_match_is_relative_without_floor():
    # N=3, so the order-(2N-2) coefficient is the 4th; a 5x misfit on a
    # 1e-12 coefficient fails the match however small the coefficient, while
    # the non-negativity check keeps its absolute bound, which a negative
    # fit of -1e-11 still passes
    rows = [
        direction_row(True, fitted=5e-12, analytic=1e-12),
        direction_row(False, fitted=0.7),
        direction_row(True, fitted=0.2, analytic=0.2),
        direction_row(True, fitted=-1e-11, analytic=1e-11),
    ]
    checks = {c.name: c for c in landscape._direction_checks(rows, 3)}
    match = checks["order_2N2_match"]
    nonneg = checks["order_2N2_nonneg"]
    assert not match.passed and nonneg.passed
    assert match.threshold == landscape.TOLERANCES["order_match_rel"]
    assert nonneg.threshold == landscape.TOLERANCES["order_nonneg"]
    assert match.measured == pytest.approx(4.0)
    assert match.extras == {}
    assert nonneg.extras == {"min_analytic": 1e-12}
    sub = {c.name: c for c in landscape._direction_checks(rows[1:3], 3)}
    assert sub["order_2N2_match"].passed


def test_mean_descent_is_relative_without_floor():
    # A 1% misfit on a predicted c_2 of -3.5e-14 (v = 1e-7, 1e-7) fails the
    # relative descent check: no floor on the prediction hides it
    pred = -3.5e-14
    rows = [direction_row(True, analytic=1.0), direction_row(False, c2=1.01 * pred, d2_predicted=pred)]
    descent = landscape._direction_checks(rows, 3)[1]
    assert descent.name == "mean_descent"
    assert not descent.passed
    assert descent.measured == pytest.approx(0.01)
    assert descent.extras == {"max_c2": 1.01 * pred}


def test_direction_checks_equal_plain_loops():
    # Each check's reduction over the stacked table equals the per-row loop
    # bit for bit (N=4, so flatness covers orders 3..5)
    report = trap_certificate(n4_instance(), quick_config(directions=6))
    rows, checks = report.directions, {c.name: c for c in report.checks}
    on = [r for r in rows if r["mean_zero"]]
    off = [r for r in rows if not r["mean_zero"]]
    assert checks["stationarity"].measured == max(abs(r["differentials"][0]) for r in rows)
    assert checks["stationarity"].extras["max_fitted_c1"] == max(abs(r["fit_coefficients"][0]) for r in rows)
    assert checks["mean_descent"].measured == max(
        abs(r["fit_coefficients"][1] - r["d2_predicted"]) / abs(r["d2_predicted"]) for r in off
    )
    assert checks["mean_descent"].extras["max_c2"] == max(r["fit_coefficients"][1] for r in off)
    flat = checks["flatness_3_to_2N-3"]
    assert flat.measured == max(
        abs(r["differentials"][n - 1]) / (1.0 + r["norm"]) ** n for r in on for n in (3, 4, 5)
    )
    assert flat.extras["max_scaled_fitted"] == max(
        abs(r["fit_coefficients"][n - 1]) / max(1.0, r["norm"]) ** n for r in on for n in (3, 4, 5)
    )
    assert checks["order_2N2_match"].measured == max(
        abs(r["fit_coefficients"][5] - r["order_2N2_analytic"]) / abs(r["order_2N2_analytic"]) for r in on
    )
    assert checks["order_2N2_nonneg"].measured == min(r["fit_coefficients"][5] for r in on)
    assert checks["order_2N2_nonneg"].extras["min_analytic"] == min(r["order_2N2_analytic"] for r in on)


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


def test_certificate_witness_miss_does_not_fail_verdict(monkeypatch):
    # with a margin no control can clear, the single witness evaluation
    # misses, but the witness outcome is informational and the certificate
    # still passes
    monkeypatch.setattr(landscape, "WITNESS_MARGIN", 1e9)
    report = trap_certificate(n3_instance(), quick_config(witness_budget=1))
    assert report.witness[0]["evaluations"] == 1
    assert not report.check("witness_found").passed
    assert report.passed


def test_certificate_witness_walks_each_horizons_probes():
    # At T the witness walks the certificate's own probes; at 2T, the probes
    # of the same seed and segments rebuilt on 2T.
    cfg = quick_config(segments=32, witness_horizons=(TWO_PI, 2 * TWO_PI))
    report = trap_certificate(n3_instance(), cfg)
    for row, horizon in zip(report.witness, cfg.witness_horizons, strict=True):
        inst = n3_instance(horizon=horizon)
        res = witness_search(inst, probe_directions(cfg, horizon), cfg.witness_budget)
        assert row == {
            "horizon": horizon,
            "j_value": res.j_value,
            "success": res.success,
            "evaluations": res.evaluations,
            "probe": res.probe,
            "amplitude": res.amplitude,
        }


def test_certificate_kernel_agrees_with_order_value():
    # the reported order-(2N-2) analytic coefficient equals lambda_1 |kernel form|^2
    inst = n3_instance()
    f = random_direction(20240901, 64, TWO_PI, mean_zero=True, amplitude=0.5)
    forms = forms_for(inst, f)
    val = order_2N2_value(inst, forms)
    kern = kernel_form_A1N(inst.system, f)
    assert val == pytest.approx(abs(kern) ** 2, rel=1e-6)
