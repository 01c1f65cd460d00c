import math

import numpy as np
import pytest

from trapscope.controls import (
    PiecewiseControl,
    constant,
    integral,
    random_direction,
    zero,
)
from trapscope import dynamics
from trapscope.dynamics import (
    block_controls,
    dyson_forms,
    kernel_form_A1N,
    objective,
    propagate,
    propagate_batch,
    unitarity_defect,
)
from trapscope.errors import DomainError, GridMismatch, NotUnitary, SeriesCheckFailed
from trapscope.model import build_instance, build_observable, build_system, energies, v_matrix

from oracles import (
    TooExpensive,
    _kernel_midpoint_A1N,
    closed_form_AlN,
    dyson_resum_defect,
    expm_mih,
    kernel_bruteforce_A1N,
    sample_midpoints,
    spectral_norm_hermitian,
)

TWO_PI = 2 * math.pi


def n3_system(omega=1.0, horizon=TWO_PI):
    return build_system(3, omega, 0.0, (1.0, 1.0), horizon)


def n3_instance(omega=1.0, horizon=TWO_PI):
    return build_instance(n3_system(omega, horizon), build_observable((1.0, -1.0, 0.0)))


def n4_system(horizon=TWO_PI):
    return build_system(4, 1.0, 0.0, (1.0, 1.0, 1.0), horizon)


# ---------------------------------------------------------------- propagate


def test_propagate_free_evolution_is_diagonal_phase():
    sys = n3_system()
    u = propagate(sys, zero(TWO_PI, 32))
    expected = np.diag(np.exp(-1j * TWO_PI * np.array([1.0, 0.0, 0.0])))
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_propagate_initial_state_is_free_eigenstate():
    sys = n3_system(horizon=math.pi)
    u = propagate(sys, zero(math.pi, 16))
    assert abs(abs(u[2, 2]) - 1.0) <= 1e-12


def test_propagate_short_horizon_near_identity():
    sys = n3_system(horizon=1e-9)
    u = propagate(sys, constant(1.0, 1e-9, 1))
    assert np.max(np.abs(u - np.eye(3))) <= 1e-8


def test_propagate_grid_mismatch():
    with pytest.raises(GridMismatch):
        propagate(n3_system(), zero(1.0, 8))


def test_propagate_unitarity_random_controls():
    sys = n3_system()
    for seed in range(25):
        f = random_direction(seed, 64, TWO_PI, amplitude=2.0)
        assert unitarity_defect(propagate(sys, f)) <= 1e-10 * 3 * 64


@pytest.mark.parametrize("segments", [9, 63, 64])
def test_propagate_batch_rows_equal_single_control_propagation(segments):
    # Odd segment counts leave a carried factor at some tree level; B is not a
    # multiple of the per-block count, so the last block is partial.
    sys = n4_system()
    batch = 2 * block_controls(segments) + 1
    values = np.random.default_rng(segments).uniform(-2.0, 2.0, (batch, segments))
    stack = propagate_batch(sys, values)
    assert stack.shape == (batch, 4, 4)
    for row, u in zip(values, stack):
        assert np.array_equal(u, propagate(sys, PiecewiseControl(TWO_PI, tuple(row))))


def test_propagate_batch_matches_sequential_product():
    sys = n3_system()
    values = np.random.default_rng(3).uniform(-1.5, 1.5, (5, 9))
    dt = TWO_PI / 9
    h0 = np.diag([1.0, 0.0, 0.0])
    for row, u in zip(values, propagate_batch(sys, values)):
        ref = np.eye(3, dtype=complex)
        for x in row:
            ref = expm_mih(h0 + x * v_matrix(sys), dt) @ ref
        assert np.max(np.abs(u - ref)) <= 1e-13


@pytest.mark.parametrize("levels", range(3, 9))
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (-0.4, 0.9)])
def test_parity_mirrors_the_propagator_bit_for_bit(levels, a, b):
    # P = diag(1, -1, 1, ...) fixes H0 and flips V, so U_T(-f) = P U_T(f) P
    # and J(-f) = J(f) exactly; each step is still exp(-i dt (H0 + x V)).
    rng = np.random.default_rng(100 * levels + int(a > b))
    couplings = rng.uniform(0.5, 1.5, levels - 1) * rng.choice([-1.0, 1.0], levels - 1)
    parity = (-1.0) ** np.arange(levels)
    lam = np.concatenate([[1.0], rng.uniform(-0.9, -0.1, levels - 2), [0.0]])
    for horizon, segments in ((0.7, 5), (TWO_PI, 16), (3 * TWO_PI, 9)):
        sys = build_system(levels, a, b, couplings, horizon)
        inst = build_instance(sys, build_observable(lam))
        values = rng.uniform(-2.0, 2.0, (7, segments))
        u = propagate_batch(sys, values)
        mirrored = propagate_batch(sys, -values)
        assert np.array_equal(mirrored, parity[:, None] * u * parity[None, :])
        assert np.array_equal(objective(mirrored, inst), objective(u, inst))
        dt = horizon / segments
        xs = np.concatenate([values[0], -values[0]])
        for x, step in zip(xs, dynamics._segment_steps(sys, xs, dt)):
            assert unitarity_defect(step) <= 1e-14
            assert np.max(np.abs(step - expm_mih(np.diag(energies(sys)) + x * v_matrix(sys), dt))) <= 1e-13


def test_propagate_batch_zero_row_scores_exactly_zero():
    inst = n3_instance()
    values = np.zeros((3, 16))
    values[1] = np.linspace(-1.0, 1.0, 16)
    js = objective(propagate_batch(inst.system, values), inst)
    assert js[0] == 0.0 and js[2] == 0.0
    assert js[1] != 0.0


@pytest.mark.parametrize(
    "values",
    [
        np.array([[0.1, np.nan, 0.2]]),
        np.array([[0.1, np.inf, 0.2]]),
        np.array([[-np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.zeros(8),
        np.zeros((2, 2, 8)),
        np.zeros((2, 0)),
    ],
)
def test_propagate_batch_rejects_bad_values(values):
    with pytest.raises(DomainError):
        propagate_batch(n3_system(), values)


@pytest.mark.parametrize("segments", [0, -1])
def test_block_controls_rejects_nonpositive_segments(segments):
    with pytest.raises(DomainError):
        block_controls(segments)


def test_column_at_real_points_equals_propagated_column():
    # the contour's own Taylor-action route, at real amplitudes (up to its
    # global phase e^{i b T}); x = 3 needs several substeps per segment
    sys = build_system(4, 1.3, 0.4, (1.0, 0.7, 1.5), TWO_PI)
    f = random_direction(17, 16, TWO_PI, amplitude=1.0)
    xs = np.array([-1.5, 0.0, 0.3, 3.0])
    column = dynamics._column_at(sys, f, xs)
    for x, psi in zip(xs, column):
        u = propagate(sys, f.scaled(x))
        assert np.max(np.abs(np.exp(-1j * sys.b * TWO_PI) * psi - u[:, -1])) <= 1e-13


def test_column_at_stack_at_real_points_equals_propagated_columns():
    # each direction at its own real amplitudes, in one stacked pass whose
    # substeps follow the largest step of the stack
    sys = build_system(4, 1.3, 0.4, (1.0, 0.7, 1.5), TWO_PI)
    fs = [random_direction(seed, 16, TWO_PI, amplitude=1.0) for seed in (17, 18, 19)]
    xs = np.array([[-1.5, 0.0, 0.3, 3.0], [0.1, 0.2, -0.2, 0.5], [2.0, -2.5, 1.0, 0.0]])
    column = dynamics._column_at(sys, fs, xs)
    assert column.shape == (3, 4, 4)
    for f, row, psis in zip(fs, xs, column):
        for x, psi in zip(row, psis):
            u = propagate(sys, f.scaled(x))
            assert np.max(np.abs(np.exp(-1j * sys.b * TWO_PI) * psi - u[:, -1])) <= 1e-13


# ---------------------------------------------------------------- objective


def test_objective_identity_and_free_evolution():
    inst = n3_instance()
    assert objective(np.eye(3, dtype=complex), inst) == 0.0
    assert abs(objective(propagate(inst.system, zero(TWO_PI, 32)), inst)) <= 1e-12


def test_objective_rejects_non_unitary():
    inst = n3_instance()
    with pytest.raises(NotUnitary):
        objective(2 * np.eye(3, dtype=complex), inst)


def test_objective_and_defect_of_a_stack_match_per_matrix_calls():
    inst = n3_instance()
    values = np.random.default_rng(8).uniform(-2.0, 2.0, (7, 16))
    stack = propagate_batch(inst.system, values)
    js = objective(stack, inst)
    defects = unitarity_defect(stack)
    assert js.shape == defects.shape == (7,)
    for u, j, d in zip(stack, js, defects):
        assert objective(u, inst) == j
        assert unitarity_defect(u) == d


def test_objective_checks_each_matrix_of_a_stack():
    inst = n3_instance()
    stack = propagate_batch(inst.system, np.random.default_rng(9).uniform(-1.0, 1.0, (6, 16)))
    stack[4] *= 1.0 + 1e-6  # defect about 3.5e-6, far above the tolerance
    with pytest.raises(NotUnitary, match="matrix 4"):
        objective(stack, inst)
    objective(np.delete(stack, 4, axis=0), inst)


def test_objective_within_kinematic_bounds():
    inst = n3_instance()
    lam = inst.observable.eigenvalues
    lo, hi = min(lam), max(lam)
    for seed in range(1000):
        f = random_direction(seed, 16, TWO_PI, amplitude=2.5)
        j = objective(propagate(inst.system, f), inst)
        assert lo - 1e-12 <= j <= hi + 1e-12


# ---------------------------------------------------------------- dyson forms


def test_dyson_zero_control_vanishes():
    forms = dyson_forms(n3_system(), zero(TWO_PI, 32), n_max=4)
    assert np.max(np.abs(forms.table[1:])) == 0.0
    assert list(forms.table[0]) == [0.0, 0.0, 1.0]


def test_dyson_first_order_nearest_neighbour():
    sys = n3_system()
    for seed in (0, 5):
        f = random_direction(seed, 64, TWO_PI, amplitude=1.3)
        forms = dyson_forms(sys, f, n_max=1)
        # <N-1|V_t|N> = v_{N-1} carries no phase, so A^1 = v_{N-1} int f
        assert abs(forms.value(1, 2) - integral(f)) <= 1e-12


def test_dyson_matches_kernel_value_for_cos():
    # continuum value of the order-2 form at omega=2 is i*pi/2; the
    # midpoint-sampled control reproduces it to its own O(h^2) sampling error
    sys = build_system(3, 2.0, 0.0, (1.0, 1.0), TWO_PI)
    f = sample_midpoints(math.cos, TWO_PI, 256)
    forms = dyson_forms(sys, f, n_max=2)
    assert abs(forms.value(2, 1) - 1j * math.pi / 2) <= 1e-4


def test_dyson_homogeneity():
    sys = n3_system()
    f = random_direction(21, 32, TWO_PI, amplitude=0.9)
    base = dyson_forms(sys, f, n_max=4)
    for t in (-1.0, 0.5, 2.0):
        scaled = dyson_forms(sys, f.scaled(t), n_max=4)
        for n in range(5):
            for l in range(1, 4):
                want = t**n * base.value(n, l)
                have = scaled.value(n, l)
                assert abs(have - want) <= 1e-9 * max(1.0, abs(want))


def test_dyson_top_row_vanishes_below_reach():
    # A^n at l = 1 requires at least N-1 interaction steps
    for sys, top in ((n3_system(), 2), (n4_system(), 3)):
        f = random_direction(33, 32, TWO_PI, amplitude=1.0)
        forms = dyson_forms(sys, f, n_max=top)
        for n in range(0, top):
            assert abs(forms.value(n, 1)) <= 1e-10


def test_dyson_matches_closed_forms_below_threshold():
    for sys in (n3_system(), n4_system()):
        nlev = sys.levels
        for seed in (2, 3):
            f = random_direction(seed, 32, TWO_PI, amplitude=0.8)
            forms = dyson_forms(sys, f, n_max=nlev - 1)
            for l in range(2, nlev + 1):
                for n in range(1, nlev):
                    want = closed_form_AlN(sys, f, l, n)
                    assert abs(forms.value(n, l) - want) <= 1e-9 * max(1.0, abs(want))


def test_dyson_parameter_validation():
    sys = n3_system()
    f = zero(TWO_PI, 8)
    with pytest.raises(DomainError):
        dyson_forms(sys, f, n_max=0)
    with pytest.raises(GridMismatch):
        dyson_forms(sys, zero(1.0, 8), n_max=2)


def test_dyson_matches_kernel_oracles_to_roundoff():
    # the series is exact, so it meets both independent oracles at roundoff
    for nlev in (3, 4, 5, 6, 7, 8):
        sys = build_system(nlev, 1.0, 0.0, (1.0,) * (nlev - 1), TWO_PI)
        for seed, offset in ((60, 0.0), (61, 0.3), (62, -0.3)):
            f = random_direction(seed, 64, TWO_PI, mean_zero=True, amplitude=0.5).shifted(offset)
            a_dyson = dyson_forms(sys, f, n_max=2 * nlev - 2).value(nlev - 1, 1)
            a_kernel = kernel_form_A1N(sys, f)
            assert abs(a_dyson - a_kernel) <= 1e-12 * abs(a_kernel)
        if nlev <= 5:
            f = random_direction(70 + nlev, 12, TWO_PI, mean_zero=False, amplitude=0.8)
            a_dyson = dyson_forms(sys, f, n_max=nlev - 1).value(nlev - 1, 1)
            a_brute = kernel_bruteforce_A1N(sys, f)
            assert abs(a_dyson - a_brute) <= 1e-12 * abs(a_brute)


def ladder_system(levels):
    return build_system(levels, 1.0, 0.0, (1.0,) * (levels - 1), TWO_PI)


def stack_probes(count, segments=64):
    """Mean-zero draws, every odd one shifted off the mean-zero subspace."""
    return [
        random_direction(seed, segments, TWO_PI, mean_zero=True, amplitude=0.5).shifted(0.3 * (seed % 2))
        for seed in range(count)
    ]


def test_stack_of_one_equals_single_call_bit_for_bit():
    sys = n4_system()
    f = random_direction(9, 32, TWO_PI, amplitude=0.7)
    assert np.array_equal(dyson_forms(sys, [f], n_max=6).table[0], dyson_forms(sys, f, n_max=6).table)
    z = 0.4 * np.exp(1j * np.linspace(0.1, 6.0, 12))
    assert np.array_equal(dynamics._column_at(sys, [f], z[None])[0], dynamics._column_at(sys, f, z))


@pytest.mark.parametrize("levels, count", [(n, 16) for n in range(3, 9)] + [(3, 40)])
def test_stacked_forms_match_single_calls(levels, count):
    # all but N = 3, 4 with 16 directions span more than one block
    sys = ladder_system(levels)
    n_max = 2 * levels - 2
    fs = stack_probes(count)
    stacked = dyson_forms(sys, fs, n_max=n_max)
    assert stacked.table.shape == (count, n_max + 1, levels)
    # relative to the natural size (||V||_2 int|f|)^n / n! of A^n: a mean-zero
    # probe's A^1 is zero up to roundoff, so its own value is no scale
    orders = np.arange(n_max + 1)
    for row, f in zip(stacked.table, fs):
        single = dyson_forms(sys, f, n_max=n_max).table
        mass = float(np.linalg.norm(v_matrix(sys), 2)) * f.dt * float(np.sum(np.abs(f.as_array())))
        scale = np.array([mass**n / math.factorial(n) for n in orders])[:, None]
        assert np.all(np.abs(row - single) <= 1e-14 * scale)


def test_stacked_forms_of_a_zero_control_vanish():
    f = random_direction(4, 32, TWO_PI, amplitude=0.8)
    forms = dyson_forms(n3_system(), [f, zero(TWO_PI, 32), f], n_max=4)
    assert np.max(np.abs(forms.table[1, 1:])) == 0.0
    assert list(forms.table[1, 0]) == [0.0, 0.0, 1.0]
    assert forms.value(2, 1)[1] == 0.0


def test_stacks_reject_mixed_grids_and_empty_input():
    sys = n3_system()
    f = random_direction(1, 16, TWO_PI)
    for mixed in ([f, random_direction(2, 32, TWO_PI)], [f, zero(1.0, 16)]):
        with pytest.raises(GridMismatch):
            dyson_forms(sys, mixed, n_max=4)
        with pytest.raises(GridMismatch):
            dynamics._column_at(sys, mixed, np.ones((2, 3)))
    with pytest.raises(DomainError):
        dyson_forms(sys, [], n_max=4)


def test_forms_refuse_an_overflowing_control_before_computing():
    # 1e200^4 overflows float64.  The refusal comes before any arithmetic, so
    # no numpy overflow warning (an error under this suite's settings) fires.
    f = PiecewiseControl(TWO_PI, (1e200, 0.5, -0.5, -1.0))
    with pytest.raises(DomainError, match="not resolvable"):
        dyson_forms(n3_system(), [zero(TWO_PI, 4), f], n_max=4)
    assert np.isfinite(dyson_forms(n3_system(), f.scaled(1e-130), n_max=4).table).all()


def test_dyson_series_self_check_rejects_wrong_coefficients(monkeypatch):
    # corrupt the series, not its reference: C_0 off by 1e-9 relative
    exp_series = dynamics._exp_series

    def corrupted(b0, b1, order):
        coeffs = exp_series(b0, b1, order)
        coeffs[0] *= 1.0 + 1e-9
        return coeffs

    dynamics._segment_series.cache_clear()
    monkeypatch.setattr(dynamics, "_exp_series", corrupted)
    with pytest.raises(SeriesCheckFailed):
        dyson_forms(n3_system(), random_direction(1, 16, TWO_PI), n_max=4)


def test_dyson_series_self_check_rejects_overflowed_coefficients():
    # At a = 1e20 the series coefficients overflow to NaN, which a plain
    # "defect > tol" test lets through.
    sys = build_system(3, 1e20, 0.0, (1.0, 1.0), TWO_PI)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SeriesCheckFailed, match="nan"):
        dyson_forms(sys, random_direction(1, 8, TWO_PI), n_max=4)


# ---------------------------------------------------------------- closed form


def test_closed_form_vanishes_on_mean_zero():
    sys = n3_system()
    f = random_direction(4, 32, TWO_PI, mean_zero=True)
    for l in (2, 3):
        for n in (1, 2):
            assert abs(closed_form_AlN(sys, f, l, n)) <= 1e-15


def test_closed_form_single_step():
    sys = n3_system()
    f = random_direction(6, 32, TWO_PI, amplitude=1.0)
    assert closed_form_AlN(sys, f, 2, 1) == pytest.approx(integral(f), abs=1e-15)


def test_closed_form_four_level_example():
    sys = build_system(4, 1.0, 0.0, (1.0, 1.0, 1.0), 1.0)
    f = constant(1.0, 1.0, 16)
    # <2|V^2|4> = v_2 v_3 = 1, so the value is 1/2! * (int f)^2 = 1/2
    assert closed_form_AlN(sys, f, 2, 2) == pytest.approx(0.5, abs=1e-15)


def test_closed_form_domain_errors():
    sys = n3_system()
    f = zero(TWO_PI, 8)
    with pytest.raises(DomainError):
        closed_form_AlN(sys, f, 1, 2)
    with pytest.raises(DomainError):
        closed_form_AlN(sys, f, 2, 3)


# ---------------------------------------------------------------- kernel forms


def test_kernel_form_zero_control():
    assert kernel_form_A1N(n3_system(), zero(TWO_PI, 32)) == 0.0


def test_kernel_forms_reject_a_control_on_another_horizon():
    # a T = 3 control on a T = 2 pi system, which dyson_forms rejects too
    f = random_direction(5, 16, 3.0, amplitude=1.0)
    for route in (kernel_form_A1N, kernel_bruteforce_A1N):
        with pytest.raises(GridMismatch):
            route(n3_system(), f)


def test_kernel_form_cos_frequency_orthogonality():
    # int_0^{2pi} e^{is} cos(s) sin(s) ds = 0
    sys = n3_system(omega=1.0)
    f = sample_midpoints(math.cos, TWO_PI, 256)
    assert abs(kernel_form_A1N(sys, f)) <= 1e-4


def test_kernel_form_cos_resonant():
    # int_0^{2pi} e^{2is} cos(s) sin(s) ds = i pi / 2
    sys = build_system(3, 2.0, 0.0, (1.0, 1.0), TWO_PI)
    f = sample_midpoints(math.cos, TWO_PI, 256)
    assert abs(kernel_form_A1N(sys, f) - 1j * math.pi / 2) <= 1e-4


def test_bruteforce_matches_kernel_form():
    for nlev in (3, 4):
        sys = build_system(nlev, 1.0, 0.0, (1.0,) * (nlev - 1), TWO_PI)
        for seed in range(5):
            f = random_direction(seed, 32, TWO_PI, mean_zero=True, amplitude=0.9)
            a = kernel_form_A1N(sys, f)
            b = kernel_bruteforce_A1N(sys, f)
            assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_bruteforce_matches_plain_midpoint_quadrature():
    # the exact-per-cell enumeration against a no-tricks O(h^2) midpoint rule
    sys = n3_system()
    for seed in (1, 8):
        f = random_direction(seed, 16, TWO_PI, mean_zero=True, amplitude=1.0)
        exact = kernel_bruteforce_A1N(sys, f)
        coarse = _kernel_midpoint_A1N(sys, f, subdiv=8)
        assert abs(exact - coarse) <= 2e-3 * (1.0 + abs(exact))


def test_bruteforce_cost_guard():
    sys = build_system(6, 1.0, 0.0, (1.0,) * 5, TWO_PI)
    with pytest.raises(TooExpensive):
        kernel_bruteforce_A1N(sys, zero(TWO_PI, 8))
    with pytest.raises(TooExpensive):
        kernel_bruteforce_A1N(n3_system(), zero(TWO_PI, 128))


def test_triple_consistency_dyson_kernel_bruteforce():
    for nlev in (3, 4):
        sys = build_system(nlev, 1.0, 0.0, (1.0,) * (nlev - 1), TWO_PI)
        f = random_direction(50 + nlev, 32, TWO_PI, mean_zero=True, amplitude=0.8)
        forms = dyson_forms(sys, f, n_max=nlev - 1)
        a_dyson = forms.value(nlev - 1, 1)
        a_kernel = kernel_form_A1N(sys, f)
        a_brute = kernel_bruteforce_A1N(sys, f)
        assert abs(a_kernel - a_brute) <= 1e-8 * (1.0 + abs(a_kernel))
        assert abs(a_dyson - a_kernel) <= 1e-7 * (1.0 + abs(a_kernel))


# ---------------------------------------------------------------- resummation


def test_resum_defect_zero_control():
    assert dyson_resum_defect(n3_system(), zero(TWO_PI, 32), n_max=4) <= 1e-12


def test_resum_defect_small_control_under_remainder_bound():
    sys = n3_system()
    vnorm = spectral_norm_hermitian(v_matrix(sys))
    for seed in range(3):
        f = random_direction(seed, 64, TWO_PI, amplitude=0.1)
        int_abs = f.dt * float(np.sum(np.abs(f.as_array())))
        defect = dyson_resum_defect(sys, f, n_max=8)
        bound = (vnorm * int_abs) ** 9 / math.factorial(9) + 1e-10
        assert defect < 1e-10
        assert defect <= bound


def test_resum_defect_decreases_with_order():
    sys = n3_system()
    f = random_direction(12, 64, TWO_PI, amplitude=0.3)
    defects = [dyson_resum_defect(sys, f, n_max=n) for n in (2, 4, 6, 8)]
    for lo, hi in zip(defects[1:], defects[:-1]):
        assert lo <= hi * 1.01 + 1e-13
