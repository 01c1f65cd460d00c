import math
import tracemalloc

import numpy as np
import pytest

from trapscope.controls import PiecewiseControl, integral, random_direction
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
from trapscope.landscape import CertificateConfig, probe_directions, taylor_fit
from trapscope.model import _v_norm, build_instance, build_observable, build_system, v_matrix

from oracles import (
    TWO_PI,
    TooExpensive,
    _kernel_midpoint_A1N,
    closed_form_AlN,
    column_reference,
    constant,
    drift,
    dyson_resum_defect,
    expm_mih,
    kernel_bruteforce_A1N,
    ladder,
    n3_instance,
    sample_midpoints,
    spectral_norm_hermitian,
    zero,
)

# ---------------------------------------------------------------- propagate


def test_propagate_free_evolution_is_diagonal_phase():
    sys = ladder(3)
    u = propagate(sys, zero(TWO_PI, 32))
    expected = np.diag(np.exp(-1j * TWO_PI * np.array([1.0, 0.0, 0.0])))
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_propagate_initial_state_is_free_eigenstate():
    sys = ladder(3, math.pi)
    u = propagate(sys, zero(math.pi, 16))
    assert abs(abs(u[2, 2]) - 1.0) <= 1e-12


def test_propagate_short_horizon_near_identity():
    sys = ladder(3, 1e-9)
    u = propagate(sys, constant(1.0, 1e-9, 1))
    assert np.max(np.abs(u - np.eye(3))) <= 1e-8


def test_propagate_grid_mismatch():
    with pytest.raises(GridMismatch):
        propagate(ladder(3), zero(1.0, 8))


def test_propagate_unitarity_random_controls():
    sys = ladder(3)
    for seed in range(25):
        f = random_direction(seed, 64, TWO_PI, amplitude=2.0)
        assert unitarity_defect(propagate(sys, f)) <= 1e-10 * 3 * 64


@pytest.mark.parametrize("segments", [9, 63, 64])
def test_propagate_batch_rows_equal_single_control_propagation(segments):
    # Odd segment counts leave a carried factor at some tree level; B is not a
    # multiple of the per-block count, so the last block is partial.
    sys = ladder(4)
    batch = 2 * block_controls(segments) + 1
    values = np.random.default_rng(segments).uniform(-2.0, 2.0, (batch, segments))
    stack = propagate_batch(sys, values)
    assert stack.shape == (batch, 4, 4)
    controls = [PiecewiseControl(TWO_PI, tuple(row)) for row in values]
    for f, u in zip(controls, stack):
        assert np.array_equal(u, propagate(sys, f))
    assert np.array_equal(propagate(sys, controls), stack)


def test_propagate_batch_matches_sequential_product():
    sys = ladder(3)
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
    # P = diag(1, -1, 1, ...) fixes H0 - b I and flips V, so U_T(-f) =
    # P U_T(f) P and J(-f) = J(f) exactly; each step is still
    # exp(-i dt (H0 - b I + x V)).
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
            assert np.max(np.abs(step - expm_mih(drift(sys) + x * v_matrix(sys), dt))) <= 1e-13


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
        propagate_batch(ladder(3), values)


@pytest.mark.parametrize("segments", [0, -1, 2.5])
def test_block_controls_rejects_nonpositive_segments(segments):
    with pytest.raises(DomainError, match=r"^segments must be "):
        block_controls(segments)


def test_column_at_real_points_equals_propagated_column():
    # the contour's own Taylor-action route, at real amplitudes, both on
    # H0 - b I; x = 3 needs several substeps per segment
    sys = build_system(4, 1.3, 0.4, (1.0, 0.7, 1.5), TWO_PI)
    f = random_direction(17, 16, TWO_PI, amplitude=1.0)
    xs = np.array([-1.5, 0.0, 0.3, 3.0])
    values = dynamics._as_stack(sys, [f])[0]
    column = dynamics._column_at(sys, values, xs[None], dynamics._taylor_substeps(sys, values, xs[None]))[0]
    for x, psi in zip(xs, column):
        u = propagate(sys, f.scaled(x))
        assert np.max(np.abs(psi - u[:, -1])) <= 1e-13


def test_column_at_stack_at_real_points_equals_propagated_columns():
    # each direction at its own real amplitudes, in one stacked pass whose
    # substeps follow the largest step of the stack
    sys = build_system(4, 1.3, 0.4, (1.0, 0.7, 1.5), TWO_PI)
    fs = [random_direction(seed, 16, TWO_PI, amplitude=1.0) for seed in (17, 18, 19)]
    xs = np.array([[-1.5, 0.0, 0.3, 3.0], [0.1, 0.2, -0.2, 0.5], [2.0, -2.5, 1.0, 0.0]])
    values = dynamics._as_stack(sys, fs)[0]
    column = dynamics._column_at(sys, values, xs, dynamics._taylor_substeps(sys, values, xs))
    assert column.shape == (3, 4, 4)
    for f, row, psis in zip(fs, xs, column):
        for x, psi in zip(row, psis):
            u = propagate(sys, f.scaled(x))
            assert np.max(np.abs(psi - u[:, -1])) <= 1e-13


def _column_by_eig(sys, f, z):
    # U_T(z f)|N> as a product of dense segment exponentials, each from
    # np.linalg.eig of the non-Hermitian exponent -i dt (H0 - b I + z f_j V)
    h = drift(sys)
    psi = np.zeros(sys.levels, dtype=np.complex128)
    psi[-1] = 1.0
    for fj in f.values:
        w, x = np.linalg.eig(-1j * f.dt * (h + z * fj * v_matrix(sys)))
        psi = x @ (np.exp(w) * np.linalg.solve(x, psi))
    return psi


@pytest.mark.parametrize("levels", [4, 6])
def test_column_at_complex_contour_equals_dense_segment_exponentials(levels):
    # the Taylor cross-check samples _column_at at complex amplitudes, where
    # the step is not unitary; the small radii take one substep per step, and
    # radius 3 takes several on its largest steps
    sys = build_system(levels, 1.3, 0.4, np.linspace(0.7, 1.5, levels - 1), TWO_PI)
    fs = [random_direction(seed, 32, TWO_PI, amplitude=1.0) for seed in (21, 22)]
    values = dynamics._as_stack(sys, fs)[0]
    unit = np.exp(2j * np.pi * (np.arange(12) + 0.5) / 12)
    for radii, one_substep in (((0.2, 0.3), True), ((0.5, 3.0), False)):
        z = np.array(radii)[:, None] * unit
        plan = dynamics._taylor_substeps(sys, values, z)
        assert (max(plan[1]) == 1) if one_substep else (max(plan[1]) >= 2)
        column = dynamics._column_at(sys, values, z, plan)
        for f, row, psis in zip(fs, z, column):
            for zk, psi in zip(row, psis):
                ref = _column_by_eig(sys, f, zk)
                assert np.max(np.abs(psi - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_column_at_returns_c_contiguous_level_minor_arrays():
    # the kernel works level-major and transposes back on return: the layout
    # of the result sets the summation order, and so the bits, of taylor_fit's
    # sum over levels and of scan's objective, so it must stay C-contiguous
    sys = ladder(4)
    fs = [random_direction(seed, 16, TWO_PI, amplitude=0.7) for seed in (5, 6, 7)]
    z = 0.4 * np.exp(1j * np.linspace(0.1, 6.0, 12))
    values, zs = dynamics._as_stack(sys, fs)[0], np.tile(z, (3, 1))
    stack = dynamics._column_at(sys, values, zs, dynamics._taylor_substeps(sys, values, zs))
    assert stack.shape == (3, 12, 4) and stack.flags.c_contiguous


def test_taylor_degree_is_the_smallest_backward_error_degree():
    # _column_at's substeps take the smallest degree m whose theta_m covers
    # their norm: m at theta_m itself, m + 1 just above it.  Substeps have
    # norm <= 0.5, which the table's last entry covers at degree 14; the
    # contour of the certificate (0.185) and scan-n6 (0.316) take 11 and 13
    # terms, where the old 1e-18 stop took 13 and 15.
    table = dynamics._TAYLOR_THETA
    assert len(table) == 14 and list(table) == sorted(table)
    for m, theta in enumerate(table, start=1):
        assert dynamics._taylor_degree(theta) == m
        assert dynamics._taylor_degree(math.nextafter(theta, 0.0)) == m
        if m > 1:
            assert dynamics._taylor_degree(math.nextafter(table[m - 2], 1.0)) == m
    assert dynamics._taylor_degree(0.0) == 1 and dynamics._taylor_degree(0.5) == 14
    for theta, old, new in ((0.316, 15, 13), (0.185, 13, 11), (0.1, 11, 10)):
        assert (dynamics._taylor_terms(theta), dynamics._taylor_degree(theta)) == (old, new)


@pytest.mark.parametrize("levels", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (50.0, 0.4), (-3.0, 2.0)])
def test_column_at_matches_the_plain_taylor_loop_bit_for_bit(levels, a, b):
    # _column_at forms every Taylor term in buffers it reuses, with the drift
    # as the last column of its step matrix; column_reference forms the same
    # terms on fresh arrays.  The two agree bit for bit at real amplitudes
    # of both signs and at complex ones, with several substeps per segment
    # step.
    sys = build_system(levels, a, b, np.linspace(0.7, 1.5, levels - 1), 1.0)
    values = dynamics._as_stack(sys, [random_direction(seed, 8, 1.0, amplitude=1.0) for seed in (31, 32, 33)])[0]
    real = np.array([[-3.0, -0.4, 0.0, 0.7, 3.0], [2.5, -2.5, 0.1, -1.0, 1.5], [0.3, -0.3, 3.0, -3.0, 0.0]])
    unit = np.exp(2j * np.pi * (np.arange(6) + 0.5) / 6)
    for z in (real, np.array([[3.0], [1.0], [2.0]]) * unit):
        plan = dynamics._taylor_substeps(sys, values, z)
        assert np.max(plan[1]) >= 2
        column = dynamics._column_at(sys, values, z, plan)
        assert column.tobytes() == column_reference(sys, values, z).tobytes()


def test_column_at_memory_is_its_buffer_count():
    # On scan-n6's block (N = 6, 8 directions of 64 segments, 201 real
    # points t in [0, 1], one substep per step, 1608 columns within
    # _COLUMN_CHUNK_BYTES) the call holds 4 N + 1 complex numbers per column
    # in its loop and its complex copy of z, and the result takes the last
    # term's buffer.  tracemalloc's peak stays within 1.2x of the count.
    sys = build_system(6, 1.0, 0.0, (1.0,) * 5, TWO_PI)
    values = dynamics._as_stack(sys, probe_directions(CertificateConfig(), TWO_PI))[0]
    z = np.broadcast_to(np.linspace(0.0, 1.0, 201), (8, 201))
    plan = dynamics._taylor_substeps(sys, values, z)
    assert np.max(plan[1]) == 1 and dynamics.column_block(6, 201) >= 8
    small = values[:, :8], z[:, :2]
    dynamics._column_at(sys, *small, dynamics._taylor_substeps(sys, *small))  # caches off the books
    tracemalloc.start()
    try:
        dynamics._column_at(sys, values, z, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (4 * 6 + 2) * 16 * z.size


@pytest.mark.parametrize("levels", [3, 6, 9])
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (1.3, 0.4)])
def test_column_at_objective_is_even_in_real_amplitude(levels, a, b):
    # scan samples only t >= 0 on the column route and mirrors each J, which
    # the ladder's parity makes exact: every step maps P psi to P psi'
    sys = build_system(levels, a, b, (1.0,) * (levels - 1), TWO_PI)
    inst = build_instance(sys, build_observable((1.0,) + (0.5,) * (levels - 3) + (-1.0, 0.0)))
    fs = [random_direction(seed, 64, TWO_PI, amplitude=0.5).shifted(0.3 * (seed % 2)) for seed in (3, 4)]
    xs = np.tile(np.linspace(0.0, 1.0, 9), (2, 1))
    values = dynamics._as_stack(sys, fs)[0]
    plan = dynamics._taylor_substeps(sys, values, xs)
    plus = dynamics._column_at(sys, values, xs, plan)
    minus = dynamics._column_at(sys, values, -xs, plan)
    assert np.array_equal(np.abs(plus), np.abs(minus))
    assert np.array_equal(
        objective(plus.reshape(-1, levels, 1), inst), objective(minus.reshape(-1, levels, 1), inst)
    )


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


def test_objective_of_columns_equals_objective_of_full_propagators():
    # an N x 1 stack of |N> columns scores the same bits as the propagators
    # and is checked for unit norm alone
    inst = n3_instance()
    stack = propagate_batch(inst.system, np.random.default_rng(10).uniform(-1.0, 1.0, (6, 16)))
    columns = stack[..., -1:].copy()
    assert np.array_equal(objective(columns, inst), objective(stack, inst))
    assert objective(columns[2], inst) == objective(stack[2], inst)
    columns[3] *= 1.0 + 1e-6  # norm defect about 2e-6, far above the tolerance
    with pytest.raises(NotUnitary, match="matrix 3"):
        objective(columns, inst)


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
    forms = dyson_forms(ladder(3), zero(TWO_PI, 32), n_max=4)
    assert np.max(np.abs(forms.table[1:])) == 0.0
    assert list(forms.table[0]) == [0.0, 0.0, 1.0]


def test_dyson_first_order_nearest_neighbour():
    sys = ladder(3)
    for seed in (0, 5):
        f = random_direction(seed, 64, TWO_PI, amplitude=1.3)
        forms = dyson_forms(sys, f, n_max=1)
        # <N-1|V_t|N> = v_{N-1} carries no phase, so A^1 = v_{N-1} int f
        assert abs(forms.table[1, 1] - integral(f)) <= 1e-12


def test_dyson_matches_kernel_value_for_cos():
    # continuum value of the order-2 form at omega=2 is i*pi/2; the
    # midpoint-sampled control reproduces it to its own O(h^2) sampling error
    sys = n3_instance(2.0).system
    f = sample_midpoints(math.cos, TWO_PI, 256)
    forms = dyson_forms(sys, f, n_max=2)
    assert abs(forms.table[2, 0] - 1j * math.pi / 2) <= 1e-4


def test_dyson_homogeneity():
    sys = ladder(3)
    f = random_direction(21, 32, TWO_PI, amplitude=0.9)
    base = dyson_forms(sys, f, n_max=4)
    for t in (-1.0, 0.5, 2.0):
        scaled = dyson_forms(sys, f.scaled(t), n_max=4)
        for n in range(5):
            for l in range(1, 4):
                want = t**n * base.table[n, l - 1]
                have = scaled.table[n, l - 1]
                assert abs(have - want) <= 1e-9 * max(1.0, abs(want))


def test_dyson_top_row_vanishes_below_reach():
    # A^n at l = 1 requires at least N-1 interaction steps
    for sys, top in ((ladder(3), 2), (ladder(4), 3)):
        f = random_direction(33, 32, TWO_PI, amplitude=1.0)
        forms = dyson_forms(sys, f, n_max=top)
        for n in range(0, top):
            assert abs(forms.table[n, 0]) <= 1e-10


def test_dyson_matches_closed_forms_below_threshold():
    for sys in (ladder(3), ladder(4)):
        nlev = sys.levels
        for seed in (2, 3):
            f = random_direction(seed, 32, TWO_PI, amplitude=0.8)
            forms = dyson_forms(sys, f, n_max=nlev - 1)
            for l in range(2, nlev + 1):
                for n in range(1, nlev):
                    want = closed_form_AlN(sys, f, l, n)
                    assert abs(forms.table[n, l - 1] - want) <= 1e-9 * max(1.0, abs(want))


def test_dyson_parameter_validation():
    sys = ladder(3)
    f = zero(TWO_PI, 8)
    with pytest.raises(DomainError):
        dyson_forms(sys, f, n_max=0)
    with pytest.raises(GridMismatch):
        dyson_forms(sys, zero(1.0, 8), n_max=2)


def test_dyson_matches_kernel_oracles_to_roundoff():
    # the series is exact, so it meets both independent oracles at roundoff
    for nlev in (3, 4, 5, 6, 7, 8):
        sys = ladder(nlev)
        for seed, offset in ((60, 0.0), (61, 0.3), (62, -0.3)):
            f = random_direction(seed, 64, TWO_PI, mean_zero=True, amplitude=0.5).shifted(offset)
            a_dyson = dyson_forms(sys, f, n_max=2 * nlev - 2).table[nlev - 1, 0]
            a_kernel = kernel_form_A1N(sys, f)
            assert abs(a_dyson - a_kernel) <= 1e-12 * abs(a_kernel)
        if nlev <= 5:
            f = random_direction(70 + nlev, 12, TWO_PI, mean_zero=False, amplitude=0.8)
            a_dyson = dyson_forms(sys, f, n_max=nlev - 1).table[nlev - 1, 0]
            a_brute = kernel_bruteforce_A1N(sys, f)
            assert abs(a_dyson - a_brute) <= 1e-12 * abs(a_brute)


def stack_probes(count, segments=64):
    """Mean-zero draws, every odd one shifted off the mean-zero subspace."""
    return [
        random_direction(seed, segments, TWO_PI, mean_zero=True, amplitude=0.5).shifted(0.3 * (seed % 2))
        for seed in range(count)
    ]


def test_stack_of_one_equals_single_call_bit_for_bit():
    sys = ladder(4)
    f = random_direction(9, 32, TWO_PI, amplitude=0.7)
    assert np.array_equal(dyson_forms(sys, [f], n_max=6).table[0], dyson_forms(sys, f, n_max=6).table)


@pytest.mark.parametrize("levels, count", [(n, 16) for n in range(3, 9)] + [(3, 40)])
def test_stacked_forms_match_single_calls(levels, count):
    # all but N = 3, 4 with 16 directions span more than one block
    sys = ladder(levels)
    n_max = 2 * levels - 2
    fs = stack_probes(count)
    stacked = dyson_forms(sys, fs, n_max=n_max)
    assert stacked.table.shape == (count, n_max + 1, levels)
    # relative to the natural size (||V||_2 int|f|)^n / n! of A^n: a mean-zero
    # probe's A^1 is zero up to roundoff, so its own value is no scale
    orders = np.arange(n_max + 1)
    for row, f in zip(stacked.table, fs):
        single = dyson_forms(sys, f, n_max=n_max).table
        mass = _v_norm(sys) * f.dt * float(np.sum(np.abs(f.as_array())))
        scale = np.array([mass**n / math.factorial(n) for n in orders])[:, None]
        assert np.all(np.abs(row - single) <= 1e-14 * scale)


def test_stacked_forms_of_a_zero_control_vanish():
    f = random_direction(4, 32, TWO_PI, amplitude=0.8)
    forms = dyson_forms(ladder(3), [f, zero(TWO_PI, 32), f], n_max=4)
    assert np.max(np.abs(forms.table[1, 1:])) == 0.0
    assert list(forms.table[1, 0]) == [0.0, 0.0, 1.0]
    assert forms.table[1, 2, 0] == 0.0


def test_stacks_reject_mixed_grids_and_empty_input():
    # taylor_fit is the public intake of the contour kernel _column_at
    inst = n3_instance()
    sys = inst.system
    f = random_direction(1, 16, TWO_PI)
    for mixed in ([f, random_direction(2, 32, TWO_PI)], [f, zero(1.0, 16)]):
        with pytest.raises(GridMismatch):
            dyson_forms(sys, mixed, n_max=4)
        with pytest.raises(GridMismatch):
            taylor_fit(inst, mixed)
    with pytest.raises(DomainError):
        dyson_forms(sys, [], n_max=4)


def test_forms_refuse_an_overflowing_control_before_computing():
    # 1e200^4 overflows float64.  The refusal comes before any arithmetic, so
    # no numpy overflow warning (an error under this suite's settings) fires.
    f = PiecewiseControl(TWO_PI, (1e200, 0.5, -0.5, -1.0))
    with pytest.raises(DomainError, match="not resolvable"):
        dyson_forms(ladder(3), [zero(TWO_PI, 4), f], n_max=4)
    assert np.isfinite(dyson_forms(ladder(3), f.scaled(1e-130), n_max=4).table).all()


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
        dyson_forms(ladder(3), random_direction(1, 16, TWO_PI), n_max=4)


def test_dyson_series_self_check_rejects_overflowed_coefficients():
    # At a = 1e20 the series coefficients overflow to NaN, which a plain
    # "defect > tol" test lets through.
    sys = n3_instance(1e20).system
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SeriesCheckFailed, match="nan"):
        dyson_forms(sys, random_direction(1, 8, TWO_PI), n_max=4)


# ---------------------------------------------------------------- closed form


def test_closed_form_vanishes_on_mean_zero():
    sys = ladder(3)
    f = random_direction(4, 32, TWO_PI, mean_zero=True)
    for l in (2, 3):
        for n in (1, 2):
            assert abs(closed_form_AlN(sys, f, l, n)) <= 1e-15


def test_closed_form_single_step():
    sys = ladder(3)
    f = random_direction(6, 32, TWO_PI, amplitude=1.0)
    assert closed_form_AlN(sys, f, 2, 1) == pytest.approx(integral(f), abs=1e-15)


def test_closed_form_four_level_example():
    sys = ladder(4, 1.0)
    f = constant(1.0, 1.0, 16)
    # <2|V^2|4> = v_2 v_3 = 1, so the value is 1/2! * (int f)^2 = 1/2
    assert closed_form_AlN(sys, f, 2, 2) == pytest.approx(0.5, abs=1e-15)


def test_closed_form_domain_errors():
    sys = ladder(3)
    f = zero(TWO_PI, 8)
    with pytest.raises(DomainError):
        closed_form_AlN(sys, f, 1, 2)
    with pytest.raises(DomainError):
        closed_form_AlN(sys, f, 2, 3)


# ---------------------------------------------------------------- kernel forms


def test_kernel_form_zero_control():
    assert kernel_form_A1N(ladder(3), zero(TWO_PI, 32)) == 0.0


def test_kernel_forms_reject_a_control_on_another_horizon():
    # a T = 3 control on a T = 2 pi system, which dyson_forms rejects too
    f = random_direction(5, 16, 3.0, amplitude=1.0)
    for route in (kernel_form_A1N, kernel_bruteforce_A1N):
        with pytest.raises(GridMismatch):
            route(ladder(3), f)


def test_kernel_form_cos_frequency_orthogonality():
    # int_0^{2pi} e^{is} cos(s) sin(s) ds = 0
    sys = ladder(3)
    f = sample_midpoints(math.cos, TWO_PI, 256)
    assert abs(kernel_form_A1N(sys, f)) <= 1e-4


def test_kernel_form_cos_resonant():
    # int_0^{2pi} e^{2is} cos(s) sin(s) ds = i pi / 2
    sys = n3_instance(2.0).system
    f = sample_midpoints(math.cos, TWO_PI, 256)
    assert abs(kernel_form_A1N(sys, f) - 1j * math.pi / 2) <= 1e-4


def test_bruteforce_matches_kernel_form():
    for nlev in (3, 4):
        sys = ladder(nlev)
        for seed in range(5):
            f = random_direction(seed, 32, TWO_PI, mean_zero=True, amplitude=0.9)
            a = kernel_form_A1N(sys, f)
            b = kernel_bruteforce_A1N(sys, f)
            assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_bruteforce_matches_plain_midpoint_quadrature():
    # the exact-per-cell enumeration against a no-tricks O(h^2) midpoint rule
    sys = ladder(3)
    for seed in (1, 8):
        f = random_direction(seed, 16, TWO_PI, mean_zero=True, amplitude=1.0)
        exact = kernel_bruteforce_A1N(sys, f)
        coarse = _kernel_midpoint_A1N(sys, f, subdiv=8)
        assert abs(exact - coarse) <= 2e-3 * (1.0 + abs(exact))


def test_bruteforce_cost_guard():
    sys = ladder(6)
    with pytest.raises(TooExpensive):
        kernel_bruteforce_A1N(sys, zero(TWO_PI, 8))
    with pytest.raises(TooExpensive):
        kernel_bruteforce_A1N(ladder(3), zero(TWO_PI, 128))


def test_triple_consistency_dyson_kernel_bruteforce():
    for nlev in (3, 4):
        sys = ladder(nlev)
        f = random_direction(50 + nlev, 32, TWO_PI, mean_zero=True, amplitude=0.8)
        forms = dyson_forms(sys, f, n_max=nlev - 1)
        a_dyson = forms.table[nlev - 1, 0]
        a_kernel = kernel_form_A1N(sys, f)
        a_brute = kernel_bruteforce_A1N(sys, f)
        assert abs(a_kernel - a_brute) <= 1e-8 * (1.0 + abs(a_kernel))
        assert abs(a_dyson - a_kernel) <= 1e-7 * (1.0 + abs(a_kernel))


# ---------------------------------------------------------------- resummation


def test_resum_defect_zero_control():
    assert dyson_resum_defect(ladder(3), zero(TWO_PI, 32), n_max=4) <= 1e-12


def test_resum_defect_small_control_under_remainder_bound():
    sys = ladder(3)
    vnorm = spectral_norm_hermitian(v_matrix(sys))
    for seed in range(3):
        f = random_direction(seed, 64, TWO_PI, amplitude=0.1)
        int_abs = f.dt * float(np.sum(np.abs(f.as_array())))
        defect = dyson_resum_defect(sys, f, n_max=8)
        bound = (vnorm * int_abs) ** 9 / math.factorial(9) + 1e-10
        assert defect < 1e-10
        assert defect <= bound


@pytest.mark.parametrize("shift", [0.0, 2.0**20])
def test_resum_defect_off_zero_energy_offset(shift):
    # b != 0, and the same pair shifted by 2^20: the forms and propagate both
    # run on H0 - b I, so the offset is a global phase that neither sees
    sys = build_system(3, 1.3 + shift, 0.4 + shift, (1.0, 1.0), TWO_PI)
    vnorm = spectral_norm_hermitian(v_matrix(sys))
    for seed in range(3):
        f = random_direction(seed, 64, TWO_PI, amplitude=0.1)
        int_abs = f.dt * float(np.sum(np.abs(f.as_array())))
        defect = dyson_resum_defect(sys, f, n_max=8)
        assert defect < 1e-10
        assert defect <= (vnorm * int_abs) ** 9 / math.factorial(9) + 1e-10


def test_resum_defect_decreases_with_order():
    sys = ladder(3)
    f = random_direction(12, 64, TWO_PI, amplitude=0.3)
    defects = [dyson_resum_defect(sys, f, n_max=n) for n in (2, 4, 6, 8)]
    for lo, hi in zip(defects[1:], defects[:-1]):
        assert lo <= hi * 1.01 + 1e-13
