import math

import numpy as np
import pytest

from trapscope.errors import (
    BadDimension,
    DegenerateSpectrum,
    DomainError,
    OrderingViolation,
    ZeroCoupling,
)
from trapscope.model import (
    build_instance,
    build_observable,
    build_system,
    drift_matrix,
    v_matrix,
)

from oracles import drift, expm_mih, hermiticity_defect, interaction_element, interaction_matrix, v_power_element


def reference_system():
    return build_system(3, 1.0, 0.0, (1.0, 1.0), 2 * math.pi)


def test_build_system_reference_matrices():
    sys = reference_system()
    assert np.array_equal(drift_matrix(sys), np.diag([1.0, 0.0, 0.0]))
    expected_v = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.array_equal(v_matrix(sys), expected_v)
    assert sys.omega == 1.0


def test_build_system_four_levels():
    sys = build_system(4, 2.0, -1.0, (1.0, 2.0, 3.0), 5.0)
    v = v_matrix(sys)
    assert v[2, 3] == 3.0 and v[3, 2] == 3.0
    assert sys.omega == 3.0
    # the drift is H0 - b I: the offset b = -1 is a global phase and leaves it
    assert np.array_equal(drift_matrix(sys), np.diag([3.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(drift_matrix(sys), drift(sys))


def test_build_system_rejects_bad_input():
    with pytest.raises(DegenerateSpectrum):
        build_system(3, 1.0, 1.0, (1.0, 1.0), 1.0)
    with pytest.raises(ZeroCoupling):
        build_system(3, 1.0, 0.0, (1.0, 0.0), 1.0)
    with pytest.raises(BadDimension, match=r"^levels must be >= 3, got 2$"):
        build_system(2, 1.0, 0.0, (1.0,), 1.0)
    with pytest.raises(BadDimension):
        build_system(4, 1.0, 0.0, (1.0, 1.0), 1.0)
    # levels is an integer, not truncated from a float; numpy integers pass
    with pytest.raises(BadDimension, match=r"^levels must be an integer, got 3\.7$"):
        build_system(3.7, 1.0, 0.0, (1.0, 1.0), 1.0)
    with pytest.raises(BadDimension, match=r"^levels must be an integer"):
        build_system("3", 1.0, 0.0, (1.0, 1.0), 1.0)
    sys = build_system(np.int32(3), 1.0, 0.0, (1.0, 1.0), 1.0)
    assert type(sys.levels) is int and sys == build_system(3, 1.0, 0.0, (1.0, 1.0), 1.0)
    with pytest.raises(BadDimension):
        build_system(3, 1.0, 0.0, (1.0, 1.0), 0.0)
    # a and b are finite but their gap overflows: not a degenerate spectrum
    with pytest.raises(DomainError, match=r"^gap a - b must be finite"):
        build_system(3, 1e308, -1e308, (1.0, 1.0), 1.0)


def test_materialized_matrices_exactly_hermitian():
    sys = build_system(5, 0.7, -0.2, (0.3, -1.1, 2.0, 0.25), 3.0)
    for m in (drift_matrix(sys), v_matrix(sys)):
        assert m.dtype == np.float64
        assert np.array_equal(m, m.T)
    assert hermiticity_defect(drift_matrix(sys)) == 0.0
    assert hermiticity_defect(v_matrix(sys)) == 0.0


def test_observable_already_normalized():
    obs = build_observable((1.0, -1.0, 0.0))
    assert obs.eigenvalues == (1.0, -1.0, 0.0)
    assert obs.shift == 0.0


def test_observable_shift_recorded():
    obs = build_observable((2.0, 0.0, 1.0))
    assert obs.eigenvalues == (1.0, -1.0, 0.0)
    assert obs.shift == 1.0


def test_observable_needs_three_eigenvalues():
    with pytest.raises(BadDimension, match=r"^need at least 3 eigenvalues, got 2"):
        build_observable((1.0, 0.0))


def test_observable_ordering_violation():
    with pytest.raises(OrderingViolation):
        build_observable((0.0, 1.0, 0.0))
    with pytest.raises(OrderingViolation):
        build_observable((1.0, 0.5, 0.5, 0.5))


def test_instance_validation():
    sys = reference_system()
    obs = build_observable((1.0, -1.0, 0.0))
    build_instance(sys, obs)
    with pytest.raises(BadDimension):
        build_instance(sys, build_observable((1.0, 0.2, -1.0, 0.0)))


def test_interaction_element_zero_time_is_bare_v():
    sys = reference_system()
    v = v_matrix(sys)
    for l in range(1, 4):
        for k in range(1, 4):
            assert interaction_element(sys, l, k, 0.0) == v[l - 1, k - 1]


def test_interaction_element_phase_on_level_one():
    sys = reference_system()
    assert interaction_element(sys, 1, 2, math.pi) == pytest.approx(-1.0, abs=1e-12)
    # both levels at energy b: phase-free for any t
    for t in (0.0, 0.7, 13.5):
        assert interaction_element(sys, 2, 3, t) == pytest.approx(1.0, abs=1e-14)


def test_interaction_element_matches_bruteforce_product():
    rng = np.random.default_rng(10)
    sys = build_system(4, 1.3, -0.4, (0.9, -1.2, 0.5), 2.0)
    h = drift(sys)
    v = v_matrix(sys)
    for _ in range(100):
        t = rng.uniform(-10, 10)
        l, k = rng.integers(1, 5, size=2)
        brute = expm_mih(h, -t) @ v @ expm_mih(h, t)
        assert abs(interaction_element(sys, int(l), int(k), t) - brute[l - 1, k - 1]) <= 1e-12
        assert np.max(np.abs(interaction_matrix(sys, t) - brute)) <= 1e-12


def test_interaction_element_magnitude_time_independent():
    sys = reference_system()
    for l in range(1, 4):
        for k in range(1, 4):
            mags = {round(abs(interaction_element(sys, l, k, t)), 12) for t in (0.0, 1.1, 4.2)}
            assert len(mags) == 1


def test_v_power_element_order_zero_is_kronecker():
    sys = reference_system()
    assert v_power_element(sys, 3, 0) == 1.0
    assert v_power_element(sys, 1, 0) == 0.0
    assert v_power_element(sys, 2, 0) == 0.0


def test_v_power_element_reference_values():
    sys = reference_system()
    # single path 3 -> 2 -> 1 in V^2
    assert v_power_element(sys, 1, 2) == 1.0
    # no 1-step path from level 3 to level 1
    assert v_power_element(sys, 1, 1) == 0.0


def test_v_power_element_tridiagonal_reach():
    rng = np.random.default_rng(11)
    for nlev in (3, 4, 5, 6):
        v = tuple(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]) for _ in range(nlev - 1))
        sys = build_system(nlev, 1.0, 0.0, v, 1.0)
        for l in range(1, nlev + 1):
            for n in range(0, nlev - l):
                if n == 0 and l == nlev:
                    continue
                assert v_power_element(sys, l, n) == 0.0
        # the single descending path gives the product of all couplings
        prod = math.prod(v)
        assert v_power_element(sys, 1, nlev - 1) == pytest.approx(prod, rel=1e-15)


def test_v_power_element_matches_matrix_power():
    sys = build_system(5, 1.0, 0.0, (0.8, -1.3, 0.6, 1.7), 1.0)
    v = v_matrix(sys)
    for n in range(0, 6):
        vn = np.linalg.matrix_power(v, n)
        for l in range(1, 6):
            assert v_power_element(sys, l, n) == pytest.approx(vn[l - 1, 4], abs=1e-12)
