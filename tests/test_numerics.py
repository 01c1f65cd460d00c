import numpy as np
import pytest

from trapscope.dynamics import unitarity_defect

from oracles import NotHermitian, expm_mih, hermitian_eig, hermiticity_defect, spectral_norm_hermitian


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def test_eig_identity():
    w, q = hermitian_eig(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])
    assert unitarity_defect(q) <= 1e-12 * 2


def test_eig_diagonal_is_exact_up_to_sorting():
    w, q = hermitian_eig(np.diag([2.5, -0.5, -0.5]).astype(complex))
    assert list(w) == [-0.5, -0.5, 2.5]
    assert unitarity_defect(q) <= 1e-12 * 3


def test_eig_pauli_x():
    # characteristic polynomial x^2 - 1 by hand
    w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_ascending_and_reconstruction():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 5, 8):
        h = random_hermitian(rng, dim)
        w, q = hermitian_eig(h)
        assert np.all(np.diff(w) >= 0)
        rebuilt = (q * w) @ q.conj().T
        assert np.linalg.norm(rebuilt - h, "fro") <= 1e-11 * (1 + np.linalg.norm(h, "fro"))
        assert np.linalg.norm(q.conj().T @ q - np.eye(dim), "fro") <= 1e-12 * dim


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    assert np.allclose(expm_mih(h, 0.0), np.eye(4), atol=1e-14)


def test_expm_diagonal_case():
    a, b, t = 1.7, -0.3, 0.9
    u = expm_mih(np.diag([a, b, b]).astype(complex), t)
    expected = np.diag(np.exp(-1j * t * np.array([a, b, b])))
    assert np.max(np.abs(u - expected)) <= 1e-14


def test_expm_pauli_x_half_period():
    u = expm_mih(np.array([[0, 1], [1, 0]], dtype=complex), np.pi)
    assert np.max(np.abs(u + np.eye(2))) <= 1e-12


def test_expm_outputs_unitary():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 6):
        h = random_hermitian(rng, dim)
        for s in (-2.0, 0.3, 17.0):
            assert unitarity_defect(expm_mih(h, s)) <= 1e-12 * dim


def test_expm_group_property():
    rng = np.random.default_rng(4)
    for dim in (2, 4):
        h = random_hermitian(rng, dim)
        for s, t in ((0.5, 0.25), (-1.0, 3.0), (2.0, -2.0)):
            lhs = expm_mih(h, s) @ expm_mih(h, t)
            rhs = expm_mih(h, s + t)
            assert np.linalg.norm(lhs - rhs, "fro") <= 1e-11 * dim


def test_unitarity_defect_identity_and_scaled_identity():
    assert unitarity_defect(np.eye(3, dtype=complex)) == 0.0
    # U = 2I: U^dag U - I = 3I, Frobenius norm 3 sqrt(2)
    assert unitarity_defect(2 * np.eye(2, dtype=complex)) == pytest.approx(3 * np.sqrt(2))


def test_unitarity_defect_of_a_stack_is_per_matrix():
    stack = np.stack([np.eye(2), 2 * np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]).astype(complex)
    assert unitarity_defect(stack).tolist() == [0.0, unitarity_defect(stack[1]), 0.0]


def test_unitarity_defect_of_isometries():
    # N x k with k <= N: ||U^dagger U - I_k||_F, the norm defect for k = 1
    q = np.eye(3, dtype=complex)[:, :2]
    assert unitarity_defect(q) == 0.0
    assert unitarity_defect(2 * q) == pytest.approx(3 * np.sqrt(2))
    assert unitarity_defect(2 * q[:, 1:]) == 3.0
    assert unitarity_defect(np.stack([q, 2 * q])).tolist() == [0.0, unitarity_defect(2 * q)]


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros(3),
        np.zeros((2, 3)),
        np.zeros((2, 2, 3)),
        np.zeros((1, 2, 2, 2)),
        np.full((2, 2), np.nan),
        np.array([[1.0, 0.0], [0.0, complex(0.0, np.inf)]]),  # finite real part, infinite imaginary part
    ],
)
def test_unitarity_defect_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        unitarity_defect(bad)


def test_hermiticity_defect_and_spectral_norm():
    assert hermiticity_defect(np.diag([1.0, 2.0]).astype(complex)) == 0.0
    v = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    assert spectral_norm_hermitian(v) == pytest.approx(np.sqrt(2), abs=1e-12)
