"""Dense complex-matrix kernel: Hermitian eigendecomposition, unitary
exponentials, norms and defect measures.

Every unitary exponential exp(-i*s*H) with H Hermitian, the propagator's
segment steps included, is evaluated through the eigendecomposition of H
rather than scaling-and-squaring.  That keeps the result unitary up to
roundoff, which downstream invariants rely on.  The propagator's steps
(dynamics.propagate_batch) take the real-symmetric route: H0 + x V is real,
so a float64 eigendecomposition over a stack of segments gives
Q diag(e^{-i s w}) Q^T, in blocks of a fixed number of matrices to bound
memory.  unitarity_defect accordingly takes one matrix or a stack and
measures each matrix on its own.  The one exception to the eigenvalue route
is the power-series coefficients of a segment step used for the
chronological forms (dynamics._exp_series): they are not unitary, so they
come from scaling and squaring, and are checked against expm_mih.  The
Frobenius norm is the canonical matrix norm throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian

# Absolute, entrywise tolerance for accepting a matrix as Hermitian.
# Inputs are constructed exactly Hermitian; this only absorbs roundoff.
TOL_HERM = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    """Validate and return a square complex128 matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def hermiticity_defect(h) -> float:
    """Max entrywise magnitude of H - H^dagger."""
    m = as_complex_matrix(h)
    return float(np.max(np.abs(m - m.conj().T)))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = Q diag(w) Q^dagger of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary eigenvector
    matrix Q (columns are eigenvectors).  Raises NotHermitian if the input
    deviates from Hermiticity by more than TOL_HERM in any entry.
    """
    m = as_complex_matrix(h)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > TOL_HERM:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {TOL_HERM:.3e}")
    w, q = np.linalg.eigh(m)
    return w, q


def expm_mih(h, s: float) -> np.ndarray:
    """exp(-i*s*H) for Hermitian H, via eigendecomposition.

    The result is unitary up to roundoff for any real s.
    """
    w, q = hermitian_eig(h)
    phases = np.exp(-1j * float(s) * w)
    return (q * phases) @ q.conj().T


def unitarity_defect(u):
    """Frobenius norm of U^dagger U - I.

    u is one matrix (N, N), giving a float, or a stack (B, N, N), giving an
    array with the defect of each matrix; a row of the stack gets the same
    value as that matrix alone.
    """
    m = np.asarray(u, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    g = m.conj().swapaxes(-1, -2) @ m
    defect = np.linalg.norm(g - np.eye(m.shape[-1]), "fro", axis=(-2, -1))
    return float(defect) if m.ndim == 2 else defect


def spectral_norm_hermitian(h) -> float:
    """Operator 2-norm of a Hermitian matrix (largest |eigenvalue|)."""
    w, _ = hermitian_eig(h)
    return float(np.max(np.abs(w)))
