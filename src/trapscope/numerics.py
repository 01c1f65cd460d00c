"""Dense complex-matrix kernel: Hermitian eigendecomposition, unitary
exponentials, norms and defect measures.

Every unitary exponential exp(-i*s*H) with H Hermitian, the propagator's
segment steps included, is evaluated through the eigendecomposition of H
rather than scaling-and-squaring.  That keeps the result unitary up to
roundoff, which downstream invariants rely on.  The one exception is the
power-series coefficients of a segment step used for the chronological
forms (dynamics._exp_series): they are not unitary, so they come from
scaling and squaring, and are checked against expm_mih.  The Frobenius
norm is the canonical matrix norm throughout.
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


def hermitian_eig(h, tol: float = TOL_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = Q diag(w) Q^dagger of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary eigenvector
    matrix Q (columns are eigenvectors).  Raises NotHermitian if the input
    deviates from Hermiticity by more than `tol` in any entry.
    """
    m = as_complex_matrix(h)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.3e}")
    w, q = np.linalg.eigh(m)
    return w, q


def expm_mih(h, s: float, tol: float = TOL_HERM) -> np.ndarray:
    """exp(-i*s*H) for Hermitian H, via eigendecomposition.

    The result is unitary up to roundoff for any real s.
    """
    w, q = hermitian_eig(h, tol=tol)
    phases = np.exp(-1j * float(s) * w)
    return (q * phases) @ q.conj().T


def unitarity_defect(u) -> float:
    """Frobenius norm of U^dagger U - I."""
    m = as_complex_matrix(u)
    g = m.conj().T @ m
    return float(np.linalg.norm(g - np.eye(m.shape[0]), "fro"))


def spectral_norm_hermitian(h, tol: float = TOL_HERM) -> float:
    """Operator 2-norm of a Hermitian matrix (largest |eigenvalue|)."""
    w, _ = hermitian_eig(h, tol=tol)
    return float(np.max(np.abs(w)))
