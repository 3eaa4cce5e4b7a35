"""Dense real small-matrix kernels: the eigendecomposition behind the
spectral solves (q > 0) and the matrix exponential behind alpha = 1.

Everything here operates on plain numpy arrays (square, finite, real).
Eigendecomposition is restricted to the distinct-real-spectrum case; any
complex or clustered spectrum is an error, never a silent complex path.
Matrices with repeated real eigenvalues are handled upstream through the
eps-perturbation ladder.  Fractional powers of A are never formed: the
solver raises the eigenvalues to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusteredSpectrumError,
    ComplexSpectrumError,
    DomainError,
    OverflowError_,
    SingularEigenvectorsError,
)

#: Relative imaginary-part tolerance separating "real" from complex spectra.
IMAG_TOL_SCALE = 1e-9
#: Relative gap at or below which two eigenvalues count as clustered.
GAP_TOL_SCALE = 1e-8
#: Acceptance bound for T * T^{-1} - I and the reconstruction residual.
RECON_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    """Validate and return a square, finite, float matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    return m


def max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


@dataclass
class SpectralDecomposition:
    """A = T diag(lambdas) T^{-1} with pairwise-distinct real eigenvalues."""

    T: np.ndarray
    lambdas: np.ndarray
    T_inv: np.ndarray
    recon_error: float


def eig_real_simple(A) -> SpectralDecomposition:
    """Eigendecomposition for matrices with distinct real eigenvalues.

    Eigenvalues come back sorted ascending; eigenvector columns are
    normalized with a fixed sign convention so results are reproducible.
    A gap of at most GAP_TOL_SCALE * (1 + max|A|) between two eigenvalues
    raises ClusteredSpectrumError.
    """
    A = as_matrix(A)
    scale = 1.0 + max_abs(A)
    gap_tol = GAP_TOL_SCALE * scale

    w, V = np.linalg.eig(A)
    if max_abs(w.imag) > IMAG_TOL_SCALE * scale:
        raise ComplexSpectrumError(f"eigenvalues have imaginary parts up to "
                                   f"{max_abs(w.imag):.3e}")
    w = w.real.copy()
    V = V.real.copy()

    idx = np.argsort(w, kind="stable")
    w = w[idx]
    V = V[:, idx]
    with np.errstate(over="ignore"):  # a gap past floating range is inf, not clustered
        gap = float(np.min(np.diff(w), initial=np.inf))
    if gap <= gap_tol:
        raise ClusteredSpectrumError(f"minimum eigenvalue gap {gap:.3e} <= gap_tol {gap_tol:.3e}")

    # Deterministic column scaling: unit norm, largest-|.| entry positive.
    for j in range(V.shape[1]):
        col = V[:, j]
        nrm = np.linalg.norm(col)
        if nrm == 0.0:
            raise SingularEigenvectorsError(f"zero eigenvector column {j}")
        col /= nrm
        if col[np.argmax(np.abs(col))] < 0.0:
            col *= -1.0

    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise SingularEigenvectorsError("eigenvector matrix is singular") from exc
    ident_err = max_abs(V @ V_inv - np.eye(len(w)))
    if ident_err > RECON_TOL:
        raise SingularEigenvectorsError(
            f"||T T^-1 - I||_max = {ident_err:.3e} exceeds {RECON_TOL}"
        )
    recon = max_abs(V @ np.diag(w) @ V_inv - A)
    if recon > RECON_TOL * scale:
        raise SingularEigenvectorsError(
            f"reconstruction residual {recon:.3e} exceeds {RECON_TOL * scale:.3e}"
        )
    return SpectralDecomposition(T=V, lambdas=w, T_inv=V_inv, recon_error=recon)


#: Coefficients b_0..b_13 of the [13/13] Pade approximant of exp and the
#: 1-norm up to which it is accurate to double precision (Higham, SIAM J.
#: Matrix Anal. Appl. 26, 2005, Table 2.3).
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
          16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """Matrix exponential by [13/13] Pade scaling and squaring (Higham 2005).

    Works for arbitrary real square matrices; no diagonalizability needed.
    A is one (n, n) matrix or a (..., n, n) stack, evaluated all at once
    (about ten temporaries of the stack's size); each matrix is scaled by
    its own 2^-s so that its 1-norm is at most THETA13, the approximant
    r(B) = (V - U)^-1 (V + U) is formed, and squared s times.  Zero
    matrices give the identity exactly.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("matrix entries must be finite")
    n = A.shape[-1]
    B = A.reshape(math.prod(A.shape[:-2]), n, n)  # -1 is ambiguous at n = 0
    ident = np.eye(n)
    norm = np.max(np.sum(np.abs(B), axis=-2), axis=-1, initial=0.0)
    with np.errstate(divide="ignore"):
        s = np.maximum(0, np.ceil(np.log2(norm / THETA13))).astype(int)
    B = np.ldexp(B, -s[..., None, None])
    b = PADE13
    B2 = B @ B
    B4 = B2 @ B2
    B6 = B4 @ B2
    U = B @ (B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2)
             + b[7] * B6 + b[5] * B4 + b[3] * B2 + b[1] * ident)
    V = (B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2)
         + b[6] * B6 + b[4] * B4 + b[2] * B2 + b[0] * ident)
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.linalg.solve(V - U, V + U)
        for i in range(int(np.max(s, initial=0))):
            more = s > i
            E[more] = E[more] @ E[more]
    E[norm == 0.0] = ident
    if not np.isfinite(E).all():
        raise OverflowError_("matrix exponential overflowed floating range")
    return E.reshape(A.shape)
