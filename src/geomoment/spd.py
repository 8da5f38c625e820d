"""Distances and linear algebra on symmetric positive-definite matrices.

Conventions used throughout:

* the affine-invariant distance is ``sqrt(0.5 * sum_i log^2 lambda_i)``
  with ``lambda_i`` the eigenvalues of ``P1^{-1} P2`` (the 1/2 factor is
  part of the metric normalization, not optional);
* eigenvalues of ``P1^{-1} P2`` are always obtained from the symmetric
  pencil form ``L^{-1} P2 L^{-T}`` with ``P1 = L L^T``, never from the
  nonsymmetric product.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ConvergenceFailure, NotPositiveDefinite, NotSymmetric

SYM_RTOL = 1e-12  # relative asymmetry allowed before a matrix is rejected

_TRTRS, _TRTRI = get_lapack_funcs(("trtrs", "trtri"), dtype=np.float64)


def sym(M):
    """Exactly symmetric part (M + M^T) / 2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def check_symmetric(M):
    """Return M as ndarray, raising NotSymmetric beyond SYM_RTOL."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {M.shape}")
    scale = np.max(np.abs(M))
    asym = np.max(np.abs(M - M.T))
    if asym > SYM_RTOL * max(scale, np.finfo(float).tiny):
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYM_RTOL:.1e} * {scale:.3e}")
    return M


def spd_tol(M):
    """validate_spd's threshold on lambda_min: 1e-10 * trace(M)/dim (1e-10 when not positive)."""
    scale = M.trace() / M.shape[0]
    return 1e-10 * (scale if scale > 0 else 1.0)


def validate_spd(M):
    """Check that M is SPD and return it exactly symmetrized.

    M must be symmetric to within SYM_RTOL; it is then symmetrized
    exactly, (M + M^T)/2. It is accepted when lambda_min(M) > tol, where
    tol = spd_tol(M) separates genuine rank deficiency from
    double-precision noise. One Cholesky factorization of M - tol * I
    decides that rule (its success means the shifted matrix is positive
    definite), so only a rejected
    matrix pays for an eigensolve, which fills NotPositiveDefinite's
    lambda_min. Within rounding of tol the two may disagree; the
    Cholesky decides. A non-finite M is rejected.
    """
    M = sym(check_symmetric(M))
    n = M.shape[0]
    tol = spd_tol(M)
    shifted = M.copy()
    shifted.flat[:: n + 1] -= tol
    try:
        # cholesky lets NaN through without raising, so the factor must be finite too
        ok = np.isfinite(np.linalg.cholesky(shifted)).all()
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        lam_min = float(eigvals_sym(M)[0])
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lam_min:.6e} not above tolerance {tol:.1e}",
            lambda_min=lam_min,
        )
    return M


def eigvals_sym(M):
    """All eigenvalues of a symmetric matrix, ascending.

    LAPACK's symmetric solver (tridiagonalization plus implicit QR) with
    its internal iteration cap; non-convergence surfaces as
    ConvergenceFailure.
    """
    M = sym(M)
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def eigh_sym(M):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    M = sym(M)
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def matrix_log(P):
    """Matrix logarithm of an SPD matrix via eigendecomposition."""
    lam, Q = eigh_sym(P)
    if lam[0] <= 0:
        raise NotPositiveDefinite(
            f"matrix log needs positive eigenvalues, got {lam[0]:.6e}",
            lambda_min=float(lam[0]),
        )
    return sym((Q * np.log(lam)) @ Q.T)


def _cholesky(P):
    try:
        return np.linalg.cholesky(np.asarray(P, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from exc


def _solve_lower(L, B, trans):
    """Solve L X = B (trans 0) or L^T X = B (trans 1) for a C-ordered lower factor L.

    Calls LAPACK trtrs on the Fortran-ordered upper view L^T, exactly as
    scipy's solve_triangular does for such an L, without its per-call
    argument checks; the inputs here come from a Cholesky factor.
    """
    X, info = _TRTRS(L.T, B, lower=0, trans=1 - trans)
    if info:
        raise ValueError(f"trtrs failed with info {info}")
    return X


def lower_inverse(L):
    """Inverse of a C-ordered lower-triangular L with a nonzero diagonal, by LAPACK trtri."""
    Linv, info = _TRTRI(L.T, lower=0)
    if info:
        raise ValueError(f"trtri failed with info {info}")
    return Linv.T


def _pencil_form(P1, P2):
    """Cholesky factor L of P1 and the symmetric pencil form L^{-1} P2 L^{-T}."""
    L = _cholesky(P1)
    W = _solve_lower(L, np.asarray(P2, dtype=float), 0)
    return L, _solve_lower(L, W.T, 0)


def pencil_eigvals(P1, P2):
    """Eigenvalues of P1^{-1} P2 from the symmetric pencil form, ascending."""
    return eigvals_sym(_pencil_form(P1, P2)[1])


def pencil_eigh(P1, P2):
    """Generalized eigenpairs of P2 v = lambda P1 v.

    Returns (lam, V) with lam ascending and columns of V normalized so
    that V^T P1 V = I.
    """
    L, M = _pencil_form(P1, P2)
    lam, Y = eigh_sym(M)
    return lam, _solve_lower(L, Y, 1)


def _positive(lam):
    # lam > 0 everywhere also rejects the NaN spectrum of a non-finite pencil
    if not np.all(lam > 0):
        lam_min = float(np.min(lam))
        raise NotPositiveDefinite(f"pencil eigenvalue {lam_min:.6e} <= 0", lambda_min=lam_min)
    return lam


def airm_from_spectrum(lam):
    """sqrt(0.5 * sum log^2 lambda_i) of an ascending pencil spectrum."""
    return float(np.sqrt(0.5 * np.sum(np.log(_positive(lam)) ** 2)))


def hilbert_from_spectrum(lam):
    """log(lambda_max / lambda_min) of an ascending pencil spectrum."""
    return float(np.log(_positive(lam)[-1]) - np.log(lam[0]))


SPECTRAL_DISTS = {"airm": airm_from_spectrum, "hilbert": hilbert_from_spectrum}


def dist_airm(P1, P2):
    """Affine-invariant Riemannian distance sqrt(0.5 * sum log^2 lambda_i(P1^{-1}P2))."""
    return airm_from_spectrum(pencil_eigvals(P1, P2))


def dist_hilbert(P1, P2):
    """Hilbert projective distance log(lambda_max / lambda_min) of P1^{-1}P2."""
    return hilbert_from_spectrum(pencil_eigvals(P1, P2))


def dist_logeuclid(P1, P2):
    """Frobenius distance between matrix logarithms."""
    return float(np.linalg.norm(matrix_log(P1) - matrix_log(P2), "fro"))

