"""Distances and linear algebra on symmetric positive-definite matrices.

Conventions used throughout:

* the affine-invariant distance is ``sqrt(0.5 * sum_i log^2 lambda_i)``
  with ``lambda_i`` the eigenvalues of ``P1^{-1} P2`` (the 1/2 factor is
  part of the metric normalization, not optional);
* eigenvalues of ``P1^{-1} P2`` are always obtained from the symmetric
  pencil form ``L^{-1} P2 L^{-T}`` with ``P1 = L L^T``, never from the
  nonsymmetric product;
* this module is the package's one factor layer: its Cholesky helper,
  its SPD rule (spd_factor) and its pencil forms are the only ones.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ConvergenceFailure, NotPositiveDefinite, NotSymmetric

SYM_RTOL = 1e-12  # relative asymmetry allowed before a matrix is rejected

_TRTRI = get_lapack_funcs("trtri", dtype=np.float64)


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
    scale = float(M.trace()) / M.shape[0]
    return 1e-10 * (scale if scale > 0 else 1.0)


def validate_spd(M):
    """Check that M is SPD and return it exactly symmetrized.

    M must be symmetric to within SYM_RTOL; it is then symmetrized
    exactly, (M + M^T)/2, and spd_factor decides the rule
    lambda_min(M) > spd_tol(M) from its Cholesky factor. A non-finite M
    is rejected.
    """
    M = sym(check_symmetric(M))
    spd_factor(M, cholesky(M))
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


def cholesky(M):
    """Lower Cholesky factor of M, or None where it does not exist.

    The package's one factorization: a NaN in M may pass through into
    the factor without raising, which spd_factor then rejects.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def lower_inverse(L):
    """Inverse of a C-ordered lower-triangular L with a nonzero diagonal, by LAPACK trtri."""
    Linv, info = _TRTRI(L.T, lower=0)
    if info:
        raise ValueError(f"trtri failed with info {info}")
    return Linv.T


def spd_factor(M, L):
    """(L, L^{-1}) of a symmetric M under the rule lambda_min(M) > spd_tol(M).

    L is M's Cholesky factor, or None where it failed. Since
    ||L^{-1}||_F^2 = tr(M^{-1}) >= 1/lambda_min, tol * ||L^{-1}||_F^2 < 1/2
    proves lambda_min > 2 tol, and M is accepted at once. Otherwise an
    eigensolve decides exactly and a rejection raises NotPositiveDefinite
    with lambda_min; so does an accepted M with no finite factor pair.
    """
    Linv = None if L is None else lower_inverse(L)
    tol = spd_tol(M)
    # in Python floats: 0 * inf (tol underflows for a subnormal M) is NaN without a warning
    if Linv is None or not tol * float(np.vdot(Linv, Linv)) < 0.5:
        lam_min = float(eigvals_sym(M)[0])
        if not lam_min > tol:
            raise NotPositiveDefinite(
                f"smallest eigenvalue {lam_min:.6e} not above tolerance {tol:.1e}",
                lambda_min=lam_min,
            )
        if Linv is None or not np.isfinite(Linv).all():
            raise NotPositiveDefinite("no finite Cholesky factor")
    return L, Linv


def _pencil_form(P1, P2):
    """L^{-1} of P1 = L L^T and the symmetric pencil form L^{-1} P2 L^{-T}."""
    L = cholesky(np.asarray(P1, dtype=float))
    if L is None:
        raise NotPositiveDefinite("Cholesky of the pencil's first matrix failed")
    Linv = lower_inverse(L)
    return Linv, Linv @ np.asarray(P2, dtype=float) @ Linv.T


def pencil_eigvals(P1, P2):
    """Eigenvalues of P1^{-1} P2 from the symmetric pencil form, ascending."""
    return eigvals_sym(_pencil_form(P1, P2)[1])


def pencil_eigh(P1, P2):
    """Generalized eigenpairs of P2 v = lambda P1 v.

    Returns (lam, V) with lam ascending and columns of V normalized so
    that V^T P1 V = I.
    """
    return congruent_eigh(*_pencil_form(P1, P2))


def congruent_eigh(Finv, M):
    """Pencil eigenpairs from its symmetric form M = F^{-1} P2 F^{-T}, P1 = F F^T.

    Returns the ascending eigenvalues of M and V = F^{-T} Y for its
    eigenvectors Y, so that V^T P1 V = I and P2 V = P1 V diag(lam).
    """
    lam, Y = eigh_sym(M)
    return lam, Finv.T @ Y


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

