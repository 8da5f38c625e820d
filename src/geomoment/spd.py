"""Distances and linear algebra on symmetric positive-definite matrices.

Conventions used throughout:

* the affine-invariant distance is ``sqrt(0.5 * sum_i log^2 lambda_i)``
  with ``lambda_i`` the eigenvalues of ``P1^{-1} P2`` (the 1/2 factor is
  part of the metric normalization, not optional);
* eigenvalues of ``P1^{-1} P2`` are always obtained from the symmetric
  pencil form ``L^{-1} P2 L^{-T}`` with ``P1 = L L^T``, never from the
  nonsymmetric product;
* this module is the package's one factor layer: its Cholesky helper,
  its SPD rule (spd_factor, or spd_eigh on eigenvalues) and its pencil
  forms are the only ones;
* it is also the package's one LAPACK binding: every Cholesky factor is
  scipy's potrf and every symmetric eigensolve scipy's syevd, both on the
  lower triangle and called on each slice of a stack as on the slice alone,
  so a stacked result is each slice's, bit for bit;
* SPECTRAL_KINDS holds each pencil distance as (value, slope) of the
  spectrum; pencil_grads is the one chain rule from slope to matrices.
"""

import math
from collections import namedtuple
from functools import cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    ConvergenceFailure,
    DegenerateSpectrum,
    NearZeroDistance,
    NonPositiveSpectrum,
    NotPositiveDefinite,
    NotSymmetric,
)

SYM_RTOL = 1e-12  # relative asymmetry allowed before a matrix is rejected
DIST_EPS = 1e-8  # below this the airm gradient is undefined
DEGEN_RTOL = 1e-9  # relative gap deciding eigenvalue degeneracy
# pencil_grads gathers the extreme columns above this width: at 17 the gather still
# cost more than the products it saved, at 33 it saved a fifth (one BLAS thread)
GATHER_ABOVE = 24

_POTRF, _TRTRI, _SYEVD, _SYEVD_LWORK = get_lapack_funcs(
    ("potrf", "trtri", "syevd", "syevd_lwork"), dtype=np.float64)


def sym(M):
    """Exactly symmetric part M/2 + M^T/2, with no overflow near the float maximum.

    The bits of (M + M^T) / 2, except where an entry is subnormal.
    """
    half = 0.5 * np.asarray(M, dtype=float)
    return half + half.mT


def check_symmetric(M):
    """Return M as ndarray, raising NotSymmetric beyond SYM_RTOL."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise NotSymmetric(f"expected a non-empty square matrix, got shape {M.shape}")
    scale = np.max(np.abs(M))
    asym = np.max(np.abs(M - M.T))
    if asym > SYM_RTOL * max(scale, np.finfo(float).tiny):
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYM_RTOL:.1e} * {scale:.3e}")
    return M


def spd_tol(M):
    """validate_spd's threshold on lambda_min: 1e-10 * trace(M)/dim (1e-10 when not positive)."""
    scale = float(M.trace()) / M.shape[0]
    if math.isinf(scale):  # the trace overflowed: sum(diag/dim) need not
        scale = float((M.diagonal() / M.shape[0]).sum())
    return 1e-10 * (scale if scale > 0 else 1.0)


def validate_spd(M):
    """Check that M is SPD and return it exactly symmetrized.

    M must be symmetric to within SYM_RTOL; it is then symmetrized
    exactly, and spd_factor decides the rule lambda_min(M) > spd_tol(M)
    from its Cholesky factor. Entries that already equal their mirror
    are kept, subnormal ones included, and the others become sym's. A
    non-finite M, and a 0 x 0 one, which has no lambda_min, are rejected.
    """
    if np.shape(M) == (0, 0):
        raise NotPositiveDefinite("a 0 x 0 matrix has no smallest eigenvalue")
    M = check_symmetric(M)
    M = np.where(M == M.mT, M, sym(M))
    with np.errstate(over="ignore"):  # an overflowing trace: spd_tol falls back
        spd_factor(M, cholesky(M))
    return M


@cache
def _syevd_workspace(n, vectors):
    # the optimal sizes: with syevd's minimal default, dsytrd takes its unblocked path
    lwork, liwork, _ = _SYEVD_LWORK(n, compute_v=vectors, lower=1)
    return int(lwork), liwork


def _syevd(M, vectors, lwork, liwork):
    lam, Q, info = _SYEVD(M, vectors, 1, lwork, liwork)  # compute_v, lower, lwork, liwork
    if info:
        raise ConvergenceFailure(f"syevd failed with info {info}")
    return lam, Q


def _check_square(M):
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {M.shape}")


def syevd(M, vectors=True):
    """Ascending eigenvalues, and with vectors the eigenvectors, of an exactly symmetric M.

    LAPACK's syevd on M's lower triangle, with the optimal workspace; a
    stack (..., n, n) is solved slice by slice, each slice as alone.
    Eigenvectors come C-ordered, as numpy's eigh gives them, since the
    bits of a product with them depend on their order. Non-convergence
    raises ConvergenceFailure, and a non-square M raises ValueError.
    """
    _check_square(M)
    n = M.shape[-1]
    work = _syevd_workspace(n, vectors)
    if M.ndim == 2:
        lam, Q = _syevd(M, vectors, *work)
        return (lam, np.ascontiguousarray(Q)) if vectors else lam
    stack = M.reshape(-1, n, n)
    lam, Q = np.empty((len(stack), n)), np.empty(stack.shape if vectors else 0)
    for i, m in enumerate(stack):
        lam[i], Q_i = _syevd(m, vectors, *work)
        if vectors:
            Q[i] = Q_i
    lam = lam.reshape(M.shape[:-1])
    return (lam, Q.reshape(M.shape)) if vectors else lam


def matrix_log(P):
    """Matrix logarithm of an SPD matrix via eigendecomposition of its symmetric part.

    An n x n matrix whose largest eigenvalue lies beyond the float
    maximum (it can reach n times the largest entry) is solved as M / c,
    with c the power of two at or above n, an exact scaling, and log c
    is added back to the logs of its eigenvalues.
    """
    M = sym(P)
    lam, Q = syevd(M)
    c = 1.0
    if lam[-1] == math.inf:
        c = 2.0 ** math.ceil(math.log2(len(M)))
        lam, Q = syevd(M / c)
    if not lam[0] > 0:  # a NaN eigenvalue fails too
        lam_min = float(lam[0] * c)
        raise NotPositiveDefinite(
            f"matrix log needs positive eigenvalues, got {lam_min:.6e}", lambda_min=lam_min)
    logs = np.log(lam)
    if c > 1.0:
        logs += math.log(c)
    return sym((Q * logs) @ Q.T)


def cholesky(M):
    """Lower Cholesky factor of M, all NaN where it does not exist.

    The package's one factorization, LAPACK's potrf on M's lower triangle:
    a NaN in M may pass through into the factor without raising, which
    spd_factor then rejects. A stack (..., n, n) is factored slice by
    slice, each slice as alone. The factor is C-ordered, as numpy's
    cholesky gives it. A non-square M raises ValueError.
    """
    _check_square(M)
    if M.ndim == 2:
        L, info = _POTRF(M, 1)  # lower
        return np.full(M.shape, np.nan) if info else np.ascontiguousarray(L)
    L = np.empty(M.shape)
    for m, f in zip(M.reshape(-1, *M.shape[-2:]), L.reshape(-1, *M.shape[-2:])):
        factor, info = _POTRF(m, 1)
        f[...] = np.nan if info else factor
    return L


def lower_inverse(L):
    """Inverse of a C-ordered lower-triangular L with a nonzero diagonal, by LAPACK trtri.

    An all-NaN L (a failed factor) gives an all-NaN inverse.
    """
    Linv, info = _TRTRI(L.T, lower=0)
    if info:
        raise ValueError(f"trtri failed with info {info}")
    return Linv.T


def spd_factor(M, L):
    """(L, L^{-1}) of a symmetric M under the rule lambda_min(M) > spd_tol(M).

    L is M's Cholesky factor, all NaN where it failed.
    Since ||L^{-1}||_F^2 = tr(M^{-1}) >= 1/lambda_min, tol * ||L^{-1}||_F^2 < 1/2
    proves lambda_min > 2 tol, and M is accepted at once. Otherwise an eigensolve
    decides exactly and a rejection raises NotPositiveDefinite with lambda_min;
    so does an accepted M with no finite factor pair, and any slice of a stack.
    """
    if M.ndim > 2:
        return L, np.stack([spd_factor(m, f)[1] for m, f in zip(M, L)])
    Linv = lower_inverse(L)
    tol = spd_tol(M)
    # in Python floats: 0 * inf (tol underflows for a subnormal M) is NaN without a warning
    if not tol * float(np.vdot(Linv, Linv)) < 0.5:
        _spd_rule(float(syevd(M, vectors=False)[0]), tol)
        if not np.isfinite(Linv).all():
            raise NotPositiveDefinite("no finite Cholesky factor")
    return L, Linv


def spd_eigh(M):
    """syevd(M) of an exactly symmetric M, with spd_factor's rule decided on its eigenvalues."""
    lam, Q = syevd(M)
    for lam_min, m in zip(lam[..., 0].ravel().tolist(), M.reshape(-1, *M.shape[-2:])):
        _spd_rule(lam_min, spd_tol(m))  # slice by slice
    return lam, Q


def _spd_rule(lam_min, tol):
    if not lam_min > tol:
        msg = f"smallest eigenvalue {lam_min:.6e} not above tolerance {tol:.1e}"
        raise NotPositiveDefinite(msg, lambda_min=lam_min)


def pencil_eigvals(P1, P2):
    """Eigenvalues of P1^{-1} P2, ascending, from L^{-1} P2 L^{-T} symmetrized, P1 = L L^T."""
    P1 = np.asarray(P1, dtype=float)
    if P1.ndim != 2 or P1.shape[0] != P1.shape[1]:  # before sym, which cannot take it
        raise ValueError(f"expected a square matrix, got shape {P1.shape}")
    L = cholesky(sym(P1))
    if np.isnan(L[0, 0]):  # a NaN pencil would give NaN eigenvalues or ConvergenceFailure
        raise NotPositiveDefinite("Cholesky of the pencil's first matrix failed")
    Linv = lower_inverse(L)
    return syevd(sym(Linv @ np.asarray(P2, dtype=float) @ Linv.T), vectors=False)


def congruent_eigh(Finv, M):
    """Pencil eigenpairs from its exactly symmetric form M = F^{-1} P2 F^{-T}, P1 = F F^T.

    Returns the ascending eigenvalues of M and V = F^{-T} Y for its
    eigenvectors Y, so that V^T P1 V = I and P2 V = P1 V diag(lam).
    """
    lam, Y = syevd(M)
    return lam, Finv.mT @ Y


def _positive(lam):
    # lam > 0 everywhere also rejects the NaN spectrum of a non-finite pencil
    if not (lam > 0).all():
        lam_min = float(np.min(lam))
        raise NonPositiveSpectrum(f"pencil eigenvalue {lam_min:.6e} <= 0", lambda_min=lam_min)
    return lam


def _airm(lam):
    return np.sqrt(0.5 * (np.log(_positive(lam)) ** 2).sum(axis=-1))


def _airm_slope(lam, value):
    nearest = min(np.ravel(value).tolist())
    if nearest < DIST_EPS:
        raise NearZeroDistance(f"distance {nearest:.3e} below {DIST_EPS:.1e}")
    return np.log(lam) / ((2.0 * np.asarray(value))[..., None] * lam)


def _hilbert(lam):
    return np.log(_positive(lam)[..., -1]) - np.log(lam[..., 0])


def _hilbert_slope(lam, value):
    # a degenerate extreme eigenspace shares its slope evenly: a deterministic subgradient
    lo, hi = lam[..., :1], lam[..., -1:]
    top = lam >= hi * (1.0 - DEGEN_RTOL)
    bottom = lam <= lo * (1.0 + DEGEN_RTOL)
    if (top & bottom).any():
        raise DegenerateSpectrum(f"pencil spectrum collapses: [{np.min(lo):.6e}, {np.max(hi):.6e}]")
    # 1/(hi * count) on top, -1/(lo * count) on bottom and +0 elsewhere, as True / x is 1 / x
    up = top / (hi * top.sum(axis=-1, keepdims=True))
    return up - bottom / (lo * bottom.sum(axis=-1, keepdims=True))


SpectralKind = namedtuple("SpectralKind", "value slope")

# kind -> (value(lam), slope(lam, value) = d value / d lam) of ascending pencil spectra
# (..., n), each slice's as alone; a value raises NonPositiveSpectrum on an eigenvalue
# <= 0, a slope NearZeroDistance or DegenerateSpectrum where a gradient is undefined
SPECTRAL_KINDS = {
    "airm": SpectralKind(_airm, _airm_slope),  # sqrt(0.5 sum log^2 lambda_i)
    "hilbert": SpectralKind(_hilbert, _hilbert_slope),  # log(lambda_max / lambda_min)
}


def pencil_grads(lam, V, slope):
    """(dP1, dP2) of a function of the pencil spectrum with d value / d lam = slope.

    (lam, V) are the eigenpairs of congruent_eigh, P2 v = lam P1 v with
    v^T P1 v = 1, for which d lam/dP2 = v v^T and d lam/dP1 = -lam v v^T.
    Above GATHER_ABOVE eigenvalues, where a slope is zero off the two
    extremes (Hilbert's, unless an extreme eigenvalue is degenerate), only
    the two extreme columns enter the products; a stack whose slices
    differ in that is taken slice by slice, so that each slice's gradients
    are its own alone, bit for bit.
    """
    k = slope.shape[-1]
    if k > GATHER_ABOVE:
        inner = slope[..., 1:-1]
        moving = np.count_nonzero(inner)
        if not moving:  # V's copy keeps the products on BLAS, as the full V does
            lam, V, slope = lam[..., ::k - 1], V[..., ::k - 1].copy(), slope[..., ::k - 1]
        elif moving < inner.size and slope.ndim > 1 and not inner.any(axis=-1).all():
            grads = [pencil_grads(*s) for s in zip(lam.reshape(-1, k), V.reshape(-1, k, k),
                                                   slope.reshape(-1, k))]
            return tuple(np.reshape(g, V.shape) for g in zip(*grads))
    Vs = V * slope[..., None, :]
    return sym(-(Vs * lam[..., None, :]) @ V.mT), sym(Vs @ V.mT)


def dist_airm(P1, P2):
    """Affine-invariant Riemannian distance sqrt(0.5 * sum log^2 lambda_i(P1^{-1}P2))."""
    return float(SPECTRAL_KINDS["airm"].value(pencil_eigvals(P1, P2)))


def dist_hilbert(P1, P2):
    """Hilbert projective distance log(lambda_max / lambda_min) of P1^{-1}P2."""
    return float(SPECTRAL_KINDS["hilbert"].value(pencil_eigvals(P1, P2)))


def dist_logeuclid(P1, P2):
    """Frobenius distance between matrix logarithms."""
    return float(np.linalg.norm(matrix_log(P1) - matrix_log(P2), "fro"))

