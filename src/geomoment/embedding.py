"""Packing (mean, covariance) pairs into SPD matrices one dimension up.

A moment pair (mu, Sigma) in R^n x P(n) maps to the (n+1) x (n+1) block
matrix [[Sigma + mu mu^T, mu], [mu^T, 1]] (Calvo and Oller's Siegel
embedding), which is SPD exactly when Sigma is. The corner entry is 1,
so the map is invertible on its image. The block matrix factors as
F F^T with F = [[L, mu], [0, 1]] and L L^T = Sigma, so one Cholesky
factor of the covariance serves the gate, the SPD rule and the pencil.
"""

import math
from dataclasses import dataclass
import numpy as np

from .errors import ConvergenceFailure, NotInImage, NotPositiveDefinite, NotSymmetric
from .spd import check_symmetric, cholesky, congruent_eigh, spd_factor, sym, syevd, validate_spd

CORNER_TOL = 1e-9


@dataclass(frozen=True)
class GaussianMoments:
    """Mean vector and symmetric covariance of a feature batch.

    The covariance must be symmetric to within spd.SYM_RTOL and is kept
    exactly symmetrized. It may be singular: detecting that is schur_gate's job.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean size {mean.size}")
        cov = sym(check_symmetric(cov))
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("moments must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def trusted(cls, mean, cov):
        """Moments from a float mean of size n and an exactly symmetric n x n cov.

        For arrays built by the package (batch_moments): skips the copy,
        the symmetrization and the shape checks, and keeps only the
        finiteness check of cov (a non-finite mean makes cov non-finite).
        """
        if not np.isfinite(cov).all():
            raise ValueError("moments must be finite")
        m = object.__new__(cls)
        object.__setattr__(m, "mean", mean)
        object.__setattr__(m, "cov", cov)
        return m

    @property
    def dim(self):
        return self.mean.shape[-1]

    @property
    def chol(self):
        """Lower Cholesky factor of cov; all NaN (per run, in a stack) where it does not exist.

        The gate's determinant, the SPD rule and the Siegel pencil of
        the geometric losses all read this one factor. It is computed
        on each access, except on factored moments, which keep it.
        """
        if "_chol" in self.__dict__:
            return self._chol
        return cholesky(self.cov)

    def factored(self):
        """These moments, with their covariance's Cholesky factor computed once and kept.

        For the readers of chol within one step (the trainer's gate and
        distance loss); moments kept longer, such as prepared ones, stay
        unfactored, so no factor outlives its step. A stack is factored
        slice by slice, each run as alone.
        """
        return _factored(self.mean, self.cov, cholesky(self.cov))

    def __getitem__(self, runs):
        """The factored moments of the runs of a stack that runs indexes, keeping their factor."""
        return _factored(self.mean[runs], self.cov[runs], self.chol[runs])


def _factored(mean, cov, chol):
    m = object.__new__(GaussianMoments)
    object.__setattr__(m, "mean", mean)
    object.__setattr__(m, "cov", cov)
    object.__setattr__(m, "_chol", chol)
    return m


@dataclass(frozen=True)
class GateResult:
    open: bool
    det: float
    logdet: float


def embed(m):
    """Embed a moment pair as the SPD ndarray of size dim+1.

    Raises NotPositiveDefinite when the covariance itself is not SPD;
    for an SPD covariance the output is SPD by congruence, so no second
    eigenvalue check is run on the block matrix. The block matrix is
    exactly symmetric as built, since the covariance is.
    """
    validate_spd(m.cov)
    n = m.dim
    P = np.empty((n + 1, n + 1))
    P[:n, :n] = m.cov + np.outer(m.mean, m.mean)
    P[:n, n] = P[n, :n] = m.mean
    P[n, n] = 1.0
    return P


def unembed(P):
    """Invert embed. Raises NotInImage when P is not an embedded pair."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 0 or P.shape[0] < 2:  # a 0-d input has no shape[0]
        raise NotInImage(f"matrix of shape {P.shape} is too small to unembed")
    n = P.shape[0] - 1
    try:
        check_symmetric(P)
    except NotSymmetric as exc:
        raise NotInImage(f"matrix is not symmetric: {exc}") from exc
    if not abs(P[n, n] - 1.0) <= CORNER_TOL:  # a NaN corner fails too
        raise NotInImage(f"corner entry {P[n, n]!r} is not 1")
    mean = P[:n, n].copy()  # not a view of the caller's P
    cov = P[:n, :n] - np.outer(mean, mean)
    try:
        validate_spd(cov)
    except (NotSymmetric, NotPositiveDefinite) as exc:
        raise NotInImage(f"recovered covariance is not SPD: {exc}") from exc
    return GaussianMoments(mean=mean, cov=cov)


def schur_gate(m, eta):
    """Log-determinant gate for the embedded source matrix.

    det(embed(m)) equals det(cov) by the Schur complement of the
    corner block, so the gate reads the covariance's Cholesky factor
    (m.chol): it opens when log det = 2 sum log diag L exceeds
    log eta, which neither overflows nor underflows at width. det is
    reported as prod(diag L)**2 (inf or 0 where that leaves the float
    range). An eta that is not > 0 (NaN included) raises ValueError; past
    that the gate never raises: any failure closes it, with a
    symmetric-eigenvalue fallback keeping the reported determinant
    meaningful for singular or indefinite covariances (log det is -inf
    unless every eigenvalue is positive). Stacked moments give arrays
    over their runs, each run decided as alone.
    """
    if not eta > 0:
        raise ValueError(f"eta must be > 0 (inf allowed), got {eta!r}")
    if m.cov.ndim == 2:
        return GateResult(*_gate(m.cov, m.chol, eta))
    n = m.dim  # every factored run in one pass, each decided as alone
    covs, factors = m.cov.reshape(-1, n, n), m.chol.reshape(-1, n, n)
    d = np.diagonal(factors, axis1=-2, axis2=-1)
    logdet = 2.0 * np.log(d).sum(axis=-1)
    det = np.array([_det(row) for row in d.tolist()])
    is_open = logdet > math.log(eta)
    for r in np.flatnonzero(np.isnan(factors[:, 0, 0])).tolist():  # no factor: an eigensolve
        is_open[r], det[r], logdet[r] = _gate(covs[r], factors[r], eta)
    return GateResult(*(v.reshape(m.cov.shape[:-2]) for v in (is_open, det, logdet)))


def _det(diag):
    """prod(diag)**2 in Python floats (numpy's square differs in some last bits), inf on overflow."""
    try:
        return math.prod(diag) ** 2
    except OverflowError:
        return math.inf


def _gate(cov, L, eta):
    """schur_gate's (open, det, logdet) of one covariance from its factor (all NaN if it failed)."""
    if not math.isnan(L[0, 0]):
        d = L.diagonal()
        logdet = 2.0 * float(np.log(d).sum())
        det = _det(d.tolist())
    else:
        try:
            lam = syevd(cov, vectors=False)
        except ConvergenceFailure:
            return False, float("nan"), float("nan")
        det = math.prod(lam.tolist())
        logdet = float(np.log(lam).sum()) if lam[0] > 0 else -math.inf
    return logdet > math.log(eta), det, logdet


def siegel_pencil_eigh(ms, mt):
    """Eigenpairs (lam ascending, V) of embed(mt) v = lam embed(ms) v, from m.chol of each side.

    embed(m) = F F^T with F = [[L, mu], [0, 1]] and L L^T = cov, and
    F^{-1} = [[L^{-1}, -L^{-1} mu], [0, 1]] is explicit.
    With K = F_s^{-1} F_t = [[L_s^{-1} L_t, L_s^{-1} (mu_t - mu_s)], [0, 1]],
    the pencil's spectrum is that of K K^T, and its eigenvectors Y give
    V = F_s^{-T} Y, so V^T embed(ms) V = I and embed(mt) V = lam embed(ms) V.
    Each covariance passes spd_factor's rule through its factor m.chol
    first (NotPositiveDefinite otherwise); neither (n+1) x (n+1) matrix
    is built or factored. K K^T is exactly symmetric as built (one
    symmetric rank-k update), so it goes to the eigensolver as it is.
    """
    _, Ls_inv = spd_factor(ms.cov, ms.chol)
    Lt, _ = spd_factor(mt.cov, mt.chol)
    n = ms.dim
    K = np.zeros((*ms.cov.shape[:-2], n + 1, n + 1))  # stacked moments: a stack of pencils
    K[..., :n, :n] = Ls_inv @ Lt
    K[..., :n, n:] = Ls_inv @ (mt.mean - ms.mean)[..., None]
    K[..., n, n] = 1.0
    Fs_inv = np.zeros(K.shape)
    Fs_inv[..., :n, :n] = Ls_inv
    Fs_inv[..., :n, n:] = -(Ls_inv @ ms.mean[..., None])
    Fs_inv[..., n, n] = 1.0
    return congruent_eigh(Fs_inv, K @ K.mT)
