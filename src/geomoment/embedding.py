"""Packing (mean, covariance) pairs into SPD matrices one dimension up.

A moment pair (mu, Sigma) in R^n x P(n) maps to the (n+1) x (n+1) block
matrix [[Sigma + a mu mu^T, a mu], [a mu^T, a]], which is SPD exactly
when Sigma is. The corner entry pins the scale parameter a, so the map
is invertible on its image.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotInImage, NotPositiveDefinite, NotSymmetric
from .spd import sym, validate_spd

CORNER_TOL = 1e-9


@dataclass(frozen=True)
class GaussianMoments:
    """Mean vector and symmetric covariance of a feature batch.

    The covariance may be singular; detecting that is the job of
    schur_gate, so positive-definiteness is not enforced here.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = sym(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean size {mean.size}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("moments must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self):
        return self.mean.size


@dataclass(frozen=True)
class EmbeddingParams:
    """Scale a > 0 weighting the mean block; a = 1 is the canonical choice."""

    a: float = 1.0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"embedding scale must be positive, got {self.a}")


@dataclass(frozen=True)
class GateResult:
    open: bool
    det: float


def embed(m, params=EmbeddingParams()):
    """Embed a moment pair as the SPD ndarray of size dim+1.

    Raises NotPositiveDefinite when the covariance itself is not SPD;
    for an SPD covariance the output is SPD by congruence, so no second
    eigenvalue check is run on the block matrix. The block matrix is
    exactly symmetric as built, since the covariance is.
    """
    validate_spd(m.cov)
    a = params.a
    n = m.dim
    P = np.empty((n + 1, n + 1))
    P[:n, :n] = m.cov + a * np.outer(m.mean, m.mean)
    P[:n, n] = a * m.mean
    P[n, :n] = a * m.mean
    P[n, n] = a
    return P


def unembed(P, params=EmbeddingParams()):
    """Invert embed. Raises NotInImage when P is not an embedded pair."""
    P = np.asarray(P, dtype=float)
    a = params.a
    n = P.shape[0] - 1
    if n < 1:
        raise NotInImage(f"matrix of size {P.shape[0]} is too small to unembed")
    if abs(P[n, n] - a) > CORNER_TOL:
        raise NotInImage(f"corner entry {P[n, n]!r} does not match a={a!r}")
    mean = P[:n, n] / a
    cov = P[:n, :n] - a * np.outer(mean, mean)
    try:
        validate_spd(cov)
    except (NotSymmetric, NotPositiveDefinite) as exc:
        raise NotInImage(f"recovered covariance is not SPD: {exc}") from exc
    return GaussianMoments(mean=mean, cov=cov)


def schur_gate(m, eta):
    """Determinant gate for the embedded source matrix.

    det(embed(m, a=1)) equals det(cov) by the Schur complement of the
    corner block, so the determinant is computed from a Cholesky of the
    covariance alone. Never raises: any failure closes the gate, with a
    symmetric-eigenvalue fallback keeping the reported determinant
    meaningful for singular or indefinite covariances.
    """
    try:
        L = np.linalg.cholesky(m.cov)
        det = float(np.prod(np.diag(L)) ** 2)
    except np.linalg.LinAlgError:
        try:
            det = float(np.prod(np.linalg.eigvalsh(m.cov)))
        except np.linalg.LinAlgError:
            return GateResult(open=False, det=float("nan"))
    return GateResult(open=bool(det > eta), det=det)
