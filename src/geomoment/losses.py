"""Adaptation losses and their exact gradients w.r.t. per-sample features.

The geometric kinds chain distance -> embedding -> batch moments, with
value and gradient from one pencil eigendecomposition; the
baseline kinds are squared Euclidean discrepancies between the raw
moments. Gradients are hand-derived and checked against central finite
differences in the test suite.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingParams, siegel_pencil_eigh
from .errors import (
    BatchTooSmall,
    DegenerateSpectrum,
    GateClosed,
    NearZeroDistance,
    NotPositiveDefinite,
    NotSymmetric,
)
from .moments import batch_moments
from .spd import SPECTRAL_DISTS, eigh_sym, pencil_eigh, spd_tol, sym

DIST_KINDS = ("airm", "hilbert", "mean_euclid", "coral_frob", "log_euclid")

DIST_EPS = 1e-8  # below this the airm gradient is defined as zero
DEGEN_RTOL = 1e-9  # relative gap deciding eigenvalue degeneracy

# Where a geometric gradient is undefined it is returned as zero, labelled by the cause.
_ZEROING = (NearZeroDistance, DegenerateSpectrum)
ZERO_GRAD_REASONS = tuple(e.__name__ for e in _ZEROING)


@dataclass(frozen=True)
class LossEval:
    value: float
    grad_source: np.ndarray
    grad_target: np.ndarray
    zero_grad_reason: str = ""  # one of ZERO_GRAD_REASONS when both gradients were zeroed


def _eigenpair_grads(kind, lam, V, value):
    """Gradients of a pencil-spectrum distance w.r.t. both SPD arguments.

    Uses the generalized eigenpairs P2 v = lambda P1 v with v^T P1 v = 1,
    for which d(lambda)/dP2 = v v^T and d(lambda)/dP1 = -lambda v v^T.
    """
    if kind == "airm":
        if value < DIST_EPS:
            raise NearZeroDistance(f"distance {value:.3e} below {DIST_EPS:.1e}")
        # d(dist)/d(lambda_i) = log(lambda_i) / (2 d lambda_i)
        logs = np.log(lam)
        c2 = logs / (2.0 * value * lam)
        c1 = -logs / (2.0 * value)
        return sym((V * c1) @ V.T), sym((V * c2) @ V.T)

    lo, hi = lam[0], lam[-1]
    if hi - lo <= DEGEN_RTOL * hi:
        raise DegenerateSpectrum(f"pencil spectrum collapses: [{lo:.6e}, {hi:.6e}]")
    hi_idx = np.nonzero(lam >= hi * (1.0 - DEGEN_RTOL))[0]
    lo_idx = np.nonzero(lam <= lo * (1.0 + DEGEN_RTOL))[0]
    if np.intersect1d(hi_idx, lo_idx).size:
        raise DegenerateSpectrum("extreme eigenspaces overlap")
    # average over a degenerate extreme eigenspace: deterministic subgradient
    Vh = V[:, hi_idx]
    Vl = V[:, lo_idx]
    Gmax = sym(Vh @ Vh.T) / hi_idx.size
    Gmin = sym(Vl @ Vl.T) / lo_idx.size
    return Gmin - Gmax, Gmax / hi - Gmin / lo


def grad_spd_pair(P1, P2, kind):
    """(value, dP1, dP2) of dist_airm or dist_hilbert from one pencil factorization."""
    if kind not in SPECTRAL_DISTS:
        raise ValueError(f"kind must be airm or hilbert, got {kind!r}")
    lam, V = pencil_eigh(P1, P2)
    value = SPECTRAL_DISTS[kind](lam)
    return (value, *_eigenpair_grads(kind, lam, V, value))


def grad_embed(m, upstream, params=EmbeddingParams()):
    """Chain an upstream gradient on the embedded matrix back to (mean, cov)."""
    G = sym(upstream)
    a = params.a
    n = m.dim
    Gtl = G[:n, :n]
    dmean = a * (Gtl + Gtl.T) @ m.mean + 2.0 * a * G[:n, n]
    return dmean, Gtl


def grad_moments(batch, mean, dmean, dcov):
    """Chain gradients on (mean, cov) back to every feature row.

    mean is the batch's row mean (batch_moments(batch).mean). Row i
    receives dmean/b + (2/(b-1)) dcov (z_i - mean); the mean's
    dependence inside the covariance estimator cancels because the
    centered rows sum to zero.
    """
    data = np.asarray(batch, dtype=float)
    b = data.shape[0]
    row_dmean = np.asarray(dmean, dtype=float) / b
    D = sym(dcov)
    if not np.any(D):
        return np.broadcast_to(row_dmean, data.shape).copy()
    return (data - mean) @ (D * (2.0 / (b - 1))) + row_dmean


def _log_derivative_coeffs(lam):
    """Daleckii-Krein divided-difference table for the matrix logarithm."""
    li = lam[:, None]
    lj = lam[None, :]
    diff = li - lj
    close = np.abs(diff) <= 1e-12 * np.maximum(li, lj)
    safe = np.where(close, 1.0, diff)
    return np.where(close, 2.0 / (li + lj), (np.log(li) - np.log(lj)) / safe)


@contextmanager
def _spd_or_gate_closed():
    """Map a covariance failing SPD validation to GateClosed."""
    try:
        yield
    except (NotPositiveDefinite, NotSymmetric) as exc:
        raise GateClosed(f"covariance failed SPD validation: {exc}") from exc


def _spd_eigh(cov):
    """eigh_sym(cov), with validate_spd's rule decided on its eigenvalues."""
    lam, Q = eigh_sym(cov)
    tol = spd_tol(cov)
    if not lam[0] > tol:
        raise GateClosed(
            f"covariance failed SPD validation: smallest eigenvalue {lam[0]:.6e} "
            f"not above tolerance {tol:.1e}"
        )
    return lam, Q


def dist_loss(zs, zt, kind, params=EmbeddingParams(), source_moments=None):
    """Distance loss between two feature batches with per-row gradients.

    Raises GateClosed when a geometric kind or log_euclid cannot be
    evaluated because a covariance is not SPD, or a geometric kind
    because its pencil spectrum is not resolved in double precision (a
    computed eigenvalue <= 0); the trainer treats that as "skip
    adaptation this step". airm and hilbert take their value
    and gradients from one eigensolve of the embedded pencil, formed
    from one Cholesky factor per covariance (siegel_pencil_eigh); where
    that gradient is undefined both gradients are zero and
    zero_grad_reason names the cause. source_moments, when given, must
    be batch_moments(zs): a caller that already has them (the trainer's
    gate) saves computing them, and factoring their covariance, again.
    """
    if kind not in DIST_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {DIST_KINDS}")
    zs_data = np.asarray(zs, dtype=float)
    zt_data = np.asarray(zt, dtype=float)
    if zs_data.shape[1] != zt_data.shape[1]:
        raise ValueError(
            f"feature dims differ: {zs_data.shape[1]} vs {zt_data.shape[1]}"
        )
    if kind == "mean_euclid":
        b = min(zs_data.shape[0], zt_data.shape[0])
        if b < 2:
            raise BatchTooSmall(f"need at least 2 rows, got {b}")
        mean_s = zs_data.mean(axis=0) if source_moments is None else source_moments.mean
        mean_t = zt_data.mean(axis=0)
        diff = mean_s - mean_t
        value = float(diff @ diff)
        zero = np.zeros((diff.size, diff.size))
        gs = grad_moments(zs_data, mean_s, 2.0 * diff, zero)
        gt = grad_moments(zt_data, mean_t, -2.0 * diff, zero)
        return LossEval(value=value, grad_source=gs, grad_target=gt)

    ms = batch_moments(zs_data) if source_moments is None else source_moments
    mt = batch_moments(zt_data)

    if kind in SPECTRAL_DISTS:
        with _spd_or_gate_closed():
            lam, V = siegel_pencil_eigh(ms, mt, params)
        try:
            value = SPECTRAL_DISTS[kind](lam)
        except NotPositiveDefinite as exc:
            # both sides passed the SPD rule, but the pencil's spread exceeds double precision
            raise GateClosed(f"pencil spectrum not resolved: {exc}") from exc
        try:
            dPs, dPt = _eigenpair_grads(kind, lam, V, value)
        except _ZEROING as exc:
            zero_s, zero_t = np.zeros_like(zs_data), np.zeros_like(zt_data)
            return LossEval(value, zero_s, zero_t, zero_grad_reason=type(exc).__name__)
        dmean_s, dcov_s = grad_embed(ms, dPs, params)
        dmean_t, dcov_t = grad_embed(mt, dPt, params)
        gs = grad_moments(zs_data, ms.mean, dmean_s, dcov_s)
        gt = grad_moments(zt_data, mt.mean, dmean_t, dcov_t)
        return LossEval(value=value, grad_source=gs, grad_target=gt)

    if kind == "coral_frob":
        diff = ms.cov - mt.cov
        value = float(np.sum(diff * diff))
        zero = np.zeros(ms.dim)
        gs = grad_moments(zs_data, ms.mean, zero, 2.0 * diff)
        gt = grad_moments(zt_data, mt.mean, zero, -2.0 * diff)
        return LossEval(value=value, grad_source=gs, grad_target=gt)

    # log_euclid on the covariances directly
    lam_s, Qs = _spd_eigh(ms.cov)
    lam_t, Qt = _spd_eigh(mt.cov)
    Ls = sym((Qs * np.log(lam_s)) @ Qs.T)
    Lt = sym((Qt * np.log(lam_t)) @ Qt.T)
    diff = Ls - Lt
    value = float(np.sum(diff * diff))
    zero = np.zeros(ms.dim)
    Ks = _log_derivative_coeffs(lam_s)
    Kt = _log_derivative_coeffs(lam_t)
    dcov_s = sym(Qs @ (Ks * (Qs.T @ (2.0 * diff) @ Qs)) @ Qs.T)
    dcov_t = sym(Qt @ (Kt * (Qt.T @ (-2.0 * diff) @ Qt)) @ Qt.T)
    gs = grad_moments(zs_data, ms.mean, zero, dcov_s)
    gt = grad_moments(zt_data, mt.mean, zero, dcov_t)
    return LossEval(value=value, grad_source=gs, grad_target=gt)
