"""Adaptation losses and their exact gradients w.r.t. per-sample features.

The geometric kinds chain distance -> embedding -> batch moments, with
value and gradient from one pencil eigendecomposition; the
baseline kinds are squared Euclidean discrepancies between the raw
moments. Gradients are hand-derived and checked against central finite
differences in the test suite.
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .embedding import siegel_pencil_eigh
from .errors import (
    BatchTooSmall,
    DegenerateSpectrum,
    NearZeroDistance,
    NonPositiveSpectrum,
    NotPositiveDefinite,
)
from .moments import _centered_moments
from .spd import SPECTRAL_KINDS, pencil_grads, spd_eigh, sym

DIST_KINDS = (*SPECTRAL_KINDS, "mean_euclid", "coral_frob", "log_euclid")

# Where a geometric gradient is undefined it is returned as zero, labelled by the cause.
_ZEROING = (NearZeroDistance, DegenerateSpectrum)
ZERO_GRAD_REASONS = tuple(e.__name__ for e in _ZEROING)
GATE_CLOSED_REASONS = ("covariance_not_spd", "pencil_unresolved")


@dataclass(frozen=True)
class LossEval:
    value: float
    grad_source: np.ndarray
    grad_target: np.ndarray
    zero_grad_reason: str = ""  # "", or a ZERO_GRAD_REASONS or GATE_CLOSED_REASONS name; per run


def grad_embed(m, upstream):
    """Chain an exactly symmetric upstream gradient (pencil_grads') back to (mean, cov)."""
    n = m.dim
    Gtl = upstream[..., :n, :n]
    dmean = ((2.0 * Gtl) @ m.mean[..., None])[..., 0] + 2.0 * upstream[..., :n, n]
    return dmean, Gtl


def grad_moments(centered, dmean, dcov):
    """Chain gradients on (mean, cov) back to every feature row.

    centered holds the batch's rows z_i less their mean, as the loss
    centered them for its moments; dcov must be exactly symmetric, as
    every _COV_KINDS entry gives it. Row i receives
    dmean/b + (2/(b-1)) dcov (z_i - mean); the mean's dependence inside
    the covariance estimator cancels because the centered rows sum to zero.
    """
    b = centered.shape[-2]
    rows = centered @ (dcov * (2.0 / (b - 1)))
    rows += dmean[..., None, :] / b
    return rows


def _log_derivative_coeffs(lam):
    """Daleckii-Krein divided-difference table for the matrix logarithm."""
    li = lam[..., :, None]
    lj = lam[..., None, :]
    diff = li - lj
    close = np.abs(diff) <= 1e-12 * np.maximum(li, lj)
    safe = np.where(close, 1.0, diff)
    return np.where(close, 2.0 / (li + lj), (np.log(li) - np.log(lj)) / safe)


def _coral_frob(ms, mt):
    diff = ms.cov - mt.cov
    zero = np.zeros(ms.mean.shape)
    return (diff * diff).sum(axis=(-2, -1)), ((zero, 2.0 * diff), (zero, -2.0 * diff)), ""


def _log_euclid(ms, mt):
    """Squared Frobenius distance of the covariances' matrix logs."""
    lam_s, Qs = spd_eigh(ms.cov)
    lam_t, Qt = spd_eigh(mt.cov)
    Ls = sym((Qs * np.log(lam_s)[..., None, :]) @ Qs.mT)
    Lt = sym((Qt * np.log(lam_t)[..., None, :]) @ Qt.mT)
    diff = Ls - Lt
    zero = np.zeros(ms.mean.shape)
    Ks = _log_derivative_coeffs(lam_s)
    Kt = _log_derivative_coeffs(lam_t)
    dcov_s = sym(Qs @ (Ks * (Qs.mT @ (2.0 * diff) @ Qs)) @ Qs.mT)
    dcov_t = sym(Qt @ (Kt * (Qt.mT @ (-2.0 * diff) @ Qt)) @ Qt.mT)
    return (diff * diff).sum(axis=(-2, -1)), ((zero, dcov_s), (zero, dcov_t)), ""


def _spectral(spectral_kind, ms, mt):
    """A SPECTRAL_KINDS entry from one eigensolve of the embedded pencil."""
    value_of, slope_of = spectral_kind
    lam, V = siegel_pencil_eigh(ms, mt)
    value = value_of(lam)
    try:
        dPs, dPt = pencil_grads(lam, V, slope_of(lam, value))
    except _ZEROING as exc:
        return value, None, type(exc).__name__
    return value, (grad_embed(ms, dPs), grad_embed(mt, dPt)), ""


# kind -> (moments_s, moments_t) -> (value, per-side (dmean, dcov), zero_grad_reason)
_COV_KINDS = {
    **{kind: partial(_spectral, entry) for kind, entry in SPECTRAL_KINDS.items()},
    "coral_frob": _coral_frob,
    "log_euclid": _log_euclid,
}


def dist_loss(zs, zt, kind, *, source_moments=None):
    """Distance loss between two b x n feature batches with per-row gradients.

    Each kind gives its value and, per side, the gradient on (mean, cov),
    which one chain (grad_moments) takes to the rows. Where a geometric
    gradient is undefined both gradients are zero and zero_grad_reason
    names the cause. A closed gate ("skip adaptation this step") gives a
    NaN value, zero gradients and a GATE_CLOSED_REASONS name:
    covariance_not_spd where a geometric kind or log_euclid meets a
    covariance that fails the SPD rule, pencil_unresolved where a computed
    pencil eigenvalue is <= 0, beyond double precision. source_moments,
    when given, must be batch_moments(zs): the trainer's gate already
    holds them, factored. Stacks (..., b, n) give each run's loss bit for
    bit as alone, with one reason per run.
    """
    if kind not in DIST_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {DIST_KINDS}")
    zs_data = np.asarray(zs, dtype=float)
    zt_data = np.asarray(zt, dtype=float)
    if (zs_data.ndim < 2 or zt_data.ndim != zs_data.ndim or zs_data.shape[:-2] != zt_data.shape[:-2]
            or zs_data.shape[-1] != zt_data.shape[-1]):
        raise ValueError(f"expected b x n batches of one width: {zs_data.shape}, {zt_data.shape}")
    runs = zs_data.shape[:-2]
    le = _loss(zs_data, zt_data, kind, source_moments)  # a stack: all runs at once
    if not runs:
        return le
    if not le.zero_grad_reason:
        return replace(le, zero_grad_reason=np.full(runs, ""))
    # some run's gate is closed or its gradients are zeroed: each run alone
    alone = [_loss(zs_data[i], zt_data[i], kind, None) for i in np.ndindex(runs)]
    return LossEval(*(np.reshape([getattr(le, f) for le in alone], shape) for f, shape in (
        ("value", runs), ("grad_source", zs_data.shape), ("grad_target", zt_data.shape),
        ("zero_grad_reason", runs))))


def _loss(zs_data, zt_data, kind, source_moments):
    if kind == "mean_euclid":  # the two means only, not the covariances
        b = min(zs_data.shape[-2], zt_data.shape[-2])
        if b < 2:
            raise BatchTooSmall(f"need at least 2 rows, got {b}")
        mean_s = (zs_data.sum(axis=-2) / zs_data.shape[-2] if source_moments is None
                  else source_moments.mean)  # numpy's means, without its wrapper
        mean_t = zt_data.sum(axis=-2) / zt_data.shape[-2]
        diff = mean_s - mean_t
        value, zero_reason = np.vecdot(diff, diff), ""
        # every row gets the same share of the mean's gradient
        gs, gt = (np.broadcast_to(dmean[..., None, :] / z.shape[-2], z.shape).copy()
                  for dmean, z in ((2.0 * diff, zs_data), (-2.0 * diff, zt_data)))
    else:  # each side is centered once, for its covariance and its row gradient
        cs, ms = (_centered_moments(zs_data) if source_moments is None
                  else (zs_data - source_moments.mean[..., None, :], source_moments))
        ct, mt = _centered_moments(zt_data)
        try:
            value, sides, zero_reason = _COV_KINDS[kind](ms, mt)
        except NotPositiveDefinite as exc:  # the gate closes: a NaN value
            # a NonPositiveSpectrum is the pencil's, once both covariances passed the SPD rule
            value = np.full(mt.mean.shape[:-1], np.nan)
            zero_reason = ("pencil_unresolved" if isinstance(exc, NonPositiveSpectrum)
                           else "covariance_not_spd")
        if zero_reason:
            gs, gt = np.zeros_like(zs_data), np.zeros_like(zt_data)
        else:
            (dmean_s, dcov_s), (dmean_t, dcov_t) = sides
            gs = grad_moments(cs, dmean_s, dcov_s)
            del cs  # freed before the target's rows are made
            gt = grad_moments(ct, dmean_t, dcov_t)
    return LossEval(value if value.ndim else float(value), gs, gt, zero_reason)
