"""Empirical batch moments and the batch-size/dimension regime check."""

from dataclasses import dataclass

import numpy as np

from .embedding import GaussianMoments
from .errors import BatchTooSmall


@dataclass(frozen=True)
class RegimeCheck:
    ok: bool
    ratio: float


def batch_moments(batch):
    """Row mean and unbiased covariance of a b x n feature batch.

    Two-pass: mean first, then centered outer products with 1/(b-1)
    normalization. The product centered^T centered is exactly symmetric
    as built (one symmetric rank-k update), so the moments skip
    GaussianMoments' re-checks; a non-finite batch still raises
    ValueError. The covariance may come out singular (identical rows);
    downstream gating detects that. A stack R x b x n of batches gives
    R x n means and R x n x n covariances, each run's bit for bit as
    its batch alone.
    """
    return _centered_moments(np.asarray(batch, dtype=float))[1]


def _centered_moments(data):
    """(centered rows, batch_moments) of a float batch or stack, centering it once."""
    if data.ndim < 2:
        raise ValueError(f"expected a b x n batch, got shape {data.shape}")
    b = data.shape[-2]
    if b < 2:
        raise BatchTooSmall(f"need at least 2 rows, got {b}")
    mean = data.sum(axis=-2) / b  # numpy's mean, bit for bit, without its wrapper
    centered = data - mean[..., None, :]
    return centered, GaussianMoments.trusted(mean, centered.mT @ centered / (b - 1))


def check_regime(b, n):
    """Heuristic requiring at least ten times more samples than features."""
    if b <= 0 or n <= 0:
        raise ValueError("batch size and dimension must be positive")
    return RegimeCheck(ok=bool(b >= 10 * n), ratio=b / n)
