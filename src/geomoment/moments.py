"""Empirical batch moments and the batch-size/dimension regime check."""

from dataclasses import dataclass

import numpy as np

from .embedding import GaussianMoments
from .errors import BatchTooSmall


@dataclass(frozen=True)
class FeatureBatch:
    """b x n matrix of encoded samples tagged with its domain."""

    domain: str  # "source" or "target"
    data: np.ndarray

    def __post_init__(self):
        if self.domain not in ("source", "target"):
            raise ValueError(f"domain must be source or target, got {self.domain!r}")
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"expected a b x n matrix, got shape {data.shape}")
        if data.shape[0] < 2:
            raise BatchTooSmall(f"need at least 2 rows, got {data.shape[0]}")
        if not np.all(np.isfinite(data)):
            raise ValueError("batch entries must be finite")
        object.__setattr__(self, "data", data)

    @property
    def b(self):
        return self.data.shape[0]

    @property
    def n(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class RegimeCheck:
    ok: bool
    ratio: float


def batch_moments(batch):
    """Row mean and unbiased covariance of a feature batch.

    Two-pass: mean first, then centered outer products with 1/(b-1)
    normalization; GaussianMoments symmetrizes the covariance exactly.
    The covariance may come out singular (identical rows); downstream
    gating detects that.
    """
    data = batch.data if isinstance(batch, FeatureBatch) else np.asarray(batch, dtype=float)
    b = data.shape[0]
    if b < 2:
        raise BatchTooSmall(f"need at least 2 rows, got {b}")
    mean = data.mean(axis=0)
    centered = data - mean
    return GaussianMoments(mean=mean, cov=centered.T @ centered / (b - 1))


def check_regime(b, n):
    """Heuristic requiring at least ten times more samples than features."""
    if b <= 0 or n <= 0:
        raise ValueError("batch size and dimension must be positive")
    return RegimeCheck(ok=bool(b >= 10 * n), ratio=b / n)
