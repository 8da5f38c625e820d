"""Discrete divergences and the target-error bound chain.

Total variation here keeps the factor of 2 (d_TV equals the L1 distance
of the probability vectors), and the Hilbert projective metric on the
positive simplex is the log-ratio of extreme coordinate ratios. The
bound under test is d_TV <= 2 tanh(d_H / 4); since the hypothesis-class
discrepancy is itself below d_TV, verifying the chain at the TV level
covers it.

Also houses the closed-form Fisher-Rao distance of univariate
Gaussians, an oracle for the lower-bound property of the embedded
affine-invariant distance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonInteriorPoint, SupportMismatch


@dataclass(frozen=True)
class DiscreteDist:
    """Strictly positive probability vector."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValueError("empty support")
        if not np.all(p > 0):  # a NaN entry fails too
            raise NonInteriorPoint(f"probabilities must be > 0, min is {p.min():.3e}")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def k(self):
        return self.probs.size


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    slack: float


def _as_dist(p):
    return p if isinstance(p, DiscreteDist) else DiscreteDist(p)


def _paired(p, q):
    p = _as_dist(p)
    q = _as_dist(q)
    if p.k != q.k:
        raise SupportMismatch(f"support sizes differ: {p.k} vs {q.k}")
    return p.probs, q.probs


def tv_discrete(p, q):
    """Total variation with the factor-2 convention: sum_i |p_i - q_i|."""
    pv, qv = _paired(p, q)
    return float(np.sum(np.abs(pv - qv)))


def hilbert_discrete(p, q):
    """Hilbert projective distance log(max_i p_i/q_i / min_i p_i/q_i)."""
    pv, qv = _paired(p, q)
    r = np.log(pv) - np.log(qv)
    return float(r.max() - r.min())


def check_target_bound(p, q):
    """Verify d_TV <= 2 tanh(d_H / 4) for one pair of distributions."""
    lhs = tv_discrete(p, q)
    rhs = 2.0 * math.tanh(hilbert_discrete(p, q) / 4.0)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-12), slack=rhs - lhs)


def fisher_rao_univariate(mu1, sigma1, mu2, sigma2):
    """Fisher-Rao distance between two univariate Gaussians.

    Closed form sqrt(2) * arccosh(1 + ((mu1-mu2)^2/2 + (sigma1-sigma2)^2)
    / (2 sigma1 sigma2)); the metric is (dmu^2 + 2 dsigma^2)/sigma^2,
    i.e. a rescaled hyperbolic half-plane. It is evaluated as the equal
    2 sqrt(2) * arcsinh(hypot(dmu/sqrt(2), dsigma) / (2 sqrt(sigma1)
    sqrt(sigma2))), which squares nothing and so keeps small gaps and
    huge or tiny scales finite and accurate; where a step overflows, it
    halves the inputs, and takes arcsinh(x) as log 2 + log x if x does.
    Cross-validated against geodesic quadrature and mpmath in the tests.
    """
    if not (0 < sigma1 < math.inf and 0 < sigma2 < math.inf):  # a NaN sigma fails too
        raise DomainError(f"standard deviations must be positive and finite, got {sigma1}, {sigma2}")
    if not (math.isfinite(mu1) and math.isfinite(mu2)):
        raise DomainError(f"means must be finite, got {mu1}, {mu2}")
    gap = math.hypot((mu1 - mu2) / math.sqrt(2.0), sigma1 - sigma2)
    scale = 2.0 * math.sqrt(sigma1) * math.sqrt(sigma2)
    x = gap / scale
    if not (x < math.inf and scale < math.inf):  # an overflow: x inf or NaN, or too small
        half = math.hypot((mu1 / 2 - mu2 / 2) / math.sqrt(2.0), sigma1 / 2 - sigma2 / 2)
        x = half / math.sqrt(sigma1) / math.sqrt(sigma2)  # inf only where x > 2**512
        if x == math.inf:  # arcsinh(x) = log 2x, exactly in double precision at this size
            return 2.0 * math.sqrt(2.0) * (
                math.log(2.0) + math.log(half) - math.log(sigma1) / 2 - math.log(sigma2) / 2)
    return 2.0 * math.sqrt(2.0) * math.asinh(x)
