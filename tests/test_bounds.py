import math

import numpy as np
import pytest
from scipy.integrate import quad

from geomoment.bounds import (
    DiscreteDist,
    check_target_bound,
    fisher_rao_univariate,
    hilbert_discrete,
    tv_discrete,
)
from geomoment.embedding import GaussianMoments, embed
from geomoment.errors import DomainError, NonInteriorPoint, SupportMismatch
from geomoment.spd import dist_airm
from helpers import rand_spd, rng_for


def tv_bruteforce(p, q):
    """2 * sup over all subsets of |P(B) - Q(B)|, by enumeration (k <= 16)."""
    diff = np.asarray(p) - np.asarray(q)
    k = diff.size
    best = 0.0
    for mask in range(1 << k):
        s = sum(diff[i] for i in range(k) if mask >> i & 1)
        best = max(best, abs(s))
    return 2.0 * best


def geodesic_quadrature(mu1, sigma1, mu2, sigma2):
    """Fisher-Rao distance by numerical integration along the geodesic.

    The metric (dmu^2 + 2 dsigma^2)/sigma^2 is sqrt(2) times the
    hyperbolic half-plane metric in coordinates (u, sigma) = (mu/sqrt(2),
    sigma); geodesics are vertical lines or semicircles centered on the
    sigma = 0 axis, and the length is integrated numerically, never via
    the closed form under test.
    """
    u1, u2 = mu1 / math.sqrt(2.0), mu2 / math.sqrt(2.0)
    if abs(u1 - u2) < 1e-12 * max(1.0, abs(u1), abs(u2)):
        val, _ = quad(lambda s: 1.0 / s, min(sigma1, sigma2), max(sigma1, sigma2))
        return math.sqrt(2.0) * val
    c = (u2**2 + sigma2**2 - u1**2 - sigma1**2) / (2.0 * (u2 - u1))
    th1 = math.atan2(sigma1, u1 - c)
    th2 = math.atan2(sigma2, u2 - c)
    lo, hi = min(th1, th2), max(th1, th2)
    val, _ = quad(lambda t: 1.0 / math.sin(t), lo, hi)
    return math.sqrt(2.0) * val


def dirichlet_pair(rng, k):
    p = np.maximum(rng.dirichlet(np.ones(k)), 1e-6)
    q = np.maximum(rng.dirichlet(np.ones(k)), 1e-6)
    return DiscreteDist(p / p.sum()), DiscreteDist(q / q.sum())


# ------------------------------------------------------------------ discrete


def test_tv_examples():
    assert tv_discrete([0.5, 0.5], [0.5, 0.5]) == 0.0
    eps = 1e-9
    assert tv_discrete([1 - eps, eps], [eps, 1 - eps]) == pytest.approx(2.0, abs=1e-8)
    assert tv_discrete([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.5)


def test_tv_matches_bruteforce():
    rng = rng_for("tv-brute")
    for _ in range(50):
        k = int(rng.integers(2, 9))
        p, q = dirichlet_pair(rng, k)
        assert tv_discrete(p, q) == pytest.approx(
            tv_bruteforce(p.probs, q.probs), abs=1e-12
        )


def test_tv_support_mismatch():
    with pytest.raises(SupportMismatch):
        tv_discrete([0.5, 0.5], [0.2, 0.3, 0.5])


def test_hilbert_discrete_examples():
    assert hilbert_discrete([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert hilbert_discrete([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        math.log(3.0), abs=1e-12
    )


def test_hilbert_discrete_projective_invariance_unnormalized():
    # the metric lives on rays: v and 3v are the same point
    v = np.array([0.2, 0.5, 0.3])
    d = hilbert_discrete(DiscreteDist(v), DiscreteDist((3 * v) / (3 * v).sum()))
    assert d <= 1e-12


def test_hilbert_rejects_boundary():
    with pytest.raises(NonInteriorPoint):
        DiscreteDist([0.0, 1.0])


def test_discrete_dist_rejects_nan():
    for probs in ([math.nan, 1.0], [0.5, math.nan, 0.5]):
        with pytest.raises(NonInteriorPoint):
            DiscreteDist(probs)


def test_bound_worked_pair():
    res = check_target_bound([0.5, 0.5], [0.25, 0.75])
    assert res.lhs == pytest.approx(0.5)
    assert res.rhs == pytest.approx(2.0 * math.tanh(math.log(3.0) / 4.0), abs=1e-12)
    assert res.rhs == pytest.approx(0.5358983848622454, abs=1e-12)
    assert res.holds
    assert res.slack == pytest.approx(res.rhs - res.lhs)


def test_bound_equality_at_coincidence():
    res = check_target_bound([0.3, 0.7], [0.3, 0.7])
    assert res.lhs == 0.0 and res.rhs == 0.0 and res.holds and res.slack == 0.0


def test_bound_chain_random_sweep():
    rng = rng_for("bound-sweep")
    for _ in range(2000):
        k = int(rng.integers(2, 9))
        p, q = dirichlet_pair(rng, k)
        res = check_target_bound(p, q)
        assert res.holds
        assert res.lhs <= res.rhs + 1e-12


# ---------------------------------------------------------------- fisher-rao


def test_fr_univariate_identical():
    assert fisher_rao_univariate(1.3, 0.8, 1.3, 0.8) == 0.0


def test_fr_univariate_sigma_only():
    # cosh(1) = 1 + (e-1)^2 / (2e), so the arccosh argument is exactly cosh(1)
    d = fisher_rao_univariate(0.7, 1.0, 0.7, math.e)
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert d == pytest.approx(math.sqrt(2.0) * abs(math.log(math.e / 1.0)), abs=1e-12)


def test_fr_univariate_mean_shift_oracle_value():
    d = fisher_rao_univariate(0.0, 1.0, 1.0, 1.0)
    assert d == pytest.approx(math.sqrt(2.0) * math.acosh(1.25), abs=1e-12)
    # frozen from the quadrature oracle
    assert d == pytest.approx(0.98025814346854716, abs=1e-10)
    assert d == pytest.approx(geodesic_quadrature(0.0, 1.0, 1.0, 1.0), rel=1e-8)


def test_fr_univariate_rejects_bad_sigma():
    with pytest.raises(DomainError):
        fisher_rao_univariate(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        fisher_rao_univariate(0.0, 1.0, 1.0, -2.0)
    with pytest.raises(DomainError):
        fisher_rao_univariate(0.0, math.nan, 0.0, 1.0)



def test_fr_univariate_rejects_non_finite_parameters():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="means must be finite"):
            fisher_rao_univariate(bad, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="means must be finite"):
            fisher_rao_univariate(0.0, 1.0, bad, 1.0)
    with pytest.raises(DomainError):
        fisher_rao_univariate(0.0, math.inf, 0.0, 1.0)


def test_fr_univariate_small_mean_gaps_keep_their_size():
    # between unit Gaussians d = 2 sqrt(2) asinh(gap / (2 sqrt(2))) = gap (1 - gap^2/48 + ...)
    for gap in (1e-9, 1e-6, 1e-3):
        d = fisher_rao_univariate(0.0, 1.0, gap, 1.0)
        assert d == pytest.approx(gap * (1.0 - gap**2 / 48.0), rel=1e-13)


def test_fr_univariate_huge_mean_gap_is_finite():
    # asinh(y) = log(2y) + O(1/y^2): d = 2 sqrt(2) log(gap / sqrt(2)) for gap = 1e200
    d = fisher_rao_univariate(1e200, 1.0, 0.0, 1.0)
    assert d == pytest.approx(2.0 * math.sqrt(2.0) * (200.0 * math.log(10.0) - 0.5 * math.log(2.0)),
                              rel=1e-14)


def test_fr_univariate_tiny_scales_follow_scale_invariance():
    # the distance is invariant under (mu, sigma) -> (a mu, a sigma), a > 0
    unit = fisher_rao_univariate(0.0, 1.0, 1.0, 2.0)
    assert fisher_rao_univariate(0.0, 1e-200, 1e-200, 2e-200) == pytest.approx(unit, rel=1e-14)
    assert fisher_rao_univariate(0.0, 1e200, 1e200, 2e200) == pytest.approx(unit, rel=1e-14)
    assert fisher_rao_univariate(5e-200, 1e-200, 5e-200, 1e-200) == 0.0

def test_fr_closed_form_against_quadrature():
    rng = rng_for("fr-quad")
    for _ in range(25):
        mu1, mu2 = rng.uniform(-3, 3, size=2)
        s1, s2 = rng.uniform(0.2, 5.0, size=2)
        closed = fisher_rao_univariate(mu1, s1, mu2, s2)
        numeric = geodesic_quadrature(mu1, s1, mu2, s2)
        assert abs(closed - numeric) <= 1e-4 * max(closed, 1e-12)


def test_fr_fixed_mean_values():
    # between equal-mean Gaussians, Fisher-Rao is dist_airm of the covariances
    assert dist_airm(np.eye(3), np.eye(3)) == 0.0
    d = dist_airm(np.array([[1.0]]), np.array([[np.e**2]]))
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)


# ----------------------------------------------- lower bound via the embedding


def _embed_gaussian(mu, sigma):
    return embed(GaussianMoments(mean=[mu], cov=[[sigma**2]]))


def test_embedded_distance_lower_bounds_fisher_rao():
    rng = rng_for("prop-lower")
    for _ in range(500):
        mu1, mu2 = rng.uniform(-3, 3, size=2)
        s1, s2 = rng.uniform(0.2, 5.0, size=2)
        dA = dist_airm(_embed_gaussian(mu1, s1), _embed_gaussian(mu2, s2))
        dF = fisher_rao_univariate(mu1, s1, mu2, s2)
        assert dA <= dF + 1e-9


def test_equal_mean_equality_dims_1_to_4():
    rng = rng_for("prop-equal")
    for _ in range(200):
        n = int(rng.integers(1, 5))
        mu = rng.standard_normal(n)
        S1 = rand_spd(rng, n)
        S2 = rand_spd(rng, n)
        P1 = embed(GaussianMoments(mean=mu, cov=S1))
        P2 = embed(GaussianMoments(mean=mu, cov=S2))
        if np.any(mu):
            # equality is exact only at mu = 0 where the embedding is block diagonal
            mu0 = np.zeros(n)
            P1 = embed(GaussianMoments(mean=mu0, cov=S1))
            P2 = embed(GaussianMoments(mean=mu0, cov=S2))
        assert abs(dist_airm(P1, P2) - dist_airm(S1, S2)) <= 1e-10


def test_strict_gap_off_the_zero_mean_slice():
    rng = rng_for("prop-strict")
    for _ in range(200):
        mu1 = rng.uniform(-3, 3)
        mu2 = mu1 + np.sign(rng.standard_normal()) * rng.uniform(0.5, 3.0)
        s1, s2 = rng.uniform(0.2, 5.0, size=2)
        dA = dist_airm(_embed_gaussian(mu1, s1), _embed_gaussian(mu2, s2))
        dF = fisher_rao_univariate(mu1, s1, mu2, s2)
        assert dF - dA > 0.0
