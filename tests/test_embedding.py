import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomoment.embedding import (
    GaussianMoments,
    embed,
    schur_gate,
    siegel_pencil_eigh,
    unembed,
)
from geomoment.errors import NotInImage, NotPositiveDefinite, NotSymmetric
from geomoment.matrixio import read_moments
from geomoment.moments import batch_moments
from geomoment.spd import validate_spd
from geomoment.rng import stream
from helpers import count_lapack, pencil_eigh, rand_orthogonal, rand_spd, rng_for


def rand_moments(rng, n, cond=30.0):
    return GaussianMoments(mean=2.0 * rng.standard_normal(n), cov=rand_spd(rng, n, cond))


def test_embed_zero_mean_identity_cov():
    m = GaussianMoments(mean=np.zeros(3), cov=np.eye(3))
    P = embed(m)
    assert isinstance(P, np.ndarray)
    assert np.array_equal(P, np.eye(4))


def test_embed_scalar_hand_values():
    m = GaussianMoments(mean=[1.0], cov=[[1.0]])
    assert np.array_equal(embed(m), [[2.0, 1.0], [1.0, 1.0]])


def test_embed_rejects_invalid_cov():
    m = GaussianMoments(mean=[0.0, 0.0], cov=np.zeros((2, 2)))
    with pytest.raises(NotPositiveDefinite):
        embed(m)


def test_unembed_hand_values():
    m = unembed(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert m.mean == pytest.approx([1.0])
    assert np.allclose(m.cov, [[1.0]], atol=1e-12)
    m = unembed(np.eye(3))
    assert np.array_equal(m.mean, np.zeros(2))
    assert np.array_equal(m.cov, np.eye(2))


def test_unembed_corner_mismatch():
    for corner in (2.0, math.nan):  # a NaN corner matches nothing
        P = np.eye(3)
        P[2, 2] = corner
        with pytest.raises(NotInImage):
            unembed(P)
    for P in (5.0, [[1.0]]):  # no room for a mean beside the corner
        with pytest.raises(NotInImage, match="too small"):
            unembed(P)


def test_unembed_rejects_an_asymmetric_matrix():
    # a mean read from the last column alone would be 0.5, with covariance 0.75
    with pytest.raises(NotInImage, match="not symmetric"):
        unembed([[1.0, 0.5], [0.0, 1.0]])


def test_unembed_returns_moments_that_do_not_alias_its_input():
    P = embed(GaussianMoments(mean=[1.0, -2.0], cov=np.eye(2)))
    m = unembed(P)
    P[:] = 0.0
    assert np.array_equal(m.mean, [1.0, -2.0])
    assert np.array_equal(m.cov, np.eye(2))


def test_moments_reject_an_asymmetric_covariance():
    with pytest.raises(NotSymmetric, match="asymmetry"):
        GaussianMoments([0.0, 0.0], [[2.0, 0.5], [0.0, 2.0]])
    # float noise within spd.SYM_RTOL is symmetrized away
    m = GaussianMoments([0.0, 0.0], [[2.0, 0.5], [0.5 + 1e-16, 2.0]])
    assert np.array_equal(m.cov, m.cov.T)
    # a shape mismatch is a ValueError, not an asymmetry
    for cov in (np.eye(3), np.ones((2, 3))):
        with pytest.raises(ValueError, match="does not match"):
            GaussianMoments([0.0, 0.0], cov)


def test_moments_near_the_float_maximum_are_symmetrized_without_overflow(tmp_path):
    cov = np.diag([1e308, 1e308])  # (M + M^T) / 2 would overflow on it
    path = tmp_path / "moments.txt"
    path.write_text("dim=2\n0 0\n1e308 0\n0 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (GaussianMoments(np.zeros(2), cov), read_moments(path),
                  unembed(embed(GaussianMoments(np.zeros(2), cov)))):
            assert np.array_equal(m.mean, [0.0, 0.0]) and np.array_equal(m.cov, cov)
        off = np.nextafter(1e300, np.inf)  # within SYM_RTOL of its mirror
        m = GaussianMoments(np.zeros(2), [[1e308, 1e300], [off, 1e308]])
        assert m.cov[0, 1] == m.cov[1, 0] == 0.5 * 1e300 + 0.5 * off


def test_roundtrip():
    rng = rng_for("embed-roundtrip")
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = rand_moments(rng, n)
        P = embed(m)
        back = unembed(P)
        assert np.allclose(back.mean, m.mean, atol=1e-10)
        assert np.allclose(back.cov, m.cov, atol=1e-10)
        again = embed(back)
        assert np.max(np.abs(again - P)) <= 1e-10


def test_corner_invariant_exact():
    rng = rng_for("embed-corner")
    for _ in range(20):
        m = rand_moments(rng, 3)
        P = embed(m)
        assert P[3, 3] == 1.0


def test_spd_preservation():
    rng = rng_for("embed-spd")
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        m = rand_moments(rng, n)
        validate_spd(embed(m))


def test_injectivity_sampled():
    rng = rng_for("embed-inject")
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m1 = rand_moments(rng, n)
        m2 = rand_moments(rng, n)
        sep = np.linalg.norm(m1.mean - m2.mean) + np.linalg.norm(m1.cov - m2.cov)
        if sep < 1e-6:
            continue
        gap = np.linalg.norm(embed(m1) - embed(m2))
        assert gap >= 1e-8


def test_schur_consistency():
    rng = rng_for("schur")
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = rand_moments(rng, n)
        det_block = np.linalg.det(embed(m))
        det_cov = np.linalg.det(m.cov)
        gate = schur_gate(m, 1e-300)
        assert abs(det_block - det_cov) <= 1e-8 * max(1.0, abs(det_block))
        assert gate.det == pytest.approx(det_cov, rel=1e-9)
        assert gate.open


def test_schur_gate_examples():
    g = schur_gate(GaussianMoments(mean=[3.0, -1.0], cov=np.eye(2)), 1e-8)
    assert g.open and g.det == pytest.approx(1.0)

    g = schur_gate(GaussianMoments(mean=[0.0, 0.0], cov=np.zeros((2, 2))), 1e-12)
    assert not g.open and g.det == pytest.approx(0.0, abs=1e-15)

    g = schur_gate(GaussianMoments(mean=[0.0, 0.0], cov=np.diag([1e-5, 1e-5])), 1.0)
    assert not g.open and g.det == pytest.approx(1e-10, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
    log_scale=st.floats(-40.0, 40.0),
    log_eta=st.floats(-200.0, 200.0),
)
def test_log_det_gate_decides_as_det_wherever_det_is_finite(n, seed, log_scale, log_eta):
    rng = stream(seed, 0)
    m = GaussianMoments(mean=rng.standard_normal(n), cov=np.exp(log_scale) * rand_spd(rng, n))
    eta = float(np.exp(log_eta))
    g = schur_gate(m, eta)
    det = g.det
    assume(np.isfinite(det) and det >= np.finfo(float).tiny)  # finite and normal
    assume(abs(g.logdet - log_eta) > 1e-9 * max(1.0, abs(log_eta)))  # not a rounding call
    assert g.open == (det > eta)
    assert g.logdet == pytest.approx(math.log(det), rel=1e-12, abs=1e-12)


def test_log_det_gate_at_width_has_no_overflow():
    rng = rng_for("gate-wide")
    n = 128
    Q = rand_orthogonal(rng, n)
    base = (Q * np.exp(rng.uniform(-0.5, 0.5, n))) @ Q.T
    for scale, eta in ((50.0, 0.02), (0.01, 0.02), (50.0, 1e300), (0.01, 1e-300)):
        cov = scale**2 * base
        m = GaussianMoments(mean=np.zeros(n), cov=cov)
        sign, logdet = np.linalg.slogdet(cov)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = schur_gate(m, eta)
        assert sign > 0 and g.logdet == pytest.approx(logdet, rel=1e-12)
        assert g.open == (logdet > math.log(eta))
    assert schur_gate(GaussianMoments(np.zeros(n), 2500.0 * base), 0.02).det == np.inf
    assert schur_gate(GaussianMoments(np.zeros(n), 1e-4 * base), 0.02).det == 0.0


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
def test_gate_rejects_an_eta_that_is_not_positive(eta):
    lone = GaussianMoments(mean=[0.0], cov=[[2.0]])
    stacked = batch_moments(rng_for("gate-eta").standard_normal((2, 30, 3))).factored()
    for m in (lone, stacked):
        with pytest.raises(ValueError, match="eta must be > 0"):
            schur_gate(m, eta)
    assert not schur_gate(lone, math.inf).open


def test_gate_fallback_on_singular_and_indefinite_covariances():
    g = schur_gate(GaussianMoments(mean=[0.0, 0.0], cov=np.zeros((2, 2))), 1e-300)
    assert not g.open and g.logdet == -np.inf
    # an even count of negative eigenvalues gives det > eta, but no Cholesky factor
    g = schur_gate(GaussianMoments(mean=np.zeros(3), cov=np.diag([-1.0, -2.0, 3.0])), 1.0)
    assert g.det == pytest.approx(6.0) and not g.open and g.logdet == -np.inf


# name -> a b x 3 batch builder, by the gate path its moments take alone
GATE_RUNS = {
    "normal": lambda rng: rng.standard_normal((30, 3)),
    "singular": lambda rng: np.tile(rng.standard_normal(3), (30, 1)),  # eigvalsh fallback
    "rank one": lambda rng: np.outer(rng.standard_normal(30), rng.standard_normal(3)),
    "det overflows": lambda rng: 1e110 * rng.standard_normal((30, 3)),
    "det underflows": lambda rng: 1e-110 * rng.standard_normal((30, 3)),
}


@pytest.mark.parametrize("eta", [0.02, 1e-8, math.inf])
def test_stacked_gate_equals_each_run_alone(eta, monkeypatch):
    rng = rng_for("gate-stack")
    z = np.stack([GATE_RUNS[name](rng) for name in ("normal", "singular", "rank one",
                                                     "det overflows", "normal",
                                                     "det underflows")])
    stacked = batch_moments(z).factored()
    fallbacks = []
    count_lapack(monkeypatch, "_SYEVD", fallbacks)
    g = schur_gate(stacked, eta)
    assert fallbacks == [(3, 3)] * 2  # the singular and rank-one slices only
    assert g.open.shape == g.det.shape == g.logdet.shape == (len(z),)
    for i, zi in enumerate(z):
        alone = schur_gate(batch_moments(zi), eta)
        assert type(alone.open) is bool and type(alone.det) is float
        assert bool(g.open[i]) is alone.open
        assert np.float64(g.det[i]).tobytes() == np.float64(alone.det).tobytes()
        assert np.float64(g.logdet[i]).tobytes() == np.float64(alone.logdet).tobytes()
    assert g.det[3] == math.inf and g.det[5] == 0.0 and g.logdet[1] == -math.inf


def _assert_solves_pencil(P1, P2, lam, V):
    # ascending, V^T P1 V = I and P2 V = P1 V diag(lam)
    assert np.all(np.diff(lam) >= 0)
    assert np.allclose(V.T @ P1 @ V, np.eye(P1.shape[0]), rtol=0, atol=1e-10)
    assert np.allclose(P2 @ V, (P1 @ V) * lam, rtol=0, atol=1e-9 * np.abs(P2).max())


def test_siegel_pencil_normalizes_and_solves_the_embedded_pencil():
    rng = rng_for("siegel-pencil")
    for _ in range(30):
        n = int(rng.integers(1, 6))
        ms, mt = rand_moments(rng, n), rand_moments(rng, n)
        Ps, Pt = embed(ms), embed(mt)
        lam, V = siegel_pencil_eigh(ms, mt)
        _assert_solves_pencil(Ps, Pt, lam, V)
        # the same pencil, factored as the embedded matrices themselves
        lam2, V2 = pencil_eigh(Ps, Pt)
        assert np.allclose(lam, lam2, rtol=1e-10, atol=0)
        assert np.allclose(np.abs(V.T @ Ps @ V2), np.eye(n + 1), rtol=0, atol=1e-8)
    for n in (1, 2, 3, 5, 9):
        for _ in range(5):
            P1, P2 = rand_spd(rng, n, cond=1e4), rand_spd(rng, n, cond=1e4)
            _assert_solves_pencil(P1, P2, *pencil_eigh(P1, P2))
    with pytest.raises(NotPositiveDefinite):
        siegel_pencil_eigh(GaussianMoments([0.0], [[0.0]]), rand_moments(rng, 1))
