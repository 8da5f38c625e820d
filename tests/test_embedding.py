import numpy as np
import pytest

from geomoment.embedding import EmbeddingParams, GaussianMoments, embed, schur_gate, unembed
from geomoment.errors import NotInImage, NotPositiveDefinite
from geomoment.spd import validate_spd
from helpers import rand_spd, rng_for


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
    assert np.array_equal(
        embed(m, EmbeddingParams(a=2.0)), [[3.0, 2.0], [2.0, 2.0]]
    )


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
    P = np.eye(3)
    P[2, 2] = 2.0
    with pytest.raises(NotInImage):
        unembed(P, EmbeddingParams(a=1.0))


def test_roundtrip():
    rng = rng_for("embed-roundtrip")
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = float(np.exp(rng.uniform(-1, 1)))
        m = rand_moments(rng, n)
        P = embed(m, EmbeddingParams(a=a))
        back = unembed(P, EmbeddingParams(a=a))
        assert np.allclose(back.mean, m.mean, atol=1e-10)
        assert np.allclose(back.cov, m.cov, atol=1e-10)
        again = embed(back, EmbeddingParams(a=a))
        assert np.max(np.abs(again - P)) <= 1e-10


def test_corner_invariant_exact():
    rng = rng_for("embed-corner")
    for _ in range(20):
        a = float(np.exp(rng.uniform(-1, 1)))
        m = rand_moments(rng, 3)
        P = embed(m, EmbeddingParams(a=a))
        assert P[3, 3] == a


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
