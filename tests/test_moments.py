import numpy as np
import pytest

from geomoment.errors import BatchTooSmall
from geomoment.moments import batch_moments, check_regime
from geomoment.spd import validate_spd
from helpers import rand_invertible, rng_for


def test_hand_moments():
    rows = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    m = batch_moments(rows)
    assert np.array_equal(m.mean, [1.0, 1.0])
    assert np.allclose(m.cov, (4.0 / 3.0) * np.eye(2))


def test_identical_rows_give_zero_cov():
    z = np.tile([1.5, -0.5, 2.0], (6, 1))
    m = batch_moments(z)
    assert np.array_equal(m.mean, z[0])
    assert np.array_equal(m.cov, np.zeros((3, 3)))


def test_batch_too_small():
    with pytest.raises(BatchTooSmall):
        batch_moments(np.array([[1.0, 2.0]]))


def test_gaussian_batches_are_spd():
    rng = rng_for("moments-spd")
    n = 3
    for _ in range(100):
        z = rng.standard_normal((10 * n, n))
        validate_spd(batch_moments(z).cov)


def test_translation_equivariance():
    rng = rng_for("moments-shift")
    z = rng.standard_normal((30, 4))
    c = rng.standard_normal(4)
    m0 = batch_moments(z)
    m1 = batch_moments(z + c)
    assert np.max(np.abs(m1.mean - (m0.mean + c))) <= 1e-12
    assert np.max(np.abs(m1.cov - m0.cov)) <= 1e-12


def test_linear_equivariance():
    rng = rng_for("moments-linear")
    z = rng.standard_normal((40, 3))
    A = rand_invertible(rng, 3, cond=20.0)
    m0 = batch_moments(z)
    m1 = batch_moments(z @ A.T)
    want = A @ m0.cov @ A.T
    assert np.max(np.abs(m1.cov - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_unbiasedness_monte_carlo():
    rng = rng_for("moments-unbiased")
    total = np.zeros((2, 2))
    reps = 10_000
    for _ in range(reps):
        z = rng.standard_normal((50, 2))
        total += batch_moments(z).cov
    assert np.max(np.abs(total / reps - np.eye(2))) <= 0.02


def test_check_regime():
    r = check_regime(700, 42)
    assert r.ok and r.ratio == pytest.approx(700 / 42)
    assert check_regime(20, 2).ok
    r = check_regime(64, 32)
    assert not r.ok and r.ratio == pytest.approx(2.0)

