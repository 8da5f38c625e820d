import numpy as np
import pytest

from geomoment.embedding import GaussianMoments
from geomoment.errors import BatchTooSmall
from geomoment.moments import batch_moments, check_regime
from geomoment.spd import validate_spd
from helpers import count_lapack, rand_invertible, rng_for


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


def test_non_finite_batch_rejected():
    z = rng_for("moments-nan").standard_normal((10, 3))
    for bad in (np.nan, np.inf):
        z_bad = z.copy()
        z_bad[4, 1] = bad
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            batch_moments(z_bad)
    with pytest.raises(ValueError):
        batch_moments(np.ones(5))


def test_batch_moments_equal_checked_moments_bitwise():
    # the covariance is exactly symmetric as built, so skipping
    # GaussianMoments' symmetrization changes no bit
    rng = rng_for("moments-trusted")
    for _ in range(50):
        n = int(rng.integers(1, 9))
        z = rng.standard_normal((int(rng.integers(2, 60)), n)) * rng.uniform(0.1, 10.0, n)
        m = batch_moments(z + rng.standard_normal(n))
        checked = GaussianMoments(mean=m.mean, cov=m.cov)
        assert np.array_equal(m.cov, m.cov.T)
        assert np.array_equal(checked.cov, m.cov) and np.array_equal(checked.mean, m.mean)
        assert m.cov.shape == (n, n) and m.mean.shape == (n,)


def test_cholesky_factor_computed_once_on_factored_moments(monkeypatch):
    calls = []
    count_lapack(monkeypatch, "_POTRF", calls)
    m = batch_moments(rng_for("moments-chol").standard_normal((20, 3)))
    L = m.chol
    assert np.allclose(L @ L.T, m.cov, rtol=0, atol=1e-14)
    # plain moments keep no factor; factored ones compute it once and keep it
    assert np.array_equal(m.chol, L) and calls == [(3, 3)] * 2
    f = m.factored()
    assert f.mean is m.mean and f.cov is m.cov and calls == [(3, 3)] * 3
    assert f.chol is f.chol and np.array_equal(f.chol, L) and calls == [(3, 3)] * 3
    assert "_chol" not in m.__dict__
    singular = batch_moments(np.tile([1.0, 2.0], (5, 1)))  # no factor: an all-NaN one
    for chol in (singular.chol, singular.factored().chol):
        assert chol.shape == (2, 2) and np.isnan(chol).all()


def test_stacked_moments_equal_each_batch_alone(monkeypatch):
    # one Cholesky per slice, each as alone; a failed slice is NaN
    rng = rng_for("moments-stack")
    batches = [rng.standard_normal((20, 3)) for _ in range(3)]
    calls = []
    count_lapack(monkeypatch, "_POTRF", calls)
    for singular in (None, 1):
        stack = np.stack([np.tile([1.0, 2.0, 3.0], (20, 1)) if i == singular else z
                          for i, z in enumerate(batches)])
        calls.clear()
        stacked = batch_moments(stack).factored()
        runs = [stacked[i] for i in range(len(stack))]
        assert calls == [(3, 3)] * 3
        for i, (run, z) in enumerate(zip(runs, stack, strict=True)):
            alone = batch_moments(z).factored()
            assert run.mean.tobytes() == alone.mean.tobytes()
            assert run.cov.tobytes() == alone.cov.tobytes()
            assert np.isnan(run.chol).all() == (i == singular)
            assert run.chol.tobytes() == alone.chol.tobytes()
        # a subset of the runs keeps their factors, with no new factorization
        calls.clear()
        pair = stacked[[0, 2]]
        assert pair.chol.tobytes() == np.stack([runs[0].chol, runs[2].chol]).tobytes()
        assert pair.mean.tobytes() == stacked.mean[[0, 2]].tobytes() and calls == []


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

