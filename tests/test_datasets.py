import math

import numpy as np
import pytest

from geomoment.datasets import BlobsConfig, DenoiseConfig, gen_blobs, gen_denoise
from geomoment.moments import batch_moments
from geomoment.network import ClassifierHead, ModelSpec
from geomoment.trainer import TrainConfig, train


def test_blobs_bit_reproducible():
    cfg = BlobsConfig(num_classes=3, samples_per_class=50, input_dim=4, seed=9)
    a = gen_blobs(cfg)
    b = gen_blobs(cfg)
    assert a.source_train.x.tobytes() == b.source_train.x.tobytes()
    assert a.target_train.x.tobytes() == b.target_train.x.tobytes()
    assert np.array_equal(a.target_train_labels, b.target_train_labels)
    assert a.target_eval.x.tobytes() == b.target_eval.x.tobytes()


def test_blobs_no_shift_means_matching_moments():
    cfg = BlobsConfig(
        num_classes=3, samples_per_class=2000, input_dim=4,
        target_rotation=0.0, target_translation=None, seed=3,
    )
    d = gen_blobs(cfg)
    ms = batch_moments(d.source_train.x)
    mt = batch_moments(d.target_train.x)
    scale = np.max(np.abs(ms.cov))
    assert np.max(np.abs(ms.mean - mt.mean)) <= 0.15
    assert np.max(np.abs(ms.cov - mt.cov)) <= 0.15 * scale


def test_blobs_shapes_and_balance():
    cfg = BlobsConfig(num_classes=4, samples_per_class=25, input_dim=5, seed=1)
    d = gen_blobs(cfg)
    assert d.source_train.x.shape == (100, 5)
    assert np.array_equal(np.bincount(d.source_train.y), [25] * 4)
    assert d.target_train.x.shape == (100, 5)
    assert not hasattr(d.target_train, "y")


def test_blobs_translation_length_checked():
    with pytest.raises(ValueError):
        BlobsConfig(input_dim=4, target_translation=(1.0, 2.0))


def test_blobs_rigid_map_is_applied():
    base = BlobsConfig(num_classes=2, samples_per_class=30, input_dim=4, seed=5)
    shifted = BlobsConfig(
        num_classes=2, samples_per_class=30, input_dim=4, seed=5,
        target_rotation=math.pi / 3, target_translation=(1.0, -2.0, 0.5, 0.0),
    )
    d0 = gen_blobs(base)
    d1 = gen_blobs(shifted)
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    R = np.eye(4)
    R[:2, :2] = [[c, -s], [s, c]]
    want = d0.target_train.x @ R.T + np.array([1.0, -2.0, 0.5, 0.0])
    assert np.allclose(d1.target_train.x, want, atol=1e-12)


def test_blobs_pi_rotation_confuses_source_only():
    # input_dim 3 keeps the class circle inside the rotation plane, so a
    # half-turn lands every class on top of the wrong ones
    cfg = BlobsConfig(
        num_classes=3, samples_per_class=150, input_dim=3,
        center_radius=2.2, cov_scale=1.4,
        target_rotation=math.pi, target_translation=None, seed=2,
    )
    d = gen_blobs(cfg)
    spec = ModelSpec(
        input_dim=3, encoder_layers=((16, "relu"), (2, "identity")),
        embed_dim=2, head=ClassifierHead(num_classes=3),
    )
    tc = TrainConfig(
        dist_kind="airm", beta=0.0, eta=1e-8, epochs=30, batch_source=64,
        batch_target=64, learn_rate=1e-3, seed=2,
    )
    rep = train(tc, spec, d.source_train, d.target_train, d.source_eval, d.target_eval)
    assert rep.source_metric[-1] > 0.7
    assert rep.target_metric[-1] <= 0.45  # at or below chance-level behavior


def test_denoise_bit_reproducible():
    cfg = DenoiseConfig(length=32, samples=40, seed=11)
    a = gen_denoise(cfg)
    b = gen_denoise(cfg)
    assert a.source_train.x.tobytes() == b.source_train.x.tobytes()
    assert a.target_train.x.tobytes() == b.target_train.x.tobytes()


def test_denoise_signal_range_and_disjointness():
    cfg = DenoiseConfig(length=32, samples=60, seed=4)
    d = gen_denoise(cfg)
    assert d.source_train.x.min() >= 0.0 and d.source_train.x.max() <= 1.0
    # independent draws never collide exactly
    src = {row.tobytes() for row in d.source_train.x}
    assert all(row.tobytes() not in src for row in d.target_train_refs)


def test_denoise_noise_regime():
    cfg = DenoiseConfig(length=64, samples=400, seed=6)
    d = gen_denoise(cfg)
    noise = d.target_train.x - d.target_train_refs
    noise_energy = float(np.mean(noise**2))
    signal_var = float(d.target_train_refs.var())
    assert noise_energy == pytest.approx(0.4**2 + 0.7**2, rel=0.05)
    assert noise_energy > 2.0 * signal_var


def test_denoise_zero_noise_degenerate():
    cfg = DenoiseConfig(length=32, samples=30, noise_mean=0.0, noise_std=0.0, seed=8)
    d = gen_denoise(cfg)
    assert np.array_equal(d.target_train.x, d.target_train_refs)


def test_denoise_eval_carries_clean_refs():
    d = gen_denoise(DenoiseConfig(length=32, samples=30, seed=1))
    assert d.target_eval.ref is not None
    assert not np.array_equal(d.target_eval.x, d.target_eval.ref)
