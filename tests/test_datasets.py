import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomoment.datasets import (
    BlobsConfig,
    DenoiseConfig,
    _block_words,
    _draw_signals,
    _unit_draws,
    gen_blobs,
    gen_denoise,
)
from geomoment.moments import batch_moments
from geomoment.network import ClassifierHead, ModelSpec
from geomoment.rng import (
    STREAM_NOISE_EVAL,
    STREAM_NOISE_TRAIN,
    STREAM_SOURCE_EVAL,
    STREAM_SOURCE_TRAIN,
    STREAM_TARGET_EVAL,
    STREAM_TARGET_TRAIN,
    stream,
)
from geomoment.trainer import TrainConfig, train

SIGNAL_STREAMS = (STREAM_SOURCE_TRAIN, STREAM_TARGET_TRAIN, STREAM_SOURCE_EVAL, STREAM_TARGET_EVAL)


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
        head=ClassifierHead(num_classes=3),
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


def _reference_signals(cfg, stream_id, count):
    """One signal at a time, one rng.uniform per value: the reference for _draw_signals."""
    rng = stream(cfg.seed, stream_id)
    t = np.arange(cfg.length) / cfg.length
    out = np.empty((count, cfg.length))
    for i in range(count):
        parts = rng.integers(1, 4)
        s = np.zeros(cfg.length)
        for _ in range(parts):
            freq = rng.uniform(0.5, 4.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            amp = rng.uniform(0.5, 1.0)
            s += amp * np.sin(2.0 * math.pi * freq * t + phase)
        lo, hi = s.min(), s.max()
        out[i] = (s - lo) / (hi - lo)
    return out


def _assert_rows_span_unit_interval(x):
    assert np.all(x.min(axis=1) == 0.0)
    assert np.all(x.max(axis=1) == 1.0)


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(4, 70),
    samples=st.integers(2, 40),
    seed=st.integers(0, 2**63 - 1),
    stream_id=st.sampled_from(SIGNAL_STREAMS),
)
def test_draw_signals_matches_per_signal_reference_bitwise(length, samples, seed, stream_id):
    cfg = DenoiseConfig(length=length, samples=samples, seed=seed)
    got = _draw_signals(cfg, stream_id, samples)
    assert got.tobytes() == _reference_signals(cfg, stream_id, samples).tobytes()
    _assert_rows_span_unit_interval(got)


@pytest.mark.parametrize("seed", [0, 2**63 + 7])
def test_gen_denoise_full_size_matches_reference_bitwise(seed):
    cfg = DenoiseConfig(length=64, samples=1200, seed=seed)
    d = gen_denoise(cfg)
    src, tgt_ref, src_eval, tgt_eval_ref = (
        _reference_signals(cfg, sid, cfg.samples) for sid in SIGNAL_STREAMS
    )
    noise_tr = stream(cfg.seed, STREAM_NOISE_TRAIN).normal(
        cfg.noise_mean, cfg.noise_std, tgt_ref.shape)
    noise_ev = stream(cfg.seed, STREAM_NOISE_EVAL).normal(
        cfg.noise_mean, cfg.noise_std, tgt_eval_ref.shape)
    pairs = (
        (d.source_train.x, src),
        (d.target_train.x, tgt_ref + noise_tr),
        (d.target_train_refs, tgt_ref),
        (d.source_eval.x, src_eval),
        (d.source_eval.ref, src_eval),
        (d.target_eval.x, tgt_eval_ref + noise_ev),
        (d.target_eval.ref, tgt_eval_ref),
    )
    for got, want in pairs:
        assert got.shape == (1200, 64)
        assert got.tobytes() == want.tobytes()
    for clean in (d.source_train.x, d.target_train_refs, d.source_eval.x, d.target_eval.ref):
        _assert_rows_span_unit_interval(clean)


def _injected_philox(words):
    """A Philox stream whose next raw words are `words` (at most 4), then its counter's."""
    bits = np.random.Philox(key=[5, 7])
    state = bits.state
    state["buffer"] = np.array([0] * (4 - len(words)) + list(words), dtype=np.uint64)
    state["buffer_pos"] = 4 - len(words)
    bits.state = state
    return bits


def _numpy_draws(words, count):
    """Part counts and per-signal unit draws, one numpy call at a time, of _injected_philox(words)."""
    rng = np.random.Generator(_injected_philox(words))
    parts, draws = [], []
    for _ in range(count):
        parts.append(int(rng.integers(1, 4)))
        draws.append(rng.random((parts[-1], 3)))
    return parts, draws


def _assert_same_draws(got, want):
    parts, u = got
    assert parts.tolist() == want[0]
    for i, drawn in enumerate(want[1]):
        assert u[i, : len(drawn)].tobytes() == drawn.tobytes()


def _unit(words):
    return [(int(w) >> 11) * 2.0**-53 for w in words]


def _count(half):
    """Part count of an accepted 32-bit half by Lemire's rule for integers(1, 4)."""
    return 1 + ((3 * half) >> 32)


HALF = 2**32
X3 = 0xAAAAAAAB  # 3x = 2 * 2**32 + 1: three parts
X1 = 0x55555555  # 3x = 2**32 - 1: one part


# numpy's buffered_bounded_lemire_uint32 for integers(1, 4) rejects a half x
# iff (3x mod 2**32) < (2**32 - 3) % 3 = 1, that is x == 0, and reads the
# next 32-bit half in its place.


def test_unit_draws_reject_a_zero_low_half_as_numpy_does():
    # signal 0 rejects w0's low half, takes its high one and draws w1..w9
    words = [X3 * HALF, 2**63, 2**11, 2**64 - 1]
    bits = _injected_philox(words)
    block = bits.random_raw(_block_words(2))
    parts, u = _unit_draws(block, 2, bits.random_raw)
    assert parts[0] == 3
    assert u[0, 0].tolist() == [0.5, 2.0**-53, 1.0 - 2.0**-53]
    assert u[0].ravel().tolist() == _unit(block[1:10])
    assert parts[1] == _count(int(block[10]) % HALF)  # a new word's low half
    assert u[1, : parts[1]].ravel().tolist() == _unit(block[11 : 11 + 3 * parts[1]])
    _assert_same_draws((parts, u), _numpy_draws(words, 2))


def test_unit_draws_reject_a_zero_kept_half_as_numpy_does():
    # signal 0 takes w0's low half and draws w1..w3; signal 1 rejects the
    # kept high half, 0, and reads the low half of the word after them
    words = [X1, 2**63, 2**62, 2**61]
    bits = _injected_philox(words)
    block = bits.random_raw(_block_words(2))
    parts, u = _unit_draws(block, 2, bits.random_raw)
    assert parts[0] == 1 and u[0, 0].tolist() == [0.5, 0.25, 0.125]
    assert parts[1] == _count(int(block[4]) % HALF)
    assert u[1, : parts[1]].ravel().tolist() == _unit(block[5 : 5 + 3 * parts[1]])
    _assert_same_draws((parts, u), _numpy_draws(words, 2))


def test_unit_draws_fetch_past_their_block_after_rejections():
    # four zero halves push one three-part signal's draws to w3..w11,
    # past its block of _block_words(1) = 10 words
    words = [0, 0, X3, 2**63]
    bits = _injected_philox(words)
    block = bits.random_raw(_block_words(1))
    assert len(block) == 10
    parts, u = _unit_draws(block, 1, bits.random_raw)
    assert parts.tolist() == [3]
    assert u[0].ravel().tolist() == _unit(_injected_philox(words).random_raw(12)[3:])
    _assert_same_draws((parts, u), _numpy_draws(words, 1))


@pytest.mark.parametrize("words", [[0, 0, X3, 2**63], [5 * HALF, 0, X1, 7]])
def test_unit_draws_read_the_same_from_any_block_prefix(words):
    # a block cut anywhere, the rest fetched through `more` mid-scan or at
    # its end, reads numpy's draws
    count = 3
    full = _injected_philox(words).random_raw(_block_words(count) + 12)
    want = _numpy_draws(words, count)
    for cut in range(len(full) + 1):
        fetched = []

        def more(n, cut=cut, fetched=fetched):
            start = cut + sum(fetched)
            fetched.append(n)
            return full[start : start + n]

        _assert_same_draws(_unit_draws(full[:cut], count, more), want)
        assert cut + sum(fetched) <= len(full)


NON_FINITE_SETTINGS = {
    "noise_mean": lambda v: DenoiseConfig(noise_mean=v),
    "noise_std": lambda v: DenoiseConfig(noise_std=v),
    "center_radius": lambda v: BlobsConfig(input_dim=4, center_radius=v),
    "cov_scale": lambda v: BlobsConfig(input_dim=4, cov_scale=v),
    "target_rotation": lambda v: BlobsConfig(input_dim=4, target_rotation=v),
    "target_translation": lambda v: BlobsConfig(input_dim=4, target_translation=(0.0, v, 0.0, 0.0)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_SETTINGS))
def test_dataset_configs_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_SETTINGS[field](value)
