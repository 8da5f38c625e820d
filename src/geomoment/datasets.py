"""Synthetic covariate-shift datasets.

Both generators are pure functions of their config: every draw comes
from a Philox stream keyed by (config seed, documented stream id), so
the same config always yields byte-identical arrays. The order of the
draws defines a dataset: each denoise signal takes one
``integers(1, 4)`` and one ``random((parts, 3))``, in signal order
(see ``_draw_signals``). Those values are read out of one
``bit_generator.random_raw`` block of the stream, which yields them bit
for bit because numpy draws them from the same 64-bit Philox words:
``integers(1, 4)`` maps a 32-bit half, the low one of a new word and
then the kept high one, by Lemire's rule, and ``random()`` takes the top
53 bits of a whole word (see ``_unit_draws``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import (
    STREAM_NOISE_EVAL,
    STREAM_NOISE_TRAIN,
    STREAM_SOURCE_EVAL,
    STREAM_SOURCE_TRAIN,
    STREAM_TARGET_EVAL,
    STREAM_TARGET_TRAIN,
    stream,
)
from .trainer import EvalSet, FeatureSet, LabeledSet

# Within-class std profile (scaled by cov_scale): anisotropic in the
# rotation plane so second moments actually see the rigid map; a purely
# isotropic mixture of equally spaced blobs has rotation-invariant
# moments and no moment-matching method could recover the shift.
_PLANE_PROFILE = (1.0, 0.45)
_OFFPLANE_PROFILE = 0.25

# Fraction of each center's energy lying in the rotation plane (the rest
# sits in dims 2 and 3 when available). Class axes rarely align with a
# shift's rotation plane; keeping most of the center geometry off-plane
# means the rotation displaces centers by only part of its angle while
# still rotating every within-class covariance ellipse in full.
_PLANE_ENERGY = 0.15


@dataclass(frozen=True)
class BlobsConfig:
    num_classes: int = 3
    samples_per_class: int = 500
    input_dim: int = 10
    center_radius: float = 4.0
    cov_scale: float = 0.8
    target_rotation: float = 0.0  # radians, applied in the (0, 1) plane
    target_translation: tuple = None  # length input_dim; None means zero
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.input_dim < 2:
            raise ValueError("need input_dim >= 2 for the rotation plane")
        if self.samples_per_class < 1:
            raise ValueError("need at least one sample per class")
        for name in ("center_radius", "cov_scale", "target_rotation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        t = self.target_translation
        if t is None:
            t = (0.0,) * self.input_dim
        t = tuple(float(v) for v in t)
        if len(t) != self.input_dim:
            raise ValueError(
                f"translation length {len(t)} must equal input_dim {self.input_dim}"
            )
        if not all(math.isfinite(v) for v in t):
            raise ValueError("target_translation entries must be finite")
        object.__setattr__(self, "target_translation", t)


@dataclass(frozen=True)
class BlobsData:
    source_train: LabeledSet
    target_train: FeatureSet
    target_train_labels: np.ndarray  # evaluation side-channel, never given to train()
    source_eval: EvalSet
    target_eval: EvalSet


def _blob_centers(cfg):
    """Equally spaced centers on a circle tilted out of the rotation plane.

    With input_dim >= 4 the circle lives in the span of (e0+e2)/sqrt(2)
    and (e1+e3)/sqrt(2), so a rotation of the (0,1) plane displaces the
    centers by less than its full angle; class axes rarely align with a
    shift's rotation plane in the wild, and keeping part of the class
    geometry off-plane makes the benchmark's correct alignment the
    nearest one. Below 4 input dims the circle falls back to the (0,1)
    plane itself.
    """
    angles = 2.0 * math.pi * np.arange(cfg.num_classes) / cfg.num_classes
    axis0 = np.zeros(cfg.input_dim)
    axis1 = np.zeros(cfg.input_dim)
    if cfg.input_dim >= 4:
        in_plane = math.sqrt(_PLANE_ENERGY)
        off_plane = math.sqrt(1.0 - _PLANE_ENERGY)
        axis0[0], axis0[2] = in_plane, off_plane
        axis1[1], axis1[3] = in_plane, off_plane
    else:
        axis0[0] = 1.0
        axis1[1] = 1.0
    return cfg.center_radius * (
        np.outer(np.cos(angles), axis0) + np.outer(np.sin(angles), axis1)
    )


def _class_stds(cfg):
    stds = np.full(cfg.input_dim, _OFFPLANE_PROFILE)
    stds[0], stds[1] = _PLANE_PROFILE
    return cfg.cov_scale * stds


def _rotation_matrix(cfg):
    R = np.eye(cfg.input_dim)
    c, s = math.cos(cfg.target_rotation), math.sin(cfg.target_rotation)
    R[0, 0], R[0, 1] = c, -s
    R[1, 0], R[1, 1] = s, c
    return R


def _draw_split(cfg, stream_id):
    rng = stream(cfg.seed, stream_id)
    centers = _blob_centers(cfg)
    stds = _class_stds(cfg)
    xs = []
    for c in range(cfg.num_classes):
        g = rng.standard_normal((cfg.samples_per_class, cfg.input_dim))
        xs.append(centers[c] + g * stds)
    x = np.vstack(xs)
    y = np.repeat(np.arange(cfg.num_classes), cfg.samples_per_class)
    return x, y


def gen_blobs(cfg):
    """Labeled source blobs and their rigidly shifted target counterpart.

    The target split is an independent draw from the same generative
    process pushed through rotation + translation; labels ride along
    with the map (covariate shift), but the trainer-visible target set
    carries none of them.
    """
    R = _rotation_matrix(cfg)
    t = np.array(cfg.target_translation)

    xs, ys = _draw_split(cfg, STREAM_SOURCE_TRAIN)
    xt, yt = _draw_split(cfg, STREAM_TARGET_TRAIN)
    xt = xt @ R.T + t
    xse, yse = _draw_split(cfg, STREAM_SOURCE_EVAL)
    xte, yte = _draw_split(cfg, STREAM_TARGET_EVAL)
    xte = xte @ R.T + t

    return BlobsData(
        source_train=LabeledSet(x=xs, y=ys),
        target_train=FeatureSet(x=xt),
        target_train_labels=yt,
        source_eval=EvalSet(x=xse, y=yse),
        target_eval=EvalSet(x=xte, y=yte),
    )


@dataclass(frozen=True)
class DenoiseConfig:
    length: int = 64
    samples: int = 2000  # per domain per split
    noise_mean: float = 0.4
    noise_std: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.length < 4 or self.samples < 2:
            raise ValueError("signal length >= 4 and samples >= 2 required")
        if not (math.isfinite(self.noise_mean) and math.isfinite(self.noise_std)):
            raise ValueError("noise_mean and noise_std must be finite")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


@dataclass(frozen=True)
class DenoiseData:
    source_train: LabeledSet  # clean signals; the task reconstructs them
    target_train: FeatureSet  # noisy signals, references withheld
    target_train_refs: np.ndarray  # clean references, evaluation side-channel
    source_eval: EvalSet
    target_eval: EvalSet


def _block_words(count):
    """Raw words that `count` signals read at most when no part count is rejected."""
    return (count + 1) // 2 + 9 * count


def _unit_draws(words, count, more):
    """Part counts and ``(count, 3, 3)`` unit draws of `count` signals, read from raw words.

    `words` are a fresh Philox stream's first ``random_raw`` words and
    ``more(n)`` returns its next `n`. Each part count is read as numpy's
    ``integers(1, 4)`` reads it: ``next_uint32`` takes the low 32-bit half
    ``x`` of a new word and keeps the high half for the next call, and
    Lemire's rule maps ``x`` to ``1 + ((3 x) >> 32)``, rejecting only
    ``x = 0`` (its threshold is ``(2**32 - 3) % 3 = 1``) for the next half. The
    unit draws of the parts are then the whole words that follow, each
    ``(w >> 11) * 2**-53`` as ``random()`` reads it. Slot k of a signal
    holds a draw only if the signal drew part k.
    """
    parts = np.empty(count, dtype=np.int64)
    starts = np.empty(count, dtype=np.int64)
    pos, high = 0, None  # the next word, and the unread high half of the last count word
    for i in range(count):
        x = 0
        while not x:
            if high is not None:
                x, high = high, None
                continue
            if pos >= len(words):  # rejections overran the block
                words = np.concatenate((words, more(pos - len(words) + _block_words(count - i))))
            w = int(words[pos])
            pos += 1
            x, high = w & 0xFFFFFFFF, w >> 32
        parts[i] = p = 1 + ((3 * x) >> 32)
        starts[i] = pos
        pos += 3 * p
    if pos > len(words):
        words = np.concatenate((words, more(pos - len(words))))
    slots = words.take(starts[:, None] + np.arange(9), mode="clip").reshape(count, 3, 3)
    return parts, (slots >> np.uint64(11)) * 2.0**-53


def _draw_signals(cfg, stream_id, count):
    """Sums of 1 to 3 random sinusoids, min-max normalized to [0, 1] per row.

    The draw contract, which defines the dataset: for each signal in
    order, one ``rng.integers(1, 4)`` (its part count) and then one
    ``rng.random((parts, 3))``, the unit draws of each part's
    (freq, phase, amp), mapped as ``low + (high - low) * u`` like
    ``rng.uniform``. The draws are read from one ``random_raw`` block of
    the stream (``_unit_draws``). The parts are summed in order onto
    zeros, each wave built only for the signals that drew it.
    """
    bits = stream(cfg.seed, stream_id).bit_generator
    parts, u = _unit_draws(bits.random_raw(_block_words(count)), count, bits.random_raw)
    low, high = np.array([0.5, 0.0, 0.5]), np.array([4.0, 2.0 * math.pi, 1.0])
    freq, phase, amp = np.moveaxis(low + (high - low) * u, 2, 0)[..., None]
    t = np.arange(cfg.length) / cfg.length
    s = np.zeros((count, cfg.length))
    buf = np.empty_like(s)  # each wave, in the rows of the signals that drew it
    for k in range(3):
        rows = np.flatnonzero(parts > k) if k else slice(None)
        wave = buf[: np.count_nonzero(parts > k)]
        np.multiply(2.0 * math.pi * freq[rows, k], t, out=wave)
        np.add(wave, phase[rows, k], out=wave)
        np.sin(wave, out=wave)
        np.multiply(amp[rows, k], wave, out=wave)
        s[rows] += wave
    lo = s.min(axis=1, keepdims=True)
    s -= lo
    s /= s.max(axis=1, keepdims=True)
    return s


def gen_denoise(cfg):
    """Clean source signals and an independent noisy target domain."""
    src = _draw_signals(cfg, STREAM_SOURCE_TRAIN, cfg.samples)
    tgt_ref = _draw_signals(cfg, STREAM_TARGET_TRAIN, cfg.samples)
    src_eval = _draw_signals(cfg, STREAM_SOURCE_EVAL, cfg.samples)
    tgt_eval_ref = _draw_signals(cfg, STREAM_TARGET_EVAL, cfg.samples)

    # each noisy set is its clean signals added into their noise, in place
    tgt_noisy = stream(cfg.seed, STREAM_NOISE_TRAIN).normal(
        cfg.noise_mean, cfg.noise_std, tgt_ref.shape)
    tgt_noisy += tgt_ref
    tgt_eval_noisy = stream(cfg.seed, STREAM_NOISE_EVAL).normal(
        cfg.noise_mean, cfg.noise_std, tgt_eval_ref.shape)
    tgt_eval_noisy += tgt_eval_ref

    return DenoiseData(
        source_train=LabeledSet(x=src, y=None),
        target_train=FeatureSet(x=tgt_noisy),
        target_train_refs=tgt_ref,
        source_eval=EvalSet(x=src_eval, ref=src_eval),
        target_eval=EvalSet(x=tgt_eval_noisy, ref=tgt_eval_ref),
    )
