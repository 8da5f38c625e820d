"""Unsupervised denoising: reconstruct clean-looking signals from noise.

The source domain holds clean signals and the autoencoder is trained to
reconstruct them. The target domain holds different signals corrupted by
strong Gaussian noise (mean 0.4, std 0.7, larger than the signal
variance). Aligning the latent moments of the two domains steers noisy
inputs onto the latent region the decoder knows how to render, cutting
the reconstruction error against held-out clean references.

Runs in about a minute.
"""

import dataclasses

import numpy as np

from geomoment import DecoderHead, DenoiseConfig, ModelSpec, TrainConfig, gen_denoise, train

DENOISE = DenoiseConfig(length=64, samples=1200)
SPEC = ModelSpec(
    input_dim=64,
    encoder_layers=((24, "tanh"), (2, "identity")),
    head=DecoderHead(layers=((24, "tanh"),)),
)
BASE = TrainConfig(
    dist_kind="airm", beta=0.1, eta=1e-8, epochs=40,
    batch_source=128, batch_target=128, learn_rate=2e-3, seed=0,
)

print(f"{'method':>12s}  {'clean recon':>11s}  {'noisy-target recon':>18s}")
for label, kind, beta in (
    ("source-only", "airm", 0.0),
    ("airm", "airm", 0.1),
    ("hilbert", "hilbert", 0.1),
):
    src, tgt = [], []
    for seed in (0, 1, 2):
        data = gen_denoise(dataclasses.replace(DENOISE, seed=seed))
        cfg = dataclasses.replace(BASE, dist_kind=kind, beta=beta, seed=seed)
        rep = train(cfg, SPEC, data.source_train, data.target_train,
                    data.source_eval, data.target_eval)
        src.append(rep.source_metric[-1])
        tgt.append(rep.target_metric[-1])
    print(f"{label:>12s}  {np.mean(src):11.4f}  {np.mean(tgt):18.4f}")
