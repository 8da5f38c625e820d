"""Covariate-shift classification: source-only vs. moment-matching kinds.

Three Gaussian classes; the target domain is the same generative process
pushed through a rigid rotation (pi/3) plus a translation. Training is
two-phase: task-only until det(P_S) clears the threshold, then the
weighted distance loss joins in. Labels of the target domain are used
only to measure accuracy, never to train.

Runs in about half a minute.
"""

import dataclasses
import math

import numpy as np

from geomoment import (
    BlobsConfig,
    ClassifierHead,
    ModelSpec,
    TrainConfig,
    gen_blobs,
    train,
)

BLOBS = BlobsConfig(
    num_classes=3,
    samples_per_class=300,
    input_dim=4,
    center_radius=2.2,
    cov_scale=1.4,
    target_rotation=math.pi / 3,
    target_translation=(0.0, 0.0, -1.8, 1.2),
)
SPEC = ModelSpec(
    input_dim=4,
    encoder_layers=((32, "relu"), (2, "identity")),
    head=ClassifierHead(num_classes=3),
)
BASE = TrainConfig(
    dist_kind="airm", beta=0.1, eta=0.02, epochs=60,
    batch_source=128, batch_target=128, learn_rate=1e-3, seed=0,
)

seeds = (0, 1, 2)
methods = [
    ("source-only", "airm", 0.0),
    ("airm", "airm", 0.1),
    ("hilbert", "hilbert", 0.1),
    ("mean_euclid", "mean_euclid", 0.1),
    ("coral_frob", "coral_frob", 0.1),
    ("log_euclid", "log_euclid", 0.1),
]

print(f"{'method':>12s}  {'src acc':>8s}  {'tgt acc':>8s}")
for label, kind, beta in methods:
    src, tgt = [], []
    for seed in seeds:
        data = gen_blobs(dataclasses.replace(BLOBS, seed=seed))
        cfg = dataclasses.replace(BASE, dist_kind=kind, beta=beta, seed=seed)
        rep = train(cfg, SPEC, data.source_train, data.target_train,
                    data.source_eval, data.target_eval)
        src.append(rep.source_metric[-1])
        tgt.append(rep.target_metric[-1])
    print(f"{label:>12s}  {np.mean(src):8.3f}  {np.mean(tgt):8.3f}")
