"""Finite-difference audits of the analytic gradients.

central_diff is the package's one stencil, the four-point central
difference (-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / 12h with step
h = 1e-4 * max(1, |x_i|). rel_err floors its denominator at 1e-6, so
coordinates whose true gradient is essentially zero do not divide by
noise; an audit passes when its worst error is at most FD_BOUND.
"""

import numpy as np

from .losses import DIST_KINDS, dist_loss
from .network import (
    ClassifierHead,
    DecoderHead,
    ModelSpec,
    full_plan,
    init_model,
    stack_backward,
    stack_forward,
    task_loss,
)
from .rng import stream

FD_STEP = 1e-4
REL_FLOOR = 1e-6
FD_BOUND = 1e-5  # the largest rel_err an audit accepts
AUDIT_DIMS, AUDIT_BATCH, AUDIT_COORDS = (2, 3, 5), 40, 50  # audit_dist_loss's widths and draws


def central_diff(f, x, idx, h_max=np.inf, mirror=False):
    """Four-point central difference of f(x) along the coordinate x[idx].

    x is moved in place and restored exactly. The step is
    FD_STEP * max(1, |x[idx]|), capped at h_max. With mirror, x[j, i] of
    idx = (i, j) moves too, so on a symmetric matrix an off-diagonal
    coordinate reads G_ij + G_ji of the gradient G.
    """
    twin = idx[::-1] if mirror else idx
    old, old_twin = x[idx], x[twin]
    h = min(FD_STEP * max(1.0, abs(old)), h_max)
    total = 0.0
    try:
        for k, w in ((2, -1), (1, 8), (-1, -8), (-2, 1)):
            x[idx], x[twin] = old + k * h, old_twin + k * h
            total += w * f(x)
    finally:
        x[twin], x[idx] = old_twin, old
    return total / (12.0 * h)


def rel_err(a, b):
    """Max over entries of |a - b| / max(|a|, |b|, REL_FLOOR)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_FLOOR)))


def audit_dist_loss(seed=0, kinds=DIST_KINDS):
    """Max relative FD error of dist_loss feature gradients across kinds and AUDIT_DIMS."""
    worst = 0.0
    for n in AUDIT_DIMS:
        rng = stream(seed, 100 + n)
        zs = rng.standard_normal((AUDIT_BATCH, n)) + 0.3 * rng.standard_normal(n)
        zt = 1.3 * rng.standard_normal((AUDIT_BATCH, n)) + rng.standard_normal(n)
        for kind in kinds:
            le = dist_loss(zs, zt, kind)
            for _ in range(AUDIT_COORDS):
                source = rng.uniform() < 0.5
                idx = (int(rng.integers(AUDIT_BATCH)), int(rng.integers(n)))
                z, grad = (zs, le.grad_source) if source else (zt, le.grad_target)
                fd = central_diff(lambda _: dist_loss(zs, zt, kind).value, z, idx)
                worst = max(worst, rel_err(fd, grad[idx]))
    return worst


def _net_loss(spec, params, x, y):
    plan = full_plan(spec)
    out, caches = stack_forward(plan, params, x)
    return *task_loss(spec, out, x, y), plan, caches


def audit_network(seed=0):
    """Max relative FD error over every layer's weight and bias gradients."""
    specs = [
        ModelSpec(
            input_dim=5,
            encoder_layers=((7, "relu"), (3, "identity")),
            head=ClassifierHead(num_classes=4),
        ),
        ModelSpec(
            input_dim=6,
            encoder_layers=((8, "tanh"), (2, "identity")),
            head=DecoderHead(layers=((5, "relu"),)),
        ),
    ]
    worst = 0.0
    for si, spec in enumerate(specs):
        rng = stream(seed, 200 + si)
        params = init_model(spec, seed + si)
        x = rng.standard_normal((12, spec.input_dim))
        y = rng.integers(0, 4, size=12) if isinstance(spec.head, ClassifierHead) else None

        loss, dout, plan, caches = _net_loss(spec, params, x, y)
        _, grads = stack_backward(plan, params, caches, dout, input_grad=False)

        for layer, layer_grads in zip(params, grads):
            for arr, garr in zip(layer, layer_grads):
                for idx in np.ndindex(arr.shape):
                    fd = central_diff(lambda _: _net_loss(spec, params, x, y)[0], arr, idx)
                    worst = max(worst, rel_err(fd, garr[idx]))
    return worst
