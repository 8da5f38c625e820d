"""Finite-difference audits of the analytic gradients.

Central differences with per-coordinate step 1e-5 * max(1, |value|);
relative error uses a small floor so coordinates whose true gradient is
essentially zero do not divide by noise.
"""

import numpy as np

from .losses import DIST_KINDS, dist_loss
from .network import (
    ClassifierHead,
    DecoderHead,
    ModelSpec,
    full_plan,
    init_model,
    mse_loss,
    softmax_cross_entropy,
    stack_backward,
    stack_forward,
)
from .rng import stream

FD_STEP = 1e-5
REL_FLOOR = 1e-6


def rel_err(a, b, floor=REL_FLOOR):
    return abs(a - b) / max(abs(a), abs(b), floor)


def audit_dist_loss(seed=0, kinds=DIST_KINDS, dims=(2, 3, 5), batch=40, n_coords=50):
    """Max relative FD error of dist_loss feature gradients across kinds/dims."""
    worst = 0.0
    for n in dims:
        rng = stream(seed, 100 + n)
        zs = rng.standard_normal((batch, n)) + 0.3 * rng.standard_normal(n)
        zt = 1.3 * rng.standard_normal((batch, n)) + rng.standard_normal(n)
        for kind in kinds:
            le = dist_loss(zs, zt, kind)
            grads = {"s": le.grad_source, "t": le.grad_target}
            for _ in range(n_coords):
                side = "s" if rng.uniform() < 0.5 else "t"
                z = zs if side == "s" else zt
                i = int(rng.integers(batch))
                j = int(rng.integers(n))
                h = FD_STEP * max(1.0, abs(z[i, j]))
                zp = z.copy()
                zp[i, j] += h
                zm = z.copy()
                zm[i, j] -= h
                if side == "s":
                    fp = dist_loss(zp, zt, kind).value
                    fm = dist_loss(zm, zt, kind).value
                else:
                    fp = dist_loss(zs, zp, kind).value
                    fm = dist_loss(zs, zm, kind).value
                fd = (fp - fm) / (2.0 * h)
                worst = max(worst, rel_err(fd, grads[side][i, j]))
    return worst


def _net_loss(spec, params, x, y):
    plan = full_plan(spec)
    out, caches = stack_forward(plan, params, x)
    if isinstance(spec.head, ClassifierHead):
        loss, dout = softmax_cross_entropy(out, y)
    else:
        loss, dout = mse_loss(out, x)
    return loss, dout, plan, caches


def audit_network(seed=0):
    """Max relative FD error over every layer's weight and bias gradients."""
    specs = [
        ModelSpec(
            input_dim=5,
            encoder_layers=((7, "relu"), (3, "identity")),
            embed_dim=3,
            head=ClassifierHead(num_classes=4),
        ),
        ModelSpec(
            input_dim=6,
            encoder_layers=((8, "tanh"), (2, "identity")),
            embed_dim=2,
            head=DecoderHead(output_dim=6, layers=((5, "relu"),)),
        ),
    ]
    worst = 0.0
    for si, spec in enumerate(specs):
        rng = stream(seed, 200 + si)
        params = init_model(spec, seed + si)
        x = rng.standard_normal((12, spec.input_dim))
        y = rng.integers(0, 4, size=12) if isinstance(spec.head, ClassifierHead) else None

        loss, dout, plan, caches = _net_loss(spec, params, x, y)
        _, grads = stack_backward(plan, params, caches, dout)

        for li, (W, b) in enumerate(params):
            for arr, garr, aj in ((W, grads[li][0], 0), (b, grads[li][1], 1)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    h = FD_STEP * max(1.0, abs(arr[idx]))
                    old = arr[idx]
                    arr[idx] = old + h
                    fp, _, _, _ = _net_loss(spec, params, x, y)
                    arr[idx] = old - h
                    fm, _, _, _ = _net_loss(spec, params, x, y)
                    arr[idx] = old
                    fd = (fp - fm) / (2.0 * h)
                    worst = max(worst, rel_err(fd, garr[idx]))
    return worst

