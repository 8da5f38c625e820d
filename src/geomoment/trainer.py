"""Two-phase gated training of an encoder plus task head.

The combined objective is task loss + beta * distance loss. Every step
monitors det(P_S), the determinant of the embedded source-batch
moments; the adaptation term is skipped until the determinant first
exceeds the threshold eta, after which the latch stays open for the
rest of the run. Target labels never enter the optimization path.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import schur_gate
from .errors import GateClosed, NonFiniteLoss, RegimeViolation
from .losses import DIST_KINDS, GATE_CLOSED_REASONS, ZERO_GRAD_REASONS, dist_loss
from .matrixio import csv_line
from .moments import batch_moments, check_regime
from .network import (
    ClassifierHead,
    encoder_plan,
    head_plan,
    init_model,
    make_optimizer,
    model_forward,
    mse_loss,
    softmax_cross_entropy,
    stack_backward,
    stack_forward,
)
from .rng import STREAM_SOURCE_BATCH, STREAM_TARGET_BATCH, stream

REPORT_HEADER = (
    "epoch,loss_task,loss_dist,det_PS,gate_on,source_metric,target_metric,skipped_steps"
)


@dataclass(frozen=True)
class LabeledSet:
    """Inputs with labels; y may be None for reconstruction tasks."""

    x: np.ndarray
    y: np.ndarray = None


@dataclass(frozen=True)
class FeatureSet:
    """Trainer-visible unlabeled inputs. Deliberately has no label field."""

    x: np.ndarray


@dataclass(frozen=True)
class EvalSet:
    """Held-out measurement set: labels for accuracy or clean refs for MSE."""

    x: np.ndarray
    y: np.ndarray = None
    ref: np.ndarray = None


@dataclass(frozen=True)
class TrainConfig:
    dist_kind: str
    beta: float
    eta: float
    epochs: int
    batch_source: int
    batch_target: int
    learn_rate: float
    seed: int

    def __post_init__(self):
        if self.dist_kind not in DIST_KINDS:
            raise ValueError(f"dist_kind must be one of {DIST_KINDS}")
        if not self.beta >= 0:
            raise ValueError("beta must be >= 0")
        if not self.eta > 0:
            raise ValueError("eta must be positive (inf allowed)")
        if self.epochs < 1 or self.batch_source < 2 or self.batch_target < 2:
            raise ValueError("epochs >= 1 and batch sizes >= 2 required")
        if not self.learn_rate > 0:
            raise ValueError("learn_rate must be positive")


@dataclass(frozen=True)
class TrainReport:
    loss_task: np.ndarray
    loss_dist: np.ndarray
    det_ps: np.ndarray
    gate_on: np.ndarray
    source_metric: np.ndarray
    target_metric: np.ndarray
    skipped_steps: np.ndarray
    skipped_steps_by_reason: dict  # GateClosed reason -> adaptation steps it skipped
    gate_open_epoch: int  # 1-based; -1 when the gate never opened
    zeroed_grad_steps: dict  # reason -> adaptation steps whose distance gradients were zeroed
    params: list = field(repr=False)

    @property
    def epochs(self):
        return self.loss_task.size

    def to_csv_text(self):
        cols = (np.arange(1, self.epochs + 1), self.loss_task, self.loss_dist, self.det_ps,
                self.gate_on.astype(int), self.source_metric, self.target_metric,
                self.skipped_steps)
        keys = REPORT_HEADER.split(",")
        rows = (dict(zip(keys, row)) for row in zip(*(c.tolist() for c in cols)))
        return REPORT_HEADER + "\n" + "".join(csv_line(r, REPORT_HEADER) for r in rows)


def evaluate(params, spec, dataset):
    """Accuracy for classifier heads, reconstruction MSE for decoder heads."""
    _, out, _, _ = model_forward(spec, params, dataset.x)
    if isinstance(spec.head, ClassifierHead):
        return float(np.mean(out.argmax(axis=1) == dataset.y))
    ref = dataset.ref if dataset.ref is not None else dataset.x
    return float(np.mean((out - ref) ** 2))


def _task_loss(spec, out, xb, yb):
    if isinstance(spec.head, ClassifierHead):
        return softmax_cross_entropy(out, yb)
    return mse_loss(out, xb)


def train(config, spec, source, target, eval_source=None, eval_target=None):
    """Run the gated two-phase optimization and return the epoch report.

    source is a LabeledSet, target a FeatureSet (no labels, by type).
    The optional eval sets only feed the per-epoch metric columns.
    """
    regime = check_regime(config.batch_source, spec.embed_dim)
    if not regime.ok:
        raise RegimeViolation(
            f"batch_source={config.batch_source} is below 10 x embed_dim="
            f"{spec.embed_dim} (ratio {regime.ratio:.2f})"
        )
    if isinstance(spec.head, ClassifierHead) and source.y is None:
        raise ValueError("classifier task needs source labels")

    params = init_model(spec, config.seed)
    opt = make_optimizer(params, config.learn_rate)
    ep = encoder_plan(spec)
    hp = head_plan(spec)
    n_enc = len(ep)

    rs = stream(config.seed, STREAM_SOURCE_BATCH)
    rt = stream(config.seed, STREAM_TARGET_BATCH)
    n_s = source.x.shape[0]
    n_t = target.x.shape[0]
    bs = min(config.batch_source, n_s)
    bt = min(config.batch_target, n_t)
    steps_per_epoch = max(1, n_s // bs)

    latch = False
    gate_open_epoch = -1
    cols = {
        k: np.zeros(config.epochs)
        for k in ("loss_task", "loss_dist", "det_ps", "source_metric", "target_metric")
    }
    gate_on = np.zeros(config.epochs, dtype=bool)
    skipped = np.zeros(config.epochs, dtype=int)
    skipped_by_reason = dict.fromkeys(GATE_CLOSED_REASONS, 0)
    zeroed = dict.fromkeys(ZERO_GRAD_REASONS, 0)

    for epoch in range(config.epochs):
        task_sum = 0.0
        dist_sum = 0.0
        dist_steps = 0
        det_sum = 0.0
        for step in range(steps_per_epoch):
            idx_s = rs.choice(n_s, size=bs, replace=False)
            idx_t = rt.choice(n_t, size=bt, replace=False)
            xb = source.x[idx_s]
            yb = source.y[idx_s] if source.y is not None else None

            z_s, out, enc_caches, head_caches = model_forward(spec, params, xb)
            loss_task, dout = _task_loss(spec, out, xb, yb)
            task_sum += loss_task
            if not math.isfinite(loss_task):
                raise NonFiniteLoss(
                    f"task loss became non-finite at epoch {epoch + 1} step {step + 1}",
                    record={"epoch": epoch + 1, "step": step + 1, "loss_task": loss_task},
                )
            dz, head_grads = stack_backward(hp, params[n_enc:], head_caches, dout)

            # shared by the gate and the distance loss, and so is its covariance factor
            ms = batch_moments(z_s).factored()
            gate = schur_gate(ms, config.eta)
            det_sum += gate.det
            if gate.open and not latch:
                latch = True
                gate_open_epoch = epoch + 1

            grads_t = None
            if latch and config.beta > 0:
                z_t, t_caches = stack_forward(ep, params[:n_enc], target.x[idx_t])
                try:
                    le = dist_loss(z_s, z_t, config.dist_kind, source_moments=ms)
                    if not math.isfinite(le.value):
                        raise NonFiniteLoss(
                            f"distance loss became non-finite at epoch {epoch + 1} "
                            f"step {step + 1}",
                            record={"epoch": epoch + 1, "step": step + 1,
                                    "loss_dist": le.value},
                        )
                    dist_sum += le.value
                    dist_steps += 1
                    if le.zero_grad_reason:
                        zeroed[le.zero_grad_reason] += 1
                    dz = dz + config.beta * le.grad_source
                    _, grads_t = stack_backward(
                        ep, params[:n_enc], t_caches, config.beta * le.grad_target
                    )
                except GateClosed as exc:
                    skipped[epoch] += 1
                    skipped_by_reason[exc.reason] += 1

            _, enc_grads = stack_backward(ep, params[:n_enc], enc_caches, dz)
            if grads_t is not None:
                for g, gt in zip(enc_grads, grads_t):
                    g[0] += gt[0]
                    g[1] += gt[1]
            opt.step(params, enc_grads + head_grads)

        cols["loss_task"][epoch] = task_sum / steps_per_epoch
        cols["det_ps"][epoch] = det_sum / steps_per_epoch
        cols["loss_dist"][epoch] = dist_sum / dist_steps if dist_steps else 0.0
        gate_on[epoch] = latch
        cols["source_metric"][epoch] = (
            evaluate(params, spec, eval_source) if eval_source is not None else float("nan")
        )
        cols["target_metric"][epoch] = (
            evaluate(params, spec, eval_target) if eval_target is not None else float("nan")
        )

    return TrainReport(
        **cols,
        gate_on=gate_on,
        skipped_steps=skipped,
        skipped_steps_by_reason=skipped_by_reason,
        gate_open_epoch=gate_open_epoch,
        zeroed_grad_steps=zeroed,
        params=params,
    )
