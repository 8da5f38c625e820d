"""Two-phase gated training of an encoder plus task head.

The combined objective is task loss + beta * distance loss. Every step
monitors det(P_S), the determinant of the embedded source-batch
moments; the adaptation term is skipped until the determinant first
exceeds the threshold eta, after which the latch stays open for the
rest of the run. Target labels never enter the optimization path.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .embedding import schur_gate
from .errors import NonFiniteLoss, RegimeViolation
from .losses import DIST_KINDS, GATE_CLOSED_REASONS, ZERO_GRAD_REASONS, dist_loss
from .matrixio import csv_line
from .moments import batch_moments, check_regime
from .network import (
    ClassifierHead,
    encoder_plan,
    full_plan,
    head_plan,
    init_model,
    make_optimizer,
    split_runs,
    stack_backward,
    stack_forward,
    stack_runs,
    task_loss,
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
    source_metric: np.ndarray
    target_metric: np.ndarray
    skipped_steps: np.ndarray
    skipped_steps_by_reason: dict  # GATE_CLOSED_REASONS name -> adaptation steps it skipped
    gate_open_epoch: int  # 1-based; -1 when the gate never opened
    zeroed_grad_steps: dict  # reason -> adaptation steps whose distance gradients were zeroed
    params: list = field(repr=False)

    @property
    def epochs(self):
        return self.loss_task.size

    @property
    def gate_on(self):
        """Per epoch, whether the gate had opened by its end (it latches: gate_open_epoch)."""
        g = self.gate_open_epoch
        return (g > 0) & (np.arange(1, self.epochs + 1) >= g)

    def to_csv_text(self):
        cols = (np.arange(1, self.epochs + 1), self.loss_task, self.loss_dist, self.det_ps,
                self.gate_on.astype(int), self.source_metric, self.target_metric,
                self.skipped_steps)
        keys = REPORT_HEADER.split(",")
        rows = (dict(zip(keys, row)) for row in zip(*(c.tolist() for c in cols)))
        return REPORT_HEADER + "\n" + "".join(csv_line(r, REPORT_HEADER) for r in rows)


def evaluate(params, spec, dataset):
    """Accuracy for classifier heads, reconstruction MSE for decoder heads."""
    out, _ = stack_forward(full_plan(spec), params, dataset.x)
    if isinstance(spec.head, ClassifierHead):
        return np.count_nonzero(out.argmax(axis=1) == dataset.y) / dataset.y.size  # np.mean's float
    ref = dataset.ref if dataset.ref is not None else dataset.x
    diff = np.subtract(out, ref, out=out)  # out is this pass's own array: no temporaries
    return float(np.square(diff, out=diff).sum() / diff.size)  # np.mean's bits


def _per_run(result):
    """A stacked call's per-run results as a list; a single run's result as a list of one."""
    return result.tolist() if isinstance(result, np.ndarray) else [result]


def _rows(arrays):
    """The runs' arrays as one block of rows; one run's array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def batch_sizes(cfg, n_s, n_t):
    """batch_rows' sizes (n_s, bs, n_t, bt, steps_per_epoch) for runs on n_s and n_t rows."""
    bs = min(cfg.batch_source, n_s)
    return n_s, bs, n_t, min(cfg.batch_target, n_t), max(1, n_s // bs)


def batch_rows(seeds, n_s, bs, n_t, bt, steps_per_epoch):
    """Yield each epoch's (rows_s, rows_t) of a stack of runs, int32 (steps, runs, b) blocks.

    Step k of run r is the k-th choice(n, size=b, replace=False) of its
    seed's own Philox source or target batch stream, plus r * n.
    """
    sides = [([stream(seed, sid) for seed in seeds], n, b)
             for sid, n, b in ((STREAM_SOURCE_BATCH, n_s, bs), (STREAM_TARGET_BATCH, n_t, bt))]
    while True:
        blocks = tuple(np.empty((steps_per_epoch, len(seeds), b), np.int32) for _, _, b in sides)
        for block, (gens, n, b) in zip(blocks, sides):
            for k, r in np.ndindex(block.shape[:2]):
                block[k, r] = gens[r].choice(n, size=b, replace=False)
            block += np.arange(0, len(seeds) * n, n, dtype=np.int32)[:, None]
        yield blocks


def train(config, spec, source, target, eval_source, eval_target, batches=None):
    """Run the gated two-phase optimization and return the epoch report.

    source is a LabeledSet, target a FeatureSet (no labels, by type).
    The eval sets only feed the per-epoch metric columns. A source batch
    (batch_sizes) below 10 rows per embedding dim raises RegimeViolation.

    A stack of runs passes a sequence of configs that differ in seed
    alone and, per run, one source, target and pair of eval sets, all
    of one shape; the result is then the list of the runs' reports. Each
    step trains every run of the stack at once, over a leading run axis
    of the network, its losses, the source moments, gate, distance loss
    and Adam; each run keeps its own gate latch and evaluation, and its
    report equals the one it gets alone, bit for bit. A single config is
    the one-run stack, kept without a run axis. Each epoch's steps read
    their rows from a batch_rows block: batches[epoch], or drawn lazily.

    The configs may also differ in dist_kind, by blocks: one block per
    kind, in order of first appearance, each listing the first block's
    seeds in its order; every block trains on the same sets, one source,
    target and eval pair per seed, and on the same batches, drawn up
    front if not given. Until a run's latch opens, and at
    beta 0 throughout, its training never reads dist_kind. So the first
    kind keeps its state at the end of each epoch in which no run has
    adapted (Adam's, the report columns and the latches), and every
    later kind trains only the epochs after it, from a fresh init where
    a latch opened in the first epoch. The reports come in config order.
    """
    if isinstance(config, TrainConfig):
        return train((config,), spec, (source,), (target,), (eval_source,), (eval_target,),
                     batches)[0]
    configs = tuple(config)
    sets = tuple(source), tuple(target), tuple(eval_source), tuple(eval_target)
    R = len(configs)
    cfg = configs[0]
    if any(dataclasses.replace(c, seed=cfg.seed, dist_kind=cfg.dist_kind) != cfg for c in configs):
        raise ValueError("the configs of a stack may differ in seed only, and by blocks in "
                         "dist_kind")
    kinds = tuple(dict.fromkeys(c.dist_kind for c in configs))
    S = R // len(kinds)  # the runs of one kind's block
    if configs != tuple(dataclasses.replace(c, dist_kind=k) for k in kinds for c in configs[:S]):
        raise ValueError("each kind's block needs the first block's seeds, in its order")
    if any(len(s) != S for s in sets):
        raise ValueError("a stack needs one source, target and eval set per seed")
    sources, targets, eval_sources, eval_targets = sets
    if len({s.x.shape for s in sources}) > 1 or len({t.x.shape for t in targets}) > 1:
        raise ValueError("the runs of a stack need sources and targets of one shape")
    sizes = _, bs, _, bt, steps_per_epoch = batch_sizes(cfg, len(sources[0].x), len(targets[0].x))
    regime = check_regime(bs, spec.embed_dim)  # the source rows a step draws
    if not regime.ok:
        raise RegimeViolation(
            f"a source batch of {bs} rows (batch_source={cfg.batch_source}) is below "
            f"10 x embed_dim={spec.embed_dim} (ratio {regime.ratio:.2f})"
        )
    classifier = isinstance(spec.head, ClassifierHead)
    if classifier and any(s.y is None for s in sources):
        raise ValueError("classifier task needs source labels")

    ep = encoder_plan(spec)
    hp = head_plan(spec)
    n_enc = len(ep)
    if batches is not None and (len(batches) != cfg.epochs or any((s.shape, t.shape) != (
            (steps_per_epoch, S, bs), (steps_per_epoch, S, bt)) for s, t in batches)):
        raise ValueError(f"batches needs {cfg.epochs} epochs of ({steps_per_epoch}, {S}, b) rows")
    if batches is None:
        batches = batch_rows([c.seed for c in configs[:S]], *sizes)  # drawn epoch by epoch
        if S < R:  # every kind reads the same epochs: drawn once
            batches = list(islice(batches, cfg.epochs))
    # every run's rows, stacked; a batch indexes them with its run's row offset
    xs = _rows([s.x for s in sources])
    ys = _rows([s.y for s in sources]) if classifier else None
    xt = _rows([t.x for t in targets])
    run = 0 if S == 1 else slice(None)  # a single run's batch has no run axis

    def train_kind(configs, resume=None, keep=False):
        """The block's reports, and with keep its state before its first adaptation, if any."""
        cfg = configs[0]
        params = stack_runs([init_model(spec, c.seed) for c in configs])
        opt = make_optimizer(params, cfg.learn_rate)
        run_params = split_runs(params, S)
        gate_open_epoch = [-1] * S
        cols = {
            k: np.zeros((S, cfg.epochs))
            for k in ("loss_task", "loss_dist", "det_ps", "source_metric", "target_metric")
        }
        skipped = np.zeros((S, cfg.epochs), dtype=int)
        skipped_by_reason = [dict.fromkeys(GATE_CLOSED_REASONS, 0) for _ in configs]
        zeroed = [dict.fromkeys(ZERO_GRAD_REASONS, 0) for _ in configs]

        def non_finite(what, epoch, step, r, value):
            return NonFiniteLoss(
                f"{what} loss became non-finite at epoch {epoch + 1} step {step + 1}",
                record={"epoch": epoch + 1, "step": step + 1, f"loss_{what}": float(value),
                        "seed": configs[r].seed, "dist_kind": cfg.dist_kind},
            )

        start, kept = 0, None
        if resume is not None:
            start, flat, m, v, opt.t, first_cols, latches = resume
            opt.flat[...] = flat  # in place: the parameters are views of it
            opt.m, opt.v = m.copy(), v.copy()
            for k, col in first_cols.items():
                cols[k][:, :start] = col[:, :start]
            gate_open_epoch[:] = latches

        for epoch, (epoch_s, epoch_t) in zip(range(start, cfg.epochs),
                                             islice(batches, start, None)):
            task_sum = 0.0  # a float, or one per run of a stack
            dist_sum = np.zeros(S)
            dist_steps = np.zeros(S, dtype=int)
            det_sum = np.zeros(S)
            for step in range(steps_per_epoch):
                rows_s, rows_t = epoch_s[step, run], epoch_t[step, run]
                xb = xs.take(rows_s, axis=0)  # take: fancy indexing's rows, in fewer dispatches
                yb = ys.take(rows_s, axis=0) if classifier else None

                z_s, enc_caches = stack_forward(ep, params[:n_enc], xb)
                out, head_caches = stack_forward(hp, params[n_enc:], z_s)
                loss_task, dout = task_loss(spec, out, xb, yb)
                task_sum = task_sum + loss_task
                for r, value in enumerate(loss_task.reshape(S).tolist()):
                    if not math.isfinite(value):
                        raise non_finite("task", epoch, step, r, value)
                dz, head_grads = stack_backward(hp, params[n_enc:], head_caches, dout)

                # the runs' moments, factored once for the gate and the distance loss
                ms = batch_moments(z_s).factored()
                gate = schur_gate(ms, cfg.eta)
                det_sum += gate.det
                for r, is_open in enumerate(_per_run(gate.open)):
                    if is_open and gate_open_epoch[r] < 0:
                        gate_open_epoch[r] = epoch + 1
                adapting = [r for r in range(S) if gate_open_epoch[r] > 0] if cfg.beta > 0 else []

                if adapting:
                    sub = slice(None) if len(adapting) == S else adapting  # the adapting runs
                    enc_t = [[W[sub], b[sub]] for W, b in params[:n_enc]]
                    z_t, t_caches = stack_forward(ep, enc_t, xt.take(rows_t[sub], axis=0))
                    le = dist_loss(z_s[sub], z_t, cfg.dist_kind, source_moments=ms[sub])
                    values, reasons = _per_run(le.value), _per_run(le.zero_grad_reason)
                    for k, r in enumerate(adapting):
                        if reasons[k] in GATE_CLOSED_REASONS:
                            skipped[r, epoch] += 1
                            skipped_by_reason[r][reasons[k]] += 1
                            continue
                        if not math.isfinite(values[k]):
                            raise non_finite("dist", epoch, step, r, values[k])
                        dist_sum[r] += values[k]
                        dist_steps[r] += 1
                        if reasons[k]:
                            zeroed[r][reasons[k]] += 1
                    # a closed or zeroed run's gradients are exact zeros
                    _, grads_t = stack_backward(ep, enc_t, t_caches, cfg.beta * le.grad_target,
                                                input_grad=False)
                    dz[sub] += cfg.beta * le.grad_source

                _, enc_grads = stack_backward(ep, params[:n_enc], enc_caches, dz,
                                              input_grad=False)
                if adapting:
                    for g, gt in zip(enc_grads, grads_t):
                        g[0][sub] += gt[0]
                        g[1][sub] += gt[1]
                opt.step(params, enc_grads + head_grads)

            cols["loss_task"][:, epoch] = task_sum / steps_per_epoch
            cols["det_ps"][:, epoch] = det_sum / steps_per_epoch
            np.divide(dist_sum, dist_steps, out=cols["loss_dist"][:, epoch], where=dist_steps > 0)
            for r, p in enumerate(run_params):
                cols["source_metric"][r, epoch] = evaluate(p, spec, eval_sources[r])
                cols["target_metric"][r, epoch] = evaluate(p, spec, eval_targets[r])
            if keep and (cfg.beta == 0 or max(gate_open_epoch) < 0):  # no run adapted yet
                # cols itself: no later epoch writes the columns before this one
                kept = (epoch + 1, opt.flat.copy(), opt.m.copy(), opt.v.copy(), opt.t, cols,
                        list(gate_open_epoch))

        reports = [
            TrainReport(
                **{k: v[r] for k, v in cols.items()},
                skipped_steps=skipped[r],
                skipped_steps_by_reason=skipped_by_reason[r],
                gate_open_epoch=gate_open_epoch[r],
                zeroed_grad_steps=zeroed[r],
                params=run_params[r],
            )
            for r in range(S)
        ]
        return reports, kept

    reports, kept = train_kind(configs[:S], keep=S < R)
    for block in range(S, R, S):  # every later kind, from the first kind's state
        reports += train_kind(configs[block : block + S], kept)[0]
    return reports
