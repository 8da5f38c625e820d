import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from geomoment import losses, network, trainer
from geomoment.datasets import BlobsConfig, gen_blobs
from geomoment.errors import NonFiniteLoss, RegimeViolation
from geomoment.losses import LossEval
from geomoment.network import ClassifierHead, ModelSpec
from geomoment.rng import STREAM_SOURCE_BATCH, STREAM_TARGET_BATCH, stream
from geomoment.runner import build_run_config, parse_config_text
from geomoment.trainer import (
    EvalSet,
    FeatureSet,
    LabeledSet,
    TrainConfig,
    TrainReport,
    evaluate,
    train,
)
from helpers import count_lapack

BLOBS = BlobsConfig(
    num_classes=3,
    samples_per_class=100,
    input_dim=4,
    center_radius=2.2,
    cov_scale=1.4,
    target_rotation=math.pi / 3,
    target_translation=(0.0, 0.0, -1.8, 1.2),
    seed=0,
)

SPEC = ModelSpec(
    input_dim=4,
    encoder_layers=((16, "relu"), (2, "identity")),
    head=ClassifierHead(num_classes=3),
)


def config(**kw):
    base = dict(
        dist_kind="airm",
        beta=0.1,
        eta=1e-8,
        epochs=5,
        batch_source=40,
        batch_target=40,
        learn_rate=1e-3,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def run(cfg, data=None):
    d = data or gen_blobs(BLOBS)
    return train(cfg, SPEC, d.source_train, d.target_train, d.source_eval, d.target_eval)


def test_report_shape_and_csv():
    rep = run(config())
    assert rep.epochs == 5
    text = rep.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0].split(",") == [
        "epoch", "loss_task", "loss_dist", "det_PS", "gate_on",
        "source_metric", "target_metric", "skipped_steps",
    ]
    assert len(lines) == 6


def test_determinism():
    a = run(config()).to_csv_text()
    b = run(config()).to_csv_text()
    assert a == b


def test_beta_zero_matches_eta_inf_bitwise():
    a = run(config(beta=0.0, eta=math.inf)).to_csv_text()
    b = run(config(beta=0.5, eta=math.inf)).to_csv_text()
    assert a == b


def test_beta_zero_trajectory_independent_of_eta():
    a = run(config(beta=0.0, eta=1e-8))
    b = run(config(beta=0.0, eta=math.inf))
    # the latch state differs but nothing downstream of it may
    assert np.array_equal(a.loss_task, b.loss_task)
    assert np.array_equal(a.det_ps, b.det_ps)
    assert np.array_equal(a.target_metric, b.target_metric)
    assert a.gate_on.any() and not b.gate_on.any()
    assert np.all(a.loss_dist == 0.0) and np.all(b.loss_dist == 0.0)


def test_gate_latch_monotone_and_recorded():
    rep = run(config(eta=1e-8, epochs=6))
    g = rep.gate_on.astype(int)
    assert np.all(np.diff(g) >= 0)
    assert rep.gate_open_epoch == 1
    rep = run(config(eta=math.inf))
    assert rep.gate_open_epoch == -1


def test_target_labels_never_read():
    d = gen_blobs(BLOBS)
    assert not hasattr(d.target_train, "y")
    tampered = dataclasses.replace(
        d, target_train_labels=(d.target_train_labels + 1) % 3
    )
    a = run(config(epochs=4), data=d).to_csv_text()
    b = run(config(epochs=4), data=tampered).to_csv_text()
    assert a == b


def test_regime_violation():
    with pytest.raises(RegimeViolation):
        run(config(batch_source=10))


def test_evaluate_perfect_and_chance():
    d = gen_blobs(BLOBS)
    rep = run(config(epochs=30, beta=0.0))
    acc = evaluate(rep.params, SPEC, d.source_eval)
    assert acc > 0.75  # source task is learnable
    # degenerate eval set where every row carries the predicted label
    x = d.source_eval.x[:10]
    from geomoment.network import full_plan, stack_forward

    out, _ = stack_forward(full_plan(SPEC), rep.params, x)
    y = out.argmax(axis=1)
    assert evaluate(rep.params, SPEC, EvalSet(x=x, y=y)) == 1.0


def test_evaluate_mse_matches_the_np_mean_form_bitwise():
    spec = ModelSpec(input_dim=16, encoder_layers=((8, "tanh"), (2, "identity")),
                     head=network.DecoderHead(((8, "tanh"),)))
    params = network.init_model(spec, 3)
    rng = stream(3, 995)
    for rows in (1200, 37, 1):
        x, ref = rng.standard_normal((2, rows, 16))
        out, _ = network.stack_forward(network.full_plan(spec), params, x)
        for eval_set, want in ((EvalSet(x=x, ref=ref), out - ref), (EvalSet(x=x), out - x)):
            assert evaluate(params, spec, eval_set) == float(np.mean(want**2))


def test_skipped_steps_counted_on_collapsed_target():
    d = gen_blobs(BLOBS)
    collapsed = dataclasses.replace(d, target_train=FeatureSet(x=np.tile([0.5, 1.0, -0.5, 2.0], (300, 1))))
    rep = run(config(epochs=3, dist_kind="airm"), data=collapsed)
    assert rep.skipped_steps.sum() > 0
    assert np.all(rep.loss_dist == 0.0)


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_batch_moments_once_per_side_per_step(monkeypatch):
    # the gate's source moments come from batch_moments, the loss's target ones from the
    # centering helper, which also gives the rows its gradient reuses
    calls = []
    _count_calls(monkeypatch, trainer, "batch_moments", calls)
    _count_calls(monkeypatch, losses, "_centered_moments", calls)
    _count_calls(monkeypatch, trainer, "dist_loss", calls)
    steps = 3 * (BLOBS.num_classes * BLOBS.samples_per_class // 40)
    for beta, adapting in ((0.1, steps), (0.0, 0)):
        calls.clear()
        run(config(epochs=3, beta=beta))
        assert calls.count("dist_loss") == adapting
        assert calls.count("batch_moments") + calls.count("_centered_moments") == steps + adapting


def test_one_covariance_cholesky_per_side_per_step(monkeypatch):
    # the gate and the geometric loss share the source factor; the target's is the other
    calls = []
    count_lapack(monkeypatch, "_POTRF", calls)
    steps = 3 * (BLOBS.num_classes * BLOBS.samples_per_class // 40)
    for kind, beta, adapting in (("airm", 0.1, steps), ("hilbert", 0.1, steps),
                                 ("airm", 0.0, 0)):
        calls.clear()
        rep = run(config(epochs=3, beta=beta, dist_kind=kind))
        assert rep.skipped_steps.sum() == 0 and rep.gate_open_epoch == 1
        assert calls == [(SPEC.embed_dim, SPEC.embed_dim)] * (steps + adapting)


def test_zeroed_gradient_steps_counted_by_reason(monkeypatch):
    real = trainer.dist_loss
    reasons = iter(["NearZeroDistance", "", "DegenerateSpectrum", "NearZeroDistance"] * 100)

    def zeroing(zs, zt, kind, *args, **kwargs):
        le = real(zs, zt, kind, *args, **kwargs)
        reason = next(reasons)
        if not reason:
            return le
        zero_s, zero_t = np.zeros_like(le.grad_source), np.zeros_like(le.grad_target)
        return LossEval(le.value, zero_s, zero_t, zero_grad_reason=reason)

    monkeypatch.setattr(trainer, "dist_loss", zeroing)
    rep = run(config(epochs=2))  # 14 adapting steps: the pattern above, three times and a half
    assert rep.zeroed_grad_steps == {"NearZeroDistance": 7, "DegenerateSpectrum": 3}
    assert run(config(epochs=1, beta=0.0)).zeroed_grad_steps == dict.fromkeys(
        losses.ZERO_GRAD_REASONS, 0
    )


def test_skipped_steps_counted_by_reason(monkeypatch):
    real = trainer.dist_loss
    reasons = iter(["covariance_not_spd", "", "pencil_unresolved"] * 100)

    def closing(zs, zt, kind, *args, **kwargs):
        reason = next(reasons)
        if reason:
            return LossEval(math.nan, np.zeros_like(zs), np.zeros_like(zt), reason)
        return real(zs, zt, kind, *args, **kwargs)

    monkeypatch.setattr(trainer, "dist_loss", closing)
    rep = run(config(epochs=2))  # 14 adapting steps: the pattern above, four times and two
    assert rep.skipped_steps_by_reason == {"covariance_not_spd": 5, "pencil_unresolved": 4}
    assert rep.skipped_steps.sum() == 9
    assert run(config(epochs=1, beta=0.0)).skipped_steps_by_reason == dict.fromkeys(
        losses.GATE_CLOSED_REASONS, 0
    )


@pytest.mark.parametrize("seeds", [(3,), (0, 7)])
def test_non_finite_distance_raises_with_its_runs_record(monkeypatch, seeds):
    def infinite(zs, zt, *args, **kwargs):  # the last run's distance is infinite, not zeroed
        if zs.ndim == 2:
            return LossEval(math.inf, np.zeros_like(zs), np.zeros_like(zt), "")
        value = np.zeros(len(zs))
        value[-1] = math.inf
        return LossEval(value, np.zeros_like(zs), np.zeros_like(zt), np.full(len(zs), ""))

    monkeypatch.setattr(trainer, "dist_loss", infinite)
    configs, spec, datasets = _small_cell(seeds)
    sets = [(d.source_train, d.target_train, d.source_eval, d.target_eval) for d in datasets]
    args = (configs[0], spec, *sets[0]) if len(seeds) == 1 else (configs, spec, *zip(*sets))
    with pytest.raises(NonFiniteLoss, match="dist loss became non-finite") as info:
        train(*args)
    record = info.value.record
    assert record["loss_dist"] == math.inf
    assert record["seed"] == seeds[-1]
    assert record["dist_kind"] == "airm"


def test_source_labels_required_for_classifier():
    d = gen_blobs(BLOBS)
    with pytest.raises(ValueError):
        train(config(), SPEC, LabeledSet(x=d.source_train.x, y=None), d.target_train,
              d.source_eval, d.target_eval)


def test_nan_beta_rejected():
    # NaN fails every comparison, so only a `not beta >= 0` check rejects it
    with pytest.raises(ValueError, match="beta must be >= 0"):
        config(beta=math.nan)


BLOBS_AIRM_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "blobs_airm.cfg")


def _sweep_cell(dim, kind, seeds, **keys):
    """A sweep-dim cell of configs/blobs_airm.cfg with keys set: (configs, spec, run datasets)."""
    with open(BLOBS_AIRM_CFG) as fh:
        parsed = parse_config_text(fh.read())
    parsed.update({"encoder": ((32, "relu"), (dim, "identity")),
                   "dist_kind": kind, **keys})
    runs = [build_run_config(parsed, seed=s) for s in seeds]
    return [r.train_cfg for r in runs], runs[0].model_spec, [gen_blobs(r.blobs) for r in runs]


def _small_cell(seeds):
    """Three-epoch runs of the small BLOBS set, one per seed."""
    configs = [config(seed=s, epochs=3) for s in seeds]
    return configs, SPEC, [gen_blobs(dataclasses.replace(BLOBS, seed=s)) for s in seeds]


def _drawn_once(cell):
    """The cell with its runs' batch rows drawn up front, as sweep_dim shares them."""
    configs, spec, datasets = cell
    n_s, n_t = len(datasets[0].source_train.x), len(datasets[0].target_train.x)
    sizes = trainer.batch_sizes(configs[0], n_s, n_t)
    draws = trainer.batch_rows([c.seed for c in configs], *sizes)
    return configs, spec, datasets, [next(draws) for _ in range(configs[0].epochs)]


def _edit(cell, run, fields=None, data=None):
    """The cell with one run's config fields, or its dataset's fields from data(dataset), replaced."""
    configs, spec, datasets = cell
    if fields:
        configs[run] = dataclasses.replace(configs[run], **fields)
    if data:
        datasets[run] = dataclasses.replace(datasets[run], **data(datasets[run]))
    return configs, spec, datasets


def _constant_target(d):
    rows = d.target_train.x.shape[0]
    return {"target_train": FeatureSet(x=np.tile([0.5, 1.0, -0.5, 2.0], (rows, 1)))}


def _nan_rows(d):
    x = d.source_train.x.copy()
    x[::30] = np.nan
    return {"source_train": dataclasses.replace(d.source_train, x=x)}


def _gates_never_open(expected):
    def check(reports):
        assert [r.gate_open_epoch == -1 for r in reports] == expected
    return check


def _skips_only_in(run, adapts=False):
    """Check that only run skips steps, and that it adapts in every epoch it skips in iff adapts."""
    def check(reports):
        for i, r in enumerate(reports):
            skips = r.skipped_steps_by_reason["covariance_not_spd"]
            assert (skips > 0) == (i == run) and r.skipped_steps.sum() == skips
        skipping = reports[run].skipped_steps > 0
        assert (reports[run].loss_dist[skipping] > 0).all() == adapts
    return check


# name -> (the cell, a check of its stacked reports or the (error, match) it raises)
STACK_CASES = {
    "blobs dim 2 cell": (lambda: _sweep_cell(2, "hilbert", (0, 1, 2)),
                         _gates_never_open([False, False, False])),
    "blobs dim 2 cell, batch rows drawn up front": (
        lambda: _drawn_once(_sweep_cell(2, "mean_euclid", (0, 1, 2))),
        _gates_never_open([False, False, False])),
    "blobs dim 4 cell, gate of seed 159990 never opens": (
        lambda: _sweep_cell(4, "airm", (0, 159990, 2)), _gates_never_open([False, True, False])),
    "blobs dim 2 relu cell, seed 1 skips and adapts": (
        lambda: _sweep_cell(2, "airm", (0, 1, 2), encoder=((32, "relu"), (2, "relu")), eta=1e-8),
        _skips_only_in(1, adapts=True)),
    "constant target in one run": (
        lambda: _edit(_small_cell((0, 1, 2)), 1, data=_constant_target), _skips_only_in(1)),
    "configs differ in beta": (
        lambda: _edit(_small_cell((0, 1)), 1, fields={"beta": 0.2}), (ValueError, "seed only")),
    "non-finite source rows": (
        lambda: _edit(_small_cell((0, 7, 2)), 1, data=_nan_rows),
        (NonFiniteLoss, "task loss became non-finite")),
}


@pytest.mark.parametrize("case", STACK_CASES)
def test_stacked_runs_equal_their_runs_alone(case):
    cell, expect = STACK_CASES[case]
    configs, spec, datasets, *shared = cell()  # shared: the cell's batches, if drawn up front
    batches = shared[0] if shared else None
    sets = [(d.source_train, d.target_train, d.source_eval, d.target_eval) for d in datasets]
    if isinstance(expect, tuple):
        error, match = expect
        with pytest.raises(error, match=match) as info:
            train(configs, spec, *zip(*sets), batches=batches)
        if error is NonFiniteLoss:  # the record names the run that failed
            assert info.value.record["seed"] == 7
            assert info.value.record["dist_kind"] == "airm"
            assert not math.isfinite(info.value.record["loss_task"])
        return
    stacked = train(configs, spec, *zip(*sets), batches=batches)
    expect(stacked)
    for cfg, run_sets, got in zip(configs, sets, stacked, strict=True):
        alone = train(cfg, spec, *run_sets)
        assert got.to_csv_text() == alone.to_csv_text()
        for f in dataclasses.fields(TrainReport):
            a, b = getattr(got, f.name), getattr(alone, f.name)
            if f.name == "params":
                a = [x for pair in a for x in pair]
                b = [x for pair in b for x in pair]
            else:
                a, b = [a], [b]
            for x, y in zip(a, b, strict=True):
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and x.shape == y.shape
                    assert x.tobytes() == y.tobytes(), f.name
                else:
                    assert x == y, f.name


@pytest.mark.parametrize("seeds", [(3, 5, 8), (4,)])
def test_batch_rows_are_each_runs_own_choice_draws(seeds):
    n_s, bs, n_t, bt, steps, epochs = 50, 8, 40, 6, 4, 3
    blocks = list(itertools.islice(trainer.batch_rows(seeds, n_s, bs, n_t, bt, steps), epochs))
    for side, stream_id, n, b in ((0, STREAM_SOURCE_BATCH, n_s, bs),
                                  (1, STREAM_TARGET_BATCH, n_t, bt)):
        for r, seed in enumerate(seeds):
            g = stream(seed, stream_id)  # a run's steps are its stream's consecutive draws
            for block in (rows[side] for rows in blocks):
                assert block.dtype == np.int32 and block.shape == (steps, len(seeds), b)
                for k in range(steps):
                    expected = g.choice(n, size=b, replace=False) + r * n
                    assert block[k, r].tolist() == expected.tolist()


def test_batch_rows_drawn_per_epoch_equal_the_materialized_list():
    seeds, sizes = (0, 159990, 2), (300, 128, 300, 128, 2)
    materialized = list(itertools.islice(trainer.batch_rows(seeds, *sizes), 4))
    lazy = trainer.batch_rows(seeds, *sizes)
    alone = [trainer.batch_rows((seed,), *sizes) for seed in seeds]
    for rows in materialized:
        drawn = next(lazy)
        runs = [next(g) for g in alone]  # a stack's run r is its run alone, offset by r * n
        for side, n in ((0, 300), (1, 300)):
            assert drawn[side].tobytes() == rows[side].tobytes()
            for r, run in enumerate(runs):
                assert (rows[side][:, r] == run[side][:, 0] + r * n).all()


def test_train_draws_its_batch_rows_one_epoch_at_a_time(monkeypatch):
    configs, spec, datasets = _small_cell((0, 1))
    evaluations, pulled = [], []  # evaluate calls when each epoch's rows were drawn
    real_batch_rows = trainer.batch_rows

    def batch_rows(*args):
        for rows in real_batch_rows(*args):
            pulled.append(len(evaluations))
            yield rows

    def counted_evaluate(*args):
        evaluations.append(1)
        return evaluate(*args)

    monkeypatch.setattr(trainer, "batch_rows", batch_rows)
    monkeypatch.setattr(trainer, "evaluate", counted_evaluate)
    sets = [(d.source_train, d.target_train, d.source_eval, d.target_eval) for d in datasets]
    train(configs, spec, *zip(*sets))
    # two runs, each evaluated on two sets after every epoch
    assert pulled == [4 * epoch for epoch in range(configs[0].epochs)]


# name -> the two-run, three-epoch cell's batches made wrong
WRONG_BATCHES = {
    "an epoch short": lambda batches: batches[:-1],
    "an epoch over": lambda batches: batches + batches[:1],
    "a step short": lambda batches: [(s[:-1], t) for s, t in batches],
    "one run's rows": lambda batches: [(s[:, :1], t[:, :1]) for s, t in batches],
    "a smaller target batch": lambda batches: [(s, t[..., :-1]) for s, t in batches],
}


@pytest.mark.parametrize("case", WRONG_BATCHES)
def test_train_rejects_batches_of_the_wrong_epoch_count_or_shape(case):
    configs, spec, datasets, batches = _drawn_once(_small_cell((0, 1)))
    sets = [(d.source_train, d.target_train, d.source_eval, d.target_eval) for d in datasets]
    with pytest.raises(ValueError, match=r"batches needs 3 epochs of \(7, 2, b\) rows"):
        train(configs, spec, *zip(*sets), batches=WRONG_BATCHES[case](batches))


def test_lone_run_rejects_a_stacks_batches():
    configs, spec, datasets, batches = _drawn_once(_small_cell((0, 1)))
    with pytest.raises(ValueError, match=r"batches needs 3 epochs of \(7, 1, b\) rows"):
        d = datasets[0]
        train(configs[0], spec, d.source_train, d.target_train, d.source_eval, d.target_eval,
              batches=batches)


@pytest.mark.parametrize("kind", losses.DIST_KINDS)
def test_rows_before_the_latch_equal_the_beta_zero_runs(kind):
    # the pre-latch training never reads dist_kind: the premise of a stack of kinds
    configs, spec, datasets = _sweep_cell(4, kind, (1, 159990, 2), epochs=30)
    sets = [(d.source_train, d.target_train, d.source_eval, d.target_eval) for d in datasets]
    adapting = train(configs, spec, *zip(*sets))
    source_only = train([dataclasses.replace(c, beta=0.0) for c in configs], spec, *zip(*sets))
    assert [r.gate_open_epoch for r in adapting] == [15, -1, 20]
    for a, s in zip(adapting, source_only, strict=True):
        assert a.gate_open_epoch == s.gate_open_epoch
        latch = a.gate_open_epoch if a.gate_open_epoch > 0 else a.epochs + 1
        before = a.to_csv_text().splitlines()[:latch]  # the header, then the rows
        assert before == s.to_csv_text().splitlines()[:latch]
        assert (a.to_csv_text() == s.to_csv_text()) == (a.gate_open_epoch < 0)


def _kinds_cell(seeds=(0, 159990, 2), kinds=losses.DIST_KINDS, **keys):
    """A 20-epoch dim-2 sweep's stack of kinds, as train's arguments, and its block's batches.

    The arguments hold each seed's sets once: every kind's block trains on them.
    """
    configs, spec, datasets, batches = _drawn_once(
        _sweep_cell(2, kinds[0], seeds, epochs=20, **keys))
    sets = [(d.source_train, d.target_train, d.source_eval, d.target_eval) for d in datasets]
    configs = [dataclasses.replace(c, dist_kind=kind) for kind in kinds for c in configs]
    return [configs, spec, *zip(*sets)], batches


def _block(args, k, runs=3):
    """The train arguments of the stack's k-th kind alone, on the same per-seed sets."""
    return [args[0][k * runs : (k + 1) * runs], *args[1:]]


def _same_reports(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.to_csv_text() == b.to_csv_text()
        assert (a.skipped_steps_by_reason, a.zeroed_grad_steps, a.gate_open_epoch) == (
            b.skipped_steps_by_reason, b.zeroed_grad_steps, b.gate_open_epoch)
        for x, y in zip(itertools.chain(*a.params), itertools.chain(*b.params), strict=True):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("keys", [{"beta": 0.1}, {"beta": 0.0}, {"beta": 0.1, "eta": 1e-300}])
def test_later_kinds_train_only_the_epochs_after_the_first_kinds_state(monkeypatch, keys):
    steps = {}  # each kind's optimizer -> its Adam.step calls
    real_make_optimizer, real_step = trainer.make_optimizer, network.Adam.step

    def make_optimizer(*args):
        opt = real_make_optimizer(*args)
        steps[opt] = 0
        return opt

    def step(self, params, grads):
        steps[self] += 1
        return real_step(self, params, grads)

    monkeypatch.setattr(trainer, "make_optimizer", make_optimizer)
    monkeypatch.setattr(network.Adam, "step", step)
    args, batches = _kinds_cell(**keys)
    stacked = train(*args, batches=batches)
    opened = [r.gate_open_epoch for r in stacked[:3] if r.gate_open_epoch > 0]
    # the first kind's state: at the end of the epoch before its first latch, or of the last
    kept = min(opened) - 1 if keys["beta"] and opened else 20
    if "eta" in keys:  # a latch in epoch 1: no state, each later kind trains from a fresh init
        assert kept == 0
    elif keys["beta"]:
        assert 0 < kept < 19
    kinds = len(losses.DIST_KINDS)
    assert list(steps.values()) == [20 * 7] + [(20 - kept) * 7] * (kinds - 1)  # 900 rows, by 128
    for k in range(kinds):
        _same_reports(stacked[3 * k : 3 * k + 3], train(*_block(args, k), batches=batches))


def _replace_in_block(args, field, value, k=1, run=1):
    """The arguments with one run of the k-th block given another config field."""
    configs = list(args[0])
    configs[3 * k + run] = dataclasses.replace(configs[3 * k + run], **{field: value})
    return [configs, *args[1:]]


def _interleaved(args):
    """The arguments with the runs taken seed by seed, not kind by kind."""
    order = [3 * k + r for r in range(3) for k in range(len(losses.DIST_KINDS))]
    return [[args[0][j] for j in order], *args[1:]]


# name -> the stack of kinds' arguments made wrong, and the error's match
WRONG_STACKS = {
    "other seeds": (lambda args: _replace_in_block(args, "seed", 1), "first block's seeds"),
    "other beta": (lambda args: _replace_in_block(args, "beta", 0.2), "seed only"),
    "other eta": (lambda args: _replace_in_block(args, "eta", 0.01), "seed only"),
    "kinds interleaved": (_interleaved, "first block's seeds"),
    "a block short": (lambda args: [args[0][:-1], *args[1:]], "first block's seeds"),
    "a set per run": (lambda args: [*args[:2], *(a * 5 for a in args[2:])], "set per seed"),
}


@pytest.mark.parametrize("case", WRONG_STACKS)
def test_a_stack_of_kinds_rejects_blocks_that_differ_in_more_than_the_kind(case):
    args, batches = _kinds_cell()
    wrong, match = WRONG_STACKS[case]
    with pytest.raises(ValueError, match=match):
        train(*wrong(args), batches=batches)


def test_a_stack_of_kinds_draws_its_blocks_rows_once_as_given_batches(monkeypatch):
    calls = []  # the seeds of every batch_rows call
    real_batch_rows = trainer.batch_rows

    def batch_rows(seeds, *sizes):
        calls.append(tuple(seeds))
        return real_batch_rows(seeds, *sizes)

    args, batches = _kinds_cell(kinds=("airm", "hilbert", "coral_frob"))
    monkeypatch.setattr(trainer, "batch_rows", batch_rows)
    _same_reports(train(*args), train(*args, batches=batches))
    assert calls == [(0, 159990, 2)]


def test_a_non_finite_distance_in_a_later_kind_names_that_kind(monkeypatch):
    def infinite_in_hilbert(zs, zt, kind, **kwargs):
        le = losses.dist_loss(zs, zt, kind, **kwargs)
        if kind != "hilbert":
            return le
        return dataclasses.replace(le, value=np.full(np.shape(le.value), math.inf))

    monkeypatch.setattr(trainer, "dist_loss", infinite_in_hilbert)
    args, batches = _kinds_cell(kinds=("airm", "hilbert"))
    with pytest.raises(NonFiniteLoss, match="dist loss became non-finite") as info:
        train(*args, batches=batches)
    record = info.value.record
    assert record["dist_kind"] == "hilbert" and record["loss_dist"] == math.inf
    assert record["seed"] in (0, 159990, 2)
