"""Experiment runner: flat key=value configs, report files, dim sweeps.

Config files are flat `key = value` lines with `#` comments. Every key
is typed against the one schema table below and unknown keys are hard
errors, so a typo in a sweep cannot silently fall back to a default.
The same table reads a run's settings back for its summary file.
"""

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from itertools import islice

from .blas import blas_threads
from .datasets import BlobsConfig, DenoiseConfig, gen_blobs, gen_denoise
from .errors import ConfigError
from .losses import DIST_KINDS
from .matrixio import csv_line
from .moments import check_regime
from .network import ACTIVATIONS, ClassifierHead, DecoderHead, ModelSpec
from .trainer import TrainConfig, batch_rows, batch_sizes, train

METRICS_HEADER = (
    "task,dist_kind,seed,embed_dim,beta,eta,epochs,"
    "source_metric,target_metric,gate_open_epoch,skipped_steps"
)

SWEEP_HEADER = (
    "dim,kind,seed,regime_ok,ratio,target_metric,source_metric,"
    "det_min,det_mean,det_final,gate_open_epoch"
)


@dataclass(frozen=True)
class RunConfig:
    task: str
    train_cfg: TrainConfig
    model_spec: ModelSpec
    blobs: BlobsConfig = None
    denoise: DenoiseConfig = None
    out_dir: str = "runs/out"
    sweep_kinds: tuple = None
    sweep_seeds: tuple = None


def _parse_int(v):
    return int(v, 0)


def _parse_list(item, what=None):
    """Parser of a comma-separated list, item parsing each non-blank part; with what, distinct."""
    def parse(v):
        items = tuple(item(p.strip()) for p in v.split(",") if p.strip())
        if what and len(set(items)) < len(items):  # a sweep runs each kind and seed once
            raise ValueError(f"a {what} is listed twice in {v!r}")
        return items
    return parse


def _parse_kind(v):
    if v not in DIST_KINDS:
        raise ValueError(f"unknown kind {v!r}, expected one of {', '.join(DIST_KINDS)}")
    return v


def _parse_layer(part):
    width, _, act = part.partition(":")
    act = act or "identity"
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r} in layer spec {part!r}")
    return _parse_int(width), act


def _parse_layers(v):
    layers = _parse_list(_parse_layer)(v)
    if not layers:
        raise ValueError("empty layer list")
    return layers


# target -> (the dataclass holding its fields, the task it belongs to; None for every task)
_TARGETS = {
    "run": (RunConfig, None),
    "train_cfg": (TrainConfig, None),
    "model_spec": (ModelSpec, None),
    "blobs": (BlobsConfig, "blobs"),
    "denoise": (DenoiseConfig, "denoise"),
    "decoder": (DecoderHead, "denoise"),
}

# The one schema: config key -> (parser, target, field). A task accepts the general
# keys and its own dataset keys; a key is required where its field has no
# dataclass default, and a key the file leaves out keeps that default.
_SCHEMA = {
    "task": (str, "run", "task"),
    "seed": (_parse_int, "train_cfg", "seed"),
    "out_dir": (str, "run", "out_dir"),
    "dist_kind": (_parse_kind, "train_cfg", "dist_kind"),
    "beta": (float, "train_cfg", "beta"),
    "eta": (float, "train_cfg", "eta"),
    "epochs": (_parse_int, "train_cfg", "epochs"),
    "batch_source": (_parse_int, "train_cfg", "batch_source"),
    "batch_target": (_parse_int, "train_cfg", "batch_target"),
    "learn_rate": (float, "train_cfg", "learn_rate"),
    "encoder": (_parse_layers, "model_spec", "encoder_layers"),
    "sweep.kinds": (_parse_list(_parse_kind, "kind"), "run", "sweep_kinds"),
    "sweep.seeds": (_parse_list(_parse_int, "seed"), "run", "sweep_seeds"),
    "blobs.num_classes": (_parse_int, "blobs", "num_classes"),
    "blobs.samples_per_class": (_parse_int, "blobs", "samples_per_class"),
    "blobs.input_dim": (_parse_int, "blobs", "input_dim"),
    "blobs.center_radius": (float, "blobs", "center_radius"),
    "blobs.cov_scale": (float, "blobs", "cov_scale"),
    "blobs.rotation": (float, "blobs", "target_rotation"),
    "blobs.translation": (_parse_list(float), "blobs", "target_translation"),
    "denoise.length": (_parse_int, "denoise", "length"),
    "denoise.samples": (_parse_int, "denoise", "samples"),
    "denoise.noise_mean": (float, "denoise", "noise_mean"),
    "denoise.noise_std": (float, "denoise", "noise_std"),
    "decoder": (_parse_layers, "decoder", "layers"),
}


def _task_schema(task):
    """The schema entries a task accepts."""
    return {key: e for key, e in _SCHEMA.items() if _TARGETS[e[1]][1] in (None, task)}


def _required(target, field):
    """Whether the target's field has no dataclass default."""
    f = next(f for f in dataclasses.fields(_TARGETS[target][0]) if f.name == field)
    return f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


def parse_config_text(text, path="<config>"):
    """Parse the flat key=value format into a typed dict."""
    raw = {}
    lines_by_key = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
        lines_by_key[key] = lineno

    task = raw.get("task")
    if task not in ("blobs", "denoise"):
        raise ConfigError(f"{path}: key 'task' must be blobs or denoise, got {task!r}")
    schema = _task_schema(task)

    parsed = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"{path}:{lines_by_key[key]}: unknown key {key!r} for task {task!r}")
        try:
            parsed[key] = schema[key][0](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lines_by_key[key]}: bad value for {key!r}: {exc}") from exc
    for key, (_, target, field) in schema.items():
        if key not in parsed and _required(target, field):
            raise ConfigError(f"{path}: missing required key {key!r}")
    return parsed


def build_run_config(parsed, seed=None, out_dir=None):
    """Assemble a RunConfig from parsed keys; seed/out_dir override the file."""
    fields = {target: {} for target in _TARGETS}
    for key, value in parsed.items():
        _, target, field = _SCHEMA[key]
        fields[target][field] = value
    if seed is not None:
        fields["train_cfg"]["seed"] = seed
    if out_dir is not None:
        fields["run"]["out_dir"] = out_dir

    try:
        train_cfg = TrainConfig(**fields["train_cfg"])
    except ValueError as exc:
        raise ConfigError(f"bad training field: {exc}") from exc

    blobs = denoise = None
    try:
        if fields["run"]["task"] == "blobs":
            blobs = BlobsConfig(seed=train_cfg.seed, **fields["blobs"])
            input_dim, head = blobs.input_dim, ClassifierHead(blobs.num_classes)
        else:
            denoise = DenoiseConfig(seed=train_cfg.seed, **fields["denoise"])
            input_dim, head = denoise.length, DecoderHead(**fields["decoder"])
        model_spec = ModelSpec(input_dim=input_dim, head=head, **fields["model_spec"])
    except ValueError as exc:
        raise ConfigError(f"bad model/dataset field: {exc}") from exc
    return RunConfig(
        train_cfg=train_cfg, model_spec=model_spec, blobs=blobs, denoise=denoise, **fields["run"]
    )


def config_block(cfg):
    """Each schema key of cfg's task -> the value cfg runs with, defaults included."""
    holders = {"run": cfg, "train_cfg": cfg.train_cfg, "model_spec": cfg.model_spec,
               "blobs": cfg.blobs, "denoise": cfg.denoise, "decoder": cfg.model_spec.head}
    return {key: getattr(holders[target], field)
            for key, (_, target, field) in _task_schema(cfg.task).items()}


def load_run_config(path, seed=None, out_dir=None):
    with open(path) as fh:
        text = fh.read()
    return build_run_config(parse_config_text(text, path), seed=seed, out_dir=out_dir)


def _datasets(cfg):
    d = gen_blobs(cfg.blobs) if cfg.task == "blobs" else gen_denoise(cfg.denoise)
    return d.source_train, d.target_train, d.source_eval, d.target_eval


def run_experiment(cfg):
    """Train one configuration, write report.csv / summary.json / metrics.csv."""
    sets = _datasets(cfg)
    t0 = time.perf_counter()
    report = train(cfg.train_cfg, cfg.model_spec, *sets)
    wall = time.perf_counter() - t0
    return _write_run(cfg, report, wall, os.path.join(cfg.out_dir, "metrics.csv"))


def _write_run(cfg, report, wall, metrics_path):
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "report.csv"), "w") as fh:
        fh.write(report.to_csv_text())

    row = {
        "task": cfg.task,
        "dist_kind": cfg.train_cfg.dist_kind,
        "seed": cfg.train_cfg.seed,
        "embed_dim": cfg.model_spec.embed_dim,
        "beta": cfg.train_cfg.beta,
        "eta": cfg.train_cfg.eta,
        "epochs": cfg.train_cfg.epochs,
        "source_metric": float(report.source_metric[-1]),
        "target_metric": float(report.target_metric[-1]),
        "gate_open_epoch": report.gate_open_epoch,
        "skipped_steps": int(report.skipped_steps.sum()),
    }
    summary = {**row, "wall_time_s": wall, "zeroed_grad_steps": report.zeroed_grad_steps,
               "skipped_steps_by_reason": report.skipped_steps_by_reason,
               "blas_threads": blas_threads(), "config": config_block(cfg)}
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    header = "" if os.path.exists(metrics_path) else METRICS_HEADER + "\n"
    with open(metrics_path, "a") as fh:
        fh.write(header + csv_line(row, METRICS_HEADER))
    return row, report


def _jsonable(v):
    """v with tuples as lists and non-finite floats as strings, for strict JSON."""
    if isinstance(v, dict):
        return {k: _jsonable(w) for k, w in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(w) for w in v]
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _sweep_row(dim, kind, seed, ratio, report=None):
    """One sweep.csv row; a dim that was never run (report None) is flagged with NaN metrics."""
    nan = float("nan")
    row = {
        "dim": dim, "kind": kind, "seed": seed, "regime_ok": 0, "ratio": ratio,
        "target_metric": nan, "source_metric": nan,
        "det_min": nan, "det_mean": nan, "det_final": nan, "gate_open_epoch": -1,
    }
    if report is not None:
        row.update(
            regime_ok=1,
            target_metric=float(report.target_metric[-1]),
            source_metric=float(report.source_metric[-1]),
            det_min=float(report.det_ps.min()),
            det_mean=float(report.det_ps.mean()),
            det_final=float(report.det_ps[-1]),
            gate_open_epoch=report.gate_open_epoch,
        )
    return row


def sweep_dim(cfg, dims):
    """Run the dimensionality sweep and write sweep.csv plus a best-dim summary.

    Every output lands under cfg.out_dir: the sweep files and every run's
    metrics.csv row at its root, each run's other files in a
    d{dim}_{kind}_s{seed} subdirectory. Each seed's datasets and batch
    rows (trainer.batch_rows) are made once, before any dim; the runs of
    one dim, every kind over every seed, train as one trainer.train stack.
    A run's config is cfg's config_block with its dim, kind, seed and
    out_dir set. A dim below the 10x regime on the source batch a step
    draws (trainer.batch_sizes) is a flagged row with NaN metrics, not
    run. No dim, or a repeated or non-positive one, is a ValueError
    before any trains.
    """
    if not dims:
        raise ValueError("no dim to sweep")
    if len(set(dims)) < len(dims):
        raise ValueError(f"a dim is listed twice in {list(dims)}")
    if not all(dim > 0 for dim in dims):
        raise ValueError(f"dims must be positive, got {list(dims)}")
    out_dir = cfg.out_dir
    kinds = cfg.sweep_kinds or (cfg.train_cfg.dist_kind,)
    seeds = cfg.sweep_seeds or (cfg.train_cfg.seed,)
    os.makedirs(out_dir, exist_ok=True)
    points = [(kind, seed) for kind in kinds for seed in seeds]  # a dim's runs, in order
    block = config_block(cfg)
    # each seed's sets and batch rows, which depend on the seed alone
    sources, targets, *evals = zip(*(_datasets(build_run_config(block, seed=s)) for s in seeds))
    sizes = batch_sizes(cfg.train_cfg, len(sources[0].x), len(targets[0].x))
    batches = list(islice(batch_rows(seeds, *sizes), cfg.train_cfg.epochs))
    rows = []
    for dim in dims:
        regime = check_regime(sizes[1], dim)  # the source rows a step draws
        reports = [None] * len(points)
        if regime.ok:
            encoder = (*block["encoder"][:-1], (dim, block["encoder"][-1][1]))
            cfgs = [build_run_config({**block, "encoder": encoder, "dist_kind": kind}, seed=seed,
                                     out_dir=os.path.join(out_dir, f"d{dim}_{kind}_s{seed}"))
                    for kind, seed in points]
            t0 = time.perf_counter()
            reports = train([c.train_cfg for c in cfgs], cfgs[0].model_spec, sources, targets,
                            *evals, batches=batches)
            wall = (time.perf_counter() - t0) / len(cfgs)
            for run_cfg, report in zip(cfgs, reports):
                _write_run(run_cfg, report, wall, os.path.join(out_dir, "metrics.csv"))
        rows += [_sweep_row(dim, kind, seed, regime.ratio, report)
                 for (kind, seed), report in zip(points, reports)]

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            fh.write(csv_line(r, SWEEP_HEADER))

    best = {}
    for kind in kinds:
        scored = {}
        for r in rows:  # a dim that was not run has NaN metrics
            if r["kind"] == kind and math.isfinite(r["target_metric"]):
                scored.setdefault(r["dim"], []).append(r["target_metric"])
        if not scored:
            continue
        means = {d: sum(v) / len(v) for d, v in scored.items()}
        pick = (max if cfg.task == "blobs" else min)(means, key=means.get)  # accuracy or MSE
        best[kind] = {"best_dim": pick, "mean_target_metric": means[pick]}
    with open(os.path.join(out_dir, "sweep_summary.json"), "w") as fh:
        json.dump(best, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows, best
