"""The benchmark's workloads.

Each workload prepares its inputs from the workload seed, then runs
whole rounds of the same program calls. ``round`` is the timed part;
``collect`` (untimed) keeps what the checks need; ``check`` compares the
outputs with references computed apart from the program (see checks.py).
Program functions are always looked up at call time through their
module, so the tracer's wrappers see the benchmark's own calls too.
"""

import dataclasses
import os
import shutil
from time import perf_counter_ns

import numpy as np

import checks
from geomoment import embedding, losses, moments, runner, spd

BLOBS_CONFIG = os.path.join("configs", "blobs_airm.cfg")
DENOISE_CONFIG = os.path.join("configs", "denoise_hilbert.cfg")
TRAIN_SEEDS = 3  # training seeds per workload seed
# blobs-sweep runs are short and some seeds never open the dim-4 gate (see
# CHANGES.md), so run time depends on the seeds drawn; five of them even it out.
BLOBS_TRAIN_SEEDS = 5
SWEEP_DIMS = (2, 4)  # embedding widths inside the 10x batch regime of the blobs config

LOSS_KINDS = ("airm", "hilbert", "mean_euclid", "coral_frob", "log_euclid")
DIST_FNS = ("dist_airm", "dist_hilbert", "dist_logeuclid")
WIDTHS = (2, 8, 32, 128)
BATCH_ROWS = {2: 128, 8: 80, 32: 320, 128: 1280}  # 10 rows per feature, 128 at n=2
PAIRS = 2  # prepared (source, target) batch pairs per width
# Repeats per width per round, so that no width carries most of a round's time.
REPEATS = {2: 30, 8: 28, 32: 10, 128: 1}
GATE_ETA = 0.02  # the blobs config's eta


def train_seeds(seed, count=TRAIN_SEEDS):
    """Distinct training seeds drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.choice(1_000_000, size=count, replace=False))


def steps_per_run(cfg):
    """Optimizer steps of one run, from the config alone."""
    if cfg.task == "blobs":
        n_source = cfg.blobs.num_classes * cfg.blobs.samples_per_class
    else:
        n_source = cfg.denoise.samples
    batch = min(cfg.train_cfg.batch_source, n_source)
    return cfg.train_cfg.epochs * max(1, n_source // batch)


def read_tree(root):
    """{relative path: bytes} of every file under root."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def without_summaries(files):
    """summary.json records wall time, so it is left out of byte comparisons."""
    return {k: v for k, v in files.items() if os.path.basename(k) != "summary.json"}


def with_out_dir(cfg, out_dir):
    return dataclasses.replace(cfg, out_dir=out_dir)


class TrainingWorkload:
    """Shared round bookkeeping of the workloads that train through runner."""

    unit = "step"
    train_seed_count = TRAIN_SEEDS

    def __init__(self, seed, out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)  # runner appends to metrics.csv
        self.out_dir = out_dir
        self.seeds = train_seeds(seed, self.train_seed_count)
        self.files = {}  # round -> {path: bytes}
        self.bytes_written = {}  # round -> bytes

    def round_dir(self, r):
        return os.path.join(self.out_dir, f"round{r}")

    def collect(self, r):
        root = self.round_dir(r)
        files = read_tree(root)
        self.bytes_written[r] = sum(len(v) for v in files.values())
        self.files[r] = files if r == 0 else without_summaries(files)
        if r > 0:
            shutil.rmtree(self.round_dir(r - 1), ignore_errors=True)

    def check_determinism(self):
        first = without_summaries(self.files[0])
        out = []
        for r in sorted(self.files)[1:]:
            out += checks.check_identical(f"{self.name} round {r}", first, self.files[r])
        return out


class BlobsSweep(TrainingWorkload):
    """runner.sweep_dim on the blobs config: five kinds at beta 0.1 plus airm at beta 0."""

    name = "blobs-sweep"
    train_seed_count = BLOBS_TRAIN_SEEDS

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        cfg = runner.load_run_config(BLOBS_CONFIG)
        self.kinds = cfg.sweep_kinds
        self.adapt = dataclasses.replace(cfg, sweep_seeds=self.seeds)
        self.source_only = dataclasses.replace(
            cfg, sweep_seeds=self.seeds, sweep_kinds=("airm",),
            train_cfg=dataclasses.replace(cfg.train_cfg, beta=0.0),
        )
        self.runs_per_round = (len(self.kinds) + 1) * len(SWEEP_DIMS) * len(self.seeds)
        self.ops_per_round = self.runs_per_round * steps_per_run(cfg)
        self.epochs_per_round = self.runs_per_round * cfg.train_cfg.epochs
        self.warmup_cfg = dataclasses.replace(
            self.adapt, out_dir=os.path.join(out_dir, "warmup"),
            train_cfg=dataclasses.replace(cfg.train_cfg, epochs=1),
        )

    def warmup(self):
        runner.run_experiment(self.warmup_cfg)

    def round(self, r):
        root = self.round_dir(r)
        for part, cfg in (("adapt", self.adapt), ("source_only", self.source_only)):
            runner.sweep_dim(with_out_dir(cfg, os.path.join(root, part)), SWEEP_DIMS)
        return self.ops_per_round

    def check(self):
        files = self.files[0]
        out = []
        target = {}  # (part, kind) -> target accuracies over dims and seeds
        for part, kinds in (("adapt", self.kinds), ("source_only", ("airm",))):
            sweep_csv = files[os.path.join(part, "sweep.csv")].decode()
            rows = checks.read_csv(sweep_csv)
            points = [(d, k, s) for d in SWEEP_DIMS for k in kinds for s in self.seeds]
            # At dim 4 some seeds never open the eta = 0.02 gate (see CHANGES.md).
            out += checks.check_sweep_rows(f"{self.name} {part}", rows, points, gate_dims=(2,))
            out += checks.check_sweep_summary(
                f"{self.name} {part}", sweep_csv,
                files[os.path.join(part, "sweep_summary.json")].decode(),
            )
            for row in rows:
                d, k, s = row["dim"], row["kind"], row["seed"]
                report = files.get(os.path.join(part, f"d{d}_{k}_s{s}", "report.csv"))
                if report is None:
                    out.append(f"{self.name} {part} d{d} {k} s{s}: no report.csv")
                    continue
                out += checks.check_report(
                    f"{self.name} {part} d{d} {k} s{s}", report.decode(), accuracy=True,
                    eta=self.adapt.train_cfg.eta, gate_open_epoch=int(row["gate_open_epoch"]),
                )
            for row in rows:
                target.setdefault((part, row["kind"]), []).append(float(row["target_metric"]))
        # The paper's claim: geometric adaptation beats source-only on the same
        # seeds. It is checked over dims 2 and 4 together: at dim 2 alone a
        # mean over a few seeds is within the method's seed-to-seed spread.
        for kind in ("airm", "hilbert"):
            out += checks.check_adaptation_wins(
                f"{self.name} {kind} vs source-only", target.get(("adapt", kind), []),
                target.get(("source_only", "airm"), []), higher_better=True,
            )
        return out + self.check_determinism()


class DenoiseTrain(TrainingWorkload):
    """runner.run_experiment on the denoise config: source-only, airm and hilbert."""

    name = "denoise-train"
    METHODS = (("source_only", "hilbert", 0.0), ("airm", "airm", 0.1),
               ("hilbert", "hilbert", 0.1))

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        with open(DENOISE_CONFIG) as fh:
            parsed = runner.parse_config_text(fh.read(), DENOISE_CONFIG)
        self.configs = {}
        for method, kind, beta in self.METHODS:
            for s in self.seeds:
                self.configs[(method, s)] = runner.build_run_config(
                    dict(parsed, dist_kind=kind, beta=beta), seed=s)
        some = next(iter(self.configs.values()))
        self.runs_per_round = len(self.configs)
        self.ops_per_round = self.runs_per_round * steps_per_run(some)
        self.epochs_per_round = self.runs_per_round * some.train_cfg.epochs
        self.warmup_cfg = dataclasses.replace(
            some, out_dir=os.path.join(out_dir, "warmup"),
            train_cfg=dataclasses.replace(some.train_cfg, epochs=1),
        )

    def warmup(self):
        runner.run_experiment(self.warmup_cfg)

    def round(self, r):
        root = self.round_dir(r)
        for (method, s), cfg in self.configs.items():
            runner.run_experiment(with_out_dir(cfg, os.path.join(root, f"{method}_s{s}")))
        return self.ops_per_round

    def check(self):
        files = self.files[0]
        out = []
        mse = {}
        for method, s in self.configs:
            run = f"{method}_s{s}"
            report = files.get(os.path.join(run, "report.csv"))
            metrics = files.get(os.path.join(run, "metrics.csv"))
            if report is None or metrics is None:
                out.append(f"{self.name} {run}: missing report.csv or metrics.csv")
                continue
            row = checks.read_csv(metrics.decode())[0]
            out += checks.check_report(
                f"{self.name} {run}", report.decode(), accuracy=False,
                eta=self.configs[(method, s)].train_cfg.eta,
                gate_open_epoch=int(row["gate_open_epoch"]),
            )
            mse[(method, s)] = float(row["target_metric"])
        for s in self.seeds:
            for method in ("airm", "hilbert"):
                if (method, s) in mse and ("source_only", s) in mse:
                    out += checks.check_adaptation_wins(
                        f"{self.name} {method} vs source-only seed {s}",
                        [mse[(method, s)]], [mse[("source_only", s)]], higher_better=False,
                    )
        return out + self.check_determinism()


class StepProbe(TrainingWorkload):
    """One blobs training run (airm, dim 2), for step metrics of a workload without steps."""

    name = "step-probe"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        cfg = runner.load_run_config(BLOBS_CONFIG, seed=self.seeds[0])
        self.cfg = cfg
        self.runs_per_round = 1
        self.ops_per_round = steps_per_run(cfg)
        self.epochs_per_round = cfg.train_cfg.epochs

    def round(self, r):
        runner.run_experiment(with_out_dir(self.cfg, self.round_dir(r)))
        return self.ops_per_round


@dataclasses.dataclass
class Pair:
    """A prepared source/target batch pair with a known affine shift."""

    width: int
    zs: np.ndarray
    zt: np.ndarray
    ms: object = None  # program moments and embeddings, made during setup
    mt: object = None
    Ps: object = None
    Pt: object = None


def make_pairs(seed):
    rng = np.random.default_rng([seed, 1])
    pairs = []
    for n in WIDTHS:
        b = BATCH_ROWS[n]
        for _ in range(PAIRS):
            shift = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
            offset = 0.5 * rng.standard_normal(n) / np.sqrt(n)
            zs = rng.standard_normal((b, n))
            zt = rng.standard_normal((b, n)) @ shift.T + offset
            pairs.append(Pair(width=n, zs=zs, zt=zt))
    return pairs


class LossWide:
    """Direct calls into losses, spd and embedding on prepared batches at four widths."""

    name = "loss-wide"
    unit = "call"

    def __init__(self, seed, out_dir):
        self.out_dir = out_dir
        self.pairs = make_pairs(seed)
        for p in self.pairs:
            p.ms = moments.batch_moments(p.zs)
            p.mt = moments.batch_moments(p.zt)
            p.Ps = embedding.embed(p.ms)
            p.Pt = embedding.embed(p.mt)
        self.latency_ns = {}  # round -> {(label, kind, width): durations}
        self.first = {}  # outputs of round 0, repeat 0, keyed by (pair index, label, kind)
        self.values = {}  # round -> scalar outputs in call order
        self.ops_per_round = sum(
            REPEATS[p.width] * (len(LOSS_KINDS) + len(DIST_FNS) + 2) for p in self.pairs
        )

    def warmup(self):
        p = self.pairs[0]
        losses.dist_loss(p.zs, p.zt, "airm")

    def round(self, r):
        latency = self.latency_ns.setdefault(r, {})

        def timed(key, fn, *args):
            t0 = perf_counter_ns()
            out = fn(*args)
            latency.setdefault(key, []).append(perf_counter_ns() - t0)
            return out

        values = self.values.setdefault(r, [])
        keep = not self.first
        calls = 0
        for i, p in enumerate(self.pairs):
            n = p.width
            for rep in range(REPEATS[n]):
                for kind in LOSS_KINDS:
                    le = timed(("dist_loss", kind, n), losses.dist_loss, p.zs, p.zt, kind)
                    values.append(le.value)
                    if keep and rep == 0:
                        self.first[(i, "dist_loss", kind)] = le
                for fn in DIST_FNS:
                    kind = fn.split("_", 1)[1]
                    d = timed((fn, kind, n), getattr(spd, fn), p.Ps, p.Pt)
                    values.append(d)
                    if keep and rep == 0:
                        self.first[(i, fn, kind)] = d
                for side, m in (("source", p.ms), ("target", p.mt)):
                    g = timed(("schur_gate", side, n), embedding.schur_gate, m, GATE_ETA)
                    values.append((g.open, g.det))
                    if keep and rep == 0:
                        self.first[(i, "schur_gate", side)] = g
                calls += len(LOSS_KINDS) + len(DIST_FNS) + 2
        return calls

    def collect(self, r):
        if r > 0:
            self.values[r] = self.values[r] == self.values[0]

    def latencies(self, rounds):
        """{(label, kind, width): durations in ns} over the given rounds."""
        out = {}
        for r in rounds:
            for key, ds in self.latency_ns[r].items():
                out.setdefault(key, []).extend(ds)
        return out

    def check(self):
        out = []
        rng = np.random.default_rng(12345)
        for i, p in enumerate(self.pairs):
            tag = f"{self.name} n{p.width} pair {i}"
            for kind in LOSS_KINDS:
                le = self.first[(i, "dist_loss", kind)]
                out += checks.check_value(f"{tag} dist_loss {kind}", le.value,
                                          checks.ref_loss(p.zs, p.zt, kind))
                out += checks.check_gradient(f"{tag} dist_loss {kind} gradient", p.zs, p.zt,
                                             kind, le.grad_source, le.grad_target, rng)
            Rs = checks.ref_embed(*checks.ref_moments(p.zs))
            Rt = checks.ref_embed(*checks.ref_moments(p.zt))
            for fn in DIST_FNS:
                kind = fn.split("_", 1)[1]
                out += checks.check_value(f"{tag} {fn}", self.first[(i, fn, kind)],
                                          checks.ref_dist(Rs, Rt, kind))
            for side, z in (("source", p.zs), ("target", p.zt)):
                g = self.first[(i, "schur_gate", side)]
                out += checks.check_gate(f"{tag} schur_gate {side}", g.open, g.det, z, GATE_ETA)
        for r, same in self.values.items():
            if r > 0 and same is not True:
                out.append(f"{self.name} round {r}: outputs differ from round 0")
        return out


WORKLOADS = {w.name: w for w in (BlobsSweep, DenoiseTrain, LossWide)}
