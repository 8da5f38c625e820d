"""Compare the identity set's output files between a parent revision and HEAD.

Run from the root of a checkout:

    python3 scripts/identity_set.py --parent HEAD~1

The parent revision and HEAD are exported with ``git archive`` (the export
of ``scripts/bench_pairs.py``) to a temporary directory. In each tree,
``geomoment sweep-dim`` runs with ``OPENBLAS_NUM_THREADS=1`` on the tree's
own configs: ``configs/blobs_airm.cfg`` at embedding dims 2 and 4,
``configs/denoise_hilbert.cfg`` at dim 2, and ``configs/blobs_airm.cfg``
with a relu embedding (``encoder = 32:relu,2:relu``) and ``eta = 1e-8``
at dim 2, each over the five kinds and seeds 0-2, once at beta 0.1 and
once at beta 0. In that last sweep some steps close the gate
(``covariance_not_spd``), so the set compares skipped steps too.
``geomoment train`` then runs each config once at beta 0.1, at seed 0
(seed 1 for the relu embedding, which skips 2 steps): a sweep trains
each (dim, kind) cell's seeds together, so these single runs check the
trainer's one-run path. That writes each run's ``report.csv`` and
``summary.json``, each sweep's ``sweep.csv``, ``metrics.csv`` and
``sweep_summary.json``, and each single run's ``metrics.csv``. Each tree
also writes ``dataset_hashes.json``: the sha256 (with dtype and shape) of
every array that its ``gen_blobs`` or ``gen_denoise`` returns for each
sweep's config and seed, so a dataset change shows up array by array,
``dist_loss_hashes.json``: the sha256 of the value and gradient bytes of
``dist_loss``, beside the value and the Frobenius norms of the gradients
(the ``summary`` of each array), for each kind at widths 2, 8, 32 and 128, on batches drawn
from Philox streams (single calls, a 3-run stack, and both with
``source_moments``), which reaches the widths the sweeps never train at,
``api_hashes.json``: the sha256 of the outputs of ``embed``, ``unembed``,
``dist_airm``, ``dist_hilbert``, ``dist_logeuclid`` and ``schur_gate``,
beside the summary of each, on moment pairs drawn from Philox streams at the same widths, and
``gradcheck.txt``: the stdout of ``geomoment gradcheck --seed 0``, the
finite-difference audits of the distance-loss and network gradients. A
``summary.json`` is compared without its ``wall_time_s`` and with its
``config.out_dir`` taken relative to its side's output root. For every
file the script prints "identical", or the largest relative difference
per column (JSON leaf or list entry, or ``name: value`` line of
``gradcheck.txt``) that differs and then the largest over the numeric
columns, so a changed hash reads beside the size of its change; it exits
1 when a file is missing on one side. SIGTERM or SIGINT stops the running
child and deletes the temporary trees before the script exits.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile

from bench_pairs import export, git, stop

SCRIPTS = os.path.dirname(os.path.abspath(__file__))

KINDS = "airm,hilbert,mean_euclid,coral_frob,log_euclid"
# (name, config, embedding dims, config keys set, seed of the single run) of each sweep
SWEEPS = (
    ("blobs", "configs/blobs_airm.cfg", "2,4", {}, "0"),
    ("denoise", "configs/denoise_hilbert.cfg", "2", {}, "0"),
    ("blobs_relu", "configs/blobs_airm.cfg", "2", {"encoder": "32:relu,2:relu", "eta": "1e-8"},
     "1"),
)
SEEDS = "0,1,2"
BETAS = ("0.1", "0")
COMPARED = ("report.csv", "summary.json", "sweep.csv", "metrics.csv", "sweep_summary.json",
            "dataset_hashes.json", "dist_loss_hashes.json", "api_hashes.json", "gradcheck.txt")
HASH_WIDTHS = (2, 8, 32, 128)  # the feature widths of dist_loss_hashes.json and api_hashes.json


def with_keys(text, keys):
    """Config text with each of keys set to its value, replacing the file's own line."""
    kept = [ln for ln in text.splitlines() if ln.split("=", 1)[0].strip() not in keys]
    return "\n".join(kept + [f"{k} = {v}" for k, v in keys.items()]) + "\n"


def run_set(tree, out_root):
    """Run every sweep of the set inside tree, writing under out_root."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    for name, config, dims, keys, train_seed in SWEEPS:
        with open(os.path.join(tree, config)) as fh:
            text = with_keys(fh.read(), keys)
        for beta in BETAS:
            cfg_path = os.path.join(out_root, f"{name}_beta{beta}.cfg")
            with open(cfg_path, "w") as fh:
                fh.write(with_keys(text, {"beta": beta, "sweep.kinds": KINDS,
                                          "sweep.seeds": SEEDS}))
            cmd = [sys.executable, "-m", "geomoment.cli", "sweep-dim", "--config", cfg_path,
                   "--dims", dims, "--out", os.path.join(out_root, f"{name}_beta{beta}")]
            subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True)
        cfg_path = os.path.join(out_root, f"{name}_train.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(with_keys(text, {"beta": "0.1"}))
        cmd = [sys.executable, "-m", "geomoment.cli", "train", "--config", cfg_path,
               "--seed", train_seed, "--out", os.path.join(out_root, f"{name}_train")]
        subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True)
    cmd = [sys.executable, "-m", "geomoment.cli", "gradcheck", "--seed", "0"]
    # an audit above its bound exits 1 but still prints its errors, which are compared
    audit = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    with open(os.path.join(out_root, "gradcheck.txt"), "w") as fh:
        fh.write(audit.stdout)
    datasets = os.path.join(out_root, "dataset_hashes.json")
    losses = os.path.join(out_root, "dist_loss_hashes.json")
    api = os.path.join(out_root, "api_hashes.json")
    cmd = [sys.executable, "-c", "import identity_set; "
           f"identity_set.hash_datasets({datasets!r}); identity_set.hash_dist_losses({losses!r}); "
           f"identity_set.hash_api({api!r})"]
    env["PYTHONPATH"] = os.pathsep.join(["src", SCRIPTS])
    subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True)


def hash_datasets(out_path):
    """Write {name.s<seed>: {array: "sha256 dtype shape"}} for each sweep's config and seed.

    Runs inside a tree, with the tree's ``src`` on the path, so the arrays
    come from that tree's ``gen_blobs`` and ``gen_denoise``.
    """
    import numpy as np
    from geomoment.datasets import gen_blobs, gen_denoise
    from geomoment.runner import build_run_config, parse_config_text

    def arrays(prefix, obj):
        if isinstance(obj, np.ndarray):
            yield prefix, obj
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                yield from arrays(f"{prefix}.{f.name}" if prefix else f.name, getattr(obj, f.name))

    hashes = {}
    for name, config, _, keys, _ in SWEEPS:
        with open(config) as fh:
            parsed = parse_config_text(with_keys(fh.read(), keys))
        for seed in map(int, SEEDS.split(",")):
            cfg = build_run_config(parsed, seed=seed)
            data = gen_blobs(cfg.blobs) if cfg.task == "blobs" else gen_denoise(cfg.denoise)
            hashes[f"{name}.s{seed}"] = {
                path: f"{hashlib.sha256(a.tobytes()).hexdigest()} {a.dtype} {a.shape}"
                for path, a in arrays("", data)}
    with open(out_path, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)


def record(arrays):
    """{"sha256": of the arrays' float64 bytes, "summary": each one's value or Frobenius norm}."""
    import numpy as np

    digest = hashlib.sha256()
    summary = []
    for a in arrays:
        a = np.asarray(a, dtype=float)
        digest.update(a.tobytes())
        summary.append(float(a) if a.size == 1 else float(np.linalg.norm(a)))
    return {"sha256": digest.hexdigest(), "summary": summary}


def hash_dist_losses(out_path):
    """Write {kind.n<width>.<call>: record of the value and gradients} of dist_loss calls.

    Runs inside a tree, like hash_datasets. Each width draws one 3-run stack
    of source and target batches from its own Philox stream; the calls are
    its first run alone, the whole stack, and both again with source_moments.
    """
    from geomoment.losses import DIST_KINDS, dist_loss
    from geomoment.moments import batch_moments
    from geomoment.rng import stream

    hashes = {}
    for n in HASH_WIDTHS:
        rng = stream(n, 0)
        b = 4 * n + 12
        zs = rng.standard_normal((3, b, n)) + 0.5 * rng.standard_normal(n)
        zt = 1.3 * rng.standard_normal((3, b, n)) + rng.standard_normal(n)
        calls = {"single": (zs[0], zt[0]), "stack3": (zs, zt)}
        for kind in DIST_KINDS:
            for call, (s, t) in calls.items():
                for given, moments in (("", None), (".source_moments", batch_moments(s))):
                    le = dist_loss(s, t, kind, source_moments=moments)
                    hashes[f"{kind}.n{n}.{call}{given}"] = record(
                        (le.value, le.grad_source, le.grad_target))
    with open(out_path, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)


def hash_api(out_path):
    """Write {function.n<width>: record of its outputs} of the embedding and distance API.

    Runs inside a tree, like hash_datasets. Each width draws a source and a
    target batch from its own Philox stream; their moments go through
    embed, unembed, each spd distance (both orders) and schur_gate, called
    only as embed(m), unembed(P), dist_*(P1, P2) and schur_gate(m, eta).
    """
    from geomoment.embedding import embed, schur_gate, unembed
    from geomoment.moments import batch_moments
    from geomoment.rng import stream
    from geomoment.spd import dist_airm, dist_hilbert, dist_logeuclid

    hashes = {}
    for n in HASH_WIDTHS:
        rng = stream(n, 1)
        b = 4 * n + 12
        ms = batch_moments(rng.standard_normal((b, n)) + 0.5 * rng.standard_normal(n))
        mt = batch_moments(1.3 * rng.standard_normal((b, n)) + rng.standard_normal(n))
        Ps, Pt = embed(ms), embed(mt)
        back = unembed(Pt)
        outputs = {"embed": (Ps, Pt), "unembed": (back.mean, back.cov)}
        for dist in (dist_airm, dist_hilbert, dist_logeuclid):
            outputs[dist.__name__] = (dist(Ps, Pt), dist(Pt, Ps))
        outputs["schur_gate"] = [(g.open, g.det, g.logdet) for m in (ms, mt)
                                 for g in (schur_gate(m, 1e-8), schur_gate(m, 1.0))]
        for name, arrays in outputs.items():
            hashes[f"{name}.n{n}"] = record(arrays)
    with open(out_path, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)


def output_files(root):
    """Relative paths of the compared files under root."""
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files if f in COMPARED)


def comparable(rel, text, root):
    """The file's text as compared: a summary.json without the wall time and the output root."""
    if os.path.basename(rel) != "summary.json":
        return text
    summary = json.loads(text)
    del summary["wall_time_s"]
    config = summary["config"]
    config["out_dir"] = os.path.relpath(config["out_dir"], root)
    return json.dumps(summary, indent=2, sort_keys=True)


def columns(path, text):
    """Column name -> list of cell texts of a CSV file, leaf key -> [value] of a JSON file,
    or name -> [value] of a text file's ``name: value`` lines."""
    if path.endswith(".txt"):
        return {k: [v.strip()] for k, _, v in (ln.rpartition(":") for ln in text.splitlines())}
    if path.endswith(".json"):
        flat = {}

        def walk(prefix, v):
            if isinstance(v, dict):
                for k, w in v.items():
                    walk(f"{prefix}.{k}" if prefix else k, w)
            elif isinstance(v, list):
                for i, w in enumerate(v):
                    walk(f"{prefix}.{i}", w)
            else:
                flat[prefix] = [str(v)]

        walk("", json.loads(text))
        return flat
    rows = list(csv.DictReader(io.StringIO(text)))
    return {k: [r[k] for r in rows] for k in (rows[0] if rows else {})}


def rel_diff(a, b):
    """Relative difference of two cell texts: 0 when equal, inf when not both numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def compare(path, parent_text, change_text):
    """'identical', or 'column max-rel-diff' for every column that differs, then the largest
    numeric one."""
    if parent_text == change_text:
        return "identical"
    ours, theirs = columns(path, parent_text), columns(path, change_text)
    diffs = []
    largest = 0.0
    for col in sorted(set(ours) | set(theirs)):
        a, b = ours.get(col), theirs.get(col)
        if a is None or b is None or len(a) != len(b):
            diffs.append(f"{col} shape differs")
            continue
        worst = max((rel_diff(x, y) for x, y in zip(a, b)), default=0.0)
        if worst:
            diffs.append(f"{col} {worst:.2e}")
        if not math.isinf(worst):
            largest = max(largest, worst)
    return "differs: " + ", ".join(diffs) + f"; largest numeric relative difference {largest:.2e}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git revision of the baseline")
    args = ap.parse_args(argv)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    print(f"parent {git('rev-parse', args.parent)}, change {git('rev-parse', 'HEAD')}")
    with tempfile.TemporaryDirectory(prefix="identity_set_") as tmp:
        outs = {}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            tree = export(rev, os.path.join(tmp, side))
            outs[side] = os.path.join(tmp, side, "out")
            os.makedirs(outs[side])
            run_set(tree, outs[side])
        files = {side: output_files(root) for side, root in outs.items()}
        missing = sorted(set(files["parent"]) ^ set(files["change"]))
        identical = 0
        for rel in sorted(set(files["parent"]) & set(files["change"])):
            texts = []
            for side in ("parent", "change"):
                with open(os.path.join(outs[side], rel)) as fh:
                    texts.append(comparable(rel, fh.read(), outs[side]))
            verdict = compare(rel, *texts)
            identical += verdict == "identical"
            print(f"{rel}: {verdict}")
        for rel in missing:
            print(f"{rel}: on one side only")
        print(f"{identical} of {len(files['change'])} files identical")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
