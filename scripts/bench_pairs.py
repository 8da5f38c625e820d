"""Alternated parent/change benchmark pairs, recorded as one JSON file.

Run from the root of a checkout:

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_6.json

The parent revision and HEAD are exported with ``git archive`` to a temporary
directory, and the unchanged ``bench/run.py`` of each tree runs there,
every workload of ``BENCHMARK.json`` for its ``run_seconds``, one
workload and seed at a time: pair i runs seed ``SEED0 + i`` in both
trees, the parent first in even pairs and the change first in odd ones.
The file holds the environment line of the first run, per workload and
side the median and quartiles of every end-to-end metric that
``BENCHMARK.json`` declares, whether every run was correct, the failed
operations, and for each metric how many pairs the change won. It also
holds, per workload and side, the median and quartiles of every
per-layer metric over TRACE_RUNS traced runs (TRACE_SECONDS long, seeds
``SEED0``, ``SEED0 + 1``, ..., alternated as the pairs are), per
workload and per-layer metric the median and quartiles of change/parent
over those traced pairs, one Tier-1 suite wall time per tree, and each
tree's ``src_lines``, the line count of ``src/geomoment/*.py`` (as
``cat src/geomoment/*.py | wc -l``). Runs are serial, and each pins BLAS
to one thread itself. SIGTERM or SIGINT stops the running child and
deletes the temporary trees before the script exits.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

SEED0 = 701  # seed of the first pair
TRACE_SECONDS = 10
TRACE_RUNS = 3  # one traced run per side reads the same code up to 1.4x apart

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git revision of the baseline")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, root):
    """The tree of rev, unpacked into a new directory under root."""
    path = os.path.join(root, rev.replace("/", "_").replace("~", "_").replace("^", "_"))
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def bench(tree, workload, seed, seconds, trace):
    """(environment, result) of one bench/run.py run inside tree."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(ln[len("env: "):]) for ln in lines if ln.startswith("env: "))
    return env, json.loads(lines[-1])


def tier1_wall_s(tree):
    """Wall seconds and the summary line of the Tier-1 suite run inside tree."""
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall, 2), "summary": summary, "exit": proc.returncode}


def src_lines(tree):
    """Newline count of the package sources in tree, as cat src/geomoment/*.py | wc -l."""
    pkg = os.path.join(tree, "src", "geomoment")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def sides(i):
    """The order in which pair i runs the two trees."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def spread(values):
    if len(values) == 1:  # quantiles needs two points
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def traced(trees, workload):
    """Per side and per-layer metric, the spread over TRACE_RUNS alternated traced runs.

    Under "change_over_parent", per metric, the spread of change/parent
    over the traced pairs whose parent value is not 0: each pair's ratio
    cancels the host's drift between pairs.
    """
    runs = {"parent": [], "change": []}
    for i in range(TRACE_RUNS):
        for side in sides(i):
            _, result = bench(trees[side], workload, SEED0 + i, TRACE_SECONDS, 1)
            runs[side].append(result["metrics"])
    out = {side: {name: spread([r[name]["value"] for r in res if name in r])
                  for name in sorted(set().union(*res))}
           for side, res in runs.items()}
    ratios = {}
    for p, c in zip(runs["parent"], runs["change"]):
        for name in p.keys() & c.keys():
            if p[name]["value"]:
                ratios.setdefault(name, []).append(c[name]["value"] / p[name]["value"])
    out["change_over_parent"] = {name: spread(ratios[name]) for name in sorted(ratios)}
    return out


def summarize(runs, metrics):
    """Per side and metric the spread; per metric the pairs the change won."""
    out = {}
    for side in ("parent", "change"):
        res = runs[side]
        out[side] = {m["name"]: spread([r["metrics"][m["name"]]["value"] for r in res])
                     for m in metrics}
        out[side]["correct"] = all(r["correct"] for r in res)
        out[side]["failed"] = sum(r["failed"] for r in res)
    wins = {}
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        pairs = zip(out["parent"][m["name"]]["runs"], out["change"][m["name"]]["runs"])
        wins[m["name"]] = sum(1 for p, c in pairs if sign * (c - p) > 0)
    out["change_wins"] = wins
    return out


def stop(signum, frame):
    """Raise, so subprocess.run kills its child and the temporary directory is deleted."""
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    record = {
        "command": "python3 scripts/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
        "change": {"rev": "HEAD", "commit": git("rev-parse", "HEAD")},
        "pairs": args.pairs,
        "seeds": list(range(SEED0, SEED0 + args.pairs)),
        "seconds": seconds,
        "order": "parent first in even pairs (0-based), change first in odd ones",
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": export(args.parent, tmp), "change": export("HEAD", tmp)}
        record["workloads"] = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(record["seeds"]):
                for side in sides(i):
                    env, result = bench(trees[side], workload, seed, seconds, 0)
                    record.setdefault("environment", env)
                    runs[side].append(result)
                    print(f"{workload} seed {seed} {side}: ops_per_s "
                          f"{result['metrics']['ops_per_s']['value']:.1f}", flush=True)
            record["workloads"][workload] = summarize(runs, metrics)
            record["workloads"][workload]["traced"] = traced(trees, workload)
        record["tier1"] = {side: tier1_wall_s(trees[side]) for side in ("parent", "change")}
        record["src_lines"] = {side: src_lines(trees[side]) for side in ("parent", "change")}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
