"""Benchmark of geomoment's training loop, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload <blobs-sweep|denoise-train|loss-wide> \
        --seed <n> --seconds <s> --trace <0|1>

With --trace 0 it times whole rounds of the workload and reports the
end-to-end metrics; with --trace 1 it runs rounds alternately untraced
and traced and reports the per-layer metrics. Either way the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. BLAS is pinned to one thread before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

OUT_ROOT = ".bench_out"
SRC = "src"
SETUP_SAMPLES = 5  # child processes timed from start to their first timed call
SETUP_INTERVAL_S = 0.03  # host-speed sampling interval while a child sets up
MIN_ROUNDS = 2  # the determinism checks compare two rounds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and warm up, print 'ready' and the host-speed samples, "
                         "and exit (used to time set-up)")
    return ap.parse_args(argv)


def load_program():
    """Put the checkout's src/ first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "geomoment", "__init__.py")):
        sys.exit(f"bench: {os.path.join(SRC, 'geomoment')} not found; run from a checkout root")
    sys.path.insert(0, os.path.abspath(SRC))


def blas_threads(numpy):
    """Thread count OpenBLAS reports at run time, or None where it cannot be asked."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": blas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def sample_setup(args):
    """Reference seconds from starting a child process to its first timed call.

    The child samples the host's speed while it sets up and reports the
    probes' total time and its mean speed after "ready"; the probes' time
    is taken out of the wall time, and the rest converted at that speed.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    fields = line.split()
    if fields[:1] != ["ready"] or len(fields) != 3 or proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode} after {line!r}")
    probe_s, speed = map(float, fields[1:])
    return (elapsed - probe_s) * speed


def make_workload(args):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    out_dir = os.path.join(OUT_ROOT, args.workload)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    wl.warmup()
    return wl


def run_timed(args):
    import hostspeed

    setups = [sample_setup(args) for _ in range(SETUP_SAMPLES)]
    wl = make_workload(args)
    windows = []
    ops = r = 0
    start = perf_counter()
    while r < MIN_ROUNDS or perf_counter() - start + windows[-1].wall_s <= args.seconds:
        with hostspeed.Window() as w:
            ops += wl.round(r)
        windows.append(w)
        wl.collect(r)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = wl.check()
    wall_s = sum(w.program_s for w in windows)
    reference_s = sum(w.reference_s for w in windows)
    print(f"rounds: {r}, round walls s: {[round(w.wall_s, 4) for w in windows]}, "
          f"host slowdown per round: {[round(w.program_s / w.reference_s, 3) for w in windows]}, "
          f"wall ops/s: {ops / wall_s:.2f}, "
          f"set-up samples ref s: {[round(s, 4) for s in setups]}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / reference_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return failures, ops, metrics


def run_traced(args):
    import spans
    import workloads

    wl = make_workload(args)
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    plain_rounds, traced_rounds = [], []
    ops = r = 0
    start = perf_counter()
    while not traced_rounds or perf_counter() - start + pair_s <= args.seconds:
        t0 = perf_counter()
        ops += wl.round(r)
        pair_s = perf_counter() - t0
        plain_s += pair_s
        wl.collect(r)
        plain_rounds.append(r)
        t0 = perf_counter()
        with tracer:
            ops += wl.round(r + 1)
        traced_s += perf_counter() - t0
        pair_s += perf_counter() - t0
        wl.collect(r + 1)
        traced_rounds.append(r + 1)
        r += 2
    failures = wl.check()
    stats = spans.SpanStats(tracer)
    traced_ops = wl.ops_per_round * len(traced_rounds)
    os.makedirs(wl.out_dir, exist_ok=True)
    tracer.write(os.path.join(wl.out_dir, "spans.csv"))

    if wl.unit == "step":
        step_wl, step_stats, step_rounds = wl, stats, traced_rounds
        table = workloads.LossWide(args.seed, os.path.join(OUT_ROOT, "kernel-table"))
        for k in range(MIN_ROUNDS):
            table.round(k)
            table.collect(k)
        failures += table.check()
        latencies = table.latencies(range(MIN_ROUNDS))
    else:
        step_wl = workloads.StepProbe(args.seed, os.path.join(OUT_ROOT, "step-probe"))
        step_tracer = spans.Tracer()
        with step_tracer:
            step_wl.round(0)
        step_wl.collect(0)
        step_stats, step_rounds = spans.SpanStats(step_tracer), [0]
        step_tracer.write(os.path.join(wl.out_dir, "step_probe_spans.csv"))
        latencies = wl.latencies(plain_rounds)

    metrics = layer_metrics(stats, traced_ops, step_wl, step_stats, step_rounds, latencies)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    print(f"rounds untraced {plain_rounds} traced {traced_rounds}; "
          f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    return failures, ops, metrics


def layer_metrics(stats, ops, step_wl, step_stats, step_rounds, latencies):
    """Per-layer metrics; step and run metrics come from step_stats."""
    from spans import p50
    from workloads import DIST_FNS, LOSS_KINDS, WIDTHS

    def us(v):
        return (v, "us")

    steps = step_wl.ops_per_round * len(step_rounds)
    runs = step_wl.runs_per_round * len(step_rounds)
    epochs = step_wl.epochs_per_round * len(step_rounds)
    gens = (step_stats.durations_us("datasets.gen_blobs")
            + step_stats.durations_us("datasets.gen_denoise"))
    written = statistics.mean(step_wl.bytes_written[r] for r in step_rounds)
    m = {
        "spd.busy_us_per_op": us(stats.layer_self_us("spd") / ops),
        "spd.factorizations_per_loss": (
            stats.per_geometric_loss({"spd.pencil_eigvals", "spd.pencil_eigh"}), "count"),
        "spd.validations_per_loss": (stats.per_geometric_loss({"spd.validate_spd"}), "count"),
    }
    for fn in DIST_FNS:
        kind = fn.split("_", 1)[1]
        for n in WIDTHS:
            m[f"spd.dist.{kind}.n{n}.us_p50"] = us(p50(latencies[(fn, kind, n)]) / 1e3)
    m["embedding.busy_us_per_op"] = us(stats.layer_self_us("embedding") / ops)
    m["embedding.gate_us_p50"] = us(p50(stats.durations_us("embedding.schur_gate")))
    m["moments.busy_us_per_op"] = us(stats.layer_self_us("moments") / ops)
    m["moments.calls_per_step"] = (step_stats.moments_calls_per_adapting_step(), "count")
    m["losses.busy_us_per_op"] = us(stats.layer_self_us("losses") / ops)
    for kind in LOSS_KINDS:
        for n in WIDTHS:
            m[f"losses.dist_loss.{kind}.n{n}.us_p50"] = us(
                p50(latencies[("dist_loss", kind, n)]) / 1e3)
    m["losses.zeroed_grad_calls"] = (stats.zeroed_grad_calls(), "count")
    m["network.forward_us_per_step"] = us(
        step_stats.network_us({"network.model_forward", "network.stack_forward"}, steps))
    m["network.backward_us_per_step"] = us(
        step_stats.network_us({"network.stack_backward"}, steps))
    m["network.optimizer_us_per_step"] = us(
        step_stats.network_us({"network.optimizer_step"}, steps))
    m["trainer.busy_us_per_op"] = us(step_stats.layer_self_us("trainer") / steps)
    m["trainer.evaluate_ms_per_epoch"] = (
        sum(step_stats.durations_us("trainer.evaluate")) / 1e3 / epochs, "ms")
    m["datasets.gen_ms"] = (sum(gens) / len(gens) / 1e3 if gens else 0.0, "ms")
    m["runner.busy_ms_per_run"] = (step_stats.layer_self_us("runner") / 1e3 / runs, "ms")
    m["runner.bytes_written_per_run"] = (written / runs, "bytes")
    return m


def main(argv=None):
    args = parse_args(argv)
    load_program()
    if args.setup_only:
        import hostspeed

        with hostspeed.Window(SETUP_INTERVAL_S) as w:
            make_workload(args)
        print(f"ready {sum(w.probe_s)!r} {w.speed!r}", flush=True)
        return 0
    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    failures, ops, metrics = (run_traced if args.trace else run_timed)(args)
    if env["blas_threads"] not in (None, 1):
        failures.append(f"OpenBLAS runs {env['blas_threads']} threads, not 1")
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": ops,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
