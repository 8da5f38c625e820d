"""Span tracer that wraps geomoment's public functions from outside.

Each wrapper is installed at the module attribute its callers look the
function up by (``geomoment.trainer.dist_loss`` wraps the loss as the
trainer sees it), so nothing under ``src/`` changes. Spans are kept in
memory as parallel lists of name, start, end and parent, and written out
when the benchmark ends. A name that a version of the code no longer
has is skipped: it counts as zero calls.
"""

import importlib
import statistics
from time import perf_counter_ns

import numpy as np

# (module whose namespace holds the name, names looked up there)
LOOKUPS = (
    ("runner", ("sweep_dim", "run_experiment", "train", "gen_blobs", "gen_denoise",
                "check_regime")),
    ("trainer", ("evaluate", "schur_gate", "batch_moments", "check_regime", "dist_loss",
                 "init_model", "model_forward", "stack_forward", "stack_backward",
                 "softmax_cross_entropy", "mse_loss")),
    ("losses", ("dist_loss", "batch_moments", "embed", "validate_spd", "dist_airm",
                "dist_hilbert", "pencil_eigh", "eigh_sym")),
    ("embedding", ("schur_gate", "validate_spd")),
    ("spd", ("dist_airm", "dist_hilbert", "dist_logeuclid", "pencil_eigvals",
             "eigvals_sym", "eigh_sym", "matrix_log")),
    ("network", ("stack_forward",)),
)
OPTIMIZER_FACTORY = ("trainer", "make_optimizer")  # its optimizer's step is wrapped too

GEOMETRIC = ("airm", "hilbert")


def _label(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _dist_loss_tag(args, kwargs, result):
    """(kind, width, gradients all zero) of one dist_loss call."""
    kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
    zs = args[0] if args else kwargs.get("zs")
    width = getattr(zs, "n", None) or int(np.shape(zs)[1])  # FeatureBatch or array
    zeroed = result is not None and not (
        np.any(result.grad_source) or np.any(result.grad_target)
    )
    return kind, width, zeroed


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.tag = [], [], [], [], []
        self._stack = []
        self._patched = []

    def wrap(self, label, fn, tag=None):
        name, start, end, parent, tags, stack = (
            self.name, self.start, self.end, self.parent, self.tag, self._stack)

        def traced(*args, **kwargs):
            i = len(start)
            name.append(label)
            parent.append(stack[-1] if stack else -1)
            tags.append(None)
            end.append(0)
            stack.append(i)
            result = None
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
                if tag is not None:
                    tags[i] = tag(args, kwargs, result)

        return traced

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self):
        for modname, attrs in LOOKUPS:
            module = importlib.import_module(f"geomoment.{modname}")
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                label = _label(fn)
                tag = _dist_loss_tag if label == "losses.dist_loss" else None
                self._patch(module, attr, self.wrap(label, fn, tag))
        modname, attr = OPTIMIZER_FACTORY
        module = importlib.import_module(f"geomoment.{modname}")
        factory = getattr(module, attr, None)
        if factory is not None:
            def make_optimizer(*args, **kwargs):
                opt = factory(*args, **kwargs)
                opt.step = self.wrap("network.optimizer_step", opt.step)
                return opt
            self._patch(module, attr, make_optimizer)
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)
        return False

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{i},{n},{s},{e},{p}\n")


class SpanStats:
    """Per-layer reductions of one tracer's spans."""

    def __init__(self, tracer):
        self.t = tracer
        count = len(tracer.name)
        dur = np.array(tracer.end, dtype=np.int64) - np.array(tracer.start, dtype=np.int64)
        parent = np.array(tracer.parent, dtype=np.int64)
        child = np.zeros(count, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self.dur_ns = dur
        self.self_ns = dur - child
        self.layer = [n.split(".", 1)[0] for n in tracer.name]
        self.in_loss = self._nearest(lambda n: n == "losses.dist_loss")
        self.in_eval = self._nearest(lambda n: n == "trainer.evaluate")
        self.in_network = self._nearest(lambda n: n.startswith("network."), strict=True)

    def _nearest(self, pred, strict=False):
        """Per span, the nearest enclosing span matching pred, itself included
        unless strict; -1 when there is none."""
        out = []
        for i, (n, p) in enumerate(zip(self.t.name, self.t.parent)):
            up = out[p] if p >= 0 else -1
            if strict:
                out.append(p if p >= 0 and pred(self.t.name[p]) else up)
            else:
                out.append(i if pred(n) else up)
        return out

    def layer_self_us(self, layer):
        return sum(int(s) for s, lay in zip(self.self_ns, self.layer) if lay == layer) / 1e3

    def spans(self, label):
        return [i for i, n in enumerate(self.t.name) if n == label]

    def durations_us(self, label):
        return [self.dur_ns[i] / 1e3 for i in self.spans(label)]

    def geometric_losses(self):
        return [i for i in self.spans("losses.dist_loss") if self.t.tag[i][0] in GEOMETRIC]

    def per_geometric_loss(self, labels):
        """Calls of the given spans made inside geometric dist_loss calls, per such call."""
        losses = set(self.geometric_losses())
        if not losses:
            return 0.0
        hits = sum(1 for i, n in enumerate(self.t.name)
                   if n in labels and self.in_loss[i] in losses)
        return hits / len(losses)

    def zeroed_grad_calls(self):
        return sum(1 for i in self.spans("losses.dist_loss") if self.t.tag[i][2])

    def network_us(self, labels, steps):
        """Time in top-level network spans of the given names outside evaluation."""
        total = sum(self.dur_ns[i] for i, n in enumerate(self.t.name)
                    if n in labels and self.in_network[i] < 0 and self.in_eval[i] < 0)
        return total / 1e3 / steps

    def moments_calls_per_adapting_step(self):
        """batch_moments calls per optimizer step that evaluated dist_loss."""
        calls = adapting = 0
        step_calls, step_adapts = 0, False
        for n in self.t.name:
            if n == "moments.batch_moments":
                step_calls += 1
            elif n == "losses.dist_loss":
                step_adapts = True
            elif n == "trainer.train":
                step_calls, step_adapts = 0, False
            elif n == "network.optimizer_step":
                if step_adapts:
                    adapting += 1
                    calls += step_calls
                step_calls, step_adapts = 0, False
        return calls / adapting if adapting else 0.0


def p50(values):
    return float(statistics.median(values)) if values else 0.0
