"""Minimal hand-differentiated feed-forward networks.

Dense stacks with relu/tanh/identity activations, a linear classifier
head or a dense decoder head, fan-in-scaled uniform initialization from
a Philox stream, and Adam updates. Everything is float64 numpy and
bit-reproducible for a given seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import STREAM_INIT, stream

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class ClassifierHead:
    num_classes: int


@dataclass(frozen=True)
class DecoderHead:
    layers: tuple = ()  # hidden (width, activation) pairs before the linear output to input_dim


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    encoder_layers: tuple  # (width, activation) pairs; last width is the embedding
    head: object

    def __post_init__(self):
        if not self.encoder_layers:
            raise ValueError("encoder needs at least one layer")
        for fan_in, fan_out, act in full_plan(self):
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
            if fan_in < 1 or fan_out < 1:
                raise ValueError("layer widths must be positive")

    @property
    def embed_dim(self):
        return self.encoder_layers[-1][0]


def _plan(fan_in, layers):
    """(fan_in, fan_out, activation) triples of a dense stack of (width, activation) layers."""
    plan = []
    for width, act in layers:
        plan.append((fan_in, width, act))
        fan_in = width
    return plan


def encoder_plan(spec):
    return _plan(spec.input_dim, spec.encoder_layers)


def head_plan(spec):
    head = spec.head
    if isinstance(head, ClassifierHead):
        return _plan(spec.embed_dim, ((head.num_classes, "identity"),))
    return _plan(spec.embed_dim, (*head.layers, (spec.input_dim, "identity")))


def full_plan(spec):
    return encoder_plan(spec) + head_plan(spec)


def init_model(spec, seed):
    """Parameters as a list of [W, b]; W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), b = 0."""
    rng = stream(seed, STREAM_INIT)
    params = []
    for fan_in, fan_out, _ in full_plan(spec):
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params.append([W, np.zeros(fan_out)])
    return params


def stack_runs(run_params):
    """One parameter list for a stack of runs' [W, b] lists.

    Each array gains a leading run axis; one run's list is returned as
    it is, so a single run keeps its 2-D weights.
    """
    if len(run_params) == 1:
        return run_params[0]
    return [[np.stack(arrays) for arrays in zip(*pairs)] for pairs in zip(*run_params)]


def split_runs(params, runs):
    """Each run's [W, b] list, as views of the parameters of a stack of runs."""
    return [[[W.reshape(runs, *W.shape[-2:])[r], b.reshape(runs, -1)[r]] for W, b in params]
            for r in range(runs)]


def _act(name, pre):
    """The activation of pre, written over pre."""
    if name == "relu":
        return np.maximum(pre, 0.0, out=pre)
    if name == "tanh":
        return np.tanh(pre, out=pre)
    return pre


def _act_grad(name, post, dh):
    """dh taken back through the activation whose output is post; identity returns dh itself."""
    if name == "relu":
        return dh * (post > 0)  # relu's output is > 0 exactly where its input is
    if name == "tanh":
        d = np.square(post)
        np.subtract(1.0, d, out=d)
        return np.multiply(dh, d, out=d)
    return dh


def stack_forward(plan, params, x):
    """Dense stack on x (..., b, fan_in); parameters may carry the same leading run axes."""
    caches = []
    h = np.asarray(x, dtype=float)
    for (_, _, act), (W, b) in zip(plan, params):
        pre = h @ W
        pre += b[..., None, :]
        post = _act(act, pre)
        caches.append((h, post))
        h = post
    return h, caches


def stack_backward(plan, params, caches, dout, input_grad=True):
    """Returns (dx, grads) with grads aligned to params, each with the stack's leading axes.

    Without input_grad, dx (the gradient w.r.t. the stack's input) is not
    computed and is None: the encoder's callers have no use for it.
    """
    grads = [None] * len(plan)
    dh = dout
    for i in range(len(plan) - 1, -1, -1):
        _, _, act = plan[i]
        W, _ = params[i]
        hin, post = caches[i]
        dpre = _act_grad(act, post, dh)  # dh itself for identity: written nowhere
        # einsum: sum(axis=-2)'s bits at width > 1, in fewer numpy dispatches
        grads[i] = [hin.mT @ dpre, np.einsum("...ij->...j", dpre)]
        dh = dpre @ W.mT if i or input_grad else None
    return dh, grads


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy and its gradient w.r.t. the logits.

    logits (..., b, k) and integer labels (..., b): one mean per batch
    of the stack, a numpy scalar for a single batch.
    """
    b, k = logits.shape[-2:]
    # the class-axis max and sum as folds over the columns, each a few elementwise ops
    # against numpy's slow short-axis reductions; below 8 classes numpy sums in this order
    top = logits[..., 0]
    for j in range(1, k):
        top = np.maximum(top, logits[..., j])
    shifted = logits - top[..., None]
    e = np.exp(shifted)
    z = e[..., 0]
    for j in range(1, k):
        z = z + e[..., j]
    logp = shifted - np.log(z)[..., None]
    at = np.arange(labels.size).reshape(labels.shape) * k + labels  # flat index of each label
    loss = -logp.reshape(-1)[at].mean(axis=-1)
    dlogits = np.exp(logp)
    dlogits.reshape(-1)[at] -= 1.0
    return loss, dlogits / b


def mse_loss(out, ref):
    """Mean squared error over each batch's entries and its gradient w.r.t. out.

    One mean per batch of a stack (..., b, m), a numpy scalar for a single batch.
    """
    diff = out - ref
    count = diff.shape[-2] * diff.shape[-1]
    loss = np.square(diff).sum(axis=(-2, -1)) / count  # np.mean's bits, without its wrapper
    diff *= 2.0
    diff /= count
    return loss, diff


def task_loss(spec, out, x, y):
    """The head's loss on out and its gradient: cross-entropy on labels y, or MSE against x."""
    if isinstance(spec.head, ClassifierHead):
        return softmax_cross_entropy(out, y)
    return mse_loss(out, x)


class Adam:
    """Adam over one flat parameter buffer.

    The constructor copies the parameter arrays into one buffer and
    rebinds every entry of params to a view of it, so the caller's lists
    see each update while a step runs its three elementwise update
    expressions once over all parameters. step takes the same list.
    The parameters of a stack of R runs (stack_runs) share one R x P
    buffer, a row per run; the runs step together.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, learn_rate):
        self.lr = learn_rate
        self.t = 0
        self.params = params
        self.lead = params[0][1].shape[:-1]  # the first bias's leading run axes
        self.flat = self._flatten(params)
        offset = 0
        for pair in params:
            for j, a in enumerate(pair):
                size = math.prod(a.shape[len(self.lead) :])
                pair[j] = self.flat[..., offset : offset + size].reshape(a.shape)
                offset += size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def _flatten(self, arrays):
        return np.concatenate([a.reshape(*self.lead, -1) for pair in arrays for a in pair],
                              axis=-1)

    def step(self, params, grads):
        if params is not self.params:
            raise ValueError("Adam.step needs the parameter list it was built with")
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        g = self._flatten(grads)
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * g
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * g**2
        self.flat -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.EPS)


def make_optimizer(params, learn_rate):
    """The training loop's optimizer: Adam at the learning rate."""
    return Adam(params, learn_rate)
