import itertools

import numpy as np
import pytest

from geomoment.gradcheck import FD_BOUND, audit_network
from geomoment.network import (
    Adam,
    ClassifierHead,
    DecoderHead,
    ModelSpec,
    encoder_plan,
    full_plan,
    head_plan,
    init_model,
    mse_loss,
    softmax_cross_entropy,
    stack_backward,
    stack_forward,
    stack_runs,
    task_loss,
)
from geomoment.rng import stream


def small_classifier(input_dim=64, embed_dim=2, classes=3):
    return ModelSpec(
        input_dim=input_dim,
        encoder_layers=((8, "relu"), (embed_dim, "identity")),
        head=ClassifierHead(num_classes=classes),
    )


def test_init_is_bit_reproducible():
    spec = small_classifier()
    p1 = init_model(spec, seed=123)
    p2 = init_model(spec, seed=123)
    for (W1, b1), (W2, b2) in zip(p1, p2):
        assert W1.tobytes() == W2.tobytes()
        assert b1.tobytes() == b2.tobytes()


def test_different_seeds_differ():
    spec = small_classifier()
    p1 = init_model(spec, seed=1)
    p2 = init_model(spec, seed=2)
    assert any(not np.array_equal(W1, W2) for (W1, _), (W2, _) in zip(p1, p2))


def test_encoder_output_shape():
    spec = small_classifier(input_dim=64, embed_dim=2)
    params = init_model(spec, seed=0)
    x = stream(0, 999).standard_normal((17, 64))
    ep = encoder_plan(spec)
    z, _ = stack_forward(ep, params[: len(ep)], x)
    assert z.shape == (17, 2)


def test_plans_chain_fan_in_through_encoder_and_head():
    decoder = ModelSpec(
        input_dim=6,
        encoder_layers=((8, "tanh"), (2, "identity")),
        head=DecoderHead(layers=((5, "relu"),)),
    )
    assert full_plan(decoder) == [(6, 8, "tanh"), (8, 2, "identity"), (2, 5, "relu"),
                                  (5, 6, "identity")]
    assert head_plan(small_classifier(embed_dim=2, classes=3)) == [(2, 3, "identity")]


def test_task_loss_follows_the_head():
    x = stream(2, 999).standard_normal((5, 3))
    y = np.array([0, 1, 2, 0, 1])
    classifier = small_classifier(input_dim=3, embed_dim=2, classes=3)
    decoder = ModelSpec(input_dim=3, encoder_layers=((2, "identity"),), head=DecoderHead())
    for spec, want in ((classifier, softmax_cross_entropy(x, y)), (decoder, mse_loss(x, x))):
        loss, grad = task_loss(spec, x, x, y)
        assert loss == want[0]
        assert np.array_equal(grad, want[1])


def test_spec_rejects_zero_decoder_width():
    encoder = ((8, "relu"), (2, "identity"))
    for input_dim, head in (
        (4, DecoderHead(layers=((0, "tanh"),))),
        (4, ClassifierHead(0)),
        (4, ClassifierHead(-2)),
        (0, ClassifierHead(2)),
    ):
        with pytest.raises(ValueError, match="layer widths must be positive"):
            ModelSpec(input_dim=input_dim, encoder_layers=encoder, head=head)


def test_layer_gradients_match_fd():
    assert audit_network(seed=3) <= FD_BOUND


def test_cross_entropy_uniform_logits():
    logits = np.zeros((6, 4))
    labels = np.array([0, 1, 2, 3, 0, 1])
    loss, dlogits = softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(np.log(4.0))
    assert dlogits.sum() == pytest.approx(0.0, abs=1e-12)


def _max_sum_cross_entropy(logits, labels):
    """softmax_cross_entropy as numpy's class-axis max and sum reductions write it."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    b, k = logits.shape[-2:]
    at = np.arange(labels.size).reshape(labels.shape) * k + labels
    dlogits = np.exp(logp)
    dlogits.reshape(-1)[at] -= 1.0
    return -logp.reshape(-1)[at].mean(axis=-1), dlogits / b


def _cross_entropy_batches(rng, lead, k):
    b = int(rng.integers(1, 150))
    logits = rng.standard_normal((*lead, b, k)) * 10.0 ** rng.uniform(-2.0, 2.0)
    return logits, rng.integers(0, k, size=(*lead, b))


@pytest.mark.parametrize("k", range(2, 8))
def test_cross_entropy_folds_match_the_max_sum_formula_bitwise(k):
    rng = stream(k, 999)
    for lead in ((), (5,), (2, 3)) * 10:
        logits, labels = _cross_entropy_batches(rng, lead, k)
        got, want = softmax_cross_entropy(logits, labels), _max_sum_cross_entropy(logits, labels)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", range(2, 10))
def test_cross_entropy_of_a_stack_equals_each_batch_alone(k):
    logits, labels = _cross_entropy_batches(stream(k, 998), (5,), k)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    for r in range(5):
        alone, dalone = softmax_cross_entropy(logits[r], labels[r])
        assert loss[r].tobytes() == alone.tobytes() and dlogits[r].tobytes() == dalone.tobytes()


@pytest.mark.parametrize("runs", [2, 3, 5])
def test_stacked_backward_equals_each_run_alone(runs):
    spec = ModelSpec(input_dim=6, encoder_layers=((8, "relu"), (1, "tanh")),  # a width-1 layer
                     head=ClassifierHead(num_classes=3))
    plan, rng = full_plan(spec), stream(runs, 997)
    run_params = [init_model(spec, seed) for seed in range(runs)]
    x, dout = rng.standard_normal((runs, 40, 6)), rng.standard_normal((runs, 40, 3))
    _, caches = stack_forward(plan, stack_runs(run_params), x)
    dx, grads = stack_backward(plan, stack_runs(run_params), caches, dout)
    for r, params in enumerate(run_params):
        _, alone = stack_forward(plan, params, x[r])
        dx_r, grads_r = stack_backward(plan, params, alone, dout[r])
        assert dx[r].tobytes() == dx_r.tobytes()
        for (dW, db), (dW_r, db_r) in zip(grads, grads_r):
            assert dW[r].tobytes() == dW_r.tobytes() and db[r].tobytes() == db_r.tobytes()
    # without the input gradient, the same parameter gradients
    no_dx, same = stack_backward(plan, stack_runs(run_params), caches, dout, input_grad=False)
    assert no_dx is None
    for a, b in zip(itertools.chain(*grads), itertools.chain(*same), strict=True):
        assert a.tobytes() == b.tobytes()


def test_mse_perfect_reconstruction():
    x = stream(1, 999).standard_normal((5, 7))
    loss, grad = mse_loss(x, x)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(x))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_mse_matches_the_np_mean_form_bitwise(lead):
    # the mean is a sum over the count: np.mean's bits, which a dot product would not give
    rng = stream(len(lead), 996)
    for b, m in ((128, 64), (40, 3), (7, 5), (1, 1)):
        out, ref = rng.standard_normal((2, *lead, b, m)) * 10.0 ** rng.uniform(-3.0, 3.0)
        loss, grad = mse_loss(out, ref)
        diff = out - ref
        want = np.mean(diff**2, axis=(-2, -1))
        assert type(loss) is type(want) and np.shape(loss) == np.shape(want)
        assert loss.tobytes() == want.tobytes()
        assert grad.tobytes() == (2.0 * diff / (b * m)).tobytes()
        for r in range(lead[0] if lead else 0):  # each run of a stack as alone
            alone, galone = mse_loss(out[r], ref[r])
            assert loss[r].tobytes() == alone.tobytes() and grad[r].tobytes() == galone.tobytes()


def test_untrained_classifier_near_chance():
    rng = stream(42, 999)
    K = 4
    accs = []
    for seed in range(20):
        spec = small_classifier(input_dim=6, embed_dim=2, classes=K)
        params = init_model(spec, seed)
        x = rng.standard_normal((400, 6))
        y = np.repeat(np.arange(K), 100)
        out, _ = stack_forward(full_plan(spec), params, x)
        accs.append(np.mean(out.argmax(axis=1) == y))
    assert abs(np.mean(accs) - 1.0 / K) <= 0.08


def test_adam_reduces_quadratic():
    rng = stream(7, 999)
    W = rng.standard_normal((3, 3))
    params = [[W.copy(), np.zeros(3)]]
    opt = Adam(params, learn_rate=0.05)
    for _ in range(200):
        grads = [[2.0 * params[0][0], np.zeros(3)]]
        opt.step(params, grads)
    assert np.linalg.norm(params[0][0]) < 1e-2 * np.linalg.norm(W)


class _PerArrayAdam:
    """Adam updating each parameter array on its own: the reference for the flat Adam."""

    def __init__(self, params, learn_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learn_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [[np.zeros_like(W), np.zeros_like(b)] for W, b in params]
        self.v = [[np.zeros_like(W), np.zeros_like(b)] for W, b in params]

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            for j in range(2):
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g[j]
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g[j] ** 2
                p[j] -= self.lr * (m[j] / c1) / (np.sqrt(v[j] / c2) + self.eps)


def test_flat_adam_matches_per_array_reference_bitwise():
    spec = ModelSpec(
        input_dim=5,
        encoder_layers=((7, "relu"), (3, "tanh"), (2, "identity")),
        head=DecoderHead(layers=((4, "tanh"),)),
    )
    ref = init_model(spec, seed=4)
    params = [[W.copy(), b.copy()] for W, b in ref]
    ref_opt = _PerArrayAdam(ref, learn_rate=0.01)
    opt = Adam(params, learn_rate=0.01)
    held = [a for pair in params for a in pair]  # arrays the caller reads after construction
    rng = stream(5, 999)
    for step in range(6):
        grads = [[rng.standard_normal(W.shape), rng.standard_normal(b.shape)] for W, b in ref]
        if step % 2:
            grads[0][0] = np.asfortranarray(grads[0][0])  # layout must not change the order
        ref_opt.step(ref, grads)
        opt.step(params, grads)
        for got, want in zip(held, (a for pair in ref for a in pair)):
            assert got.tobytes() == want.tobytes()
    assert all(a is b for a, b in zip(held, (a for pair in params for a in pair)))
    with pytest.raises(ValueError):
        opt.step([list(pair) for pair in params], grads)
