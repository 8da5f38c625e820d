"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import dataclasses
import math
import time

import numpy as np

from geomoment.bounds import fisher_rao_univariate, hilbert_discrete, tv_discrete
from geomoment.datasets import BlobsConfig, DenoiseConfig, gen_blobs, gen_denoise
from geomoment.embedding import GaussianMoments, embed
from geomoment.gradcheck import FD_BOUND, audit_dist_loss, audit_network
from geomoment.network import ClassifierHead, DecoderHead, ModelSpec
from geomoment.rng import stream
from geomoment.runner import load_run_config
from geomoment.spd import dist_airm, dist_hilbert
from geomoment.trainer import TrainConfig, batch_rows, batch_sizes, train
from helpers import rand_invertible, rand_spd
from test_bounds import geodesic_quadrature

# ---------------------------------------------------------------- experiment
# Desk-scale covariate-shift classification (criterion 6). The pi/3
# rotation rotates every within-class covariance ellipse in full while
# displacing the tilted class centers by less than the class separation;
# the translation erodes the margin the source classifier relies on.
BLOBS = BlobsConfig(
    num_classes=3,
    samples_per_class=300,
    input_dim=4,
    center_radius=2.2,
    cov_scale=1.4,
    target_rotation=math.pi / 3,
    target_translation=(0.0, 0.0, -1.8, 1.2),
    seed=0,
)
BLOBS_SPEC = ModelSpec(
    input_dim=4,
    encoder_layers=((32, "relu"), (2, "identity")),
    head=ClassifierHead(num_classes=3),
)
BLOBS_TRAIN = TrainConfig(
    dist_kind="airm",
    beta=0.1,
    eta=0.02,
    epochs=60,
    batch_source=128,
    batch_target=128,
    learn_rate=1e-3,
    seed=0,
)

DENOISE = DenoiseConfig(length=64, samples=1200, seed=0)
DENOISE_SPEC = ModelSpec(
    input_dim=64,
    encoder_layers=((24, "tanh"), (2, "identity")),
    head=DecoderHead(layers=((24, "tanh"),)),
)
DENOISE_TRAIN = TrainConfig(
    dist_kind="airm",
    beta=0.1,
    eta=1e-8,
    epochs=40,
    batch_source=128,
    batch_target=128,
    learn_rate=2e-3,
    seed=0,
)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _stacked_runs(gen, data_cfg, train_cfg, spec, seeds):
    """run(kind, beta): each seed's report of one method, its seeds trained as one stack.

    Each seed's data and batch rows are made once and shared by every
    method, as a sweep shares them; each run is bit for bit as alone.
    """
    data = [gen(dataclasses.replace(data_cfg, seed=s)) for s in seeds]
    sets = [(d.source_train, d.target_train, d.source_eval, d.target_eval) for d in data]
    sizes = batch_sizes(train_cfg, len(sets[0][0].x), len(sets[0][1].x))
    draws = batch_rows(seeds, *sizes)
    batches = [next(draws) for _ in range(train_cfg.epochs)]

    def run(kind, beta):
        cfgs = [dataclasses.replace(train_cfg, dist_kind=kind, beta=beta, seed=s) for s in seeds]
        return train(cfgs, spec, *zip(*sets), batches=batches)
    return run


def test_criterion_1_metric_axioms():
    t0 = time.perf_counter()
    rng = stream(101, 0)
    worst_sym = 0.0
    worst_tri = 0.0
    worst_aff = 0.0
    min_dist = math.inf
    for _ in range(1000):
        P = rand_spd(rng, 5)
        Q = rand_spd(rng, 5)
        R = rand_spd(rng, 5)
        dpq = dist_airm(P, Q)
        worst_sym = max(worst_sym, abs(dpq - dist_airm(Q, P)))
        worst_tri = max(worst_tri, dist_airm(P, R) - dpq - dist_airm(Q, R))
        min_dist = min(min_dist, dpq)
        assert dist_airm(P, P) <= 1e-10
        A = rand_invertible(rng, 5, cond=100.0)
        d1 = dist_airm(A @ P @ A.T, A @ Q @ A.T)
        worst_aff = max(worst_aff, abs(d1 - dpq) / (1.0 + dpq))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_sym <= 1e-10
        and worst_tri <= 1e-9
        and min_dist > 1e-9
        and worst_aff <= 1e-8
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        f"metric axioms on 1000 SPD 5x5 triples (sym {worst_sym:.2e}, "
        f"triangle slack {worst_tri:.2e}, affine {worst_aff:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_projective_invariance():
    rng = stream(102, 0)
    worst = 0.0
    for _ in range(1000):
        P = rand_spd(rng, 5)
        Q = rand_spd(rng, 5)
        a, b = np.exp(rng.uniform(-3, 3, size=2))
        worst = max(worst, abs(dist_hilbert(a * P, b * Q) - dist_hilbert(P, Q)))
    ok = worst <= 1e-10
    _report(2, ok, f"Hilbert distance scale invariance on 1000 pairs (worst {worst:.2e})")


def test_criterion_3_fisher_rao_lower_bound():
    rng = stream(103, 0)
    # oracle cross-validation first
    worst_oracle = 0.0
    for _ in range(25):
        mu1, mu2 = rng.uniform(-3, 3, size=2)
        s1, s2 = rng.uniform(0.2, 5.0, size=2)
        closed = fisher_rao_univariate(mu1, s1, mu2, s2)
        numeric = geodesic_quadrature(mu1, s1, mu2, s2)
        worst_oracle = max(worst_oracle, abs(closed - numeric) / max(closed, 1e-12))
    ok_oracle = worst_oracle <= 1e-4

    worst_gap = -math.inf
    for _ in range(500):
        mu1, mu2 = rng.uniform(-3, 3, size=2)
        s1, s2 = rng.uniform(0.2, 5.0, size=2)
        P1 = embed(GaussianMoments(mean=[mu1], cov=[[s1**2]]))
        P2 = embed(GaussianMoments(mean=[mu2], cov=[[s2**2]]))
        worst_gap = max(worst_gap, dist_airm(P1, P2) - fisher_rao_univariate(mu1, s1, mu2, s2))
    ok_bound = worst_gap <= 1e-9

    worst_eq = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        S1 = rand_spd(rng, n)
        S2 = rand_spd(rng, n)
        P1 = embed(GaussianMoments(mean=np.zeros(n), cov=S1))
        P2 = embed(GaussianMoments(mean=np.zeros(n), cov=S2))
        worst_eq = max(worst_eq, abs(dist_airm(P1, P2) - dist_airm(S1, S2)))
    ok_eq = worst_eq <= 1e-10

    ok = ok_oracle and ok_bound and ok_eq
    _report(
        3,
        ok,
        f"embedded distance lower-bounds Fisher-Rao (oracle err {worst_oracle:.2e}, "
        f"max bound violation {worst_gap:.2e}, equal-mean gap {worst_eq:.2e})",
    )


def test_criterion_4_tv_tanh_chain():
    t0 = time.perf_counter()
    rng = stream(104, 0)
    masks = {
        k: (np.arange(1 << k)[:, None] >> np.arange(k)) & 1 for k in range(2, 9)
    }
    worst_violation = -math.inf
    worst_bf = 0.0
    n_pairs = 10_000
    for k in range(2, 9):
        m = n_pairs // 7 + (1 if k - 2 < n_pairs % 7 else 0)
        p = np.maximum(rng.dirichlet(np.ones(k), size=m), 1e-6)
        q = np.maximum(rng.dirichlet(np.ones(k), size=m), 1e-6)
        p /= p.sum(axis=1, keepdims=True)
        q /= q.sum(axis=1, keepdims=True)
        tv = np.abs(p - q).sum(axis=1)
        bf = 2.0 * np.max(np.abs((p - q) @ masks[k].T), axis=1)
        worst_bf = max(worst_bf, float(np.max(np.abs(tv - bf))))
        logr = np.log(p) - np.log(q)
        dh = logr.max(axis=1) - logr.min(axis=1)
        rhs = 2.0 * np.tanh(dh / 4.0)
        worst_violation = max(worst_violation, float(np.max(tv - rhs)))
    worked = (
        tv_discrete([0.5, 0.5], [0.25, 0.75]),
        2.0 * math.tanh(hilbert_discrete([0.5, 0.5], [0.25, 0.75]) / 4.0),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_violation <= 1e-12
        and worst_bf <= 1e-12
        and abs(worked[0] - 0.5) <= 1e-12
        and abs(worked[1] - 0.5358983848622454) <= 1e-12
        and elapsed < 30.0
    )
    _report(
        4,
        ok,
        f"d_TV <= 2 tanh(d_H/4) on 10^4 pairs, TV matching exhaustive enumeration "
        f"(max violation {worst_violation:.2e}, enum gap {worst_bf:.2e}, worked pair "
        f"lhs {worked[0]:.4f} rhs {worked[1]:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_5_gradient_audit():
    t0 = time.perf_counter()
    worst_loss = audit_dist_loss(seed=105)
    worst_net = audit_network(seed=105)
    elapsed = time.perf_counter() - t0
    ok = worst_loss <= FD_BOUND and worst_net <= FD_BOUND and elapsed < 60.0
    _report(
        5,
        ok,
        f"finite-difference audit (dist_loss {worst_loss:.2e}, network {worst_net:.2e}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_6_blobs_classification():
    seeds = range(5)
    times = {}
    means = {}
    t0 = time.perf_counter()  # the first method's time includes the shared data and rows
    run = _stacked_runs(gen_blobs, BLOBS, BLOBS_TRAIN, BLOBS_SPEC, seeds)
    for label, kind, beta in (
        ("source_only", "airm", 0.0),
        ("airm", "airm", 0.1),
        ("hilbert", "hilbert", 0.1),
    ):
        accs = [float(rep.target_metric[-1]) for rep in run(kind, beta)]
        times[label] = time.perf_counter() - t0
        t0 = time.perf_counter()
        means[label] = float(np.mean(accs))
    chance = 1.0 / BLOBS.num_classes
    gap_a = means["airm"] - means["source_only"]
    gap_h = means["hilbert"] - means["source_only"]
    ok = (
        means["source_only"] > chance
        and gap_a >= 0.05
        and gap_h >= 0.05
        and max(times.values()) < 120.0
    )
    _report(
        6,
        ok,
        f"blobs target accuracy over 5 seeds: source-only {means['source_only']:.3f} "
        f"(chance {chance:.3f}), airm {means['airm']:.3f} ({gap_a * 100:+.1f} pts), "
        f"hilbert {means['hilbert']:.3f} ({gap_h * 100:+.1f} pts), "
        f"slowest method {max(times.values()):.0f}s",
    )


def test_criterion_7_denoise_reconstruction():
    seeds = range(3)
    times = {}
    means = {}
    t0 = time.perf_counter()  # the first method's time includes the shared data and rows
    run = _stacked_runs(gen_denoise, DENOISE, DENOISE_TRAIN, DENOISE_SPEC, seeds)
    for label, kind, beta in (
        ("source_only", "airm", 0.0),
        ("airm", "airm", 0.1),
        ("hilbert", "hilbert", 0.1),
    ):
        errs = [float(rep.target_metric[-1]) for rep in run(kind, beta)]
        times[label] = time.perf_counter() - t0
        t0 = time.perf_counter()
        means[label] = float(np.mean(errs))
    ok = (
        means["airm"] < means["source_only"]
        and means["hilbert"] < means["source_only"]
        and max(times.values()) < 180.0
    )
    _report(
        7,
        ok,
        f"denoise target error over 3 seeds: source-only {means['source_only']:.4f}, "
        f"airm {means['airm']:.4f}, hilbert {means['hilbert']:.4f}, "
        f"slowest method {max(times.values()):.0f}s",
    )


def test_criterion_8_gate_mechanics():
    data = gen_blobs(BLOBS)

    def run_cfg(beta, eta, data=data):
        cfg = dataclasses.replace(BLOBS_TRAIN, beta=beta, eta=eta, epochs=8)
        return train(cfg, BLOBS_SPEC, data.source_train, data.target_train,
                     data.source_eval, data.target_eval)

    inf_run = run_cfg(beta=0.1, eta=math.inf).to_csv_text()
    zero_run = run_cfg(beta=0.0, eta=math.inf).to_csv_text()
    ok_inf = inf_run == zero_run

    gated = run_cfg(beta=0.1, eta=1e-8)
    ok_open = gated.gate_open_epoch == 1 and bool(gated.gate_on[0])
    ok_monotone = bool(np.all(np.diff(gated.gate_on.astype(int)) >= 0))

    tampered = dataclasses.replace(
        data, target_train_labels=(data.target_train_labels + 1) % BLOBS.num_classes
    )
    ok_tamper = (
        run_cfg(beta=0.1, eta=1e-8).to_csv_text()
        == run_cfg(beta=0.1, eta=1e-8, data=tampered).to_csv_text()
    )
    ok = ok_inf and ok_open and ok_monotone and ok_tamper
    _report(
        8,
        ok,
        f"gate mechanics (eta=inf == beta=0: {ok_inf}, opens epoch "
        f"{gated.gate_open_epoch} at eta=1e-8, monotone {ok_monotone}, "
        f"label tamper invariant {ok_tamper})",
    )


def test_criterion_9_run_determinism(tmp_path):
    from test_runner_cli import BLOBS_CFG, write_cfg
    from geomoment.runner import run_experiment

    cfg_path = write_cfg(tmp_path, BLOBS_CFG)
    ra = load_run_config(cfg_path, out_dir=str(tmp_path / "a"))
    rb = load_run_config(cfg_path, out_dir=str(tmp_path / "b"))
    run_experiment(ra)
    run_experiment(rb)
    report_same = (tmp_path / "a" / "report.csv").read_text() == (
        tmp_path / "b" / "report.csv"
    ).read_text()
    metrics_same = (tmp_path / "a" / "metrics.csv").read_text() == (
        tmp_path / "b" / "metrics.csv"
    ).read_text()
    ok = report_same and metrics_same
    _report(9, ok, f"byte-identical CSV bodies across reruns (report {report_same}, metrics {metrics_same})")
