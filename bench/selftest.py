"""Tests of the benchmark's own checks and tracer.

Each check must pass on the program's real output and reject a
deliberately corrupted copy of it. Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from geomoment import embedding, losses, moments, spd  # noqa: E402
from workloads import GATE_ETA, LOSS_KINDS, make_pairs  # noqa: E402


@pytest.fixture(scope="module")
def small_pairs():
    return [p for p in make_pairs(7) if p.width <= 8]


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_loss_value_check_rejects_perturbed_value(small_pairs, kind):
    for p in small_pairs:
        le = losses.dist_loss(p.zs, p.zt, kind)
        ref = checks.ref_loss(p.zs, p.zt, kind)
        assert checks.check_value("v", le.value, ref) == []
        assert checks.check_value("v", le.value * (1 + 1e-5), ref)
        assert checks.check_value("v", float("nan"), ref)


@pytest.mark.parametrize("kind", ["airm", "hilbert", "logeuclid"])
def test_distance_check_rejects_perturbed_value(small_pairs, kind):
    for p in small_pairs:
        Ps = embedding.embed(moments.batch_moments(p.zs))
        Pt = embedding.embed(moments.batch_moments(p.zt))
        d = getattr(spd, f"dist_{kind}")(Ps, Pt)
        R = [checks.ref_embed(*checks.ref_moments(z)) for z in (p.zs, p.zt)]
        ref = checks.ref_dist(R[0], R[1], kind)
        assert checks.check_value("d", d, ref) == []
        assert checks.check_value("d", d + 1e-6 * abs(ref), ref)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_gradient_check_rejects_flipped_sign(small_pairs, kind):
    rng = np.random.default_rng(0)
    for p in small_pairs:
        le = losses.dist_loss(p.zs, p.zt, kind)
        args = (p.zs, p.zt, kind)
        assert checks.check_gradient("g", *args, le.grad_source, le.grad_target, rng) == []
        assert checks.check_gradient("g", *args, -le.grad_source, -le.grad_target, rng)
        assert checks.check_gradient("g", *args, le.grad_source, -le.grad_target, rng)


def test_gate_check_rejects_wrong_decision(small_pairs):
    for p in small_pairs:
        for z in (p.zs, p.zt, 0.01 * p.zs):
            g = embedding.schur_gate(moments.batch_moments(z), GATE_ETA)
            assert checks.check_gate("gate", g.open, g.det, z, GATE_ETA) == []
            assert checks.check_gate("gate", not g.open, g.det, z, GATE_ETA)


SWEEP = (
    "dim,kind,seed,regime_ok,ratio,target_metric,source_metric,"
    "det_min,det_mean,det_final,gate_open_epoch\n"
    "2,airm,0,1,64,0.75,0.99,0.1,0.5,0.6,3\n"
    "2,airm,1,1,64,0.85,0.99,0.1,0.5,0.6,2\n"
    "4,airm,0,1,32,0.70,0.99,0.1,0.5,0.6,1\n"
    "4,airm,1,1,32,0.72,0.99,0.1,0.5,0.6,1\n"
)
POINTS = [(2, "airm", 0), (2, "airm", 1), (4, "airm", 0), (4, "airm", 1)]


def test_sweep_summary_check_rejects_changed_summary():
    good = json.dumps({"airm": {"best_dim": 2, "mean_target_metric": 0.8}})
    assert checks.check_sweep_summary("s", SWEEP, good) == []
    for bad in ({"airm": {"best_dim": 4, "mean_target_metric": 0.8}},
                {"airm": {"best_dim": 2, "mean_target_metric": 0.81}}, {}):
        assert checks.check_sweep_summary("s", SWEEP, json.dumps(bad))


def test_sweep_rows_check_rejects_missing_point_and_closed_gate():
    rows = checks.read_csv(SWEEP)
    assert checks.check_sweep_rows("s", rows, POINTS, gate_dims=(2,)) == []
    assert checks.check_sweep_rows("s", rows[:-1], POINTS, gate_dims=(2,))
    closed = [dict(r) for r in rows]
    closed[0]["gate_open_epoch"] = "-1"
    assert checks.check_sweep_rows("s", closed, POINTS, gate_dims=(2,))
    wrong = [dict(r) for r in rows]
    wrong[1]["target_metric"] = "1.5"
    assert checks.check_sweep_rows("s", wrong, POINTS, gate_dims=(2,))


REPORT = (
    "epoch,loss_task,loss_dist,det_PS,gate_on,source_metric,target_metric,skipped_steps\n"
    "1,1.0,0,0.01,0,0.6,0.5,0\n"
    "2,0.9,0.4,0.2,1,0.7,0.6,0\n"
    "3,0.8,0.3,0.2,1,0.7,0.6,0\n"
)


def report_failures(text, gate_open_epoch=2):
    return checks.check_report("r", text, accuracy=True, eta=0.02,
                               gate_open_epoch=gate_open_epoch)


def test_report_checks_reject_changed_byte():
    assert report_failures(REPORT) == []
    assert report_failures(REPORT.replace("0.4,", "nan,"))
    assert report_failures(REPORT.replace("0.6,0\n3", "0.6,2\n3"))
    assert report_failures(REPORT.replace("0.9,0.4,0.2,1,0.7,0.6", "0.9,0.4,0.2,1,0.7,1.6"))
    assert report_failures(REPORT, gate_open_epoch=1)
    assert report_failures(REPORT.replace("0.01,0", "0.03,0"))  # det above eta, gate off
    assert report_failures(REPORT.replace("0.8,0.3,0.2,1", "0.8,0.3,0.2,0"))  # re-closed
    first = {"d2/report.csv": REPORT.encode()}
    assert checks.check_identical("i", first, dict(first)) == []
    changed = REPORT.replace("0.9", "0.8").encode()
    assert changed != REPORT.encode()
    assert checks.check_identical("i", first, {"d2/report.csv": changed})


def test_adaptation_check_direction():
    assert checks.check_adaptation_wins("a", [0.8], [0.7], higher_better=True) == []
    assert checks.check_adaptation_wins("a", [0.7], [0.8], higher_better=True)
    assert checks.check_adaptation_wins("a", [0.08], [0.14], higher_better=False) == []
    assert checks.check_adaptation_wins("a", [0.14], [0.08], higher_better=False)


def test_tracer_restores_names_and_splits_self_time(small_pairs):
    before = {(m, a): getattr(__import__(f"geomoment.{m}", fromlist=[a]), a, None)
              for m, names in spans.LOOKUPS for a in names}
    p = small_pairs[0]
    with spans.Tracer() as tracer:
        losses.dist_loss(p.zs, p.zt, "airm")
        losses.dist_loss(p.zs, p.zt, "coral_frob")
    after = {(m, a): getattr(__import__(f"geomoment.{m}", fromlist=[a]), a, None)
             for m, names in spans.LOOKUPS for a in names}
    assert before == after
    stats = spans.SpanStats(tracer)
    roots = [i for i, par in enumerate(tracer.parent) if par < 0]
    assert [tracer.name[i] for i in roots] == ["losses.dist_loss"] * 2
    assert int(stats.self_ns.sum()) == int(sum(stats.dur_ns[i] for i in roots))
    assert [t[0] for t in tracer.tag if t] == ["airm", "coral_frob"]
    assert stats.per_geometric_loss({"spd.pencil_eigvals", "spd.pencil_eigh"}) >= 1
    assert stats.zeroed_grad_calls() == 0
    assert stats.layer_self_us("spd") > 0


def test_zeroed_gradients_are_tagged():
    zero = losses.LossEval(value=0.0, grad_source=np.zeros((4, 2)), grad_target=np.zeros((4, 2)))
    some = losses.LossEval(value=1.0, grad_source=np.ones((4, 2)), grad_target=np.zeros((4, 2)))
    z = np.zeros((4, 2))
    assert spans._dist_loss_tag((z, z, "airm"), {}, zero) == ("airm", 2, True)
    assert spans._dist_loss_tag((z, z), {"kind": "hilbert"}, some) == ("hilbert", 2, False)
    assert spans._dist_loss_tag((z, z, "airm"), {}, None) == ("airm", 2, False)


def test_host_speed_window_takes_probes_out_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Window(interval_s=0.01) as w:
        t = 0.0
        while t < 0.2:
            t += hostspeed.probe()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(w.probe_s) >= 5
    assert w.program_s == pytest.approx(w.wall_s - sum(w.probe_s))
    assert 0 < w.program_s < w.wall_s
    assert w.reference_s == pytest.approx(w.program_s * w.speed)
