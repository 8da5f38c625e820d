"""Independent checks of geomoment's outputs.

Every reference here is computed apart from the program: moments with
np.mean/np.cov, the block embedding assembled by hand, pencil spectra
from scipy.linalg.eigh(Pt, Ps), matrix logs from np.linalg.eigh. Each
check returns a list of failure messages; an empty list means it passed.
"""

import csv
import io
import json
import math

import numpy as np
import scipy.linalg

VALUE_RTOL = 1e-7  # program vs reference values (different LAPACK paths)
FD_RTOL = 1e-4  # central-difference directional derivative vs analytic gradient


def ref_moments(z):
    return np.mean(z, axis=0), np.cov(z, rowvar=False)


def ref_embed(mean, cov):
    """[[cov + mu mu^T, mu], [mu^T, 1]], the embedding with a = 1."""
    n = mean.size
    P = np.empty((n + 1, n + 1))
    P[:n, :n] = cov + np.outer(mean, mean)
    P[:n, n] = mean
    P[n, :n] = mean
    P[n, n] = 1.0
    return P


def ref_logm(S):
    w, Q = np.linalg.eigh(S)
    return (Q * np.log(w)) @ Q.T


def ref_dist(Ps, Pt, kind):
    """Value-only distance between two SPD matrices."""
    if kind == "logeuclid":
        return float(np.linalg.norm(ref_logm(Ps) - ref_logm(Pt), "fro"))
    lam = scipy.linalg.eigh(Pt, Ps, eigvals_only=True)
    if kind == "airm":
        return float(np.sqrt(0.5 * np.sum(np.log(lam) ** 2)))
    return float(np.log(lam.max()) - np.log(lam.min()))


def ref_loss(zs, zt, kind):
    """dist_loss value for feature batches zs, zt of the given kind."""
    ms, Ss = ref_moments(zs)
    mt, St = ref_moments(zt)
    if kind in ("airm", "hilbert"):
        return ref_dist(ref_embed(ms, Ss), ref_embed(mt, St), kind)
    if kind == "mean_euclid":
        return float(np.sum((ms - mt) ** 2))
    if kind == "coral_frob":
        return float(np.sum((Ss - St) ** 2))
    return float(np.sum((ref_logm(Ss) - ref_logm(St)) ** 2))


def _close(value, ref, rtol):
    return math.isfinite(value) and abs(value - ref) <= rtol * max(abs(ref), 1e-12)


def check_value(label, value, ref, rtol=VALUE_RTOL):
    if _close(value, ref, rtol):
        return []
    return [f"{label}: value {value!r} differs from reference {ref!r}"]


def check_gradient(label, zs, zt, kind, grad_s, grad_t, rng):
    """Central-difference directional check of (grad_s, grad_t) on ref_loss.

    The direction is random with unit-variance entries; the step is
    scaled to the features so the truncation and rounding errors stay
    far below FD_RTOL.
    """
    Ds = rng.standard_normal(zs.shape)
    Dt = rng.standard_normal(zt.shape)
    h = 1e-5 * max(np.std(zs), np.std(zt))
    up = ref_loss(zs + h * Ds, zt + h * Dt, kind)
    down = ref_loss(zs - h * Ds, zt - h * Dt, kind)
    fd = (up - down) / (2.0 * h)
    analytic = float(np.sum(grad_s * Ds) + np.sum(grad_t * Dt))
    scale = max(abs(fd), abs(analytic), 1e-12)
    if np.all(np.isfinite(grad_s)) and np.all(np.isfinite(grad_t)) and (
        abs(fd - analytic) <= FD_RTOL * scale
    ):
        return []
    return [f"{label}: directional derivative {analytic!r} vs central difference {fd!r}"]


def check_gate(label, gate_open, gate_det, z, eta):
    """The gate opens iff log det cov > log eta, wherever det is finite."""
    if not math.isfinite(gate_det):
        return []
    sign, logdet = np.linalg.slogdet(np.cov(z, rowvar=False))
    expected = bool(sign > 0 and logdet > math.log(eta))
    if abs(logdet - math.log(eta)) < 1e-9 * max(1.0, abs(logdet)):
        return []  # a decision this close to the threshold is rounding, not a fault
    if gate_open == expected:
        return []
    return [f"{label}: gate open={gate_open} but slogdet {logdet:.6g} vs log eta {math.log(eta):.6g}"]


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def reduce_sweep(rows):
    """Best dim per kind (highest mean accuracy) from sweep.csv rows, reduced independently."""
    by_kind = {}
    for r in rows:
        t = float(r["target_metric"])
        if r["regime_ok"] != "1" or not math.isfinite(t):
            continue
        by_kind.setdefault(r["kind"], {}).setdefault(int(r["dim"]), []).append(t)
    best = {}
    for kind, dims in by_kind.items():
        means = {d: float(np.mean(v)) for d, v in dims.items()}
        pick = max(sorted(means), key=means.get)
        best[kind] = {"best_dim": pick, "mean_target_metric": means[pick]}
    return best


def check_sweep_summary(label, sweep_csv_text, summary_json_text):
    ours = reduce_sweep(read_csv(sweep_csv_text))
    theirs = json.loads(summary_json_text)
    if set(ours) != set(theirs):
        return [f"{label}: summary kinds {sorted(theirs)} vs sweep.csv kinds {sorted(ours)}"]
    out = []
    for kind, want in ours.items():
        got = theirs[kind]
        if got["best_dim"] != want["best_dim"] or not _close(
            got["mean_target_metric"], want["mean_target_metric"], 1e-12
        ):
            out.append(f"{label}: summary for {kind} is {got}, sweep.csv gives {want}")
    return out


def check_sweep_rows(label, rows, expected_points, gate_dims):
    """Every grid point trained, finite, with accuracies in [0, 1].

    The gate must have opened at the dims in gate_dims; elsewhere its
    decisions are checked against the reported determinants instead
    (check_report).
    """
    out = []
    got = sorted((int(r["dim"]), r["kind"], int(r["seed"])) for r in rows)
    if got != sorted(expected_points):
        out.append(f"{label}: grid points {got} vs expected {sorted(expected_points)}")
    for r in rows:
        point = f"{label} d{r['dim']} {r['kind']} s{r['seed']}"
        if r["regime_ok"] != "1":
            out.append(f"{point}: not run (regime_ok={r['regime_ok']})")
        if int(r["dim"]) in gate_dims and int(r["gate_open_epoch"]) < 1:
            out.append(f"{point}: gate never opened")
        for key in ("target_metric", "source_metric"):
            v = float(r[key])
            if not 0.0 <= v <= 1.0:
                out.append(f"{point}: {key} {v!r} is not an accuracy")
        for key in ("ratio", "det_min", "det_mean", "det_final"):
            if not math.isfinite(float(r[key])):
                out.append(f"{point}: {key} is not finite")
    return out


def check_report(label, report_text, accuracy, eta, gate_open_epoch):
    """Per-epoch report: finite values, no skipped steps, a consistent gate.

    The gate latches: once on it stays on, it is on from gate_open_epoch,
    and it is on in every epoch whose mean det_PS exceeds eta (some step
    of that epoch then had det_PS > eta).
    """
    out = []
    first_on = -1
    for r in read_csv(report_text):
        ep = f"{label} epoch {r['epoch']}"
        for key in ("loss_task", "loss_dist", "det_PS", "source_metric", "target_metric"):
            if not math.isfinite(float(r[key])):
                out.append(f"{ep}: {key} is not finite")
        if int(r["skipped_steps"]) != 0:
            out.append(f"{ep}: {r['skipped_steps']} skipped steps")
        if accuracy and not all(
            0.0 <= float(r[k]) <= 1.0 for k in ("source_metric", "target_metric")
        ):
            out.append(f"{ep}: accuracy outside [0, 1]")
        on = r["gate_on"] == "1"
        if first_on < 0 and on:
            first_on = int(r["epoch"])
        if first_on > 0 and not on:
            out.append(f"{ep}: gate closed again after opening")
        if float(r["det_PS"]) > eta and not on:
            out.append(f"{ep}: mean det_PS {r['det_PS']} > eta {eta} but the gate is off")
    if first_on != gate_open_epoch:
        out.append(f"{label}: gate first on at epoch {first_on}, reported {gate_open_epoch}")
    return out


def check_adaptation_wins(label, adapted, source_only, higher_better):
    """The mean target metric of an adapted method beats source-only."""
    if not adapted or not source_only:
        return [f"{label}: no runs to compare"]
    a, b = float(np.mean(adapted)), float(np.mean(source_only))
    if (a > b) if higher_better else (a < b):
        return []
    return [f"{label}: adapted mean {a:.4f} does not beat source-only {b:.4f}"]


def check_identical(label, first, again):
    """Two runs of the same work wrote the same bytes."""
    if first == again:
        return []
    names = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
    return [f"{label}: files differ between rounds: {names[:5]}"]
