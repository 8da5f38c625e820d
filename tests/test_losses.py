import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geomoment import embedding, spd
from geomoment.embedding import GaussianMoments, embed
from geomoment.errors import (
    BatchTooSmall,
    DegenerateSpectrum,
    NearZeroDistance,
    NonPositiveSpectrum,
)
from geomoment.gradcheck import FD_BOUND, audit_dist_loss, central_diff, rel_err
from geomoment.losses import (
    _COV_KINDS,
    DIST_KINDS,
    GATE_CLOSED_REASONS,
    dist_loss,
    grad_embed,
    grad_moments,
)
from geomoment.moments import batch_moments
from geomoment.rng import stream
from geomoment.spd import congruent_eigh, dist_airm, dist_hilbert
from helpers import (count_lapack, pencil_eigh, rand_invertible, rand_orthogonal, rand_spd,
                     rng_for, sym_grad_pairs)


def rand_batches(rng, b, n):
    zs = rng.standard_normal((b, n)) + 0.2 * rng.standard_normal(n)
    zt = 1.2 * rng.standard_normal((b, n)) + 0.7 * rng.standard_normal(n)
    return zs, zt


def assert_gate_closed(le, reason):
    """le reports a closed gate: reason, a NaN float value and all-zero gradients."""
    assert le.zero_grad_reason == reason
    assert isinstance(le.value, float) and math.isnan(le.value)
    assert not le.grad_source.any() and not le.grad_target.any()


def pencil_value_grads(P1, P2, kind):
    """(value, dP1, dP2) of a SPECTRAL_KINDS distance from one pencil eigensolve."""
    value_of, slope_of = spd.SPECTRAL_KINDS[kind]
    lam, V = pencil_eigh(P1, P2)
    value = value_of(lam)
    return (value, *spd.pencil_grads(lam, V, slope_of(lam, value)))


def fd_sym_upper(f, P, h_max=np.inf):
    """central_diff(mirror=True) of f at each upper-triangle coordinate of a symmetric P."""
    return [central_diff(f, P, ij, h_max, mirror=True) for ij in zip(*np.triu_indices(len(P)))]


# ---------------------------------------------------------------- dist_loss


def test_identical_batches_zero_value_all_kinds():
    rng = rng_for("loss-zero")
    z = rng.standard_normal((25, 3))
    for kind in DIST_KINDS:
        le = dist_loss(z, z.copy(), kind)
        assert le.value <= 1e-12
        assert np.max(np.abs(le.grad_source + le.grad_target)) <= 1e-12


def test_identical_batches_zeroed_gradients_name_their_reason():
    z = rng_for("loss-zero-reason").standard_normal((128, 2))
    for kind, reason in (("airm", "NearZeroDistance"), ("hilbert", "DegenerateSpectrum")):
        le = dist_loss(z, z, kind)
        assert le.value <= 1e-12
        assert not np.any(le.grad_source) and not np.any(le.grad_target)
        assert le.zero_grad_reason == reason
    zs, zt = rand_batches(rng_for("loss-real-reason"), 30, 2)
    for kind in DIST_KINDS:
        assert dist_loss(zs, zt, kind).zero_grad_reason == ""


def test_given_source_moments_give_bit_identical_loss():
    zs, zt = rand_batches(rng_for("loss-source-moments"), 40, 3)
    for kind in DIST_KINDS:
        ref = dist_loss(zs, zt, kind)
        le = dist_loss(zs, zt, kind, source_moments=batch_moments(zs))
        assert le.value == ref.value
        assert np.array_equal(le.grad_source, ref.grad_source)
        assert np.array_equal(le.grad_target, ref.grad_target)


def test_one_dim_worked_values():
    rng = rng_for("loss-1d")
    zs = rng.standard_normal((50, 1))
    zs = (zs - zs.mean()) / zs.std(ddof=1)  # moments exactly (0, 1)
    zt = zs * np.e  # moments (0, e^2)
    assert dist_loss(zs, zt, "airm").value == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert dist_loss(zs, zt, "hilbert").value == pytest.approx(2.0, abs=1e-9)


def test_loss_symmetry_all_kinds():
    rng = rng_for("loss-symm")
    zs, zt = rand_batches(rng, 30, 3)
    for kind in DIST_KINDS:
        a = dist_loss(zs, zt, kind).value
        b = dist_loss(zt, zs, kind).value
        assert a == pytest.approx(b, abs=1e-10)


def test_gate_closed_on_collapsed_batch():
    rng = rng_for("loss-gate")
    zs = np.tile([1.0, 2.0], (20, 1))  # zero covariance
    zt = rng.standard_normal((20, 2))
    for kind in ("airm", "hilbert", "log_euclid"):
        le = dist_loss(zs, zt, kind)
        assert le.grad_source.shape == zs.shape and le.grad_target.shape == zt.shape
        assert_gate_closed(le, "covariance_not_spd")
    # baselines do not need SPD covariances
    for kind in ("mean_euclid", "coral_frob"):
        dist_loss(zs, zt, kind)


def test_large_mean_batch_keeps_gate_open():
    # the embedded matrix's smallest eigenvalue falls like 1/|mean|^2 while a
    # trace-relative tolerance on it grows like |mean|^2; only the covariance decides
    rng = rng_for("loss-large-mean")
    zs, zt = rand_batches(rng, 64, 2)
    zs[:, 0] += 1e3
    zt[:, 0] += 1e3
    Ps = embed(batch_moments(zs))
    Pt = embed(batch_moments(zt))
    for kind, dist in (("airm", dist_airm), ("hilbert", dist_hilbert)):
        le = dist_loss(zs, zt, kind)
        assert le.value == pytest.approx(dist(Ps, Pt), rel=1e-9)
        assert np.all(np.isfinite(le.grad_source)) and np.any(le.grad_source)


def test_one_dimensional_batch_rejected():
    for kind in DIST_KINDS:
        with pytest.raises(ValueError, match="b x n"):
            dist_loss(np.ones(5), np.ones(5), kind)
        with pytest.raises(ValueError, match="b x n"):
            dist_loss(np.ones((5, 2)), np.ones(5), kind)


def test_unknown_kind_rejected():
    rng = rng_for("loss-kind")
    zs, zt = rand_batches(rng, 20, 2)
    with pytest.raises(ValueError):
        dist_loss(zs, zt, "wasserstein")


def test_end_to_end_gradients_match_fd():
    assert audit_dist_loss(seed=7) <= FD_BOUND


def test_descent_step_decreases_geometric_losses():
    rng = rng_for("loss-descent")
    for _ in range(100):
        n = int(rng.integers(2, 4))
        zs, zt = rand_batches(rng, 30, n)
        for kind in ("airm", "hilbert"):
            le = dist_loss(zs, zt, kind)
            le2 = dist_loss(zs, zt - 1e-3 * le.grad_target, kind)
            assert le2.value < le.value


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 5]),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.25, 4.0),
    shift=st.floats(-3.0, 3.0),
)
def test_geometric_loss_value_is_the_embedded_distance(n, seed, scale, shift):
    rng = stream(seed, 0)
    b = 12 + 4 * n
    zs = rng.standard_normal((b, n))
    zt = scale * rng.standard_normal((b, n)) + shift * rng.standard_normal(n)
    Ps = embed(batch_moments(zs))
    Pt = embed(batch_moments(zt))
    for kind, dist in (("airm", dist_airm), ("hilbert", dist_hilbert)):
        ref = dist(Ps, Pt)
        assert dist_loss(zs, zt, kind).value == pytest.approx(ref, rel=1e-12)
        assert pencil_value_grads(Ps, Pt, kind)[0] == pytest.approx(ref, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 5]),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.25, 4.0),
    shift=st.floats(-1.0, 1.0),
)
def test_siegel_factor_loss_equals_the_embedded_matrix_path(n, seed, scale, shift):
    # the embedded path's own rounding grows with cond(embed(m)), about
    # |mean|^4, so the means stay moderate here (large means are
    # covered by test_geometric_loss_is_translation_invariant); either
    # eigensolve resolves lambda_min only to about eps * lambda_max, which
    # sets the tolerance where the pencil spectrum spreads past 1e3
    rng = stream(seed, 1)
    b = 12 + 4 * n
    zs = rng.standard_normal((b, n)) + shift * rng.standard_normal(n)
    zt = scale * rng.standard_normal((b, n)) - shift * rng.standard_normal(n)
    ms, mt = batch_moments(zs), batch_moments(zt)
    Ps, Pt = embed(ms), embed(mt)
    lam = spd.pencil_eigvals(Ps, Pt)
    rtol = max(1e-12, 8 * np.finfo(float).eps * lam[-1] / lam[0])
    for kind in ("airm", "hilbert"):
        value, dPs, dPt = pencil_value_grads(Ps, Pt, kind)
        gs = grad_moments(zs - ms.mean, *grad_embed(ms, dPs))
        gt = grad_moments(zt - mt.mean, *grad_embed(mt, dPt))
        le = dist_loss(zs, zt, kind)
        assert le.value == pytest.approx(value, rel=rtol)
        for got, want in ((le.grad_source, gs), (le.grad_target, gt)):
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_geometric_loss_is_translation_invariant():
    # shifting both batches by c is a congruence of both embedded matrices;
    # the block factors see only mean differences, so no accuracy is lost
    rng = rng_for("loss-translate")
    for _ in range(60):
        n = int(rng.integers(1, 6))
        zs, zt = rand_batches(rng, 12 + 4 * n, n)
        c = 10.0 ** rng.uniform(0.0, 3.0) * rng.standard_normal(n)
        for kind in ("airm", "hilbert"):
            ref = dist_loss(zs, zt, kind).value
            moved = dist_loss(zs + c, zt + c, kind).value
            assert moved == pytest.approx(ref, rel=1e-11)


def _batch_with_spectrum(rng, b, Q, lam):
    """A b x n batch whose sample covariance is Q diag(lam) Q^T up to rounding."""
    z = rng.standard_normal((b, lam.size))
    z -= z.mean(axis=0)
    z = np.linalg.solve(np.linalg.cholesky(z.T @ z / (b - 1)), z.T).T  # sample cov = I
    return (z * np.sqrt(lam)) @ Q.T + rng.standard_normal(lam.size)


def _validate_rejects(cov):
    try:
        spd.validate_spd(cov)
    except spd.NotPositiveDefinite:
        return True
    return False


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 5]),
    seed=st.integers(0, 2**31 - 1),
    log_cond_s=st.floats(0.0, 12.0),
    log_cond_t=st.floats(0.0, 12.0),
)
def test_geometric_loss_gate_closes_exactly_when_validate_spd_rejects(
    n, seed, log_cond_s, log_cond_t
):
    # one eigenbasis for both sides keeps the pencil's own spread within
    # double precision (at most the ratio of the two condition numbers)
    rng = stream(seed, 2)
    Q = rand_orthogonal(rng, n)
    zs, zt = (
        _batch_with_spectrum(rng, 10 * n + 5, Q, np.geomspace(1.0, 10.0**-lc, n))
        for lc in (log_cond_s, log_cond_t)
    )
    covs = [batch_moments(z).cov for z in (zs, zt)]
    for cov in covs:  # a decision within rounding of the tolerance is not checked
        lam_min, tol = np.linalg.eigvalsh(cov)[0], spd.spd_tol(cov)
        assume(abs(lam_min - tol) > 1e-3 * tol)
    rejected = any(_validate_rejects(cov) for cov in covs)
    for kind in ("airm", "hilbert"):
        le = dist_loss(zs, zt, kind)
        closed = le.zero_grad_reason in GATE_CLOSED_REASONS
        if closed:
            assert_gate_closed(le, "covariance_not_spd")
        assert closed == rejected


def test_unresolved_pencil_spectrum_closes_the_gate():
    # both covariances pass the SPD rule, but in different eigenbases the
    # pencil spans ~kappa^2, beyond double precision: a non-positive computed
    # eigenvalue must close the gate (skip the step), not stop training
    rng = rng_for("loss-unresolved-pencil")
    lam = np.geomspace(1.0, 1e-10, 3)
    unresolved = 0
    for _ in range(40):
        zs, zt = (_batch_with_spectrum(rng, 35, rand_orthogonal(rng, 3), lam) for _ in range(2))
        for kind in ("airm", "hilbert"):
            le = dist_loss(zs, zt, kind)
            if le.zero_grad_reason in GATE_CLOSED_REASONS:
                assert_gate_closed(le, "pencil_unresolved")
                unresolved += 1
    assert unresolved > 0


def test_geometric_loss_factors_once_and_validates_each_side_once(monkeypatch):
    # each covariance is factored once and checked once, through that factor:
    # no embedded-pencil factorization and no validate_spd on an accepted pair
    calls = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append((label, np.shape(args[0])))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(spd, "pencil_eigvals", counted("factor", spd.pencil_eigvals))
    monkeypatch.setattr(embedding, "validate_spd", counted("validate", embedding.validate_spd))
    count_lapack(monkeypatch, "_POTRF", calls, label="cholesky")
    zs, zt = rand_batches(rng_for("loss-count"), 30, 3)
    for kind in ("airm", "hilbert"):
        calls.clear()
        dist_loss(zs, zt, kind)
        assert calls == [("cholesky", (3, 3))] * 2
        calls.clear()
        dist_loss(zs, zt, kind, source_moments=batch_moments(zs))
        assert calls == [("cholesky", (3, 3))] * 2


def test_mean_euclid_matches_moment_formula_bitwise():
    rng = rng_for("loss-mean-euclid")
    for _ in range(20):
        n = int(rng.integers(1, 9))
        zs = rng.standard_normal((int(rng.integers(2, 60)), n)) + rng.standard_normal(n)
        zt = 3.0 * rng.standard_normal((int(rng.integers(2, 60)), n))
        # the formula written over full batch moments, covariances included
        ms, mt = batch_moments(zs), batch_moments(zt)
        diff = ms.mean - mt.mean
        gs = grad_moments(zs - ms.mean, 2.0 * diff, np.zeros_like(ms.cov))
        gt = grad_moments(zt - mt.mean, -2.0 * diff, np.zeros_like(mt.cov))
        le = dist_loss(zs, zt, "mean_euclid")
        assert le.value == float(diff @ diff)
        assert np.array_equal(le.grad_source, gs)
        assert np.array_equal(le.grad_target, gt)


def test_single_row_batch_rejected_all_kinds():
    zs, zt = rand_batches(rng_for("loss-one-row"), 10, 2)
    for kind in DIST_KINDS:
        with pytest.raises(BatchTooSmall):
            dist_loss(zs[:1], zt, kind)
        with pytest.raises(BatchTooSmall):
            dist_loss(zs, zt[:1], kind)


# ----------------------------------------------------------- pencil_grads


def test_pencil_grads_fd():
    rng = rng_for("gsp-fd")
    iu = np.triu_indices(4)
    for kind in ("airm", "hilbert"):
        for _ in range(5):
            P1 = rand_spd(rng, 4)
            P2 = rand_spd(rng, 4)
            _, dP1, dP2 = pencil_value_grads(P1, P2, kind)
            dist = dist_airm if kind == "airm" else dist_hilbert
            h_max = np.inf
            if kind == "hilbert":
                # log(lambda_max / lambda_min) curves like 1 / (relative gap) of each
                # extreme eigenvalue: keep the step well inside both
                lam = spd.pencil_eigvals(P1, P2)
                h_max = 1e-2 * min(lam[1] / lam[0] - 1.0, 1.0 - lam[-2] / lam[-1])
            fd1 = fd_sym_upper(lambda M: dist(M, P2), P1, h_max)
            fd2 = fd_sym_upper(lambda M: dist(P1, M), P2, h_max)
            assert rel_err(fd1, sym_grad_pairs(dP1)[iu]) <= FD_BOUND
            assert rel_err(fd2, sym_grad_pairs(dP2)[iu]) <= FD_BOUND


def test_pencil_grads_degenerate_pencil():
    P = rand_spd(rng_for("gsp-degen"), 3)
    with pytest.raises(DegenerateSpectrum):
        pencil_value_grads(P, P, "hilbert")


def test_pencil_grads_near_zero_airm():
    P = rand_spd(rng_for("gsp-nearzero"), 3)
    with pytest.raises(NearZeroDistance):
        pencil_value_grads(P, P, "airm")


def test_hilbert_averages_a_degenerate_top_eigenspace():
    # P1 = R R^T, P2 = R diag(4, 4, 2, 1) R^T: lambda_max = 4 spans a plane
    R = rand_invertible(rng_for("gsp-degenerate-top"), 4)
    P1 = R @ R.T
    P2 = (R * np.array([4.0, 4.0, 2.0, 1.0])) @ R.T
    W = np.linalg.inv(R).T  # pencil eigenvectors, W^T P1 W = I, for 4, 4, 2, 1
    top = W[:, :2] @ W[:, :2].T
    bottom = np.outer(W[:, 3], W[:, 3])
    # slope 1/(4 * 2) on each top index and -1/1 on the bottom one;
    # d lambda/dP2 = v v^T and d lambda/dP1 = -lambda v v^T
    want_dP1 = bottom - top / 2.0
    want_dP2 = top / 8.0 - bottom
    scale = np.linalg.norm(top) + np.linalg.norm(bottom)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-9 * scale

    value, dP1, dP2 = pencil_value_grads(P1, P2, "hilbert")
    assert value == pytest.approx(np.log(4.0), rel=1e-12)
    assert close(dP1, want_dP1) and close(dP2, want_dP2)
    assert abs(np.sum(dP1 * P1) + np.sum(dP2 * P2)) <= 1e-10 * scale * np.linalg.norm(P2)
    lam = np.array([1.0, 2.0, 4.0, 4.0])
    V = W[:, [3, 2, 0, 1]]
    slope = spd.SPECTRAL_KINDS["hilbert"].slope(lam, np.log(4.0))
    for theta in (0.0, 0.4, 1.3, 2.9):
        c, s = np.cos(theta), np.sin(theta)
        turned = V.copy()
        turned[:, 2:] = V[:, 2:] @ np.array([[c, -s], [s, c]])
        got_dP1, got_dP2 = spd.pencil_grads(lam, turned, slope)
        assert close(got_dP1, want_dP1) and close(got_dP2, want_dP2)


def test_hilbert_euler_identity():
    rng = rng_for("gsp-euler")
    for _ in range(20):
        P1 = rand_spd(rng, 4)
        P2 = rand_spd(rng, 4)
        _, dP1, dP2 = pencil_value_grads(P1, P2, "hilbert")
        total = np.sum(dP1 * P1) + np.sum(dP2 * P2)
        assert abs(total) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 32),
    runs=st.sampled_from([(), (3,)]),
    seed=st.integers(0, 2**31 - 1),
    log_cond=st.floats(0.0, 8.0),
    log_mean=st.floats(0.0, 6.0),
)
@example(n=128, runs=(), seed=0, log_cond=8.0, log_mean=6.0)
def test_gradients_handed_on_unsymmetrized_are_exactly_symmetric(n, runs, seed, log_cond, log_mean):
    # grad_moments takes every _COV_KINDS entry's dcov as it is, and the Siegel
    # pencil's eigensolve takes K K^T as it is: both must be symmetric to the bit
    rng = stream(seed, 3)
    b = 4 * n + 12

    def side():
        batches = [_batch_with_spectrum(rng, b, rand_orthogonal(rng, n),
                                        np.geomspace(1.0, 10.0**-log_cond, n))
                   + 10.0**log_mean * rng.standard_normal(n) for _ in range(math.prod(runs))]
        return np.reshape(batches, (*runs, b, n))

    zs, zt = side(), side()
    ms, mt = batch_moments(zs), batch_moments(zt)
    forms = []

    def recorded(Finv, M):
        forms.append(M)
        return congruent_eigh(Finv, M)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "congruent_eigh", recorded)
        for kind, entry in _COV_KINDS.items():
            try:
                _, sides, _ = entry(ms, mt)
            except NonPositiveSpectrum:  # a pencil spread beyond double precision
                continue
            for _, dcov in sides or ():
                assert np.array_equal(dcov, dcov.mT), kind
    assert len(forms) == len(spd.SPECTRAL_KINDS)
    for M in forms:
        assert np.array_equal(M, M.mT)


# --------------------------------------------------------------- grad_embed


def test_grad_embed_zero_upstream():
    m = GaussianMoments(mean=[1.0, -2.0], cov=np.eye(2))
    dmean, dcov = grad_embed(m, np.zeros((3, 3)))
    assert np.array_equal(dmean, np.zeros(2))
    assert np.array_equal(dcov, np.zeros((2, 2)))


def test_grad_embed_zero_mean_uses_offdiagonal():
    rng = rng_for("gembed-zeromean")
    m = GaussianMoments(mean=np.zeros(3), cov=rand_spd(rng, 3))
    G = np.zeros((4, 4))
    G[:3, 3] = [1.0, 2.0, 3.0]
    G[3, :3] = [1.0, 2.0, 3.0]
    dmean, _ = grad_embed(m, G)
    assert np.allclose(dmean, [2.0, 4.0, 6.0])


def test_grad_embed_fd():
    rng = rng_for("gembed-fd")
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = GaussianMoments(mean=rng.standard_normal(n), cov=rand_spd(rng, n))
        G = np.random.default_rng(1).standard_normal((n + 1, n + 1))
        G = 0.5 * (G + G.T)
        dmean, dcov = grad_embed(m, G)

        def f(mean, cov):
            return float(np.sum(G * embed(GaussianMoments(mean, cov))))

        mean, cov = m.mean.copy(), m.cov.copy()
        for i in range(n):
            fd = central_diff(lambda mu: f(mu, cov), mean, (i,))
            assert abs(fd - dmean[i]) <= 1e-6 * max(1.0, abs(fd))
        fdc = fd_sym_upper(lambda C: f(mean, C), cov)
        assert rel_err(fdc, sym_grad_pairs(dcov)[np.triu_indices(n)]) <= 1e-6


# ------------------------------------------------------------- grad_moments


def test_grad_moments_mean_only():
    rng = rng_for("gmom-mean")
    z = rng.standard_normal((10, 3))
    dmean = np.array([1.0, -2.0, 0.5])
    rows = grad_moments(z - batch_moments(z).mean, dmean, np.zeros((3, 3)))
    assert np.allclose(rows, np.tile(dmean / 10.0, (10, 1)))


def test_grad_moments_rows_sum_to_zero_without_mean_term():
    rng = rng_for("gmom-sum")
    z = rng.standard_normal((12, 2))
    D = np.array([[1.0, 0.3], [0.3, -0.7]])
    rows = grad_moments(z - batch_moments(z).mean, np.zeros(2), D)
    assert np.max(np.abs(rows.sum(axis=0))) <= 1e-12


def test_grad_moments_fd():
    rng = rng_for("gmom-fd")
    z = rng.standard_normal((15, 3))
    dmean = rng.standard_normal(3)
    D = rng.standard_normal((3, 3))
    D = 0.5 * (D + D.T)
    rows = grad_moments(z - batch_moments(z).mean, dmean, D)

    def f(zz):
        m = batch_moments(zz)
        return float(dmean @ m.mean + np.sum(D * m.cov))

    for _ in range(30):
        i = int(rng.integers(15))
        j = int(rng.integers(3))
        fd = central_diff(f, z, (i, j))
        assert abs(fd - rows[i, j]) <= 1e-6 * max(1.0, abs(fd))


# ----------------------------------------------------------- stacked runs


def _unresolved_pair(rng, b, n, tries=50):
    """A batch pair whose covariances pass the SPD rule but whose pencil is unresolved."""
    lam = np.geomspace(1.0, 1e-10, n)
    for _ in range(tries):
        zs, zt = (_batch_with_spectrum(rng, b, rand_orthogonal(rng, n), lam) for _ in range(2))
        if any(dist_loss(zs, zt, kind).zero_grad_reason == "pencil_unresolved"
               for kind in ("airm", "hilbert")) and all(
                not _validate_rejects(batch_moments(z).cov) for z in (zs, zt)):
            return zs, zt
    pytest.fail(f"no unresolved pencil in {tries} tries")


def _stack_run(name, rng, b=35, n=3):
    """(zs, zt) of one run of a stack, by the outcome its call alone has."""
    zs, zt = rand_batches(rng, b, n)
    if name == "constant target":  # covariance_not_spd for airm, hilbert and log_euclid
        zt = np.tile(zt[0], (b, 1))
    elif name == "identical":  # NearZeroDistance for airm, DegenerateSpectrum for hilbert
        zt = zs.copy()
    elif name == "unresolved":  # pencil_unresolved for airm and hilbert
        zs, zt = _unresolved_pair(rng, b, n)
    return zs, zt


# name -> the runs of one stack, by the outcome each has alone
STACKS = {
    "normal runs": ("normal", "normal", "normal"),
    "a constant target": ("normal", "constant target", "normal"),
    "identical batches": ("identical", "normal", "normal"),
    "an unresolved pencil": ("normal", "normal", "unresolved"),
    "every outcome": ("unresolved", "normal", "identical", "constant target", "normal"),
}
# kind -> run name -> its reason, where that is not ""
REASONS = {
    "airm": {"constant target": "covariance_not_spd", "identical": "NearZeroDistance",
             "unresolved": "pencil_unresolved"},
    "hilbert": {"constant target": "covariance_not_spd", "identical": "DegenerateSpectrum",
                "unresolved": "pencil_unresolved"},
    "log_euclid": {"constant target": "covariance_not_spd"},
}


@pytest.mark.parametrize("kind", DIST_KINDS)
@pytest.mark.parametrize("stack", STACKS)
def test_stacked_loss_equals_each_run_alone(stack, kind):
    rng = rng_for(f"loss-stack-{stack}")
    zs, zt = map(np.stack, zip(*(_stack_run(name, rng) for name in STACKS[stack])))
    stacked = dist_loss(zs, zt, kind)
    factored = batch_moments(zs).factored()
    given_moments = dist_loss(zs, zt, kind, source_moments=factored)
    pair = dist_loss(zs[[1, 2]], zt[[1, 2]], kind, source_moments=factored[[1, 2]])
    for got in (stacked, given_moments):
        assert got.grad_source.shape == zs.shape and got.grad_target.shape == zt.shape
        for f in ("value", "grad_source", "grad_target", "zero_grad_reason"):
            want = np.asarray(getattr(stacked, f))
            assert np.asarray(getattr(got, f)).tobytes() == want.tobytes()
    for i in range(len(zs)):
        alone = dist_loss(zs[i], zt[i], kind)
        if alone.zero_grad_reason in GATE_CLOSED_REASONS:
            assert_gate_closed(alone, alone.zero_grad_reason)
        assert stacked.zero_grad_reason[i] == alone.zero_grad_reason
        assert np.float64(stacked.value[i]).tobytes() == np.float64(alone.value).tobytes()
        assert stacked.grad_source[i].tobytes() == alone.grad_source.tobytes()
        assert stacked.grad_target[i].tobytes() == alone.grad_target.tobytes()
    for j, i in enumerate((1, 2)):  # a subset of the runs, with their kept source factors
        assert pair.zero_grad_reason[j] == stacked.zero_grad_reason[i]
        assert pair.grad_source[j].tobytes() == stacked.grad_source[i].tobytes()
        assert pair.grad_target[j].tobytes() == stacked.grad_target[i].tobytes()
    want = [REASONS.get(kind, {}).get(name, "") for name in STACKS[stack]]
    assert stacked.zero_grad_reason.tolist() == want
