"""spd's one LAPACK binding: potrf and syevd, slice by slice, with numpy's as the reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomoment import spd
from geomoment.datasets import BlobsConfig, gen_blobs
from geomoment.embedding import schur_gate
from geomoment.losses import DIST_KINDS, dist_loss
from geomoment.moments import batch_moments
from geomoment.network import ClassifierHead, ModelSpec
from geomoment.rng import stream
from geomoment.trainer import TrainConfig, train
from helpers import rand_spd, rng_for


def test_numpy_linalg_factorizations_are_never_called(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg factorization called")

    for name in ("cholesky", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = rng_for("lapack-no-numpy")
    for n in (2, 5):
        zs = rng.standard_normal((3, 12 * n, n))
        zt = 1.3 * rng.standard_normal((3, 12 * n, n)) + 0.5
        for kind in DIST_KINDS:
            for s, t in ((zs[0], zt[0]), (zs, zt)):
                le = dist_loss(s, t, kind)
                assert np.all(np.isfinite(le.value)) and np.any(le.grad_source)
        Ps, Pt = rand_spd(rng, n + 1), rand_spd(rng, n + 1)
        for dist in (spd.dist_airm, spd.dist_hilbert, spd.dist_logeuclid):
            assert dist(Ps, Pt) > 0
    singular = np.stack([zs[0, :, :2], np.tile([1.0, 2.0], (zs.shape[1], 1)), zs[1, :, :2]])
    gate = schur_gate(batch_moments(singular).factored(), 1e-8)  # the middle slice's fallback
    assert gate.open.tolist() == [True, False, True] and gate.logdet[1] == -math.inf
    data = gen_blobs(BlobsConfig(num_classes=3, samples_per_class=40, input_dim=4,
                                 center_radius=2.2, cov_scale=1.4, target_rotation=1.0,
                                 target_translation=(0.0, 0.0, -1.8, 1.2), seed=0))
    spec = ModelSpec(input_dim=4, encoder_layers=((8, "relu"), (2, "identity")),
                     head=ClassifierHead(num_classes=3))
    cfg = TrainConfig(dist_kind="airm", beta=0.1, eta=1e-8, epochs=2, batch_source=40,
                      batch_target=40, learn_rate=1e-3, seed=0)
    rep = train(cfg, spec, data.source_train, data.target_train, data.source_eval,
                data.target_eval)
    assert rep.gate_open_epoch == 1 and np.all(np.isfinite(rep.loss_dist))


def _close(got, want, rtol=1e-12):
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 5, 9, 33]), runs=st.integers(2, 4), seed=st.integers(0, 2**16),
       indefinite=st.integers(-1, 3))
def test_stacked_factors_and_eigensolves_equal_each_slice_alone(n, runs, seed, indefinite):
    rng = stream(seed, 5)
    M = np.stack([rand_spd(rng, n, cond=1e3) for _ in range(runs)])
    if indefinite in range(runs):  # one eigenvalue flipped below zero
        lam, Q = np.linalg.eigh(M[indefinite])
        lam[0] = -lam[0]
        M[indefinite] = spd.sym((Q * lam) @ Q.T)
    L = spd.cholesky(M)
    lam_all, Q_all = spd.syevd(M)
    lam_only = spd.syevd(M, vectors=False)
    for i, m in enumerate(M):
        assert L[i].tobytes() == spd.cholesky(m).tobytes()
        lam, Q = spd.syevd(m)
        assert lam_all[i].tobytes() == lam.tobytes() and Q_all[i].tobytes() == Q.tobytes()
        assert lam_only[i].tobytes() == spd.syevd(m, vectors=False).tobytes()
        if i == indefinite:
            assert np.isnan(L[i]).all()
        else:
            assert _close(L[i], np.linalg.cholesky(m))
        assert _close(lam, np.linalg.eigh(m).eigenvalues)
        assert _close(lam_only[i], np.linalg.eigvalsh(m))
        # eigenvectors up to their sign: orthonormal, and solving m's eigenproblem
        assert _close(Q.T @ Q, np.eye(n)) and _close(m @ Q, Q * lam)


@pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3), (3,), ()])
@pytest.mark.parametrize("call", [spd.cholesky, spd.syevd,
                                  lambda M: spd.syevd(M, vectors=False)])
def test_non_square_input_raises_value_error(call, shape):
    with pytest.raises(ValueError, match="square matrix"):
        call(np.ones(shape))


def _all_columns(lam, V, slope):
    Vs = V * slope[..., None, :]
    return spd.sym(-(Vs * lam[..., None, :]) @ V.mT), spd.sym(Vs @ V.mT)


@pytest.mark.parametrize("k", [3, 9, spd.GATHER_ABOVE + 1, 32, 33, 34, 129])
def test_hilbert_grads_from_the_extreme_columns(k):
    # Above GATHER_ABOVE, Hilbert's slope is zero off the extremes, so pencil_grads keeps
    # only those two columns; with a tie at an extreme it keeps them all, as the
    # all-column form does. Two columns do not always give the all-column form's bits:
    # OpenBLAS's gemm adds the two nonzero products in an order that depends on the
    # width (here 32 and 34 differ in the last bit), so those are held to a few ulps.
    # A stack mixing both cases equals each slice alone, bit for bit.
    rng = rng_for(f"hilbert-columns-{k}")
    hilbert = spd.SPECTRAL_KINDS["hilbert"]
    lam = np.sort(np.exp(rng.standard_normal((4, k))), axis=-1)
    lam[1, -2] = lam[1, -1] * (1.0 - 0.5 * spd.DEGEN_RTOL)  # a tie at the top
    lam[2, 1] = lam[2, 0] * (1.0 + 0.5 * spd.DEGEN_RTOL)  # and one at the bottom
    V = rng.standard_normal((4, k, k))
    slope = hilbert.slope(lam, hilbert.value(lam))
    assert np.count_nonzero(slope, axis=-1).tolist() == [2, 3, 3, 2]
    stacked = spd.pencil_grads(lam, V, slope)
    simple = spd.pencil_grads(lam[[0, 3]], V[[0, 3]], slope[[0, 3]])  # no tie: two columns
    for s, a in zip(simple, stacked, strict=True):
        assert s.tobytes() == a[[0, 3]].tobytes()
    for i in range(4):
        alone = spd.pencil_grads(lam[i], V[i], slope[i])
        every = _all_columns(lam[i], V[i], slope[i])
        for s, a, e in zip(stacked, alone, every, strict=True):
            assert s[i].tobytes() == a.tobytes()
            if i in (1, 2):
                assert a.tobytes() == e.tobytes()
            else:
                assert np.abs(a - e).max() <= 4 * np.finfo(float).eps * np.abs(e).max()
