"""Shared random-instance builders."""

import zlib

import numpy as np

from geomoment import spd
from geomoment.rng import stream


def rng_for(test_id, seed=0):
    """The test's own stream, the same in every process (crc32 is not salted, unlike hash)."""
    return stream(seed, 1000 + zlib.crc32(test_id.encode()) % 1000)


def rand_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def rand_spd(rng, n, cond=50.0):
    """Random SPD matrix with condition number at most cond."""
    Q = rand_orthogonal(rng, n)
    lam = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    lam = lam / lam.min()
    return (Q * lam) @ Q.T


def rand_sym(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return 0.5 * (A + A.T)


def rand_invertible(rng, n, cond=100.0):
    """Random invertible matrix with condition number at most cond."""
    U = rand_orthogonal(rng, n)
    V = rand_orthogonal(rng, n)
    s = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    s = s / s.min()
    return (U * s) @ V.T


def pencil_eigh(P1, P2):
    """Eigenpairs (lam ascending, V) of P2 v = lambda P1 v, with V^T P1 V = I.

    The reference for the package's pencils: the symmetric form
    L^{-1} P2 L^{-T} of sym(P1) = L L^T, solved by congruent_eigh.
    """
    Linv = spd.lower_inverse(spd.cholesky(spd.sym(P1)))
    return spd.congruent_eigh(Linv, spd.sym(Linv @ P2 @ Linv.T))


def sym_grad_pairs(G):
    """Map an analytic symmetric gradient to the convention of central_diff(mirror=True)."""
    return G + G.T - np.diag(np.diag(G))


def count_lapack(monkeypatch, name, calls, label=None):
    """Append the matrix shape (with label, if given) of each call of spd's binding name to calls.

    name is "_POTRF" or "_SYEVD": every Cholesky factor and every symmetric
    eigensolve of the package is one call there, one per slice of a stack.
    """
    real = getattr(spd, name)

    def counted(M, *args, **kwargs):
        calls.append(M.shape if label is None else (label, M.shape))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(spd, name, counted)
