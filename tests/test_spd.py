import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from geomoment.errors import NotPositiveDefinite, NotSymmetric
from geomoment.gradcheck import central_diff
from geomoment.spd import (
    SPECTRAL_KINDS,
    check_symmetric,
    cholesky,
    dist_airm,
    dist_hilbert,
    dist_logeuclid,
    matrix_log,
    sym,
    syevd,
    validate_spd,
)
from helpers import rand_invertible, rand_orthogonal, rand_spd, rand_sym, rng_for


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(SPECTRAL_KINDS)),
    logs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6),
)
def test_spectral_slope_is_the_derivative_of_the_value(kind, logs):
    lam = np.exp(np.sort(logs))
    # extremes separated from their neighbours: the value is differentiable
    assume(lam[1] > 1.01 * lam[0] and lam[-1] > 1.01 * lam[-2])
    value_of, slope_of = SPECTRAL_KINDS[kind]
    value = value_of(lam)
    slope = slope_of(lam, value)
    for i in range(lam.size):
        fd = central_diff(value_of, lam, (i,))
        assert fd == pytest.approx(slope[i], rel=1e-6, abs=1e-6)


def test_validate_identity():
    P = validate_spd(np.eye(3))
    assert isinstance(P, np.ndarray)
    assert P.shape == (3, 3)
    assert np.array_equal(P, np.eye(3))


def test_validate_indefinite_diagonal():
    with pytest.raises(NotPositiveDefinite) as exc:
        validate_spd(np.diag([1.0, -1.0]))
    assert exc.value.lambda_min == pytest.approx(-1.0)


def test_validate_asymmetric():
    with pytest.raises(NotSymmetric):
        validate_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_validate_symmetrizes_float_noise():
    rng = rng_for("validate-noise")
    P = rand_spd(rng, 4)
    P[0, 1] += 1e-14 * abs(P).max()
    out = validate_spd(P)
    assert np.array_equal(out, out.T)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
    c=st.one_of(st.floats(-2.0, 3.0), st.floats(-1e3, 1e3)),
)
def test_validate_spd_accepts_exactly_above_the_trace_tolerance(n, seed, log_scale, c):
    rng = np.random.default_rng(seed)
    lam = 10.0 ** (log_scale + rng.uniform(-2.0, 2.0, n))
    lam[0] = c * 1e-10 * lam.mean()  # smallest eigenvalue near the default tolerance
    Q = rand_orthogonal(rng, n)
    M = (Q * lam) @ Q.T
    M = 0.5 * (M + M.T)
    eig = np.linalg.eigvalsh(M)
    scale = np.trace(M) / n
    tol = 1e-10 * (scale if scale > 0 else 1.0)
    # away from the rounding band of an eigensolve and a Cholesky around tol
    assume(abs(eig[0] - tol) > 1e3 * np.finfo(float).eps * np.abs(eig).max())
    if eig[0] > tol:
        assert np.array_equal(validate_spd(M), M)
    else:
        with pytest.raises(NotPositiveDefinite) as exc:
            validate_spd(M)
        assert exc.value.lambda_min == eig[0]


def test_empty_matrix_raises_package_errors():
    with pytest.raises(NotSymmetric, match="non-empty"):
        check_symmetric(np.zeros((0, 0)))
    with pytest.raises(NotPositiveDefinite, match="0 x 0"):
        validate_spd(np.zeros((0, 0)))


def test_validate_spd_symmetrizes_near_the_float_maximum_and_keeps_subnormals():
    M = np.array([[1e308, 1e300], [1e300, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in the symmetrization or the trace
        assert np.array_equal(validate_spd(M), M)
        for D in (np.diag([1e308, 1e308]), np.diag([1e308, 1e308, 1e298])):
            # the second fails the cheap test, so its eigenvalues decide, unsymmetrized
            assert np.array_equal(validate_spd(D), D)
        A = M.copy()
        A[0, 1] = np.nextafter(A[0, 1], np.inf)  # within SYM_RTOL of its mirror
        out = validate_spd(A)
        assert np.array_equal(out, out.T) and out[0, 1] == 0.5 * A[0, 1] + 0.5 * A[1, 0]
    S = np.array([[7.85e-321]])  # an exactly symmetric subnormal matrix comes back as it is
    assert np.array_equal(validate_spd(S), S)


def test_validate_rejects_non_finite():
    for M in (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(NotPositiveDefinite):
            validate_spd(M)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_pencil_of_a_first_matrix_with_no_factor_raises(n):
    # not NaN eigenpairs (n <= 2) or a ConvergenceFailure (n >= 3) from a NaN pencil
    for fn in (dist_airm, dist_hilbert):
        with pytest.raises(NotPositiveDefinite, match="Cholesky of the pencil's first matrix"):
            fn(-np.eye(n), np.eye(n))


@pytest.mark.parametrize("shape", [(2,), (2, 3), (4, 2, 3)])
def test_cholesky_of_a_non_square_input_names_its_shape(shape):
    # a shape error is not a failed factorization
    with pytest.raises(ValueError, match=rf"got shape \({shape[0]},"):
        cholesky(np.ones(shape))
    for fn in (dist_airm, dist_hilbert):
        with pytest.raises(ValueError, match="expected a square matrix"):
            fn(np.ones(shape), np.ones(shape))


def test_eigvals_diagonal():
    assert np.allclose(syevd(np.diag([3.0, 1.0, 2.0]), vectors=False), [1.0, 2.0, 3.0])


def test_eigvals_2x2_hand():
    # char poly of [[2,1],[1,2]]: (2-l)^2 - 1 -> l = 1, 3
    assert np.allclose(syevd(np.array([[2.0, 1.0], [1.0, 2.0]]), vectors=False), [1.0, 3.0])


def test_eigvals_identity():
    assert np.allclose(syevd(np.eye(4), vectors=False), np.ones(4))


def test_eigvals_residual():
    rng = rng_for("eig-residual")
    M = rand_sym(rng, 6, scale=3.0)
    lam = syevd(M, vectors=False)
    # residual check via full decomposition
    w, V = np.linalg.eigh(M)
    assert np.allclose(lam, w)
    res = np.linalg.norm(M @ V - V * w)
    assert res <= 1e-9 * max(np.linalg.norm(M), 1.0)


def test_matrix_log_identity():
    assert np.allclose(matrix_log(np.eye(5)), np.zeros((5, 5)))


def test_matrix_log_diagonal():
    L = matrix_log(np.diag([np.e, np.e**2]))
    assert np.allclose(L, np.diag([1.0, 2.0]))


def test_matrix_log_roundtrip_2x2():
    P = np.array([[2.0, 1.0], [1.0, 2.0]])
    L = matrix_log(P)
    assert np.allclose(expm(L), P, rtol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_log_rejects_nan_entries(n):
    # NaN compares false with 0 both ways, so only `not lam > 0` rejects it
    P = np.eye(n)
    P[0, 1] = P[1, 0] = np.nan
    with pytest.raises(NotPositiveDefinite):
        matrix_log(P)
    with pytest.raises(NotPositiveDefinite):
        dist_logeuclid(P, np.eye(n))


def test_exp_log_roundtrip_conditioned():
    rng = rng_for("explog")
    for _ in range(50):
        n = int(rng.integers(2, 7))
        P = rand_spd(rng, n, cond=1e6)
        err = np.linalg.norm(expm(matrix_log(P)) - P) / np.linalg.norm(P)
        assert err <= 1e-8


def test_airm_self_distance_zero():
    rng = rng_for("airm-self")
    P = rand_spd(rng, 4)
    assert dist_airm(P, P) <= 1e-12


def test_airm_hand_value():
    # U = diag(e^4, 1): sqrt(0.5 * 16) = 2.828427...
    d = dist_airm(np.eye(2), np.diag([np.e**4, 1.0]))
    assert d == pytest.approx(2.8284271247461903, abs=1e-12)


def test_airm_affine_invariance():
    rng = rng_for("airm-affine")
    for _ in range(50):
        P = rand_spd(rng, 4)
        Q = rand_spd(rng, 4)
        A = rand_invertible(rng, 4, cond=100.0)
        d0 = dist_airm(P, Q)
        d1 = dist_airm(A @ P @ A.T, A @ Q @ A.T)
        assert abs(d1 - d0) <= 1e-8 * (1.0 + d0)


def test_hilbert_scale_invariance():
    rng = rng_for("hilbert-scale")
    P = rand_spd(rng, 3)
    for c in (0.5, 2.0, 17.0):
        assert dist_hilbert(c * P, P) <= 1e-12


def test_hilbert_hand_value():
    assert dist_hilbert(np.eye(2), np.diag([4.0, 1.0])) == pytest.approx(
        np.log(4.0), abs=1e-12
    )


def test_hilbert_symmetry():
    rng = rng_for("hilbert-symm")
    for _ in range(20):
        P = rand_spd(rng, 5)
        Q = rand_spd(rng, 5)
        assert dist_hilbert(P, Q) == pytest.approx(dist_hilbert(Q, P), abs=1e-10)


def test_pencil_distances_read_an_asymmetric_matrix_as_its_symmetric_part():
    # on either side of the pencil, not only the lower triangle of the first matrix
    rng = rng_for("pencil-asym")
    pairs = [(np.array([[2.0, 1.0], [0.0, 2.0]]), np.eye(2))]
    for n in (2, 3, 5):
        G = rng.standard_normal((n, n))
        pairs.append((rand_spd(rng, n) + (G - G.T), rand_spd(rng, n)))
    for dist in (dist_airm, dist_hilbert):
        for A, B in pairs:
            assert dist(A, B) == pytest.approx(dist(B, A), rel=1e-10)
            assert dist(A, B) == dist(sym(A), B)


def test_logeuclid_zero_and_hand_value():
    rng = rng_for("logeuclid")
    P = rand_spd(rng, 3)
    assert dist_logeuclid(P, P) == 0.0
    d = dist_logeuclid(np.eye(2), np.diag([np.e**2, np.e**2]))
    assert d == pytest.approx(np.sqrt(8.0), abs=1e-12)


def test_logeuclid_commuting_identity():
    rng = rng_for("logeuclid-diag")
    for _ in range(20):
        a, b, c, d = np.exp(rng.uniform(-2, 2, size=4))
        got = dist_logeuclid(np.diag([a, b]), np.diag([c, d]))
        want = np.hypot(np.log(a / c), np.log(b / d))
        assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("dist", [dist_airm, dist_hilbert, dist_logeuclid])
def test_distances_of_matrices_of_different_sizes_name_both_shapes(dist):
    for A, B in ((np.eye(2), np.eye(3)), (np.eye(3), np.eye(2))):
        with pytest.raises(ValueError) as info:
            dist(A, B)
        assert str(info.value) == f"matrices of different shapes: {A.shape} and {B.shape}"


def test_distances_of_entries_near_the_float_maximum_in_both_orders():
    # (M + M^T) / 2 overflows on these entries; sym's M/2 + M^T/2 does not
    A, B = np.eye(2), np.diag([1e308, 1e308])
    log_top = math.log(1e308)  # 709.196...
    want = ((dist_airm, log_top), (dist_hilbert, 0.0), (dist_logeuclid, math.sqrt(2.0) * log_top))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dist, d in want:
            assert dist(A, B) == pytest.approx(d, rel=1e-12)
            assert dist(B, A) == pytest.approx(d, rel=1e-12)


@settings(max_examples=100, deadline=None)
@example(n=2, seed=0, log_top=math.log10(1.7e308))
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    log_top=st.floats(-300.0, math.log10(1.7e308)),
)
def test_distances_are_unchanged_when_both_sides_are_scaled(n, seed, log_top):
    # the largest entry of the scaled pair is 10 ** log_top, in [1e-300, 1.7e308]
    rng = np.random.default_rng(seed)
    P1, P2 = rand_spd(rng, n), rand_spd(rng, n)
    s = 10.0**log_top / max(np.abs(P1).max(), np.abs(P2).max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dist in (dist_airm, dist_hilbert, dist_logeuclid):
            assert dist(s * P1, s * P2) == pytest.approx(dist(P1, P2), rel=1e-9, abs=1e-9)


def test_commuting_case_closed_forms():
    rng = rng_for("commuting")
    for _ in range(20):
        n = 4
        Q = rand_orthogonal(rng, n)
        p = np.exp(rng.uniform(-1.5, 1.5, size=n))
        q = np.exp(rng.uniform(-1.5, 1.5, size=n))
        P1 = (Q * p) @ Q.T
        P2 = (Q * q) @ Q.T
        ratios = np.log(q) - np.log(p)
        assert dist_airm(P1, P2) == pytest.approx(
            np.sqrt(0.5 * np.sum(ratios**2)), abs=1e-10
        )
        assert dist_hilbert(P1, P2) == pytest.approx(
            ratios.max() - ratios.min(), abs=1e-10
        )


def test_metric_axioms_sampled():
    rng = rng_for("axioms")
    for _ in range(100):
        P = rand_spd(rng, 5)
        Q = rand_spd(rng, 5)
        R = rand_spd(rng, 5)
        dpq = dist_airm(P, Q)
        assert abs(dpq - dist_airm(Q, P)) <= 1e-10
        assert dpq > 1e-9  # random pairs are far apart
        assert dist_airm(P, R) <= dpq + dist_airm(Q, R) + 1e-9

