from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from gmrfmix import glasso, mle, synthetic
from gmrfmix.errors import DimensionMismatch, LineSearchFailed, NotSpd, SingularCovariance
from gmrfmix.matrices import SparseSpd, SupportPattern, spd_inverse
from gmrfmix.mixture import BaselineEstimator, EmConfig, fit_em
from gmrfmix.mle import (
    MleConfig,
    _to_dense,
    armijo_spd_search,
    default_q0,
    dense_mle,
    estimate_known_support,
    gradient,
    hessian_apply,
    hessian_matrix,
    neg_log_likelihood,
    newton_diagonal,
    pair_weights,
    proj_pcg,
)


def random_sparse_spd(n, rng, fill=0.3):
    """Random SPD matrix with ~fill off-diagonal density, SPD via dominance."""
    mask = rng.random((n, n)) < fill
    mask = np.triu(mask, 1)
    vals = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    m = vals + vals.T
    np.fill_diagonal(m, np.abs(m).sum(axis=1) + rng.uniform(0.5, 1.5, n))
    return SparseSpd(m)


class TestNegLogLikelihood:
    def test_identity(self):
        q = SparseSpd(np.eye(5))
        assert neg_log_likelihood(q, np.eye(5)) == pytest.approx(5.0)

    def test_scalar(self):
        q = SparseSpd(np.array([[2.0]]))
        assert neg_log_likelihood(q, np.array([[1.0]])) == pytest.approx(
            -np.log(2.0) + 2.0
        )

    def test_tridiagonal(self):
        q = SparseSpd(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert neg_log_likelihood(q, np.eye(2)) == pytest.approx(-np.log(3.0) + 4.0)

    def test_matches_dense_log_det_and_trace(self):
        rng = np.random.default_rng(0)
        q = random_sparse_spd(6, rng)
        a = rng.standard_normal((6, 6))
        s = a @ a.T / 6 + np.eye(6)
        expected = -np.linalg.slogdet(q.dense)[1] + np.trace(q.dense @ s)
        assert neg_log_likelihood(q, s) == pytest.approx(expected)


class TestGradient:
    def test_stationary_at_identity(self):
        q = SparseSpd(np.eye(3))
        assert np.allclose(gradient(q, np.eye(3)), 0.0)

    def test_scalar(self):
        q = SparseSpd(np.array([[2.0]]))
        assert np.allclose(gradient(q, np.array([[1.0]])), [[0.5]])

    def test_diagonal(self):
        q = SparseSpd(np.diag([1.0, 4.0]))
        assert np.allclose(gradient(q, np.eye(2)), np.diag([0.0, 0.75]))

    def test_matches_finite_differences(self):
        # central differences, symmetric perturbations counting off-diagonals once
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(5):
            n = int(rng.integers(2, 9))
            q = random_sparse_spd(n, rng, fill=1.0)
            a = rng.standard_normal((n, n))
            s = a @ a.T / n + np.eye(n)
            g = gradient(q, s)
            for i in range(n):
                for j in range(i, n):
                    e = np.zeros((n, n))
                    e[i, j] = e[j, i] = h
                    fp = neg_log_likelihood(SparseSpd(q.dense + e), s)
                    fm = neg_log_likelihood(SparseSpd(q.dense - e), s)
                    fd = (fp - fm) / (2 * h)
                    analytic = 2 * g[i, j] if i != j else g[i, i]
                    assert abs(fd - analytic) < 1e-5 * max(1.0, abs(analytic))


class TestDenseMle:
    def test_identity(self):
        assert np.allclose(dense_mle(np.eye(3)).dense, np.eye(3))

    def test_diagonal(self):
        assert np.allclose(dense_mle(np.diag([2.0, 4.0])).dense, np.diag([0.5, 0.25]))

    def test_two_by_two(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        assert np.allclose(dense_mle(s).dense, [[2.0, -1.0], [-1.0, 2.0]])

    def test_gradient_zero_at_solution(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        s = a @ a.T / 5 + np.eye(5)
        q = dense_mle(s)
        assert np.max(np.abs(gradient(q, s))) < 1e-8


@pytest.mark.parametrize("k, n, per_dim, seed", [(3, 2, 12, 1429), (3, 3, 11, 64568)])
def test_numerically_singular_covariance_is_singular_covariance(k, n, per_dim, seed):
    """EM with the baseline M-step on the EM-monotonicity test's data recipe
    collapses a component onto about n points. Its covariance passes
    Cholesky, but inverting it fails (numpy's LinAlgError at the first seed,
    the Cholesky of the inverse at the second)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(k):
        mix = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        blocks.append(rng.standard_normal((per_dim * n, n)) @ mix + rng.normal(0.0, 3.0, n))
    cfg = EmConfig(estimator=BaselineEstimator(), k=k, max_em_iters=50)
    with pytest.raises(SingularCovariance, match="numerically singular"):
        fit_em(np.vstack(blocks), cfg, seed=seed)


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])


@NON_FINITE
@pytest.mark.parametrize("where", [[(1, 1)], [(0, 2), (2, 0)], [(0, 1)]],
                         ids=["diagonal", "symmetric-pair", "one-entry"])
@pytest.mark.parametrize("entry", [
    SparseSpd,
    lambda m: glasso.glasso_solve(m, glasso.GlassoConfig(lam=0.1)),
    lambda m: estimate_known_support(m, SupportPattern.full(3)),
    dense_mle,
], ids=["SparseSpd", "glasso_solve", "estimate_known_support", "dense_mle"])
def test_non_finite_matrix_is_value_error(entry, where, bad):
    """A NaN or an infinite entry is named as such by every entry point that
    takes a matrix, wherever it sits and whether or not it is mirrored."""
    m = 2.0 * np.eye(3)
    for ij in where:
        m[ij] = bad
    with pytest.raises(ValueError, match="matrix has NaN or Inf entries"):
        entry(m)


@NON_FINITE
def test_non_finite_data_is_value_error_in_em(bad):
    """fit_em passes a non-finite point on to the M-step's covariance, which
    its estimator rejects."""
    data = np.random.default_rng(0).standard_normal((30, 3))
    data[4, 1] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="matrix has NaN or Inf entries"):
        fit_em(data, EmConfig(estimator=BaselineEstimator(), k=1))


class TestPairWeights:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_pair_dot_is_the_trace_product(self, n, fill, seed):
        """np.dot(pair_weights * x, y) = sum(A * B) = tr(A B) for symmetric A, B
        on the pattern (diagonal-only to full) with pair values x, y."""
        rng = np.random.default_rng(seed)
        pattern = SupportPattern.from_mask(rng.random((n, n)) < fill)
        rows, cols = pattern.index_arrays()
        a, b = (rng.standard_normal((n, n)) for _ in range(2))
        a, b = (np.where(pattern.mask(), m + m.T, 0.0) for m in (a, b))
        got = np.dot(pair_weights(pattern) * a[rows, cols], b[rows, cols])
        scale = np.sum(np.abs(a * b))
        assert got == pytest.approx(np.sum(a * b), rel=1e-12, abs=1e-12 * scale)


class TestHessianApply:
    # hessian_apply(w, pattern) maps pair values (index_arrays order) to pair values
    def test_identity_operator(self):
        rng = np.random.default_rng(3)
        p = SupportPattern.from_mask(rng.random((4, 4)) < 0.5)
        rows, cols = p.index_arrays()
        a = rng.standard_normal((4, 4))
        x = (a + a.T)[rows, cols]
        assert np.allclose(hessian_apply(np.eye(4), p)(x), x)

    def test_scalar_scaling(self):
        p = SupportPattern.full(3)
        rows, cols = p.index_arrays()
        x = np.diag([1.0, 2.0, 3.0])[rows, cols]
        assert np.allclose(hessian_apply(2.0 * np.eye(3), p)(x), 4.0 * x)

    def test_matrix_square(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        p = SupportPattern.full(2)
        rows, cols = p.index_arrays()
        out = hessian_apply(w, p)(np.eye(2)[rows, cols])
        assert np.allclose(out, (w @ w)[rows, cols])

    def test_matches_directional_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(5):
            n = int(rng.integers(2, 9))
            q = random_sparse_spd(n, rng, fill=1.0)
            a = rng.standard_normal((n, n))
            s = a @ a.T / n + np.eye(n)
            d = rng.standard_normal((n, n))
            d = 0.1 * (d + d.T)
            w = spd_inverse(q)
            rows, cols = SupportPattern.full(n).index_arrays()
            analytic = hessian_apply(w, SupportPattern.full(n))(d[rows, cols])
            gp = gradient(SparseSpd(q.dense + h * d), s)
            gm = gradient(SparseSpd(q.dense - h * d), s)
            fd = (gp - gm) / (2 * h)
            # Hessian of -log det is +W d W (the S term is linear)
            assert np.max(np.abs(fd[rows, cols] - analytic)) < 1e-4


class TestNewtonDiagonal:
    # one weight per pattern pair, in index_arrays order: full(2) is (0,0), (0,1), (1,1)
    def test_identity(self):
        m = newton_diagonal(np.eye(3), SupportPattern.full(3))
        assert np.allclose(m, np.ones(6))

    def test_diagonal(self):
        m = newton_diagonal(np.diag([2.0, 3.0]), SupportPattern.full(2))
        assert m.tolist() == [4.0, 6.0, 9.0]

    def test_off_diagonal_formula(self):
        w = np.array([[1.0, 0.5], [0.5, 1.0]])
        m = newton_diagonal(w, SupportPattern.full(2))
        assert m[1] == pytest.approx(1.25)

    def test_positive_for_spd(self):
        rng = np.random.default_rng(5)
        q = random_sparse_spd(6, rng, fill=1.0)
        m = newton_diagonal(spd_inverse(q), SupportPattern.full(6))
        assert m.shape == (21,) and np.all(m > 0)


def frobenius(x, pattern):
    """||X||_F of the symmetric matrix with pair values x."""
    return np.sqrt(np.dot(pair_weights(pattern) * x, x))


class TestProjPcg:
    # g and the direction are pair values on the pattern (index_arrays order)
    def test_identity_w(self):
        rng = np.random.default_rng(6)
        q = SparseSpd(np.eye(4))
        rows, cols = SupportPattern.full(4).index_arrays()
        g = rng.standard_normal((4, 4))
        g = (0.5 * (g + g.T))[rows, cols]
        delta, ok, _ = proj_pcg(q, g, SupportPattern.full(4))
        assert ok and np.allclose(delta, -g, atol=1e-8)

    def test_scaled_identity(self):
        rng = np.random.default_rng(7)
        q = SparseSpd(2.0 * np.eye(3))
        rows, cols = SupportPattern.full(3).index_arrays()
        g = rng.standard_normal((3, 3))
        g = (0.5 * (g + g.T))[rows, cols]
        with mock.patch.object(mle, "PCG_TOL", 1e-10):
            delta, ok, _ = proj_pcg(q, g, SupportPattern.full(3))
        assert ok and np.allclose(delta, -4.0 * g, atol=1e-6)

    def test_diagonal_pattern(self):
        q = SparseSpd(np.diag([1.0, 4.0]))
        g = np.array([0.0, 0.75])
        with mock.patch.object(mle, "PCG_TOL", 1e-12):
            delta, ok, _ = proj_pcg(q, g, SupportPattern.diagonal(2))
        assert ok and np.allclose(delta, [0.0, -12.0])

    def test_residual_tolerance(self):
        rng = np.random.default_rng(8)
        q = random_sparse_spd(8, rng)
        pattern = q.pattern
        rows, cols = pattern.index_arrays()
        a = rng.standard_normal((8, 8))
        g = (0.5 * (a + a.T) + np.eye(8))[rows, cols]
        w = spd_inverse(q)
        with mock.patch.object(mle, "PCG_TOL", 1e-3):
            delta, ok, _ = proj_pcg(q, g, pattern)
        assert ok
        resid = hessian_apply(w, pattern)(delta) + g
        assert frobenius(resid, pattern) <= 1e-3 * frobenius(g, pattern)


# HESSIAN_ELEMS at its default puts every drawn pattern in the explicit-matrix
# regime, a dense |P| x |P| product; at 0 every pattern, up to a full one,
# takes the sparse product
REGIMES = pytest.mark.parametrize(
    "hessian_elems", [mle.HESSIAN_ELEMS, 0], ids=["dense-products", "sparse-products"]
)


@REGIMES
class TestNewtonOperatorProperties:
    """Both regimes of the Newton operator against numpy, on random SPD W
    (n 1-30) and patterns from diagonal-only to full. Both gather 8 elements
    of W per block, so that every pattern spans several blocks."""

    @staticmethod
    def draw(n, fill, seed):
        rng = np.random.default_rng(seed)
        pattern = SupportPattern.from_mask(rng.random((n, n)) < fill)
        a = rng.standard_normal((n, n))
        q = SparseSpd(a @ a.T / n + 0.5 * np.eye(n), SupportPattern.full(n))
        b = rng.standard_normal((n, n))
        return pattern, q, np.where(pattern.mask(), b + b.T, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_apply_matches_numpy(self, hessian_elems, n, fill, seed):
        pattern, q, delta = self.draw(n, fill, seed)
        w = spd_inverse(q)
        rows, cols = pattern.index_arrays()
        with mock.patch.object(mle, "HESSIAN_ELEMS", hessian_elems), \
                mock.patch.object(mle, "GATHER_ELEMS", 8):
            apply = hessian_apply(w, pattern)
            got = apply(delta[rows, cols])
            again = apply(delta[rows, cols])
        want = (w @ delta @ w)[rows, cols]
        # rtol on each entry, and the same tolerance on the scale of the
        # products for entries that cancel to near zero
        atol = 1e-12 * np.linalg.norm(w, 2) ** 2 * np.abs(delta).sum()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
        np.testing.assert_array_equal(again, got)  # the held Delta is fully overwritten

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
        st.sampled_from([1e-1, 1e-3, 1e-6]), st.integers(1, 60),
    )
    def test_pcg_direction_meets_its_tolerance(self, hessian_elems, n, fill, seed, tol, iters):
        pattern, q, g = self.draw(n, fill, seed)
        rows, cols = pattern.index_arrays()
        # DIRECT_PAIRS 0: CG on every pattern (test_direct_step_solves_the_newton_system
        # covers the direct solve)
        with mock.patch.object(mle, "HESSIAN_ELEMS", hessian_elems), \
                mock.patch.object(mle, "GATHER_ELEMS", 8), \
                mock.patch.object(mle, "DIRECT_PAIRS", 0), \
                mock.patch.object(mle, "PCG_TOL", tol), \
                mock.patch.object(mle, "MAX_PCG_ITERS", iters):
            delta, ok, _ = proj_pcg(q, g[rows, cols], pattern)
        assert delta.shape == rows.shape
        if ok:
            w = spd_inverse(q)
            resid = np.where(pattern.mask(), w @ _to_dense(delta, pattern) @ w, 0.0) + g
            assert np.linalg.norm(resid) <= tol * np.linalg.norm(g)


@REGIMES
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_hessian_matrix_is_the_operator(hessian_elems, n, fill, seed):
    """hessian_matrix(w, p) @ x equals hessian_apply(w, p)(x) in either of
    its regimes, on random SPD W and patterns from diagonal-only to full
    (built 8 / |P| rows at a time, so in several blocks), and
    pair_weights(p)[:, None] * H is symmetric (the operator is self-adjoint in
    the trace inner product)."""
    pattern, q, delta = TestNewtonOperatorProperties.draw(n, fill, seed)
    w = spd_inverse(q)
    rows, cols = pattern.index_arrays()
    x = delta[rows, cols]
    with mock.patch.object(mle, "HESSIAN_ELEMS", hessian_elems), \
            mock.patch.object(mle, "GATHER_ELEMS", 8):
        h = hessian_matrix(w, pattern)
        want = hessian_apply(w, pattern)(x)
    assert h.shape == (len(rows), len(rows))
    atol = 1e-12 * np.abs(h).max() * np.abs(x).sum()
    np.testing.assert_allclose(h @ x, want, rtol=1e-12, atol=atol)
    weighted = pair_weights(pattern)[:, None] * h
    np.testing.assert_allclose(weighted, weighted.T, rtol=1e-12, atol=1e-12 * np.abs(weighted).max())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_direct_step_solves_the_newton_system(n, fill, seed):
    """At n <= 20 every pattern has |P| <= DIRECT_PAIRS, and proj_pcg's
    Cholesky solve, from an upper triangle built 8 / |P| rows at a time,
    meets H x = -g to rounding (H = hessian_matrix(w, p), whose condition
    number is at most cond(W)^2 <= 100 on these draws), as one converged
    apply."""
    pattern, q, g = TestNewtonOperatorProperties.draw(n, fill, seed)
    rows, cols = pattern.index_arrays()
    assert len(rows) <= mle.DIRECT_PAIRS
    with mock.patch.object(mle, "GATHER_ELEMS", 8), \
            mock.patch.object(mle, "hessian_apply", side_effect=AssertionError("ran CG")):
        x, ok, applies = proj_pcg(q, g[rows, cols], pattern)
    assert ok and applies == 1
    resid = hessian_matrix(spd_inverse(q), pattern) @ x + g[rows, cols]
    assert frobenius(resid, pattern) <= 1e-10 * frobenius(g[rows, cols], pattern)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_newton_diagonal_is_the_matrix_diagonal(n, fill, seed):
    """newton_diagonal(w, p) is exactly the diagonal of hessian_matrix(w, p)
    (built 8 / |P| rows at a time), the a_k that glasso's coordinate
    descent divides by."""
    pattern, q, _ = TestNewtonOperatorProperties.draw(n, fill, seed)
    w = spd_inverse(q)
    with mock.patch.object(mle, "GATHER_ELEMS", 8):
        h = hessian_matrix(w, pattern)
    np.testing.assert_array_equal(newton_diagonal(w, pattern), np.diag(h))


def nll_search(q, s, g, delta, pattern=None):
    """The known-support MLE's call of the shared line search, with the
    gradient g and step delta given as symmetric matrices and passed as
    their pair values on the search pattern."""
    pattern = q.pattern if pattern is None else pattern
    rows, cols = pattern.index_arrays()
    step = delta[rows, cols]
    return armijo_spd_search(
        q, step, pattern, np.dot(pair_weights(pattern) * g[rows, cols], step),
        neg_log_likelihood(q, s), lambda cand: neg_log_likelihood(cand, s),
    )


class TestArmijoSpd:
    def test_scalar_lands_on_minimizer(self):
        q = SparseSpd(np.array([[2.0]]))
        s = np.array([[1.0]])
        g = np.array([[0.5]])
        delta = np.array([[-2.0]])
        alpha, q_new, _ = nll_search(q, s, g, delta)
        assert alpha == 0.5
        assert np.allclose(q_new.dense, [[1.0]])

    def test_spd_guard_rejects_full_step(self):
        n = 3
        q = SparseSpd(np.eye(n))
        s = 2.0 * np.eye(n)
        g = np.eye(n)
        delta = -np.eye(n)
        alpha, q_new, f_new = nll_search(q, s, g, delta)
        assert alpha == 0.5
        assert np.allclose(q_new.dense, 0.5 * np.eye(n))
        assert f_new == pytest.approx(n * (np.log(2.0) + 1.0))

    def test_non_descent_rejected(self):
        q = SparseSpd(np.eye(2))
        with pytest.raises(LineSearchFailed):
            nll_search(q, np.eye(2), np.eye(2), np.eye(2))

    def test_candidate_stored_on_larger_pattern(self):
        # glasso's use: the step adds entries outside Q's pattern, and the
        # search stores the candidate on a free set wider than its support
        s = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        q = SparseSpd(np.eye(3))
        delta = np.linalg.inv(s) - np.eye(3)
        delta[np.abs(delta) < 1e-15] = 0.0
        free = SupportPattern.full(3)
        with pytest.raises(DimensionMismatch):  # Q has values outside the search pattern
            nll_search(SparseSpd(np.linalg.inv(s)), s, np.eye(3), -0.5 * np.eye(3),
                       pattern=SupportPattern.diagonal(3))
        alpha, q_new, f_new = nll_search(q, s, s - np.eye(3), delta, pattern=free)
        assert alpha == 1.0
        assert q_new.pattern == free
        assert SupportPattern.from_mask(q_new.dense != 0.0) != free
        assert np.allclose(q_new.dense, np.linalg.inv(s))
        assert f_new == pytest.approx(np.log(0.75) + 3.0)


def brute_force_constrained_mle(s, pattern, x0_q):
    """Derivative-free minimization over the free pattern entries (oracle)."""
    pairs = list(zip(*pattern.index_arrays()))
    n = pattern.n

    def unpack(x):
        m = np.zeros((n, n))
        for v, (i, j) in zip(x, pairs):
            m[i, j] = v
            m[j, i] = v
        return m

    def objective(x):
        m = unpack(x)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return 1e10
        return -2.0 * np.sum(np.log(np.diag(chol))) + np.sum(m * s)

    x0 = np.array([x0_q[i, j] for i, j in pairs])
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxiter": 20000, "xatol": 1e-9, "fatol": 1e-12})
    return res.fun


class TestEstimateKnownSupport:
    def test_identity_immediately_stationary(self):
        res = estimate_known_support(np.eye(3), SupportPattern.diagonal(3))
        assert res.converged and res.iterations == 0
        assert np.allclose(res.q.dense, np.eye(3))

    def test_recovers_tridiagonal_from_exact_inverse(self):
        q_true = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        s = np.linalg.inv(q_true)
        pattern = SupportPattern.from_mask(q_true != 0)
        res = estimate_known_support(s, pattern, cfg=MleConfig(outer_tol=1e-9))
        assert np.max(np.abs(res.q.dense - q_true)) < 1e-6

    def test_diagonal_support_decouples(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((10, 3))
        s = data.T @ data / 10
        res = estimate_known_support(s, SupportPattern.diagonal(3),
                                     cfg=MleConfig(outer_tol=1e-10))
        assert np.allclose(res.q.dense, np.diag(1.0 / np.diag(s)), atol=1e-8)

    def test_exact_covariance_recovers_truth_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(4, 13))
            q_true = random_sparse_spd(n, rng)
            s = spd_inverse(q_true)
            res = estimate_known_support(s, q_true.pattern,
                                         cfg=MleConfig(outer_tol=1e-9))
            assert np.max(np.abs(res.q.dense - q_true.dense)) < 1e-6

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            n = int(rng.integers(2, 5))
            q_true = random_sparse_spd(n, rng, fill=0.5)
            a = rng.standard_normal((2 * n, n))
            s = a.T @ a / (2 * n)
            res = estimate_known_support(s, q_true.pattern,
                                         cfg=MleConfig(outer_tol=1e-9))
            obj = res.objective_trace[-1]
            oracle = brute_force_constrained_mle(s, q_true.pattern, res.q.dense * 0 + np.eye(n))
            assert obj <= oracle + 1e-4

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(12)
        q_true = random_sparse_spd(6, rng)
        a = rng.standard_normal((20, 6))
        s = a.T @ a / 20
        res = estimate_known_support(s, q_true.pattern)
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_support_preserved(self):
        rng = np.random.default_rng(13)
        q_true = random_sparse_spd(7, rng)
        a = rng.standard_normal((30, 7))
        s = a.T @ a / 30
        res = estimate_known_support(s, q_true.pattern)
        outside = res.q.dense[~q_true.pattern.mask()]
        assert np.all(outside == 0.0)

    @pytest.mark.parametrize("cap", [1, 2, 200])
    def test_grad_max_certifies_the_returned_estimate(self, cap):
        rng = np.random.default_rng(14)
        q_true = random_sparse_spd(8, rng)
        a = rng.standard_normal((40, 8))
        s = a.T @ a / 40
        with mock.patch.object(mle, "MAX_OUTER_ITERS", cap):
            res = estimate_known_support(s, q_true.pattern)
        rows, cols = q_true.pattern.index_arrays()
        g = (s - spd_inverse(res.q))[rows, cols]
        assert res.grad_max == np.max(np.abs(g))
        assert res.converged == (res.grad_max <= 1e-6)
        assert res.iterations == len(res.objective_trace) - 1 <= cap
        assert res.converged != (cap < 3)

    @pytest.mark.parametrize("scale", [0.0, 1e-310])
    def test_zero_covariance_is_singular_covariance(self, scale):
        """A one-point component's covariance: the ridge floor of the starting
        point would be zero or subnormal, and its reciprocal overflow."""
        s = scale * np.eye(2)
        with np.errstate(all="raise"):
            with pytest.raises(SingularCovariance, match="too small to invert"):
                estimate_known_support(s, SupportPattern.full(2))
            with pytest.raises(SingularCovariance, match="too small to invert"):
                glasso.glasso_solve(s, glasso.GlassoConfig(lam=0.3))

    def test_default_q0_is_inverse_diagonal(self):
        s = np.array([[2.0, 0.1], [0.1, 5.0]])
        q0 = default_q0(s, SupportPattern.diagonal(2))
        assert np.allclose(q0.dense, np.diag([0.5, 0.2]))


def lattice_problem():
    """The 16x16 lattice precision and the covariance of 300 of its samples (seed 44)."""
    q_true = synthetic.laplacian2d_precision(synthetic.LatticeSpec(16, 16))
    x = synthetic.sample_gmrf(q_true, None, 300, seed=44)
    s = x.T @ x / x.shape[0]
    return q_true, 0.5 * (s + s.T)


@pytest.mark.parametrize("field", ["outer_tol"])
@pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan], ids=["zero", "negative", "nan"])
def test_config_rejects_tolerance_that_is_not_positive(field, tol):
    with pytest.raises(ValueError, match="tolerances must be positive"):
        MleConfig(**{field: tol})


def test_pcg_truncated_counts_newton_steps_with_truncated_pcg(monkeypatch):
    q_true, s = lattice_problem()
    flags = []

    def recording(*args):
        out = proj_pcg(*args)
        flags.append(out[1])
        return out

    monkeypatch.setattr(mle, "proj_pcg", recording)
    with mock.patch.object(mle, "MAX_PCG_ITERS", 1), mock.patch.object(mle, "MAX_OUTER_ITERS", 20):
        res = estimate_known_support(s, q_true.pattern)
    assert len(flags) == res.iterations
    assert res.pcg_truncated == flags.count(False) > 0
    flags.clear()
    res = estimate_known_support(s, q_true.pattern)
    assert res.converged and res.pcg_truncated == flags.count(False) == 0


def test_pcg_iters_counts_the_operator_applies(monkeypatch):
    """MleResult.pcg_iters totals the Newton operator applies of every PCG
    solve, and a solve started at its own solution (g = 0) runs none."""
    q_true, s = lattice_problem()
    applies = []

    def counting(w, pattern):
        apply = hessian_apply(w, pattern)

        def counted(x):
            applies.append(1)
            return apply(x)

        return counted

    monkeypatch.setattr(mle, "hessian_apply", counting)
    res = estimate_known_support(s, q_true.pattern)
    assert res.converged and res.pcg_iters == len(applies) > res.iterations
    rows, cols = q_true.pattern.index_arrays()
    assert proj_pcg(q_true, np.zeros(len(rows)), q_true.pattern)[2] == 0
    applies.clear()
    again = estimate_known_support(s, q_true.pattern, q0=res.q)
    assert again.iterations == again.pcg_iters == len(applies) == 0


def test_lattice_solves_match_tight_pcg_within_outer_tol():
    """Known-support and refit (lambda 0.25 support) on one 16x16 lattice sample.

    Both solves, their PCG_TOL=1e-8 counterparts and their counterparts on
    the sparse product (HESSIAN_ELEMS 0; the defaults build the explicit
    matrix) stop with every pattern entry of the gradient S - Q^{-1} within
    outer_tol. The objective's Hessian on the pattern subspace is
    Q^{-1} (x) Q^{-1}, whose smallest eigenvalue is at least 1/L^2 on the
    segment between two solutions, for L the larger of their largest
    eigenvalues. So ||Q - Q'||_F <= L^2 ||g - g'||_F <= 2 L^2 outer_tol sqrt(nnz).
    """
    q_true, s = lattice_problem()
    lasso = glasso.glasso_solve(s, glasso.GlassoConfig(lam=0.25)).q
    for pattern, q0 in ((q_true.pattern, None), (lasso.pattern, lasso)):
        a = estimate_known_support(s, pattern, q0=q0)
        with mock.patch.object(mle, "PCG_TOL", 1e-8):
            tight = estimate_known_support(s, pattern, q0=q0)
        with mock.patch.object(mle, "HESSIAN_ELEMS", 0), \
                mock.patch.object(mle, "hessian_matrix", side_effect=AssertionError("built H")):
            product = estimate_known_support(s, pattern, q0=q0)
        nnz = np.count_nonzero(pattern.mask())
        for b in (tight, product):
            for res in (a, b):
                assert res.converged and res.grad_max <= MleConfig().outer_tol
            top = max(np.linalg.eigvalsh(a.q.dense)[-1], np.linalg.eigvalsh(b.q.dense)[-1])
            bound = 2.0 * top**2 * MleConfig().outer_tol * np.sqrt(nnz)
            assert np.linalg.norm(a.q.dense - b.q.dense) <= bound


def sample_covariance(q, count, seed):
    x = synthetic.sample_gmrf(q, None, count, seed=seed)
    s = x.T @ x / count
    return 0.5 * (s + s.T)


def direct_problems():
    """Two MLE problems in the direct regime (|P| <= DIRECT_PAIRS), as
    (S, pattern, q0): known-support on a 10x10 diffusion grid (|P| 280), and
    the refit of a glasso estimate (lambda 0.3, 10 Newton steps) at n = 25
    (|P| <= 325), each from samples of a diffusion precision."""
    grid = synthetic.diffusion_precision(synthetic.DiffusionSpec(10, 10, seed=11))
    small = synthetic.diffusion_precision(synthetic.DiffusionSpec(5, 5, seed=13))
    s_small = sample_covariance(small, 500, seed=14)
    lasso = glasso.glasso_solve(s_small, glasso.GlassoConfig(lam=0.3, max_newton_iters=10)).q
    return [(sample_covariance(grid, 300, seed=12), grid.pattern, None), (s_small, lasso.pattern, lasso)]


def test_direct_solves_match_tight_pcg_within_outer_tol():
    """Each direct-regime solve and its CG counterpart (DIRECT_PAIRS 0,
    PCG_TOL 1e-8) stop with grad_max <= outer_tol, and they differ by at most
    the bound of test_lattice_solves_match_tight_pcg_within_outer_tol,
    2 L^2 outer_tol sqrt(nnz)."""
    outer_tol = MleConfig().outer_tol
    for s, pattern, q0 in direct_problems():
        assert len(pattern.index_arrays()[0]) <= mle.DIRECT_PAIRS
        direct = estimate_known_support(s, pattern, q0=q0)
        with mock.patch.object(mle, "DIRECT_PAIRS", 0), mock.patch.object(mle, "PCG_TOL", 1e-8):
            tight = estimate_known_support(s, pattern, q0=q0)
        assert direct.pcg_iters == direct.iterations > 0
        assert tight.pcg_iters > tight.iterations > 0
        for res in (direct, tight):
            assert res.converged and res.grad_max <= outer_tol
        nnz = np.count_nonzero(pattern.mask())
        top = max(np.linalg.eigvalsh(direct.q.dense)[-1], np.linalg.eigvalsh(tight.q.dense)[-1])
        bound = 2.0 * top**2 * outer_tol * np.sqrt(nnz)
        assert np.linalg.norm(direct.q.dense - tight.q.dense) <= bound


def test_direct_step_counts_one_converged_apply():
    """A direct Newton step counts as 1 operator apply and as converged, so
    pcg_iters == iterations and pcg_truncated == 0 even with a CG cap of 1,
    and no CG operator is built; g = 0 still takes no apply."""
    s, pattern, _ = direct_problems()[0]
    with mock.patch.object(mle, "MAX_PCG_ITERS", 1), \
            mock.patch.object(mle, "hessian_apply", side_effect=AssertionError("ran CG")):
        res = estimate_known_support(s, pattern)
        rows, _ = pattern.index_arrays()
        x, ok, applies = proj_pcg(res.q, np.zeros(len(rows)), pattern)
    assert res.converged and res.iterations > 0
    assert res.pcg_iters == res.iterations and res.pcg_truncated == 0
    assert ok and applies == 0 and not np.any(x)


def test_failed_factorization_falls_back_to_cg(monkeypatch):
    """When dpotrf reports a failure (info > 0), the same Newton step runs CG
    on the operator, and the solve still converges to outer_tol."""
    s, pattern, _ = direct_problems()[0]
    factorizations = []

    def failing(a, **kwargs):
        factorizations.append(kwargs)
        return a, 1

    monkeypatch.setattr(mle, "dpotrf", failing)
    res = estimate_known_support(s, pattern)
    assert res.converged and res.grad_max <= MleConfig().outer_tol
    assert len(factorizations) == res.iterations > 0
    assert res.pcg_iters > res.iterations and res.pcg_truncated == 0


def test_newton_step_is_taken_whole_once_its_decrement_is_small():
    """Near the solution the Armijo test compares decreases below the
    objective's rounding. Here the objective carries a relative noise of 1e-9
    (about 7e-8 on this problem), which hides every decrease below it: the
    solve still converges, because once -g.delta <= FULL_STEP_DECREMENT it
    takes the full step without the test, and the line search only ever
    sees larger decrements."""
    s, pattern, _ = direct_problems()[0]
    rng = np.random.default_rng(0)
    exact = mle.neg_log_likelihood
    descents = []

    def noisy(q, s):
        f = exact(q, s)
        return f + 1e-9 * abs(f) * rng.uniform(-1.0, 1.0)

    def searched(q, step, pattern, descent, f0, objective):
        descents.append(descent)
        return armijo_spd_search(q, step, pattern, descent, f0, objective)

    with mock.patch.object(mle, "neg_log_likelihood", noisy), \
            mock.patch.object(mle, "armijo_spd_search", searched):
        res = estimate_known_support(s, pattern)
    assert res.converged and res.grad_max <= MleConfig().outer_tol
    assert 0 < len(descents) < res.iterations
    assert all(-d > mle.FULL_STEP_DECREMENT for d in descents)
