from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmrfmix import glasso, mle
from gmrfmix.glasso import (
    GlassoConfig,
    debias,
    free_set,
    glasso_objective,
    glasso_solve,
    kkt_residual,
    lasso_newton_direction,
    refit,
    stationarity_gap,
)
from gmrfmix.errors import DimensionMismatch
from gmrfmix.matrices import SparseSpd, SupportPattern, spd_inverse
from gmrfmix.mixture import weighted_stats
from gmrfmix.mle import (
    MleConfig,
    dense_mle,
    estimate_known_support,
    _to_dense,
    neg_log_likelihood,
    proj_pcg,
)
from gmrfmix.synthetic import DiffusionSpec, make_clustering_dataset

from test_mle import random_sparse_spd


def random_cov(n, rng, n_samples=None):
    n_samples = n_samples or 4 * n
    a = rng.standard_normal((n_samples, n))
    s = a.T @ a / n_samples
    return 0.5 * (s + s.T)


class TestObjective:
    def test_zero_lambda_is_plain_nll(self):
        rng = np.random.default_rng(0)
        q = random_sparse_spd(5, rng)
        s = random_cov(5, rng)
        cfg = GlassoConfig(lam=0.0)
        assert glasso_objective(q, s, cfg) == pytest.approx(neg_log_likelihood(q, s))

    def test_identity_no_off_diagonals(self):
        q = SparseSpd(np.eye(3))
        cfg = GlassoConfig(lam=1.0)
        assert glasso_objective(q, np.eye(3), cfg) == pytest.approx(3.0)

    def test_off_diagonal_pairs_counted_twice(self):
        q = SparseSpd(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        cfg = GlassoConfig(lam=0.5)
        expected = -np.log(3.0) + 4.0 + 0.5 * 2.0 * 1.0
        assert glasso_objective(q, np.eye(2), cfg) == pytest.approx(expected)


def free_set_at(q, s, lam):
    """free_set of q from its stationarity gap at penalty lam."""
    return free_set(q, stationarity_gap(q.dense, spd_inverse(q), s, GlassoConfig(lam=lam)))


class TestFreeSet:
    def test_identity_stationary(self):
        q = SparseSpd(np.eye(3))
        f = free_set_at(q, np.eye(3), lam=0.1)
        assert f == SupportPattern.diagonal(3)

    def test_gradient_violation_enters(self):
        q = SparseSpd(np.eye(2))
        s = np.array([[1.0, 0.6], [0.6, 1.0]])
        f = free_set_at(q, s, lam=0.5)
        assert f.mask()[0, 1]

    def test_current_nonzeros_stay_free(self):
        m = np.eye(3) * 2.0
        m[0, 2] = m[2, 0] = 0.3
        q = SparseSpd(m)
        f = free_set_at(q, np.eye(3), lam=100.0)
        assert f.mask()[0, 2]


class TestLassoDirection:
    def test_already_optimal_scalar(self):
        q = SparseSpd(np.array([[1.0]]))
        cfg = GlassoConfig(lam=0.3)
        d, sweeps = lasso_newton_direction(q, np.array([[1.0]]), SupportPattern.full(1), cfg)
        assert np.allclose(d, 0.0) and sweeps == 1

    def test_scalar_newton_step(self):
        q = SparseSpd(np.array([[2.0]]))
        cfg = GlassoConfig(lam=0.3)
        d, sweeps = lasso_newton_direction(q, np.array([[1.0]]), SupportPattern.full(1), cfg)
        assert np.allclose(d, [-2.0]) and sweeps == 2

    def test_zero_lambda_matches_proj_pcg(self):
        rng = np.random.default_rng(1)
        q = random_sparse_spd(5, rng)
        s = random_cov(5, rng)
        full = SupportPattern.full(5)
        with mock.patch.object(glasso, "LASSO_INNER_ITERS", 400), \
                mock.patch.object(glasso, "SUB_TOL", 1e-12):
            d_cd, _ = lasso_newton_direction(q, s, full, GlassoConfig(lam=0.0))
        rows, cols = full.index_arrays()
        g = (s - spd_inverse(q))[rows, cols]
        with mock.patch.object(mle, "PCG_TOL", 1e-10), \
                mock.patch.object(mle, "MAX_PCG_ITERS", 2000):
            d_cg, _, _ = proj_pcg(q, g, full)
        assert np.max(np.abs(d_cd - d_cg)) < 1e-6

    def test_subproblem_objective_non_increasing(self):
        rng = np.random.default_rng(2)
        q = random_sparse_spd(6, rng)
        s = random_cov(6, rng)
        w = spd_inverse(q)
        g = s - w
        cfg = GlassoConfig(lam=0.2)
        f = free_set_at(q, s, cfg.lam)

        def sub_obj(d):
            pen = np.abs(q.dense + d)
            pen = pen.sum() - np.trace(pen)
            return float(np.sum(g * d) + 0.5 * np.sum((w @ d @ w) * d) + cfg.lam * pen)

        prev = sub_obj(np.zeros((6, 6)))
        for sweeps in (1, 2, 4, 8):
            with mock.patch.object(glasso, "LASSO_INNER_ITERS", sweeps), \
                    mock.patch.object(glasso, "SUB_TOL", 1e-14):
                val = sub_obj(_to_dense(lasso_newton_direction(q, s, f, cfg)[0], f))
            assert val <= prev + 1e-12
            prev = val



@pytest.mark.parametrize("penalize_diagonal", [False, True], ids=["diag-free", "diag-penalized"])
@pytest.mark.parametrize("seed", range(6))
def test_explicit_and_product_loops_agree(monkeypatch, seed, penalize_diagonal):
    """The explicit-matrix loop and the U = Delta W loop give the same direction
    and sweep count on random SPD Q, covariance S and free set (n 2-12); the
    fallback, reached by lowering HESSIAN_ELEMS, builds no |F| x |F| matrix."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    a = rng.standard_normal((n, n))
    q = SparseSpd(a @ a.T / n + 0.5 * np.eye(n), SupportPattern.full(n))
    s = random_cov(n, rng)
    free = SupportPattern.from_mask(rng.random((n, n)) < rng.uniform(0.0, 1.0))
    cfg = GlassoConfig(lam=float(rng.uniform(0.02, 0.3)), penalize_diagonal=penalize_diagonal)
    explicit, sweeps = lasso_newton_direction(q, s, free, cfg)

    def no_matrix(*args):
        raise AssertionError("the fallback built the explicit Newton matrix")

    monkeypatch.setattr(mle, "HESSIAN_ELEMS", len(free) ** 2 - 1)
    monkeypatch.setattr(glasso, "hessian_matrix", no_matrix)
    product, product_sweeps = lasso_newton_direction(q, s, free, cfg)
    assert product_sweeps == sweeps
    np.testing.assert_allclose(explicit, product, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(product))))


def reference_explicit_sweeps(h, coords):
    """The explicit-matrix loop written plainly: ndarray.dot and `glasso._lasso_step`."""
    x = np.zeros(len(coords))
    steps = x.tolist()
    for sweeps in range(1, glasso.LASSO_INNER_ITERS + 1):
        max_change = 0.0
        for k, (g_k, a_k, t_k, q_k) in enumerate(coords):
            mu = glasso._lasso_step(g_k + float(h[k].dot(x)), a_k, q_k + steps[k], t_k)
            if mu != 0.0:
                steps[k] += mu
                x[k] = steps[k]
            max_change = max(max_change, abs(mu))
        if max_change <= glasso.SUB_TOL:
            break
    return x, sweeps


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.6),
    st.booleans(),
    st.integers(1, 30),
    st.sampled_from([0.0, 1e-8, 1e-6, 1e-3]),
    st.integers(0, 2**32 - 1),
)
def test_explicit_loop_equals_the_plain_loop_exactly(
    n, q_fill, free_fill, lam, penalize_diagonal, cap, tol, seed
):
    """`_explicit_sweeps` returns the plain loop's direction bit for bit, with
    its sweep count, on the Newton matrix and coordinates that
    `lasso_newton_direction` builds: sparse SPD Q (free pairs at 0 and of
    either sign, so steps cross signs), the unpenalized or penalized
    diagonal, and sweep caps and tolerances under which runs stop by
    SUB_TOL or at LASSO_INNER_ITERS."""
    rng = np.random.default_rng(seed)
    q = random_sparse_spd(n, rng, fill=q_fill)
    s = random_cov(n, rng, n_samples=int(rng.integers(n, 4 * n + 1)))
    free = SupportPattern.from_mask(q.pattern.mask() | (rng.random((n, n)) < free_fill))
    cfg = GlassoConfig(lam=lam, penalize_diagonal=penalize_diagonal)
    seen = []
    fast_loop = glasso._explicit_sweeps

    def recorded(h, coords):
        seen.append((h, coords))
        return fast_loop(h, coords)

    with mock.patch.object(glasso, "_explicit_sweeps", recorded), \
            mock.patch.object(glasso, "LASSO_INNER_ITERS", cap), \
            mock.patch.object(glasso, "SUB_TOL", tol):
        fast, sweeps = lasso_newton_direction(q, s, free, cfg)
        (h, coords), = seen
        plain, plain_sweeps = reference_explicit_sweeps(h, coords)
    assert np.array_equal(fast, plain)
    assert sweeps == plain_sweeps


def test_solve_sweeps_total_the_directions_sweeps(monkeypatch):
    ran = []

    def counted(*args):
        delta, sweeps = lasso_newton_direction(*args)
        ran.append(sweeps)
        return delta, sweeps

    monkeypatch.setattr(glasso, "lasso_newton_direction", counted)
    res = glasso_solve(random_cov(6, np.random.default_rng(15)), GlassoConfig(lam=0.1))
    assert len(ran) == res.iterations >= 1 and res.sweeps == sum(ran)


class TestGlassoSolve:
    def test_zero_lambda_recovers_dense_mle(self):
        rng = np.random.default_rng(3)
        s = random_cov(4, rng)
        res = glasso_solve(s, GlassoConfig(lam=0.0))
        assert res.converged
        assert np.max(np.abs(res.q.dense - np.linalg.inv(s))) < 1e-5

    def test_large_lambda_gives_diagonal(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            s = random_cov(5, rng)
            lam = float(np.max(np.abs(s - np.diag(np.diag(s))))) + 0.01
            res = glasso_solve(s, GlassoConfig(lam=lam))
            assert res.converged
            assert np.allclose(res.q.dense, np.diag(1.0 / np.diag(s)), atol=1e-8)

    def test_kkt_residual_below_tol_when_converged(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            s = random_cov(6, rng)
            cfg = GlassoConfig(lam=0.15)
            res = glasso_solve(s, cfg)
            assert res.converged
            assert res.kkt_residual <= cfg.newton_tol

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(6)
        s = random_cov(7, rng)
        res = glasso_solve(s, GlassoConfig(lam=0.1))
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_prune_consistency(self):
        rng = np.random.default_rng(7)
        s = random_cov(6, rng)
        cfg = GlassoConfig(lam=0.2)
        res = glasso_solve(s, cfg)
        # re-solving with the pruned pattern fixed barely moves the objective
        refit = glasso_solve(s, cfg, q0=res.q)
        assert abs(refit.objective_trace[-1] - res.objective_trace[-1]) <= 10 * cfg.newton_tol

    def test_nonzero_offdiagonal_stationarity_structure(self):
        rng = np.random.default_rng(8)
        s = random_cov(6, rng, n_samples=200)
        cfg = GlassoConfig(lam=0.1)
        res = glasso_solve(s, cfg)
        assert res.converged
        q = res.q.dense
        w = np.linalg.inv(q)
        off = ~np.eye(6, dtype=bool)
        nz = off & (q != 0.0)
        if np.any(nz):
            resid = np.abs(w - s - cfg.lam * np.sign(q))[nz]
            assert np.max(resid) <= 10 * cfg.newton_tol

    def test_diagonal_penalized_variant(self):
        rng = np.random.default_rng(9)
        s = random_cov(4, rng)
        cfg = GlassoConfig(lam=0.1, penalize_diagonal=True)
        res = glasso_solve(s, cfg)
        assert res.converged
        assert res.kkt_residual <= cfg.newton_tol


class TestCertificateProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.floats(0.02, 0.4), st.integers(0, 2**32 - 1))
    def test_converges_with_honest_certificate(self, n, lam, seed):
        # well-conditioned: eigenvalues in [0.5, 2] on a random orthonormal basis
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = (basis * rng.uniform(0.5, 2.0, n)) @ basis.T
        s = 0.5 * (s + s.T)
        cfg = GlassoConfig(lam=lam)
        res = glasso_solve(s, cfg)
        assert res.converged
        assert res.kkt_residual == kkt_residual(res.q.dense, spd_inverse(res.q), s, cfg)
        assert res.kkt_residual <= cfg.newton_tol
        assert np.all(np.diff(res.objective_trace) <= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10), st.floats(0.02, 0.4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_capped_solve_certifies_the_estimate_it_returns(self, n, lam, cap, seed):
        rng = np.random.default_rng(seed)
        s = random_cov(n, rng, n_samples=2 * n)
        cfg = GlassoConfig(lam=lam, max_newton_iters=cap)
        res = glasso_solve(s, cfg)
        assume(not res.converged and res.iterations == cap)
        assert res.kkt_residual == kkt_residual(res.q.dense, spd_inverse(res.q), s, cfg)


def test_capped_clustering_solve_certifies_the_estimate_it_returns():
    """Component 0 of the small clustering profile's dataset seed 11 (zero-mean
    covariance over its true labels), capped at 10 Newton steps. The returned
    estimate's residual is 3.884; the iterate before the last step had 4.978."""
    data, labels, _ = make_clustering_dataset(5, DiffusionSpec(5, 5), 500, 1000, seed=11)
    _, s, _ = weighted_stats(data, np.eye(5)[labels], 0, fix_mean_zero=True)
    cfg = GlassoConfig(lam=0.3, max_newton_iters=10)
    res = glasso_solve(s, cfg)
    assert not res.converged and res.iterations == 10
    assert res.kkt_residual == kkt_residual(res.q.dense, spd_inverse(res.q), s, cfg)
    assert res.kkt_residual == pytest.approx(3.884, abs=1e-3)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_stationarity_is_the_entrywise_conditions(n, fill, lam, penalize_diagonal, seed):
    """kkt_residual is exactly the max of an entrywise loop over the three
    cases (unpenalized, penalized nonzero, penalized zero), and the free set
    is the nonzeros of Q plus the entries with |S - W| > lam."""
    rng = np.random.default_rng(seed)
    q = random_sparse_spd(n, rng, fill=fill)
    s = random_cov(n, rng, n_samples=int(rng.integers(1, 3 * n + 2)))
    w = spd_inverse(q)
    cfg = GlassoConfig(lam=lam, penalize_diagonal=penalize_diagonal)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            if i == j and not penalize_diagonal:
                viol = abs(w[i, j] - s[i, j])
            elif q.dense[i, j] != 0.0:
                viol = abs(w[i, j] - s[i, j] - lam * np.sign(q.dense[i, j]))
            else:
                viol = max(0.0, abs(w[i, j] - s[i, j]) - lam)
            worst = max(worst, float(viol))
    assert kkt_residual(q.dense, w, s, cfg) == worst
    free = free_set(q, stationarity_gap(q.dense, w, s, cfg))
    assert np.array_equal(free.mask(), (q.dense != 0.0) | (np.abs(s - w) > lam))


class TestKktResidual:
    def test_hand_built_optimum(self):
        # build W from the stationarity conditions and invert
        s = np.array([[1.0, 0.4], [0.4, 1.2]])
        lam = 0.1
        w = np.array([[1.0, 0.4 + lam * (-1.0)], [0.4 + lam * (-1.0), 1.2]])
        q = np.linalg.inv(w)
        assert q[0, 1] < 0  # sign consistent with the construction
        assert kkt_residual(q, w, s, GlassoConfig(lam=lam)) < 1e-12


class TestDebias:
    def test_zero_lambda_equals_dense_mle(self):
        rng = np.random.default_rng(10)
        s = random_cov(4, rng)
        res = debias(s, GlassoConfig(lam=0.0))
        assert np.max(np.abs(res.q.dense - np.linalg.inv(s))) < 1e-4

    def test_exact_support_recovery_gives_truth(self):
        q_true = np.array([[2.0, -0.8, 0.0], [-0.8, 2.0, -0.8], [0.0, -0.8, 2.0]])
        s = np.linalg.inv(q_true)
        # lambda small enough to keep the true support, large enough to sparsify
        res = debias(s, GlassoConfig(lam=0.05), MleConfig(outer_tol=1e-9))
        if res.q.pattern == SupportPattern.from_mask(q_true != 0):
            assert np.max(np.abs(res.q.dense - q_true)) < 1e-6

    def test_large_lambda_gives_per_coordinate_mle(self):
        rng = np.random.default_rng(11)
        s = random_cov(5, rng)
        lam = float(np.max(np.abs(s - np.diag(np.diag(s))))) + 0.05
        res = debias(s, GlassoConfig(lam=lam), MleConfig(outer_tol=1e-10))
        assert np.allclose(res.q.dense, np.diag(1.0 / np.diag(s)), atol=1e-7)

    def test_debias_dominates_glasso_in_likelihood(self):
        # held-out dominance when the support is recovered
        rng = np.random.default_rng(12)
        from gmrfmix.synthetic import LatticeSpec, laplacian2d_precision, sample_gmrf

        q_true = laplacian2d_precision(LatticeSpec(3, 3))
        train = sample_gmrf(q_true, None, 4000, seed=1)
        test = sample_gmrf(q_true, None, 4000, seed=2)
        s_train = train.T @ train / train.shape[0]
        s_test = test.T @ test / test.shape[0]
        s_train = 0.5 * (s_train + s_train.T)
        s_test = 0.5 * (s_test + s_test.T)
        cfg = GlassoConfig(lam=0.1)
        g = glasso_solve(s_train, cfg)
        d = debias(s_train, cfg)
        assert neg_log_likelihood(d.q, s_test) <= neg_log_likelihood(g.q, s_test)

    def test_refit_of_lasso_equals_debias(self):
        rng = np.random.default_rng(13)
        s = random_cov(6, rng)
        cfg = GlassoConfig(lam=0.1)
        res = refit(s, glasso_solve(s, cfg).q)
        deb = debias(s, cfg)
        assert np.array_equal(res.q.dense, deb.q.dense)
        assert res.objective_trace == deb.objective_trace


@pytest.mark.parametrize(
    "solve",
    [
        lambda s: estimate_known_support(s, SupportPattern.full(s.shape[0])),
        lambda s: glasso_solve(s, GlassoConfig(lam=0.1)),
        dense_mle,
        lambda s: debias(s, GlassoConfig(lam=0.1)),
    ],
    ids=["estimate_known_support", "glasso_solve", "dense_mle", "debias"],
)
def test_entry_points_reject_asymmetric_covariance(solve):
    s = random_cov(4, np.random.default_rng(14))
    s[0, 1] += 1e-3
    with pytest.raises(DimensionMismatch):
        solve(s)


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_config_rejects_lambda_that_is_not_finite_and_non_negative(lam):
    with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
        GlassoConfig(lam=lam)


@pytest.mark.parametrize("field", ["newton_tol"])
@pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan], ids=["zero", "negative", "nan"])
def test_config_rejects_tolerance_that_is_not_positive(field, tol):
    with pytest.raises(ValueError, match="tolerances must be positive"):
        GlassoConfig(**{field: tol})


def one_block(n, rows, cols):
    """`matrices.blocks` as if the graph were connected: the unsplit solve."""
    return [np.arange(n)], np.arange(0)


class TestBlockSplit:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 5), min_size=2, max_size=4),
        st.floats(0.05, 0.3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_split_solve_matches_the_unsplit_one(self, sizes, lam, warm, seed):
        """On a permuted block-diagonal SPD covariance whose cross-block entries
        satisfy |S_ij| <= lam, the split solve finds the unsplit solve's
        pattern, certifies its assembled estimate and holds exact zeros across
        the blocks, also from a dense warm start."""
        rng = np.random.default_rng(seed)
        label = np.repeat(np.arange(len(sizes)), sizes)
        n = len(label)
        s = np.zeros((n, n))
        for b, size in enumerate(sizes):
            a = rng.standard_normal((3 * size, size))
            s[np.ix_(label == b, label == b)] = a.T @ a / (3 * size)
        cross = label[:, None] != label[None, :]
        c = np.triu(rng.uniform(-lam, lam, (n, n)), 1)
        s += np.where(cross, c + c.T, 0.0)
        s += (max(0.0, -np.linalg.eigvalsh(s)[0]) + 0.1) * np.eye(n)
        perm = rng.permutation(n)
        s, cross = s[np.ix_(perm, perm)], cross[np.ix_(perm, perm)]
        q0 = SparseSpd(np.linalg.inv(s), SupportPattern.full(n)) if warm else None
        cfg = GlassoConfig(lam=lam)
        split = glasso_solve(s, cfg, q0=q0)
        with mock.patch.object(glasso, "blocks", one_block):
            whole = glasso_solve(s, cfg, q0=q0)
        assert split.converged and whole.converged
        assert split.q.pattern == whole.q.pattern
        assert split.kkt_residual <= cfg.newton_tol
        assert np.all(split.q.dense[cross] == 0.0)
        assert split.iterations == len(split.objective_trace) - 1

    def test_unsplit_solve_from_a_warm_start_symmetric_within_rounding(self):
        """np.linalg.inv(S) is symmetric only within rounding. Stored as given,
        its lower-triangle residue of a zeroed pair stayed nonzero for all 100
        Newton steps; SparseSpd now stores it exactly symmetric."""
        s = np.array([[0.24289889855217744, 0.08606121036899939],
                      [0.08606121036899939, 0.24780031820073511]])
        inv = np.linalg.inv(s)
        assert inv[0, 1] != inv[1, 0]
        cfg = GlassoConfig(lam=0.1875)
        with mock.patch.object(glasso, "blocks", one_block):
            res = glasso_solve(s, cfg, q0=SparseSpd(inv))
        assert res.converged and res.iterations < 10 and res.kkt_residual <= cfg.newton_tol

    def test_lambda_at_the_largest_covariance_gives_the_diagonal_in_no_step(self):
        """The top of a lambda-sweep grid: every variable is isolated and takes
        its closed form, so no Newton step runs and the KKT residual is 0."""
        s = random_cov(6, np.random.default_rng(16))
        lam = float(np.max(np.abs(s - np.diag(np.diag(s)))))
        res = glasso_solve(s, GlassoConfig(lam=lam))
        assert res.converged and res.iterations == 0 and len(res.objective_trace) == 1
        assert res.kkt_residual == 0.0 and res.sweeps == 0
        assert res.q.pattern == SupportPattern.diagonal(6)
        np.testing.assert_allclose(res.q.dense, np.diag(1.0 / np.diag(s)), rtol=1e-15)
        assert res.objective_trace[0] == pytest.approx(glasso_objective(res.q, s, GlassoConfig(lam=lam)))

    def test_isolated_variables_in_the_penalized_diagonal_variant(self):
        """With the diagonal penalized, an isolated variable's closed form is 1 / (s_ii + lam)."""
        s = random_cov(5, np.random.default_rng(17))
        cfg = GlassoConfig(lam=float(np.max(np.abs(s - np.diag(np.diag(s))))), penalize_diagonal=True)
        res = glasso_solve(s, cfg)
        assert res.converged and res.iterations == 0
        assert res.kkt_residual <= 1e-14
        np.testing.assert_allclose(res.q.dense, np.diag(1.0 / (np.diag(s) + cfg.lam)), rtol=1e-15)

    def test_zero_variance_variable_keeps_its_floored_value(self):
        """A variable with s_ii = 0 is isolated; it keeps the finite starting
        value 1 / (RIDGE_EPS mean(diag S)), whose gap is that floor."""
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 5))
        s = a.T @ a / 30
        s[2, :] = s[:, 2] = 0.0
        cfg = GlassoConfig(lam=0.1)
        res = glasso_solve(s, cfg)
        floor = mle.RIDGE_EPS * np.mean(np.diag(s))
        assert res.q.dense[2, 2] == 1.0 / floor
        assert res.converged and res.kkt_residual <= cfg.newton_tol
        assert not np.any(res.q.dense[2, np.arange(5) != 2])

    def test_blocks_start_from_slices_of_the_whole_start(self, monkeypatch):
        """Each block starts from its slice of q0, or of default_q0 of the whole
        S: block {0, 2} has variances under the whole S's ridge floor
        (RIDGE_EPS * mean(diag S), about 5e-4), though not its own."""
        s = np.zeros((4, 4))
        s[np.ix_([0, 2], [0, 2])] = [[1e-7, 5e-8], [5e-8, 1e-7]]
        s[np.ix_([1, 3], [1, 3])] = [[1e3, 4e2], [4e2, 1e3]]
        starts = []

        def recorded(s_block, q, cfg):
            starts.append(q.dense)
            return q, [0.0], True, 0

        monkeypatch.setattr(glasso, "_newton_steps", recorded)
        cfg = GlassoConfig(lam=1e-9)
        glasso_solve(s, cfg)
        floor = mle.RIDGE_EPS * float(np.mean(np.diag(s)))
        assert [np.diag(q).tolist() for q in starts] == [[1 / floor, 1 / floor], [1e-3, 1e-3]]
        starts.clear()
        warm = SparseSpd(np.linalg.inv(s + np.ones((4, 4))), SupportPattern.full(4))
        glasso_solve(s, cfg, q0=warm)
        assert np.array_equal(starts[0], warm.dense[np.ix_([0, 2], [0, 2])])
        assert np.array_equal(starts[1], warm.dense[np.ix_([1, 3], [1, 3])])
