import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmrfmix import mixture, mle, synthetic
from gmrfmix.errors import DegenerateInit, DimensionMismatch, EmptyComponent
from gmrfmix.matrices import SparseSpd, SupportPattern
from gmrfmix.mixture import (
    BaselineEstimator,
    EmConfig,
    GlassoEstimator,
    GmrfComponent,
    KnownSupportEstimator,
    MixtureModel,
    e_step,
    fit_em,
    m_step,
    predict,
    weighted_stats,
)
from gmrfmix.glasso import GlassoConfig
from gmrfmix.errors import LineSearchFailed, NotSpd, SingularCovariance
from gmrfmix.mle import dense_mle

LOG_2PI = np.log(2.0 * np.pi)


def std_normal_1d(weight=1.0, mean=0.0):
    return GmrfComponent(weight, np.array([mean]), SparseSpd(np.array([[1.0]])))


def log_pdf(c: GmrfComponent, x: np.ndarray) -> float:
    """log p(x) of one point: the total log-likelihood of the one-component model c."""
    return e_step(MixtureModel([c]), np.asarray(x)[None, :])[1]


class TestLogPdf:
    """The component log-density, read through e_step on one component and one point."""

    def test_standard_normal_at_mean(self):
        c = std_normal_1d()
        assert log_pdf(c, np.array([0.0])) == pytest.approx(-0.918939, abs=1e-6)

    def test_scaled_precision_off_mean(self):
        c = GmrfComponent(1.0, np.array([0.0]), SparseSpd(np.array([[4.0]])))
        expected = 0.5 * np.log(4.0) - 0.5 * LOG_2PI - 2.0
        assert expected == pytest.approx(-2.225792, abs=1e-6)
        assert log_pdf(c, np.array([1.0])) == pytest.approx(expected)

    def test_matches_scipy_multivariate_normal(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        q = a @ a.T + 4 * np.eye(4)
        mean = rng.standard_normal(4)
        c = GmrfComponent(1.0, mean, SparseSpd(q))
        x = rng.standard_normal(4)
        ref = multivariate_normal(mean=mean, cov=np.linalg.inv(q)).logpdf(x)
        assert log_pdf(c, x) == pytest.approx(ref, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            log_pdf(std_normal_1d(), np.zeros(2))


class TestEStep:
    def test_two_component_hand_value(self):
        model = MixtureModel([std_normal_1d(0.5, 0.0), std_normal_1d(0.5, 2.0)])
        resp, _ = e_step(model, np.array([[0.0]]))
        assert resp[0, 0] == pytest.approx(0.880797, abs=1e-6)
        assert resp[0, 1] == pytest.approx(1.0 - 0.880797, abs=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = MixtureModel(
            [std_normal_1d(0.3, -1.0), std_normal_1d(0.5, 0.0), std_normal_1d(0.2, 3.0)]
        )
        resp, _ = e_step(model, rng.standard_normal((50, 1)))
        assert np.allclose(resp.sum(axis=1), 1.0)
        assert np.all(resp >= 0)

    def test_total_ll_matches_direct_sum(self):
        from scipy.stats import multivariate_normal

        model = MixtureModel([std_normal_1d(0.4, 0.0), std_normal_1d(0.6, 1.0)])
        data = np.array([[0.0], [0.5], [2.0]])
        _, ll = e_step(model, data)
        densities = [
            multivariate_normal(mean=c.mean, cov=np.linalg.inv(c.precision.dense))
            for c in model.components
        ]
        direct = sum(
            np.log(sum(c.weight * d.pdf(x) for c, d in zip(model.components, densities)))
            for x in data
        )
        assert ll == pytest.approx(direct, rel=1e-12)

    def test_extreme_separation_no_overflow(self):
        model = MixtureModel([std_normal_1d(0.5, 0.0), std_normal_1d(0.5, 100.0)])
        resp, ll = e_step(model, np.array([[0.0], [100.0]]))
        assert np.isfinite(ll)
        assert resp[0, 0] == pytest.approx(1.0)
        assert resp[1, 1] == pytest.approx(1.0)


    def test_matches_scipy_multivariate_normal(self):
        from scipy.special import logsumexp
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(12)
        n = 6
        sparse = 2.5 * np.eye(n) - 0.8 * (np.eye(n, k=1) + np.eye(n, k=-1))
        a = rng.standard_normal((n, n))
        full = a @ a.T + n * np.eye(n)
        means = [rng.standard_normal(n), rng.standard_normal(n) + 1.5]
        model = MixtureModel(
            [
                GmrfComponent(0.35, means[0], SparseSpd(sparse)),
                GmrfComponent(0.65, means[1], SparseSpd(full)),
            ]
        )
        assert len(model.components[0].precision.pattern) == 2 * n - 1
        data = rng.standard_normal((40, n)) * 1.5 + 0.5
        log_w = np.column_stack(
            [
                np.log(c.weight)
                + multivariate_normal(c.mean, np.linalg.inv(c.precision.dense)).logpdf(data)
                for c in model.components
            ]
        )
        resp, ll = e_step(model, data)
        np.testing.assert_allclose(resp, np.exp(log_w - logsumexp(log_w, axis=1)[:, None]), rtol=1e-10)
        assert ll == pytest.approx(float(np.sum(logsumexp(log_w, axis=1))), rel=1e-10)


class TestWeightedStats:
    def test_uniform_weights_give_plain_moments(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((40, 3))
        w = np.ones((40, 1))
        mean, s, wsum = weighted_stats(data, w, 0)
        assert wsum == pytest.approx(40.0)
        assert np.allclose(mean, data.mean(axis=0))
        centered = data - mean
        assert np.allclose(s, centered.T @ centered / 40.0)

    def test_fix_mean_zero(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = np.ones((2, 1))
        mean, s, _ = weighted_stats(data, w, 0, fix_mean_zero=True)
        assert np.array_equal(mean, np.zeros(2))
        assert np.allclose(s, data.T @ data / 2.0)

    def test_weights_select_subset(self):
        data = np.array([[0.0], [10.0], [20.0]])
        w = np.array([[1.0], [0.0], [1.0]])
        mean, s, wsum = weighted_stats(data, w, 0)
        assert wsum == pytest.approx(2.0)
        assert mean == pytest.approx([10.0])
        assert s[0, 0] == pytest.approx(100.0)

    def test_empty_component_raises(self):
        data = np.zeros((5, 2))
        w = np.zeros((5, 1))
        with pytest.raises(EmptyComponent):
            weighted_stats(data, w, 0)


class TestMStep:
    def test_baseline_single_component(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((200, 2)) @ np.array([[1.0, 0.0], [0.5, 1.0]])
        w = np.ones((200, 1))
        cfg = EmConfig(estimator=BaselineEstimator(), k=1)
        model = m_step(data, w, cfg)
        mean, s, _ = weighted_stats(data, w, 0)
        assert np.allclose(model.components[0].mean, mean)
        assert np.max(np.abs(model.components[0].precision.dense - np.linalg.inv(s))) < 1e-6
        assert model.components[0].weight == pytest.approx(1.0)

    def test_weights_proportional_to_responsibility_mass(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((100, 1))
        w = np.column_stack([np.full(100, 0.25), np.full(100, 0.75)])
        cfg = EmConfig(estimator=BaselineEstimator(), k=2)
        model = m_step(data, w, cfg)
        assert model.components[0].weight == pytest.approx(0.25)
        assert model.components[1].weight == pytest.approx(0.75)

    def test_known_support_diagonal_pattern(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((300, 3)) * np.array([1.0, 2.0, 0.5])
        w = np.ones((300, 1))
        cfg = EmConfig(
            estimator=KnownSupportEstimator([SupportPattern.diagonal(3)]), k=1
        )
        model = m_step(data, w, cfg)
        q = model.components[0].precision.dense
        _, s, _ = weighted_stats(data, w, 0)
        # with a diagonal pattern the solution decouples to 1/s_ii
        assert np.allclose(q, np.diag(1.0 / np.diag(s)), atol=1e-6)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"k": 0}, "K must be"),
        ({"max_em_iters": 0}, "max_em_iters must be"),
    ],
    ids=["k", "max_em_iters"],
)
def test_em_config_rejects_bad_settings(bad, message):
    with pytest.raises(ValueError, match=message):
        EmConfig(**bad)


class ExactBaseline:
    """The baseline M-step S^{-1} without its ridge floor, so every M-step is exact."""

    def fit(self, s, warm, k):
        return dense_mle(s, ridge=False)


class Reseeded(Exception):
    """Raised in place of a reseed, which the monotonicity argument does not cover."""


class TestEmMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 5),
        st.integers(10, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_exact_m_step_never_lowers_the_log_likelihood(self, k, n, per_dim, seed):
        """EM with the exact M-step cannot lower the total log-likelihood.

        Each of the k clusters has per_dim * n points (at least 10 n). A
        component that collapses onto too few points has no exact M-step
        (its covariance, or the inverse of it, is not numerically SPD);
        such examples are discarded.
        """
        rng = np.random.default_rng(seed)
        blocks = []
        for _ in range(k):
            mix = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            blocks.append(rng.standard_normal((per_dim * n, n)) @ mix + rng.normal(0.0, 3.0, n))
        cfg = EmConfig(estimator=ExactBaseline(), k=k, max_em_iters=50)
        try:
            _, trace, _ = fit_em(np.vstack(blocks), cfg, seed=seed)
        except (SingularCovariance, NotSpd, np.linalg.LinAlgError):
            assume(False)
        trace = np.asarray(trace)
        assert np.all(trace[1:] >= trace[:-1] - 1e-9 * np.abs(trace[:-1])), trace

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(2, 4),
        st.integers(10, 12),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_known_support_m_step_never_lowers_the_log_likelihood(
        self, k, rows, cols, per_dim, zero_means, seed
    ):
        """EM with the known-support M-step cannot lower the total log-likelihood.

        The data are k diffusion components on a rows x cols grid (n <= 16),
        with per_dim * n to per_dim * n + n points each, and each component
        keeps its true grid pattern (|P| <= 40, in the direct regime). The
        M-step is inexact (it stops at outer_tol), but it need not be exact:
        it keeps the exact weights and means and is warm-started at the
        previous precision, on its own pattern, and each of its Newton
        steps passes the Armijo test or, with a decrement at most
        mle.FULL_STEP_DECREMENT, is taken whole, which lowers a
        self-concordant objective in exact arithmetic. So the precision's
        objective -log det Q + tr(Q S) at the new S is at most its value at
        the previous precision, up to rounding. Each M-step therefore does not lower EM's lower
        bound, and only rounding, the 1e-9 relative slack, can lower the
        log-likelihood. A reseed (which replaces responsibilities and warm
        starts) or a raise (a component collapsing onto too few points) is
        outside that argument; such examples are discarded.
        """
        data, _, precisions = synthetic.make_clustering_dataset(
            k, synthetic.DiffusionSpec(rows, cols), per_dim * rows * cols,
            (per_dim + 1) * rows * cols, seed=seed,
        )
        patterns = [q.pattern for q in precisions]
        assert max(len(p.index_arrays()[0]) for p in patterns) <= mle.DIRECT_PAIRS
        cfg = EmConfig(
            estimator=KnownSupportEstimator(patterns), k=k, max_em_iters=20,
            fix_means_to_zero=zero_means,
        )
        with mock.patch.object(mixture, "_reseed_component", side_effect=Reseeded):
            try:
                _, trace, _ = fit_em(data, cfg, seed=seed)
            except (Reseeded, DegenerateInit, SingularCovariance, NotSpd, LineSearchFailed,
                    np.linalg.LinAlgError):
                assume(False)
        trace = np.asarray(trace)
        assert np.all(trace[1:] >= trace[:-1] - 1e-9 * np.abs(trace[:-1])), trace


class TestFitEm:
    def make_two_clusters(self, seed=0, n_per=150):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n_per, 2)) + np.array([-10.0, 0.0])
        b = rng.standard_normal((n_per, 2)) + np.array([10.0, 0.0])
        data = np.vstack([a, b])
        labels = np.repeat([0, 1], n_per)
        perm = rng.permutation(2 * n_per)
        return data[perm], labels[perm]

    def test_recovers_well_separated_clusters(self):
        data, labels = self.make_two_clusters()
        cfg = EmConfig(estimator=BaselineEstimator(), k=2)
        model, ll_trace, _ = fit_em(data, cfg, seed=0)
        pred = predict(model, data)
        agree = max(np.mean(pred == labels), np.mean(pred != labels))
        assert agree > 0.99
        means = sorted(float(c.mean[0]) for c in model.components)
        assert means[0] == pytest.approx(-10.0, abs=0.5)
        assert means[1] == pytest.approx(10.0, abs=0.5)

    @pytest.mark.parametrize(
        "estimator",
        [BaselineEstimator(), GlassoEstimator(GlassoConfig(lam=0.05))],
        ids=["baseline", "glasso"],
    )
    def test_baseline_ll_trace_monotone(self, estimator):
        data, _ = self.make_two_clusters(seed=1)
        cfg = EmConfig(estimator=estimator, k=2)
        _, ll_trace, _ = fit_em(data, cfg, seed=0)
        trace = np.asarray(ll_trace)
        # baseline m-step is the exact maximizer, so EM ascends; glasso
        # maximizes a penalized surrogate, allow only tiny slack
        slack = 1e-8 * np.abs(trace[:-1])
        assert np.all(np.diff(trace) >= -slack - 1e-9)

    def test_known_support_ll_trace_monotone(self):
        data, _ = self.make_two_clusters(seed=2)
        cfg = EmConfig(
            estimator=KnownSupportEstimator([SupportPattern.full(2)]), k=2
        )
        _, ll_trace, _ = fit_em(data, cfg, seed=0)
        trace = np.asarray(ll_trace)
        slack = 1e-8 * np.abs(trace[:-1])
        assert np.all(np.diff(trace) >= -slack - 1e-9)

    def test_final_weights_on_simplex(self):
        data, _ = self.make_two_clusters(seed=3)
        model, _, resp = fit_em(data, EmConfig(estimator=BaselineEstimator(), k=2))
        weights = [c.weight for c in model.components]
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_permutation_equivariance_via_init_resp(self):
        data, _ = self.make_two_clusters(seed=4)
        rng = np.random.default_rng(9)
        init = rng.dirichlet(np.ones(2), size=data.shape[0])
        cfg = EmConfig(estimator=BaselineEstimator(), k=2)
        m1, _, _ = fit_em(data, cfg, init_resp=init)
        m2, _, _ = fit_em(data, cfg, init_resp=init[:, ::-1])
        # swapping the initial responsibility columns swaps the components
        assert np.allclose(m1.components[0].mean, m2.components[1].mean, atol=1e-8)
        assert np.allclose(m1.components[1].mean, m2.components[0].mean, atol=1e-8)

    def test_seed_determinism(self):
        data, _ = self.make_two_clusters(seed=5)
        cfg = EmConfig(estimator=BaselineEstimator(), k=2)
        m1, t1, _ = fit_em(data, cfg, seed=7)
        m2, t2, _ = fit_em(data, cfg, seed=7)
        assert t1 == t2
        for c1, c2 in zip(m1.components, m2.components):
            assert np.array_equal(c1.mean, c2.mean)
            assert np.array_equal(c1.precision.dense, c2.precision.dense)

    def test_fix_means_to_zero(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((200, 2))
        cfg = EmConfig(estimator=BaselineEstimator(), k=1, fix_means_to_zero=True)
        model, _, _ = fit_em(data, cfg)
        assert np.array_equal(model.components[0].mean, np.zeros(2))

    def test_too_few_points_raises(self):
        with pytest.raises(DimensionMismatch):
            fit_em(np.zeros((1, 2)), EmConfig(estimator=BaselineEstimator(), k=2))

    def test_degenerate_init_resp_raises(self):
        data = np.random.default_rng(8).standard_normal((20, 2))
        init = np.zeros((20, 2))
        init[:, 0] = 1.0
        with pytest.raises(DegenerateInit):
            fit_em(data, EmConfig(estimator=BaselineEstimator(), k=2), init_resp=init)


    def reseed_run(self, monkeypatch, extra_weight, min_component_weight):
        """EM on one Gaussian cloud whose second component starts as a scaled
        copy of the first, so the first E-step gives it N * pi_1, below
        N * min_component_weight (MIN_COMPONENT_WEIGHT for the run); returns
        the run and the reseeds."""
        reseeded = []
        reseed = mixture._reseed_component

        def spy(w, k, point_ll, n_dim):
            reseeded.append(k)
            return reseed(w, k, point_ll, n_dim)

        monkeypatch.setattr(mixture, "_reseed_component", spy)
        monkeypatch.setattr(mixture, "MIN_COMPONENT_WEIGHT", min_component_weight)
        data = np.random.default_rng(0).standard_normal((200, 2))
        init = np.column_stack([np.ones(200), np.full(200, extra_weight)])
        cfg = EmConfig(estimator=BaselineEstimator(), k=2, max_em_iters=5)
        return lambda: fit_em(data, cfg, init_resp=init), reseeded

    def test_reseed_recovers_starved_component(self, monkeypatch):
        # init mass 20 >= 19; after the first E-step 200 * 20/220 = 18.2 < 19
        run, reseeded = self.reseed_run(monkeypatch, 0.1, 0.095)
        model, ll_trace, resp = run()
        assert reseeded and set(reseeded) == {1}
        assert sum(c.weight for c in model.components) == pytest.approx(1.0, abs=1e-12)
        assert len(ll_trace) == 5 and np.all(np.isfinite(ll_trace))
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_reseed_that_does_not_recover_names_component_and_iteration(self, monkeypatch):
        # threshold 90; the reseed moves ~10 points, far short of it
        run, reseeded = self.reseed_run(monkeypatch, 0.5, 0.45)
        with pytest.raises(EmptyComponent) as info:
            run()
        assert reseeded == [1]
        msg = str(info.value)
        assert "\n" not in msg
        assert msg.startswith("EM iteration 2: reseeding did not recover component(s) 1 (")


class TestPredict:
    def test_argmax_tie_breaks_to_smaller_index(self):
        model = MixtureModel([std_normal_1d(0.5, -1.0), std_normal_1d(0.5, 1.0)])
        # x = 0 is equidistant: responsibilities tie exactly
        assert predict(model, np.array([[0.0]]))[0] == 0

    def test_labels_in_range(self):
        rng = np.random.default_rng(10)
        model = MixtureModel(
            [std_normal_1d(0.2, -3.0), std_normal_1d(0.3, 0.0), std_normal_1d(0.5, 3.0)]
        )
        pred = predict(model, rng.standard_normal((30, 1)))
        assert pred.min() >= 0 and pred.max() < 3


class TestModelSerialization:
    def test_json_roundtrip(self, tmp_path):
        q1 = SparseSpd(np.array([[2.0, -0.5], [-0.5, 2.0]]))
        q2 = SparseSpd(np.diag([1.0, 3.0]))
        model = MixtureModel(
            [
                GmrfComponent(0.4, np.array([1.0, -1.0]), q1),
                GmrfComponent(0.6, np.array([0.0, 2.0]), q2),
            ]
        )
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = MixtureModel.load(str(path))
        assert loaded.k == 2 and loaded.n == 2
        for c1, c2 in zip(model.components, loaded.components):
            assert c1.weight == c2.weight
            assert np.array_equal(c1.mean, c2.mean)
            assert np.array_equal(c1.precision.dense, c2.precision.dense)
            assert c1.precision.pattern == c2.precision.pattern

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_json_roundtrip_is_exact(self, k, n, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.05, 1.0, size=k)
        weights /= weights.sum()
        components = []
        for w in weights:
            p = SupportPattern.from_mask(rng.random((n, n)) < 0.4)
            vals = np.where(p.mask(), rng.standard_normal((n, n)), 0.0)
            vals = 0.5 * (vals + vals.T)
            q = SparseSpd(vals + np.diag(np.abs(vals).sum(axis=1) + 1.0), p)
            components.append(GmrfComponent(float(w), rng.standard_normal(n) * 10.0, q))
        model = MixtureModel(components)
        loaded = MixtureModel.from_json(json.loads(json.dumps(model.to_json())))
        assert loaded.k == k and loaded.n == n
        for c1, c2 in zip(model.components, loaded.components):
            assert c1.weight == c2.weight
            assert np.array_equal(c1.mean, c2.mean)
            assert np.array_equal(c1.precision.dense, c2.precision.dense)
            assert c1.precision.pattern == c2.precision.pattern

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureModel([std_normal_1d(0.5), std_normal_1d(0.4)])
