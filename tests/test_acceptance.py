"""End-to-end acceptance gates.

Each test here encodes one quantitative requirement for the package as a
whole: solver correctness against independent oracles, statistical behavior
of the sampler, and replication targets for the spectral-bias and clustering
benchmarks. Two of the benchmark targets are known not to be reachable by
this implementation; those tests state the target faithfully and are
expected to fail (the measured numbers and the analysis live in the test
docstrings and in the project notes), rather than being loosened.
"""

import itertools
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from gmrfmix.evaluation import mean_relative_eigenvalue_error, nmi, vi
from gmrfmix.glasso import GlassoConfig, debias, glasso_solve
from gmrfmix.matrices import SparseSpd, SupportPattern, eigenvalues_sym
from gmrfmix.mixture import (
    BaselineEstimator,
    DebiasedEstimator,
    EmConfig,
    GlassoEstimator,
    KnownSupportEstimator,
    fit_em,
    predict,
)
from gmrfmix.mle import (
    MleConfig,
    estimate_known_support,
    gradient,
    hessian_apply,
    neg_log_likelihood,
)
from gmrfmix.synthetic import (
    DiffusionSpec,
    LatticeSpec,
    _grid_pattern,
    laplacian2d_precision,
    make_clustering_dataset,
    sample_gmrf,
)


def random_sparse_spd(n, rng, fill=0.3):
    """Random SPD matrix with ~fill off-diagonal density, diagonally dominant."""
    mask = rng.random((n, n)) < fill
    mask = np.triu(mask, 1)
    a = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    m = a + a.T
    m += np.diag(np.abs(m).sum(axis=1) + rng.uniform(0.5, 1.5, n))
    return SparseSpd(0.5 * (m + m.T))


def empirical_cov(x):
    s = x.T @ x / x.shape[0]
    return 0.5 * (s + s.T)


def test_known_support_solver_recovers_truth_from_exact_covariance():
    """Feeding the solver the exact covariance of a sparse SPD precision and
    its true support must return that precision: 50 random instances,
    n in 4..12, ~30% off-diagonal fill, 1e-6 max-abs recovery."""
    rng = np.random.default_rng(2024)
    cfg = MleConfig(outer_tol=1e-9)
    t0 = time.monotonic()
    for _ in range(50):
        n = int(rng.integers(4, 13))
        q_true = random_sparse_spd(n, rng)
        s = np.linalg.inv(q_true.dense)
        s = 0.5 * (s + s.T)
        res = estimate_known_support(s, q_true.pattern, cfg=cfg)
        assert np.max(np.abs(res.q.dense - q_true.dense)) < 1e-6
    assert time.monotonic() - t0 < 10.0


def test_gradient_and_hessian_match_finite_differences():
    """Analytic gradient vs central differences of the objective (1e-5), and
    the Hessian operator vs directional differences of the gradient (1e-4),
    on 20 random SPD instances with n <= 8."""
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    for _ in range(20):
        n = int(rng.integers(2, 9))
        q = random_sparse_spd(n, rng, fill=0.5)
        a = rng.standard_normal((4 * n, n))
        s = empirical_cov(a)
        pattern = q.pattern

        g = gradient(q, s)
        h = 1e-6
        rows, cols = pattern.index_arrays()
        for i, j in zip(rows.tolist(), cols.tolist()):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            fp = neg_log_likelihood(SparseSpd(q.dense + h * e, pattern), s)
            fm = neg_log_likelihood(SparseSpd(q.dense - h * e, pattern), s)
            fd = (fp - fm) / (2 * h)
            analytic = g[i, j] if i == j else g[i, j] + g[j, i]
            assert abs(analytic - fd) < 1e-5

        d = rng.standard_normal((n, n))
        d = 0.5 * (d + d.T)
        d = np.where(pattern.mask(), d, 0.0)
        w = np.linalg.inv(q.dense)
        hd = hessian_apply(0.5 * (w + w.T), pattern)(d[rows, cols])
        eps = 1e-6
        gp = gradient(SparseSpd(q.dense + eps * d, pattern), s)
        gm = gradient(SparseSpd(q.dense - eps * d, pattern), s)
        fd_dir = (gp - gm) / (2 * eps)
        assert np.max(np.abs(hd - fd_dir[rows, cols])) < 1e-4
    assert time.monotonic() - t0 < 5.0


def test_l1_solver_kkt_certificates_and_closed_form_diagonal():
    """Every converged l1 solve certifies its own optimality (KKT residual at
    or below newton_tol), and for lambda above the largest off-diagonal of S
    the known closed-form diagonal solution is reproduced to 1e-8. 20 random
    covariances."""
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    for trial in range(20):
        n = int(rng.integers(3, 9))
        a = rng.standard_normal((6 * n, n))
        s = empirical_cov(a)
        cfg = GlassoConfig(lam=float(rng.uniform(0.05, 0.3)))
        res = glasso_solve(s, cfg)
        if res.converged:
            assert res.kkt_residual <= cfg.newton_tol

        lam_big = float(np.max(np.abs(s - np.diag(np.diag(s))))) + 0.01
        res_big = glasso_solve(s, GlassoConfig(lam=lam_big))
        assert res_big.converged
        assert np.max(np.abs(res_big.q.dense - np.diag(1.0 / np.diag(s)))) < 1e-8
    assert time.monotonic() - t0 < 10.0


def test_l1_spectral_bias_exceeds_refitted_estimators():
    """Spectral-bias benchmark on the 32x32 lattice precision, 300 samples,
    lambda 0.25, seeds 1-3. Targets: the l1 estimate's mean relative
    eigenvalue error is at least 2x that of both the known-support and the
    refitted (support-from-l1) estimates, and the refitted estimate is
    within 1.5x of the known-support one.

    Measured (seeds 1/2/3): known 0.0179/0.0169/0.0166, l1
    0.485/0.509/0.484, refit 0.099/0.109/0.105. The 2x clauses hold with
    factors 27-30 and 4.6-4.9. The 1.5x clause fails at ratios 5.6-6.5 on
    every seed: at this lambda the l1 support misses ~20% of the true
    (boundary) edges whose empirical covariances fall below lambda, and
    refitting cannot recover structure the support selection discarded. The
    l1 solutions are certified global optima (KKT ~5e-7), so the gap is
    intrinsic to the operating point, not a solver artifact. The target is
    asserted as stated and this test is expected to fail on that clause."""
    q_true = laplacian2d_precision(LatticeSpec(32, 32))
    true_eigs = eigenvalues_sym(q_true.dense)
    lam = 0.25
    t0 = time.monotonic()
    for seed in (1, 2, 3):
        x = sample_gmrf(q_true, None, 300, seed=seed)
        s = empirical_cov(x)
        known = estimate_known_support(s, q_true.pattern).q
        gcfg = GlassoConfig(lam=lam)
        lasso = glasso_solve(s, gcfg).q
        refit = debias(s, gcfg).q
        err = {
            name: mean_relative_eigenvalue_error(true_eigs, eigenvalues_sym(q.dense))
            for name, q in [("known", known), ("l1", lasso), ("refit", refit)]
        }
        assert err["l1"] >= 2.0 * err["known"], err
        assert err["l1"] >= 2.0 * err["refit"], err
        assert err["refit"] <= 1.5 * err["known"], err
    assert time.monotonic() - t0 < 600.0


def _clustering_benchmark(n_datasets, k, rows, lo, hi, lam, em_seed_base=100):
    """Run the four-estimator clustering comparison; returns mean NMI/VI."""
    pattern = _grid_pattern(rows, rows)
    # the l1-based M-steps get a bounded Newton budget: on these
    # ill-conditioned component covariances exact solves are prohibitively
    # slow, and EM only needs an improving (generalized) M-step
    gcfg = GlassoConfig(lam=lam, max_newton_iters=10)
    estimators = {
        "baseline": (BaselineEstimator(), 100),
        "glasso": (GlassoEstimator(gcfg), 40),
        "debiased": (DebiasedEstimator(gcfg), 40),
        "known": (KnownSupportEstimator([pattern]), 100),
    }
    nmis = {name: [] for name in estimators}
    vis = {name: [] for name in estimators}
    for ds in range(n_datasets):
        data, labels, _ = make_clustering_dataset(
            k, DiffusionSpec(rows, rows), lo, hi, seed=ds
        )
        for name, (est, max_iters) in estimators.items():
            cfg = EmConfig(
                estimator=est, k=k, fix_means_to_zero=True, max_em_iters=max_iters
            )
            model, _, _ = fit_em(data, cfg, seed=em_seed_base + ds)
            pred = predict(model, data)
            nmis[name].append(nmi(labels, pred))
            vis[name].append(vi(labels, pred))
    mean_nmi = {name: float(np.mean(v)) for name, v in nmis.items()}
    mean_vi = {name: float(np.mean(v)) for name, v in vis.items()}
    return mean_nmi, mean_vi


def test_clustering_benchmark_small_profile():
    """Mixture-clustering benchmark, small profile: 3 datasets of K=5
    zero-mean components on a 5x5 grid with 500-1000 samples each,
    lambda 0.3. Targets: mean NMI with the known-support estimator >= 0.8
    and mean NMI with the l1 estimator <= 0.4.

    The known-support target cannot be met under this data recipe: with
    per-node i.i.d. uniform[0.1, 1] coefficient fields the components
    concentrate around the same operator, and classifying points with the
    TRUE precisions (an upper bound on any fitted model) already yields NMI
    of only 0.09-0.14 on these datasets. The fitted known-support EM lands
    at ~0.03, consistent with that ceiling. The target is asserted as
    stated and this test is expected to fail on that clause."""
    t0 = time.monotonic()
    mean_nmi, _ = _clustering_benchmark(3, k=5, rows=5, lo=500, hi=1000, lam=0.3)
    assert mean_nmi["glasso"] <= 0.4, mean_nmi
    assert mean_nmi["known"] >= 0.8, mean_nmi
    assert time.monotonic() - t0 < 600.0


@pytest.mark.skipif(
    not os.environ.get("GMRFMIX_FULL_ACCEPTANCE"),
    reason="full-scale clustering benchmark; set GMRFMIX_FULL_ACCEPTANCE=1",
)
def test_clustering_benchmark_full_profile():
    """Full-scale clustering benchmark: 10 datasets of K=10 zero-mean
    components on a 10x10 grid with 1500-3000 samples each, lambda 0.3.
    Targets: mean NMI known >= 0.85, debiased >= 0.80, l1 <= 0.30, baseline
    between l1 and debiased; mean VI ordered inversely.

    Like the small profile, the known/debiased NMI targets exceed the
    Bayes-optimal ceiling of this data recipe (measured ~0.37 with the true
    precisions), so this test is expected to fail on those clauses."""
    mean_nmi, mean_vi = _clustering_benchmark(
        10, k=10, rows=10, lo=1500, hi=3000, lam=0.3
    )
    assert mean_nmi["glasso"] <= 0.30, mean_nmi
    assert mean_nmi["known"] >= 0.85, mean_nmi
    assert mean_nmi["debiased"] >= 0.80, mean_nmi
    assert mean_nmi["glasso"] <= mean_nmi["baseline"] <= mean_nmi["debiased"], mean_nmi
    assert (
        mean_vi["known"] <= mean_vi["debiased"] <= mean_vi["baseline"] <= mean_vi["glasso"]
    ), mean_vi


def test_sampler_empirical_covariance_within_standard_errors():
    """The exact sampler's empirical covariance must agree with the inverse
    precision entrywise within 5 standard errors (Gaussian fourth-moment
    formula), on a 9-dimensional lattice with 200k samples."""
    t0 = time.monotonic()
    q = laplacian2d_precision(LatticeSpec(3, 3))
    n_samples = 200_000
    x = sample_gmrf(q, None, n_samples, seed=123)
    s = empirical_cov(x)
    cov = np.linalg.inv(q.dense)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n_samples)
    assert np.all(np.abs(s - cov) <= 5.0 * se)
    assert time.monotonic() - t0 < 60.0


def test_em_log_likelihood_never_decreases():
    """20 seeded EM runs (closed-form and known-support M-steps, which solve
    their subproblem exactly or to tolerance) on small-profile mixture data
    must produce a non-decreasing log-likelihood trace up to 1e-8 relative
    slack."""
    t0 = time.monotonic()
    data, _, _ = make_clustering_dataset(5, DiffusionSpec(5, 5), 500, 1000, seed=0)
    pattern = _grid_pattern(5, 5)
    runs = 0
    for est in (BaselineEstimator(), KnownSupportEstimator([pattern])):
        for seed in range(10):
            cfg = EmConfig(
                estimator=est, k=5, fix_means_to_zero=True, max_em_iters=40
            )
            _, trace, _ = fit_em(data, cfg, seed=seed)
            arr = np.asarray(trace)
            slack = 1e-8 * np.abs(arr[:-1])
            assert np.all(np.diff(arr) >= -slack), (type(est).__name__, seed)
            runs += 1
    assert runs == 20
    assert time.monotonic() - t0 < 300.0


def test_refitted_support_dominates_l1_on_heldout_likelihood():
    """Across a lambda grid on lattice data, refitting the constrained MLE on
    the l1-selected support must achieve held-out negative log-likelihood no
    worse than the l1 estimate itself, at every grid point where the
    selected support keeps at least one off-diagonal entry."""
    t0 = time.monotonic()
    q_true = laplacian2d_precision(LatticeSpec(8, 8))
    train = sample_gmrf(q_true, None, 2000, seed=10)
    test = sample_gmrf(q_true, None, 2000, seed=11)
    s_train = empirical_cov(train)
    s_test = empirical_cov(test)
    checked = 0
    for lam in (0.05, 0.1, 0.2, 0.4):
        gcfg = GlassoConfig(lam=lam)
        g = glasso_solve(s_train, gcfg)
        d = debias(s_train, gcfg)
        if len(d.q.pattern) <= d.q.n:  # diagonal-only support: vacuous
            continue
        assert neg_log_likelihood(d.q, s_test) <= neg_log_likelihood(g.q, s_test), lam
        checked += 1
    assert checked >= 2
    assert time.monotonic() - t0 < 600.0


def test_clustering_metrics_match_brute_force():
    """NMI and VI agree with an independent brute-force contingency-table
    computation on 200 random label pairs (length <= 12) to 1e-10."""

    def brute(a, b):
        n = len(a)
        pa, pb, pab = Counter(a), Counter(b), Counter(zip(a, b))
        ha = -sum(c / n * math.log(c / n) for c in pa.values())
        hb = -sum(c / n * math.log(c / n) for c in pb.values())
        mi = sum(
            (c / n) * math.log((c / n) / ((pa[x] / n) * (pb[y] / n)))
            for (x, y), c in pab.items()
        )
        if ha == 0.0 and hb == 0.0:
            ref_nmi = 1.0
        elif ha == 0.0 or hb == 0.0:
            ref_nmi = 0.0
        else:
            ref_nmi = mi / (0.5 * (ha + hb))
        return ref_nmi, ha + hb - 2 * mi

    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        kmax = int(rng.integers(1, 5))
        a = tuple(rng.integers(0, kmax, size=n).tolist())
        b = tuple(rng.integers(0, kmax, size=n).tolist())
        ref_nmi, ref_vi = brute(a, b)
        assert abs(nmi(a, b) - ref_nmi) < 1e-10
        assert abs(vi(a, b) - ref_vi) < 1e-10
    assert time.monotonic() - t0 < 5.0
