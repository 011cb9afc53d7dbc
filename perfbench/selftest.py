"""Self-test of the checks: each checker must accept a right result and
reject a deliberately wrong one, so that no check can pass by accident.

Run it from the root of the repository:

    python3 perfbench/selftest.py

`run.py` also runs it before every benchmark run.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import checks
from checks import CheckFailed


def _passes(fn) -> bool:
    try:
        fn()
    except CheckFailed:
        return False
    return True


def cases():
    """(name, check, expected outcome) triples on small inputs."""
    from gmrfmix import evaluation, glasso, mixture, mle, synthetic

    q_true = synthetic.laplacian2d_precision(synthetic.LatticeSpec(3, 3))
    s = checks.empirical_cov(synthetic.sample_gmrf(q_true, None, 200, seed=0))
    grid = checks.grid_mask(3, 3)
    known = mle.estimate_known_support(s, q_true.pattern).q.dense
    lam = 0.1
    lasso = glasso.glasso_solve(s, glasso.GlassoConfig(lam=lam)).q.dense

    def bump(q, i, j, by=1e-3):
        q = q.copy()
        q[i, j] += by
        if i != j:
            q[j, i] += by
        return q

    data, labels, _ = synthetic.make_clustering_dataset(2, synthetic.DiffusionSpec(3, 3), 100, 150, seed=0)
    cfg = mixture.EmConfig(k=2, fix_means_to_zero=True, max_em_iters=5)
    model, trace, resp = mixture.fit_em(data, cfg, seed=1)
    pred = mixture.predict(model, data)
    weights = [c.weight for c in model.components]
    precs = [c.precision.dense for c in model.components]
    metrics = {
        "nmi": evaluation.nmi(labels, pred),
        "vi": evaluation.vi(labels, pred),
        "component_counts": np.bincount(pred, minlength=2).tolist(),
    }
    shuffled = np.random.default_rng(0).permutation(labels)
    rising = np.sort(np.asarray(trace, dtype=float))

    def mix(precisions=precs, r=resp, p=pred):
        return lambda: checks.check_mixture(weights, precisions, data, trace[-1], resp=r, pred=p)

    return [
        ("stationarity", lambda: checks.check_stationary(known, s, grid, 1e-6, "known"), True),
        ("stationarity, perturbed entry",
         lambda: checks.check_stationary(bump(known, 0, 1), s, grid, 1e-6, "known"), False),
        ("glasso KKT", lambda: checks.check_glasso_kkt(lasso, s, lam, 1e-5), True),
        ("glasso KKT, perturbed entry",
         lambda: checks.check_glasso_kkt(bump(lasso, 2, 2), s, lam, 1e-5), False),
        ("pattern", lambda: checks.check_on_pattern(known, grid, "known"), True),
        ("pattern, entry off the grid",
         lambda: checks.check_on_pattern(bump(known, 0, 8), grid, "known"), False),
        ("Cholesky", lambda: checks.check_spd(known, "known"), True),
        ("Cholesky, indefinite", lambda: checks.check_spd(bump(known, 0, 1, by=10.0), "known"), False),
        ("eigenvalues",
         lambda: checks.check_eigenvalues(np.linalg.eigvalsh(known), known, "known"), True),
        ("eigenvalues, of a perturbed matrix",
         lambda: checks.check_eigenvalues(np.linalg.eigvalsh(bump(known, 4, 4)), known, "known"), False),
        ("LL trace", lambda: checks.check_ll_trace(rising, "em"), True),
        ("LL trace, reversed", lambda: checks.check_ll_trace(rising[::-1], "em"), False),
        ("mixture", mix(), True),
        ("mixture, perturbed precision entry", mix(precisions=[bump(precs[0], 0, 1)] + precs[1:]), False),
        ("mixture, responsibilities off 1", mix(r=resp * 1.001), False),
        ("mixture, flipped labels", mix(p=1 - pred), False),
        ("clustering metrics", lambda: checks.check_clustering_metrics(metrics, labels, pred), True),
        ("clustering metrics, shuffled labels",
         lambda: checks.check_clustering_metrics(metrics, shuffled, pred), False),
    ]


def run() -> list[str]:
    """Names of the cases whose outcome was not the expected one."""
    return [name for name, fn, expected in cases() if _passes(fn) != expected]


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    wrong = run()
    for name in wrong:
        print(f"self-test case gave the wrong outcome: {name}", file=sys.stderr)
    print("self-test: all cases gave the expected outcome" if not wrong else "self-test failed")
    sys.exit(1 if wrong else 0)
