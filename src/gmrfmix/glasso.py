"""Diagonal-unpenalized graphical lasso via proximal Newton, plus debiasing.

The solver restricts each Newton update to the free set (current nonzeros
plus entries whose gradient violates the l1 threshold), solves the LASSO
subproblem by cyclic coordinate descent with exact soft-threshold updates,
and steps along the direction with the SPD-guarded Armijo search that the
support-constrained MLE also uses (`mle.armijo_spd_search`), applied to the
penalized objective. As in `mle`, the direction is a vector of the free
set's pair values (`SupportPattern.index_arrays` order); its descent is its
`mle.pair_weights` inner product with the gradient plus the l1 change.

Debiasing keeps only the support of the lasso estimate and re-solves the
support-constrained MLE, warm-started at the lasso iterate (`refit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import SparseSpd, SupportPattern, check_symmetric, spd_inverse
from .mle import (
    MleConfig,
    MleResult,
    armijo_spd_search,
    default_q0,
    estimate_known_support,
    neg_log_likelihood,
    pair_weights,
)

# glasso_solve prunes estimate entries of at most this magnitude (the diagonal stays)
PRUNE_EPS = 1e-8


@dataclass
class GlassoConfig:
    lam: float = 0.1
    penalize_diagonal: bool = False
    newton_tol: float = 1e-5
    max_newton_iters: int = 100
    lasso_inner_iters: int = 20
    sub_tol: float = 1e-6

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:  # also rejects NaN
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if self.newton_tol <= 0 or self.sub_tol <= 0:
            raise ValueError("tolerances must be positive")
        if min(self.max_newton_iters, self.lasso_inner_iters) < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass
class GlassoResult:
    q: SparseSpd
    objective_trace: list[float] = field(default_factory=list)
    kkt_residual: float = np.inf
    converged: bool = False
    iterations: int = 0


def _l1_penalty(q: np.ndarray, cfg: GlassoConfig) -> float:
    total = float(np.sum(np.abs(q)))
    if not cfg.penalize_diagonal:
        total -= float(np.sum(np.abs(np.diag(q))))
    return cfg.lam * total


def glasso_objective(q: SparseSpd, s: np.ndarray, cfg: GlassoConfig) -> float:
    """Negative log-likelihood plus the (off-diagonal, unless configured) l1 term."""
    return neg_log_likelihood(q, s) + _l1_penalty(q.dense, cfg)


def free_set(q: SparseSpd, s: np.ndarray, lam: float) -> SupportPattern:
    """Entries allowed to move in one proximal-Newton iteration.

    Current nonzeros of Q plus entries where |S_ij - W_ij| exceeds lambda
    (W = Q^{-1}); the diagonal is always included since it is unpenalized
    and must stay free.
    """
    viol = np.abs(s - spd_inverse(q)) > lam
    return SupportPattern.from_mask((q.dense != 0.0) | viol)


def _soft(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def lasso_newton_direction(
    q: SparseSpd, s: np.ndarray, free: SupportPattern, cfg: GlassoConfig
) -> np.ndarray:
    """Coordinate-descent solution of the LASSO Newton subproblem.

    Minimizes tr(G D) + 0.5 tr(D W D W) + lam * |Q + D|_1 over directions D
    supported on the free set (G = S - W, W = Q^{-1}) and returns the pair
    values of D, in the free set's `index_arrays` order. Each coordinate
    gets an exact soft-threshold update; sweeps stop after lasso_inner_iters
    or when the largest coordinate change falls below sub_tol.
    """
    w = spd_inverse(q)
    n = q.n
    lam = cfg.lam
    rows, cols = free.index_arrays()
    # Per-coordinate scalars are gathered once into Python floats and the
    # rows/columns of the rank-one updates are bound once as views: numpy
    # scalar indexing, not arithmetic, dominated each coordinate update.
    coords = list(
        zip(
            rows.tolist(),
            cols.tolist(),
            w[rows, cols].tolist(),
            s[rows, cols].tolist(),
            q.dense[rows, cols].tolist(),
        )
    )
    w_diag = np.diag(w).tolist()
    w_rows = list(w)

    steps = [0.0] * len(coords)  # the entries of delta on the free set
    u = np.zeros((n, n))  # u = delta @ w, kept in sync by rank-one row updates
    u_rows, u_cols = list(u), list(u.T)
    for _ in range(cfg.lasso_inner_iters):
        max_change = 0.0
        for k, (i, j, w_ij, s_ij, q_ij) in enumerate(coords):
            b = s_ij - w_ij + float(w_rows[i].dot(u_cols[j]))
            c = q_ij + steps[k]
            if i == j:
                a = w_diag[i] * w_diag[i]
                if cfg.penalize_diagonal:
                    mu = -c + _soft(c - b / a, lam / a)
                else:
                    mu = -b / a
                if mu != 0.0:
                    steps[k] += mu
                    u_rows[i] += mu * w_rows[i]
            else:
                a = w_ij * w_ij + w_diag[i] * w_diag[j]
                mu = -c + _soft(c - b / a, lam / a)
                if mu != 0.0:
                    steps[k] += mu
                    u_rows[i] += mu * w_rows[j]
                    u_rows[j] += mu * w_rows[i]
            max_change = max(max_change, abs(mu))
        if max_change <= cfg.sub_tol:
            break
    return np.array(steps)


def kkt_residual(q: np.ndarray, w: np.ndarray, s: np.ndarray, cfg: GlassoConfig) -> float:
    """Max violation of the stationarity conditions of the penalized problem.

    For unpenalized entries: |W_ij - S_ij|. For penalized nonzero entries:
    |W_ij - S_ij - lam * sign(Q_ij)|. For penalized zero entries:
    max(0, |W_ij - S_ij| - lam).
    """
    lam = cfg.lam
    resid = w - s
    penalized = ~np.eye(q.shape[0], dtype=bool)
    if cfg.penalize_diagonal:
        penalized = np.ones_like(penalized)
    nonzero = q != 0.0

    viol = np.abs(resid)  # unpenalized entries
    pen_nz = penalized & nonzero
    pen_z = penalized & ~nonzero
    out = 0.0
    if np.any(~penalized):
        out = float(np.max(viol[~penalized]))
    if np.any(pen_nz):
        out = max(out, float(np.max(np.abs(resid - lam * np.sign(q))[pen_nz])))
    if np.any(pen_z):
        out = max(out, float(np.max(np.maximum(0.0, viol - lam)[pen_z])))
    return out


def _prune(q: np.ndarray) -> SparseSpd:
    kept = np.abs(q) > PRUNE_EPS
    np.fill_diagonal(kept, True)
    return SparseSpd._stored(np.where(kept, q, 0.0), SupportPattern.from_mask(kept))


def glasso_solve(
    s: np.ndarray, cfg: GlassoConfig, q0: SparseSpd | None = None
) -> GlassoResult:
    """Proximal-Newton graphical lasso.

    Converged when the KKT max-violation drops below newton_tol. The result
    pattern has numerically-zero entries pruned (diagonal always kept), and
    its kkt_residual is that of the pruned estimate, converged or not.
    """
    s = check_symmetric(s)
    q = q0 if q0 is not None else default_q0(s, SupportPattern.diagonal(s.shape[0]))
    trace = [glasso_objective(q, s, cfg)]
    converged = False
    iters = 0
    for t in range(cfg.max_newton_iters):
        w = spd_inverse(q)
        kkt = kkt_residual(q.dense, w, s, cfg)
        if kkt <= cfg.newton_tol:
            converged = True
            break
        free = free_set(q, s, cfg.lam)
        delta = lasso_newton_direction(q, s, free, cfg)

        rows, cols = free.index_arrays()
        weight = pair_weights(free)
        penalized = weight if cfg.penalize_diagonal else np.where(rows == cols, 0.0, weight)
        q_free = q.dense[rows, cols]
        l1_change = cfg.lam * np.dot(penalized, np.abs(q_free + delta) - np.abs(q_free))
        descent = float(np.dot(weight * (s[rows, cols] - w[rows, cols]), delta) + l1_change)
        if descent >= 0.0:
            # subproblem produced no usable direction; report where we are
            break
        _, q, f_new = armijo_spd_search(
            q, delta, free, descent, trace[-1],
            lambda cand: glasso_objective(cand, s, cfg),
        )
        trace.append(f_new)
        iters = t + 1

    result_q = _prune(q.dense)
    return GlassoResult(
        q=result_q,
        objective_trace=trace,
        kkt_residual=kkt_residual(result_q.dense, spd_inverse(result_q), s, cfg),
        converged=converged,
        iterations=iters,
    )


def refit(s: np.ndarray, q_lasso: SparseSpd, mle_cfg: MleConfig | None = None) -> MleResult:
    """Second debiasing step on an existing lasso estimate.

    Discards the values of q_lasso, keeps its support, and re-solves the
    support-constrained MLE warm-started at q_lasso.
    """
    return estimate_known_support(s, q_lasso.pattern, q0=q_lasso, cfg=mle_cfg or MleConfig())


def debias(
    s: np.ndarray,
    cfg: GlassoConfig,
    mle_cfg: MleConfig | None = None,
    q0: SparseSpd | None = None,
) -> MleResult:
    """Two-step debiased estimate: the graphical lasso, then `refit` on its support."""
    return refit(s, glasso_solve(s, cfg, q0=q0).q, mle_cfg)
