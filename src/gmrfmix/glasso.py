"""Diagonal-unpenalized graphical lasso via proximal Newton, plus debiasing.

The solver restricts each Newton update to the free set (current nonzeros
plus entries whose gradient violates the l1 threshold), solves the LASSO
subproblem by cyclic coordinate descent with exact soft-threshold updates,
and steps along the direction with the SPD-guarded Armijo search that the
support-constrained MLE also uses (`mle.armijo_spd_search`), applied to the
penalized objective. As in `mle`, the direction is a vector of the free
set's pair values (`SupportPattern.index_arrays` order); its descent is its
`mle.pair_weights` inner product with the gradient plus the l1 change.

Each coordinate update needs one entry of W D W (W = Q^{-1}, D the
direction so far). When the free set F has |F|^2 <= mle.HESSIAN_ELEMS
(the bound that also picks the MLE's Newton operator), the Newton step
first builds the explicit |F| x |F| matrix of that operator
(`mle.hessian_matrix`), and each coordinate costs one dot with its row.
On larger free sets, where that matrix would cost more than it saves (or
not fit), the loop keeps U = D W instead: one dot and two rank-one row
updates of length n per coordinate. Both loops visit the same coordinates
with the same soft-threshold update and stopping rule, so their
directions agree up to rounding.

The optimality conditions are stated once, in `stationarity_gap`: the stop
test, the `kkt_residual`, the free set and `bias_report` all read it.

Debiasing keeps only the support of the lasso estimate and re-solves the
support-constrained MLE, warm-started at the lasso iterate (`refit`).

`GlassoConfig` holds the settings callers vary: lam, penalize_diagonal,
newton_tol and max_newton_iters. The coordinate descent's sweep cap and
tolerance (LASSO_INNER_ITERS, SUB_TOL) and PRUNE_EPS are module constants,
read at each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mle
from .matrices import SparseSpd, SupportPattern, check_symmetric, spd_inverse
from .mle import (
    MleConfig,
    MleResult,
    armijo_spd_search,
    default_q0,
    estimate_known_support,
    hessian_matrix,
    neg_log_likelihood,
    newton_diagonal,
    pair_weights,
)

# glasso_solve prunes estimate entries of at most this magnitude (the diagonal stays)
PRUNE_EPS = 1e-8
# each Newton direction runs at most LASSO_INNER_ITERS coordinate-descent sweeps,
# and stops after a sweep whose largest coordinate change is at most SUB_TOL
LASSO_INNER_ITERS = 20
SUB_TOL = 1e-6


@dataclass
class GlassoConfig:
    lam: float = 0.1
    penalize_diagonal: bool = False
    newton_tol: float = 1e-5
    max_newton_iters: int = 100

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:  # also rejects NaN
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if not self.newton_tol > 0:  # also rejects NaN
            raise ValueError("tolerances must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass
class GlassoResult:
    q: SparseSpd
    objective_trace: list[float] = field(default_factory=list)
    kkt_residual: float = np.inf
    converged: bool = False
    iterations: int = 0
    sweeps: int = 0  # coordinate-descent sweeps over all Newton directions


def _l1_penalty(q: np.ndarray, cfg: GlassoConfig) -> float:
    total = float(np.sum(np.abs(q)))
    if not cfg.penalize_diagonal:
        total -= float(np.sum(np.abs(np.diag(q))))
    return cfg.lam * total


def glasso_objective(q: SparseSpd, s: np.ndarray, cfg: GlassoConfig) -> float:
    """Negative log-likelihood plus the (off-diagonal, unless configured) l1 term."""
    return neg_log_likelihood(q, s) + _l1_penalty(q.dense, cfg)


def _penalized(n: int, cfg: GlassoConfig) -> np.ndarray:
    """Mask of the l1-penalized entries: off the diagonal, and on it under penalize_diagonal."""
    return ~np.eye(n, dtype=bool) | cfg.penalize_diagonal


def stationarity_gap(q: np.ndarray, w: np.ndarray, s: np.ndarray, cfg: GlassoConfig) -> np.ndarray:
    """Per entry, the distance of 0 from the subdifferential of the penalized objective at Q.

    With G = S - W (W = Q^{-1}) and Lambda = lam on penalized entries, 0 on
    the unpenalized diagonal: |G_ij + Lambda_ij sign(Q_ij)| where Q_ij != 0,
    and max(|G_ij| - Lambda_ij, 0) where Q_ij = 0.
    """
    g = s - w
    lam = cfg.lam * _penalized(q.shape[0], cfg)
    return np.where(q != 0.0, np.abs(g + lam * np.sign(q)), np.maximum(np.abs(g) - lam, 0.0))


def kkt_residual(q: np.ndarray, w: np.ndarray, s: np.ndarray, cfg: GlassoConfig) -> float:
    """Max violation of the stationarity conditions: the max of `stationarity_gap`."""
    return float(np.max(stationarity_gap(q, w, s, cfg)))


def free_set(q: SparseSpd, gap: np.ndarray) -> SupportPattern:
    """Entries allowed to move in one proximal-Newton iteration.

    Current nonzeros of Q (the diagonal among them) plus the zeros whose
    `stationarity_gap` is positive, i.e. where |S_ij - W_ij| exceeds lambda.
    """
    return SupportPattern.from_mask((q.dense != 0.0) | (gap > 0.0))


def _lasso_step(b: float, a: float, c: float, t: float | None) -> float:
    """The exact coordinate step mu: the minimizer of b mu + a mu^2 / 2 + lam |c + mu|
    with threshold t = lam / a, or of b mu + a mu^2 / 2 when the entry is
    unpenalized (t None)."""
    if t is None:
        return -b / a
    z = c - b / a
    if z > t:
        return z - t - c
    if z < -t:
        return z + t - c
    return -c


def lasso_newton_direction(
    q: SparseSpd, s: np.ndarray, free: SupportPattern, cfg: GlassoConfig
) -> tuple[np.ndarray, int]:
    """Coordinate-descent solution of the LASSO Newton subproblem.

    Minimizes tr(G D) + 0.5 tr(D W D W) + lam * |Q + D|_1 over directions D
    supported on the free set (G = S - W, W = Q^{-1}) and returns the pair
    values of D, in the free set's `index_arrays` order, and the number of
    sweeps run. Each coordinate gets an exact soft-threshold update; sweeps
    stop after LASSO_INNER_ITERS or when the largest coordinate change falls
    below SUB_TOL. Coordinate k reads b_k = g_k + (W D W)_k from the explicit
    Newton matrix when |F|^2 <= mle.HESSIAN_ELEMS, and from U = D W above it.
    """
    w = spd_inverse(q)
    rows, cols = free.index_arrays()
    a = newton_diagonal(w, free)
    penalized = _penalized(q.n, cfg)[rows, cols]
    # Per-coordinate scalars are gathered once into Python floats: numpy
    # scalar indexing, not arithmetic, dominated each coordinate update.
    coords = list(
        zip(
            (s[rows, cols] - w[rows, cols]).tolist(),
            a.tolist(),
            [cfg.lam / a_k if pen else None for a_k, pen in zip(a.tolist(), penalized.tolist())],
            q.dense[rows, cols].tolist(),
        )
    )
    if len(coords) ** 2 <= mle.HESSIAN_ELEMS:
        return _explicit_sweeps(hessian_matrix(w, free), coords)
    return _product_sweeps(w, rows.tolist(), cols.tolist(), coords)


def _explicit_sweeps(h: np.ndarray, coords: list) -> tuple[np.ndarray, int]:
    """Coordinate descent reading b_k = g_k + H[k] . x from the Newton matrix H."""
    x = np.zeros(len(coords))  # the entries of delta on the free set
    steps = x.tolist()  # the same, as Python floats
    h_rows = list(h)
    for sweeps in range(1, LASSO_INNER_ITERS + 1):
        max_change = 0.0
        for k, (g_k, a_k, t_k, q_k) in enumerate(coords):
            mu = _lasso_step(g_k + float(h_rows[k].dot(x)), a_k, q_k + steps[k], t_k)
            if mu != 0.0:
                steps[k] += mu
                x[k] = steps[k]
            max_change = max(max_change, abs(mu))
        if max_change <= SUB_TOL:
            break
    return x, sweeps


def _product_sweeps(w: np.ndarray, rows: list, cols: list, coords: list) -> tuple[np.ndarray, int]:
    """Coordinate descent reading b_k = g_k + (W U)_k, with U = delta W kept
    in sync by rank-one row updates: n-length work per coordinate, no |F|^2 storage."""
    w_rows = list(w)  # rows of W (and, W being symmetric, its columns)
    u = np.zeros_like(w)
    u_rows, u_cols = list(u), list(u.T)
    steps = [0.0] * len(coords)
    for sweeps in range(1, LASSO_INNER_ITERS + 1):
        max_change = 0.0
        for k, (i, j, (g_k, a_k, t_k, q_k)) in enumerate(zip(rows, cols, coords)):
            mu = _lasso_step(g_k + float(w_rows[i].dot(u_cols[j])), a_k, q_k + steps[k], t_k)
            if mu != 0.0:
                steps[k] += mu
                u_rows[i] += mu * w_rows[j]
                if i != j:
                    u_rows[j] += mu * w_rows[i]
            max_change = max(max_change, abs(mu))
        if max_change <= SUB_TOL:
            break
    return np.array(steps), sweeps


def _prune(q: np.ndarray) -> SparseSpd:
    kept = np.abs(q) > PRUNE_EPS
    np.fill_diagonal(kept, True)
    return SparseSpd._stored(np.where(kept, q, 0.0), SupportPattern.from_mask(kept))


def glasso_solve(
    s: np.ndarray, cfg: GlassoConfig, q0: SparseSpd | None = None
) -> GlassoResult:
    """Proximal-Newton graphical lasso.

    Each Newton step computes `stationarity_gap` once: converged when its max
    drops below newton_tol, and otherwise it gives the free set. The result
    pattern has numerically-zero entries pruned (diagonal always kept), and
    its kkt_residual is that of the pruned estimate, converged or not.
    """
    s = check_symmetric(s)
    q = q0 if q0 is not None else default_q0(s, SupportPattern.diagonal(s.shape[0]))
    penalized = _penalized(s.shape[0], cfg)
    trace = [glasso_objective(q, s, cfg)]
    converged = False
    iters = sweeps = 0
    for t in range(cfg.max_newton_iters):
        w = spd_inverse(q)
        gap = stationarity_gap(q.dense, w, s, cfg)
        if np.max(gap) <= cfg.newton_tol:
            converged = True
            break
        free = free_set(q, gap)
        delta, ran = lasso_newton_direction(q, s, free, cfg)
        sweeps += ran

        rows, cols = free.index_arrays()
        weight = pair_weights(free)
        q_free = q.dense[rows, cols]
        l1_weight = np.where(penalized[rows, cols], weight, 0.0)
        l1_change = cfg.lam * np.dot(l1_weight, np.abs(q_free + delta) - np.abs(q_free))
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
        sweeps=sweeps,
    )


def refit(s: np.ndarray, q_lasso: SparseSpd, mle_cfg: MleConfig | None = None) -> MleResult:
    """Second debiasing step on an existing lasso estimate.

    Discards the values of q_lasso, keeps its support, and re-solves the
    support-constrained MLE warm-started at q_lasso.
    """
    return estimate_known_support(s, q_lasso.pattern, q0=q_lasso, cfg=mle_cfg)


def debias(
    s: np.ndarray,
    cfg: GlassoConfig,
    mle_cfg: MleConfig | None = None,
    q0: SparseSpd | None = None,
) -> MleResult:
    """Two-step debiased estimate: the graphical lasso, then `refit` on its support."""
    return refit(s, glasso_solve(s, cfg, q0=q0).q, mle_cfg)
