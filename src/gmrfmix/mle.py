"""Support-constrained maximum-likelihood estimation of a precision matrix.

The estimator minimizes -log det Q + tr(Q S) over SPD matrices whose
support is restricted to a given pattern. The Newton direction is obtained
by solving W @ Delta @ W = -G (W = Q^{-1}) with a projected, diagonally
preconditioned conjugate gradient, followed by an Armijo backtracking line
search that also guards positive-definiteness via Cholesky. The graphical
lasso (`glasso.glasso_solve`) takes its steps with the same search
(`armijo_spd_search`) on its penalized objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, LineSearchFailed, SingularCovariance, NotSpd
from .matrices import (
    SparseSpd,
    SupportPattern,
    check_symmetric,
    project_to_pattern,
    spd_inverse,
)

RIDGE_EPS = 1e-6
# the settings of armijo_spd_search, shared by both Newton solvers
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40


@dataclass
class MleConfig:
    outer_tol: float = 1e-6
    max_outer_iters: int = 200
    pcg_tol: float = 1e-2
    max_pcg_iters: int = 200

    def __post_init__(self):
        if self.outer_tol <= 0 or self.pcg_tol <= 0:
            raise ValueError("tolerances must be positive")
        if min(self.max_outer_iters, self.max_pcg_iters) < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass
class MleResult:
    q: SparseSpd
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    grad_max: float = np.inf  # max-abs projected gradient at q, the certificate


def pattern_trace(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A B) for symmetric operands supported on a common pattern.

    Equals sum(A * B) elementwise, which counts each off-diagonal pair
    twice, exactly as the trace does.
    """
    return float(np.sum(a * b))


def neg_log_likelihood(q: SparseSpd, s: np.ndarray) -> float:
    """-log det Q + tr(Q S), with tr(Q S) = sum(Q * S) for symmetric operands."""
    if s.shape[0] != q.n:
        raise DimensionMismatch("covariance dimension differs from precision")
    return -q.log_det + float(np.sum(q.dense * s))


def gradient(q: SparseSpd, s: np.ndarray) -> np.ndarray:
    """Gradient S - Q^{-1} of the negative log-likelihood, dense."""
    s = check_symmetric(s)
    if s.shape[0] != q.n:
        raise DimensionMismatch("covariance dimension differs from precision")
    return s - spd_inverse(q)


def _ridge(s: np.ndarray, eps: float = RIDGE_EPS) -> np.ndarray:
    return s + eps * float(np.mean(np.diag(s))) * np.eye(s.shape[0])


def dense_mle(s: np.ndarray, ridge: bool = True) -> SparseSpd:
    """Closed-form MLE S^{-1} on the full pattern.

    When S itself fails Cholesky and ridge is enabled, a tiny multiple of
    mean(diag S) is added to the diagonal before inverting. An S that
    passes Cholesky but is numerically singular raises SingularCovariance.
    """
    s = np.asarray(s, dtype=np.float64)
    full = SupportPattern.full(len(s))
    try:
        s_spd = SparseSpd(s, full)
    except NotSpd:
        if not ridge:
            raise SingularCovariance("empirical covariance is not SPD")
        try:
            s_spd = SparseSpd(_ridge(s), full)
        except NotSpd as exc:
            raise SingularCovariance(
                "empirical covariance is not SPD even after the ridge floor"
            ) from exc
    try:
        return SparseSpd._stored(spd_inverse(s_spd), full)
    except (np.linalg.LinAlgError, NotSpd) as exc:
        raise SingularCovariance(f"empirical covariance is numerically singular ({exc})") from exc


def hessian_apply(
    w: np.ndarray, delta: np.ndarray, pattern: SupportPattern
) -> np.ndarray:
    """Apply the Newton operator: project(W Delta W) onto the pattern.

    The n^2 x n^2 Hessian W (x) W is never materialized.
    """
    wdw = w @ delta @ w
    # the product is symmetric in exact arithmetic; enforce it so rounding
    # noise cannot accumulate across PCG iterations
    return project_to_pattern(0.5 * (wdw + wdw.T), pattern)


def precond_weights(w: np.ndarray, pattern: SupportPattern) -> np.ndarray:
    """Diagonal preconditioner weights per pattern entry.

    M_ij = W_ii W_jj + W_ij^2 off the diagonal, M_ii = W_ii^2; returned as a
    dense matrix (entries outside the pattern are set to 1 so division is
    always safe).
    """
    d = np.diag(w)
    m = np.outer(d, d) + w * w
    np.fill_diagonal(m, d * d)
    return np.where(pattern.mask(), m, 1.0)


def proj_pcg(q: SparseSpd, g: np.ndarray, pattern: SupportPattern, cfg: MleConfig):
    """Solve project(W Delta W) = -G over the pattern subspace by PCG (W = Q^{-1}).

    Returns (delta, converged). Every iterate is supported on the pattern;
    the preconditioner divides residuals entrywise by precond_weights. Even
    a truncated solution is a descent direction because the operator is SPD
    on the pattern subspace.
    """
    w = spd_inverse(q)
    mask = pattern.mask()
    g = np.where(mask, g, 0.0)
    m = precond_weights(w, pattern)

    x = np.zeros_like(g)
    r = -g  # residual of A x = -g at x = 0
    g_norm = np.linalg.norm(g)
    if g_norm == 0.0:
        return x, True
    z = np.where(mask, r / m, 0.0)
    p = z.copy()
    rz = pattern_trace(r, z)
    for _ in range(cfg.max_pcg_iters):
        ap = hessian_apply(w, p, pattern)
        p_ap = pattern_trace(p, ap)
        if p_ap <= 0.0:
            break  # numerical loss of positive-definiteness; keep current x
        alpha = rz / p_ap
        x = x + alpha * p
        r = r - alpha * ap
        if np.linalg.norm(r) <= cfg.pcg_tol * g_norm:
            return x, True
        z = np.where(mask, r / m, 0.0)
        rz_new = pattern_trace(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, False


def armijo_spd_search(
    q: SparseSpd, delta: np.ndarray, pattern: SupportPattern, descent: float, f0: float, objective
):
    """Backtracking line search with an SPD guard, shared by both Newton solvers.

    Returns (alpha, q_new, f_new) for the largest alpha in {1, beta,
    beta^2, ...} (beta = BACKTRACK_FACTOR, at most MAX_BACKTRACKS tries)
    such that Q + alpha Delta, stored on the pattern (which holds the
    supports of Q and Delta), passes Cholesky and satisfies the Armijo
    condition objective(q_new) <= f0 + ARMIJO_C * alpha * descent. f0 is
    the objective at Q and descent its directional derivative along Delta.
    Q and Delta are checked against the pattern once, here, so that every
    candidate lies on it without a check of its own.
    """
    if descent >= 0.0:
        raise LineSearchFailed(f"not a descent direction (descent {descent:g})")
    off = ~pattern.mask()
    if np.any(q.dense[off]) or np.any(delta[off]):
        raise DimensionMismatch("Q or Delta has nonzeros outside the pattern")
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        try:
            cand = SparseSpd._stored(q.dense + alpha * delta, pattern)
        except NotSpd:
            alpha *= BACKTRACK_FACTOR
            continue
        f_new = objective(cand)
        if f_new <= f0 + ARMIJO_C * alpha * descent:
            return alpha, cand, f_new
        alpha *= BACKTRACK_FACTOR
    raise LineSearchFailed(f"no acceptable step within {MAX_BACKTRACKS} backtracks")


def default_q0(s: np.ndarray, pattern: SupportPattern) -> SparseSpd:
    """Diagonal starting point q_ii = 1 / max(s_ii, ridge floor)."""
    d = np.diag(s).copy()
    floor = RIDGE_EPS * max(float(np.mean(d)), np.finfo(float).tiny)
    d = np.maximum(d, floor)
    if np.any(d <= 0.0):
        raise SingularCovariance("covariance diagonal is not positive")
    return SparseSpd._stored(np.diag(1.0 / d), pattern)


def estimate_known_support(
    s: np.ndarray,
    pattern: SupportPattern,
    q0: SparseSpd | None = None,
    cfg: MleConfig | None = None,
) -> MleResult:
    """Projected Newton estimation of Q subject to Supp(Q) within the pattern.

    Stops when the max-abs of the projected gradient drops below
    cfg.outer_tol (only pattern entries are free variables) or after
    cfg.max_outer_iters Newton steps; either way the result's grad_max is
    that of the returned q.
    """
    s = check_symmetric(s)
    cfg = cfg or MleConfig()
    if s.shape[0] != pattern.n:
        raise DimensionMismatch("covariance dimension differs from pattern")
    if q0 is None:
        q = default_q0(s, pattern)
    else:
        if not q0.pattern.issubset(pattern):
            raise DimensionMismatch("q0 support is not contained in the pattern")
        q = SparseSpd._stored(q0.dense, pattern) if q0.pattern != pattern else q0

    trace = [neg_log_likelihood(q, s)]
    for iters in range(cfg.max_outer_iters + 1):
        g = project_to_pattern(s - spd_inverse(q), pattern)
        grad_max = float(np.max(np.abs(g)))
        if grad_max <= cfg.outer_tol or iters == cfg.max_outer_iters:
            break
        delta, _ = proj_pcg(q, g, pattern, cfg)
        _, q, f_new = armijo_spd_search(
            q, delta, pattern, pattern_trace(g, delta), trace[-1],
            lambda cand: neg_log_likelihood(cand, s),
        )
        trace.append(f_new)
    return MleResult(
        q=q, objective_trace=trace, converged=grad_max <= cfg.outer_tol, iterations=iters,
        grad_max=grad_max,
    )
