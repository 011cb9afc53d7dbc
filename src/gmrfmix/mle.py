"""Support-constrained maximum-likelihood estimation of a precision matrix.

The estimator minimizes -log det Q + tr(Q S) over SPD matrices whose
support is restricted to a given pattern. The gradient S - W (W = Q^{-1}),
the Newton direction and the line-search step are each a vector of the |P|
pattern pair values (`SupportPattern.index_arrays` order). The direction
solves hessian_apply(W, pattern)(x) = -g, the pair values of W Delta W
(`proj_pcg`), in one of three regimes by the pattern's size:
- |P| <= DIRECT_PAIRS: one Cholesky factorization of the explicit
  |P| x |P| matrix gives the exact step;
- |P|^2 <= HESSIAN_ELEMS: conjugate gradient in the Frobenius inner
  product, applying the explicit matrix (`hessian_matrix`);
- above that: the same CG, applying a sparse product.
The last two bounds are the rule, shared with glasso's coordinate descent,
that picks the operator's form. An Armijo backtracking line search, which
also guards positive-definiteness via Cholesky, follows, until the step's
decrement -g.delta is at most FULL_STEP_DECREMENT: from there on the
full step is taken, since the test cannot resolve such decreases. The
graphical lasso (`glasso.glasso_solve`) takes its steps with the same
search (`armijo_spd_search`) on its penalized objective.

`MleConfig` holds the one setting callers vary, the stop tolerance
outer_tol. The others are module constants, read at each call: the Newton
cap MAX_OUTER_ITERS, the PCG tolerance and cap PCG_TOL and MAX_PCG_ITERS,
the regime bounds DIRECT_PAIRS and HESSIAN_ELEMS, FULL_STEP_DECREMENT, and
the line search's ARMIJO_C, BACKTRACK_FACTOR and MAX_BACKTRACKS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DimensionMismatch, LineSearchFailed, SingularCovariance, NotSpd
from .matrices import SparseSpd, SupportPattern, check_symmetric, spd_inverse

RIDGE_EPS = 1e-6
# the settings of armijo_spd_search, shared by both Newton solvers
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40
# the one rule for the Newton operator of both solvers: a pattern of |P| pairs
# gets the explicit |P| x |P| matrix (hessian_matrix) while |P|^2 is at most
# this many entries (8 MB of float64), and a product form above it, which
# holds no |P|^2 array (at |P| = 8749, n = 1024, the matrix would be 612 MB).
# A 20-sweep glasso direction at n = 256 took 29 ms with the matrix against
# 46 ms with U = Delta W at |F| = 736, and 74 against 52 ms at |F| = 1448.
HESSIAN_ELEMS = 1 << 20
# elements of W gathered per block by the sparse operator: 512 KB of float64
# (1 MB blocks made an apply 3x slower at n = 256)
GATHER_ELEMS = 1 << 16
# _pair_products builds at most BLOCK_ROWS rows, and GATHER_ELEMS elements, per
# block: at |P| = 280 (n = 100) 64-row blocks built the matrix in 0.57 ms,
# against 1.55 ms with the 234 rows of GATHER_ELEMS alone (no change at
# |P| >= 578), and they keep the unset part of an upper-triangle build small
BLOCK_ROWS = 64
# estimate_known_support takes at most MAX_OUTER_ITERS Newton steps; proj_pcg
# stops at a residual of PCG_TOL times the gradient's, or after MAX_PCG_ITERS
MAX_OUTER_ITERS = 200
PCG_TOL = 1e-2
MAX_PCG_ITERS = 200
# proj_pcg solves the Newton system by one Cholesky factorization while |P| is
# at most this many pairs, and by CG above it. The EM patterns (|P| 280-325)
# took 53-107 CG applies per Newton step and gain; the 16x16 lattice patterns
# (|P| 578-736) take about 23, and their direct solves took as long as CG
DIRECT_PAIRS = 400
# estimate_known_support takes a Newton step whole, without the line search,
# once its decrement -g.delta is at most FULL_STEP_DECREMENT. For CG and direct
# steps alike -g.delta = lambda^2 = tr(W Delta W Delta), and the objective is
# self-concordant, so a step with lambda < 1 keeps Q SPD and lowers the
# objective by at least lambda^2 (1/2 - lambda/3) - the Armijo test passes at
# alpha = 1 in exact arithmetic. Near the solution that decrease falls below
# the objective's rounding, where the test no longer sees it: a 10x10 EM
# component (cond(Q) 4e3) stalled at grad_max 2.5e-6 with 200 steps of alpha
# ~1e-8, its full step rejected by 2 ulp, which would have reached 5e-13.
FULL_STEP_DECREMENT = 1e-2


@dataclass
class MleConfig:
    outer_tol: float = 1e-6

    def __post_init__(self):
        if not self.outer_tol > 0:  # also rejects NaN
            raise ValueError("tolerances must be positive")


@dataclass
class MleResult:
    q: SparseSpd
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    grad_max: float = np.inf  # max-abs gradient over the pattern pairs at q, the certificate
    # Newton steps whose PCG stopped before PCG_TOL; a direct step (|P| <=
    # DIRECT_PAIRS) is exact and never counts
    pcg_truncated: int = 0
    # operator applies over all Newton steps, a direct step counting as 1, so
    # pcg_iters == iterations in the direct regime; a step with g = 0 counts 0
    pcg_iters: int = 0


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


def _to_dense(x: np.ndarray, pattern: SupportPattern) -> np.ndarray:
    """The symmetric n x n matrix with pair values x, zero off the pattern."""
    rows, cols = pattern.index_arrays()
    m = np.zeros((pattern.n, pattern.n))
    m[rows, cols] = x
    m[cols, rows] = x
    return m


def pair_weights(pattern: SupportPattern) -> np.ndarray:
    """1 for each diagonal pair and 2 for each off-diagonal one, in `index_arrays` order.

    For symmetric X and Y on the pattern with pair values x and y,
    tr(X Y) = sum(X * Y) = np.dot(pair_weights(pattern) * x, y).
    """
    rows, cols = pattern.index_arrays()
    return np.where(rows == cols, 1.0, 2.0)


def hessian_apply(w: np.ndarray, pattern: SupportPattern):
    """The Newton operator: x -> the pair values of W Delta W, for Delta the
    symmetric matrix with pair values x (both in `index_arrays` order).

    While |P|^2 <= HESSIAN_ELEMS this is the product with the explicit
    matrix, hessian_matrix(w, pattern).dot. Above it Delta is a
    scipy.sparse CSR matrix on the symmetric pattern, its structure built
    here once per call from the pattern's mask and index arrays, and each
    apply only overwrites its entries: stored entry e holds pair value
    x[pair[e]]. U = Delta W costs nnz * n; pair (i, j) of W U is row i of
    W dotted with row j of U^T, gathered for GATHER_ELEMS / n pairs at a
    time, so |P| * n more.
    """
    rows, cols = pattern.index_arrays()
    if len(rows) ** 2 <= HESSIAN_ELEMS:
        return hessian_matrix(w, pattern).dot
    n = pattern.n
    r, c = np.divmod(np.flatnonzero(pattern.mask()), n)  # row-major: CSR order
    pair = np.searchsorted(rows * n + cols, np.minimum(r, c) * n + np.maximum(r, c))
    # int32 indices, which scipy.sparse keeps without a copy
    indptr = np.searchsorted(r, np.arange(n + 1)).astype(np.int32)
    delta = scipy.sparse.csr_matrix((np.empty(len(c)), c.astype(np.int32), indptr), shape=(n, n))
    step = max(1, GATHER_ELEMS // n)

    def apply(x: np.ndarray) -> np.ndarray:
        np.take(x, pair, out=delta.data)
        ut = np.ascontiguousarray((delta @ w).T)  # W Delta: row j is column j of Delta W
        out = np.empty(len(rows))
        for lo in range(0, len(rows), step):
            hi = lo + step
            np.einsum("kl,kl->k", w[rows[lo:hi]], ut[cols[lo:hi]], out=out[lo:hi])
        return out

    return apply


def hessian_matrix(w: np.ndarray, pattern: SupportPattern) -> np.ndarray:
    """The |P| x |P| matrix H of the Newton operator: H @ x == hessian_apply(w, pattern)(x).

    H[k, l] = W[r_k, r_l] W[c_k, c_l] + W[r_k, c_l] W[c_k, r_l] for pairs
    k = (r_k, c_k) and l = (r_l, c_l), with the columns of diagonal pairs
    halved, since a diagonal pair value enters Delta once, not twice: the
    symmetric `_pair_products` matrix times diag(0.5 or 1), scaled block by
    block, so H is the one |P| x |P| array built.
    """
    rows, cols = pattern.index_arrays()
    return _pair_products(w, rows, cols, scale=np.where(rows == cols, 0.5, 1.0))


def _pair_products(
    w: np.ndarray, rows: np.ndarray, cols: np.ndarray, scale: np.ndarray | None = None,
    upper: bool = False,
) -> np.ndarray:
    """The symmetric |P| x |P| matrix of W[r_k, r_l] W[c_k, c_l] + W[r_k, c_l] W[c_k, r_l],
    its columns times scale if given.

    Rows are gathered BLOCK_ROWS, or GATHER_ELEMS / |P| if fewer, at a
    time. With upper, a block of rows lo:hi fills only columns lo:, which
    hold the upper triangle, and the rest of the array is left unset.
    """
    w_rows, w_cols = w[rows], w[cols]  # W[r_k, :] and W[c_k, :], |P| x n
    h = np.empty((len(rows), len(rows)))
    step = max(1, min(BLOCK_ROWS, GATHER_ELEMS // len(rows)))
    for lo in range(0, len(rows), step):
        hi = lo + step
        first = lo if upper else 0
        r, c = rows[first:], cols[first:]
        block = h[lo:hi, first:]
        np.take(w_rows[lo:hi], r, axis=1, out=block)
        block *= np.take(w_cols[lo:hi], c, axis=1)
        cross = np.take(w_rows[lo:hi], c, axis=1)
        cross *= np.take(w_cols[lo:hi], r, axis=1)
        block += cross
        if scale is not None:
            block *= scale[first:]
    return h


def newton_diagonal(w: np.ndarray, pattern: SupportPattern) -> np.ndarray:
    """The diagonal of the Newton operator in the pair coordinates, in `index_arrays` order.

    W_ii W_jj + W_ij^2 for an off-diagonal pair (i, j), W_ii^2 for a
    diagonal one: np.diag(hessian_matrix(w, pattern)), positive for SPD W.
    It is the a_k of glasso's coordinate updates.
    """
    rows, cols = pattern.index_arrays()
    d = np.diag(w)
    return d[rows] * d[cols] + np.where(rows == cols, 0.0, w[rows, cols] ** 2)


def proj_pcg(q: SparseSpd, g: np.ndarray, pattern: SupportPattern):
    """Solve hessian_apply(W, pattern)(x) = -g (W = Q^{-1}), directly while
    |P| <= DIRECT_PAIRS and by conjugate gradient above it.

    Returns (x, converged, iterations), the last the number of operator
    applies. g and x are pair-value vectors (`index_arrays` order). g = 0
    returns x = 0 after no apply. The direct solve (`_direct_step`) is one
    Cholesky factorization of the explicit matrix, the exact step, and
    counts as 1 converged apply; if the factorization fails, the same step
    runs CG. CG inner products weight the pairs by `pair_weights`, so they
    are the Frobenius products of the symmetric matrices, in which the
    operator is SPD: the stop test is ||r||_F <= PCG_TOL ||g||_F, tried
    after each of at most MAX_PCG_ITERS applies of hessian_apply (the
    explicit matrix while |P|^2 <= HESSIAN_ELEMS, the sparse product above
    it). Even a truncated solution is a descent direction for that reason.
    """
    weight = pair_weights(pattern)
    r = -g  # residual of A x = -g at x = 0
    x = np.zeros_like(r)
    rr = np.dot(weight * r, r)
    if rr == 0.0:
        return x, True, 0
    w = spd_inverse(q)
    if len(r) <= DIRECT_PAIRS:
        direct = _direct_step(w, g, pattern)
        if direct is not None:
            return direct, True, 1
    stop = PCG_TOL**2 * rr
    apply = hessian_apply(w, pattern)
    p = r.copy()
    for it in range(1, MAX_PCG_ITERS + 1):
        ap = apply(p)
        p_ap = np.dot(weight * p, ap)
        if p_ap <= 0.0:
            break  # numerical loss of positive-definiteness; keep current x
        alpha = rr / p_ap
        x += alpha * p
        r -= alpha * ap
        rr_new = np.dot(weight * r, r)
        if rr_new <= stop:
            return x, True, it
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, False, it


def _direct_step(w: np.ndarray, g: np.ndarray, pattern: SupportPattern) -> np.ndarray | None:
    """The exact solution of hessian_matrix(w, pattern) @ x = -g, or None if
    the Cholesky factorization fails (LAPACK dpotrf info > 0).

    That matrix is Hs diag(half), Hs the symmetric `_pair_products` matrix
    and half 0.5 on the diagonal pairs and 1 elsewhere. So Hs y = -g is
    solved from the upper triangle of Hs alone, and x is y doubled on the
    diagonal pairs.
    """
    rows, cols = pattern.index_arrays()
    hs = _pair_products(w, rows, cols, upper=True)
    # hs.T is hs's memory in Fortran order, whose lower triangle is hs's upper one
    factor, info = dpotrf(hs.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return None
    y, _ = dpotrs(factor, -g, lower=1)
    y[rows == cols] *= 2.0
    return y


def armijo_spd_search(
    q: SparseSpd, step: np.ndarray, pattern: SupportPattern, descent: float, f0: float, objective
):
    """Backtracking line search with an SPD guard, shared by both Newton solvers.

    step holds the pair values (`index_arrays` order) of a symmetric Delta
    on the pattern, which holds Q's support. Returns (alpha, q_new, f_new)
    for the largest alpha in {1, beta, beta^2, ...} (beta =
    BACKTRACK_FACTOR, at most MAX_BACKTRACKS tries) such that Q + alpha
    Delta, stored on the pattern, passes Cholesky and satisfies the Armijo
    condition objective(q_new) <= f0 + ARMIJO_C * alpha * descent. f0 is
    the objective at Q and descent its directional derivative along Delta.
    Q's values are checked against the pattern once, here, so that every
    candidate lies on it without a check of its own.
    """
    if descent >= 0.0:
        raise LineSearchFailed(f"not a descent direction (descent {descent:g})")
    if np.any(q.dense[~pattern.mask()]):
        raise DimensionMismatch("Q has nonzeros outside the pattern")
    delta = _to_dense(step, pattern)
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
    """Diagonal starting point q_ii = 1 / max(s_ii, RIDGE_EPS * mean(diag S)),
    or SingularCovariance if that floor is too small to invert (S = 0, say)."""
    d = np.diag(s)
    floor = RIDGE_EPS * float(np.mean(d))
    if not floor >= np.finfo(float).tiny:  # also NaN
        raise SingularCovariance("covariance diagonal is zero or too small to invert")
    return SparseSpd._stored(np.diag(1.0 / np.maximum(d, floor)), pattern)


def estimate_known_support(
    s: np.ndarray,
    pattern: SupportPattern,
    q0: SparseSpd | None = None,
    cfg: MleConfig | None = None,
) -> MleResult:
    """Projected Newton estimation of Q subject to Supp(Q) within the pattern.

    Only the pattern pairs are free variables. A Newton step goes through
    armijo_spd_search, or is taken whole once its decrement -g.delta is at
    most FULL_STEP_DECREMENT. Stops when the max-abs of
    the gradient S - Q^{-1} over the pairs drops below cfg.outer_tol or
    after MAX_OUTER_ITERS Newton steps; either way the result's
    grad_max is that of the returned q.
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

    rows, cols = pattern.index_arrays()
    s_pairs = s[rows, cols]
    weight = pair_weights(pattern)
    trace = [neg_log_likelihood(q, s)]
    truncated = pcg_iters = 0
    for iters in range(MAX_OUTER_ITERS + 1):
        g = s_pairs - spd_inverse(q)[rows, cols]
        grad_max = float(np.max(np.abs(g)))
        if grad_max <= cfg.outer_tol or iters == MAX_OUTER_ITERS:
            break
        delta, pcg_converged, applies = proj_pcg(q, g, pattern)
        truncated += not pcg_converged
        pcg_iters += applies
        descent = float(np.dot(weight * g, delta))
        if 0.0 < -descent <= FULL_STEP_DECREMENT:  # not 0: the search rejects non-descent
            q = SparseSpd._stored(q.dense + _to_dense(delta, pattern), pattern)
            f_new = neg_log_likelihood(q, s)
        else:
            _, q, f_new = armijo_spd_search(
                q, delta, pattern, descent, trace[-1], lambda cand: neg_log_likelihood(cand, s),
            )
        trace.append(f_new)
    return MleResult(
        q=q, objective_trace=trace, converged=grad_max <= cfg.outer_tol, iterations=iters,
        grad_max=grad_max, pcg_truncated=truncated, pcg_iters=pcg_iters,
    )
