"""GMRF mixture model and the EM driver.

The M-step precision estimator is pluggable: closed-form dense MLE,
graphical lasso, the debiased two-step estimator, or the known-support
Newton solver. Iterative estimators are warm-started from the previous EM
iteration's component precision.

`EmConfig` holds the settings callers vary: the estimator, K, the EM
iteration cap and whether the means are fixed at zero. The EM stop
tolerance LL_TOL and the empty-component floor MIN_COMPONENT_WEIGHT are
module constants, read at each call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInit, DimensionMismatch, EmptyComponent
from .glasso import GlassoConfig, debias, glasso_solve
from .matrices import SparseSpd, SupportPattern, write_atomic_text
from .mle import dense_mle, estimate_known_support

LOG_2PI = float(np.log(2.0 * np.pi))
# fit_em stops once an iteration changes the total log-likelihood by at most
# LL_TOL times its magnitude
LL_TOL = 1e-6
# a component whose responsibilities sum to at most this share of the points is
# empty: the M-step raises EmptyComponent, and fit_em reseeds it
MIN_COMPONENT_WEIGHT = 1e-6


@dataclass
class GmrfComponent:
    weight: float
    mean: np.ndarray
    precision: SparseSpd

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if not self.weight > 0:  # also rejects NaN
            raise ValueError("component weight must be positive")
        if self.mean.shape != (self.precision.n,):
            raise DimensionMismatch("mean length differs from precision dimension")


class MixtureModel:
    def __init__(self, components: list[GmrfComponent]):
        if not components:
            raise ValueError("mixture needs at least one component")
        n = components[0].precision.n
        if any(c.precision.n != n for c in components):
            raise DimensionMismatch("components have different dimensions")
        total = sum(c.weight for c in components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        self.components = list(components)
        self.n = n
        self.k = len(components)

    def to_json(self) -> dict:
        return {
            "K": self.k,
            "n": self.n,
            "components": [
                {
                    "weight": c.weight,
                    "mean": c.mean.tolist(),
                    "precision": c.precision.to_json(),
                }
                for c in self.components
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MixtureModel":
        """The model of a to_json object.

        ValueError unless each weight is a JSON number and each mean a list
        of JSON numbers (a numeric string is not one), all of them finite.
        """
        comps = []
        for c in obj["components"]:
            weight, mean = c["weight"], c["mean"]
            if type(weight) not in (int, float) or type(mean) is not list or not (
                set(map(type, mean)) <= {int, float}
            ):
                raise ValueError("component weights and means must be JSON numbers")
            try:
                weight, mean = float(weight), np.asarray(mean, dtype=np.float64)
            except OverflowError:  # an integer too large for a float
                raise ValueError("component weights and means must be finite") from None
            comps.append(
                GmrfComponent(weight=weight, mean=mean, precision=SparseSpd.from_json(c["precision"]))
            )
        if not all(np.isfinite(c.weight) and np.all(np.isfinite(c.mean)) for c in comps):
            raise ValueError("component weights and means must be finite")
        return cls(comps)

    def save(self, path: str) -> None:
        write_atomic_text(path, json.dumps(self.to_json()))

    @classmethod
    def load(cls, path: str) -> "MixtureModel":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# M-step precision estimators


@dataclass
class BaselineEstimator:
    """Unregularized closed-form MLE, Q = S^{-1} (with the tiny ridge guard)."""

    def fit(self, s: np.ndarray, warm: SparseSpd | None, k: int) -> SparseSpd:
        return dense_mle(s)


@dataclass
class GlassoEstimator:
    cfg: GlassoConfig = field(default_factory=GlassoConfig)

    def fit(self, s: np.ndarray, warm: SparseSpd | None, k: int) -> SparseSpd:
        return glasso_solve(s, self.cfg, q0=warm).q


@dataclass
class DebiasedEstimator:
    cfg: GlassoConfig = field(default_factory=GlassoConfig)

    def fit(self, s: np.ndarray, warm: SparseSpd | None, k: int) -> SparseSpd:
        return debias(s, self.cfg, q0=warm).q


@dataclass
class KnownSupportEstimator:
    """Constrained MLE with a (component-specific) fixed support per component."""

    patterns: list[SupportPattern]

    def fit(self, s: np.ndarray, warm: SparseSpd | None, k: int) -> SparseSpd:
        pattern = self.patterns[k] if len(self.patterns) > 1 else self.patterns[0]
        q0 = warm if warm is not None and warm.pattern.issubset(pattern) else None
        return estimate_known_support(s, pattern, q0=q0).q


@dataclass
class EmConfig:
    estimator: object = field(default_factory=BaselineEstimator)
    k: int = 1
    max_em_iters: int = 500
    fix_means_to_zero: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be >= 1")
        if self.max_em_iters < 1:
            raise ValueError("max_em_iters must be >= 1")


# ---------------------------------------------------------------------------
# EM steps


def _log_density(c: GmrfComponent, x: np.ndarray):
    """0.5 log det Q - (n/2) log 2pi - 0.5 (x-mu)^T Q (x-mu), for a point or
    an (N, n) batch; the quadratic form comes from Q's Cholesky factor."""
    q = c.precision
    return 0.5 * q.log_det - 0.5 * q.n * LOG_2PI - 0.5 * q.quad_form(x - c.mean)


def _weighted_log_densities(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """(N, K) matrix of log w_k + log p_k(x_i), vectorized over points."""
    out = np.empty((data.shape[0], model.k))
    for k, c in enumerate(model.components):
        out[:, k] = _log_density(c, data) + np.log(c.weight)
    return out


def e_step(model: MixtureModel, data: np.ndarray):
    """Responsibilities and total log-likelihood, computed in log space."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != model.n:
        raise DimensionMismatch("data dimension differs from model")
    log_w = _weighted_log_densities(model, data)
    row_max = np.max(log_w, axis=1, keepdims=True)
    shifted = np.exp(log_w - row_max)
    row_sum = np.sum(shifted, axis=1, keepdims=True)
    resp = shifted / row_sum
    total_ll = float(np.sum(row_max[:, 0] + np.log(row_sum[:, 0])))
    return resp, total_ll


def weighted_stats(
    data: np.ndarray,
    w: np.ndarray,
    k: int,
    fix_mean_zero: bool = False,
    min_weight: float = 0.0,
):
    """Weighted mean and (1/sum-w normalized) covariance of component k."""
    wk = w[:, k]
    wsum = float(np.sum(wk))
    if wsum <= min_weight * data.shape[0] or wsum <= 0.0:
        raise EmptyComponent(f"component {k} has weight sum {wsum:g}")
    if fix_mean_zero:
        mean = np.zeros(data.shape[1])
        centered = data
    else:
        mean = (wk @ data) / wsum
        centered = data - mean
    s = (centered.T * wk) @ centered / wsum
    s = 0.5 * (s + s.T)
    return mean, s, wsum


def m_step(
    data: np.ndarray,
    w: np.ndarray,
    cfg: EmConfig,
    prev: MixtureModel | None = None,
) -> MixtureModel:
    """Update weights, means and precisions from the responsibilities."""
    n_points = data.shape[0]
    comps = []
    for k in range(cfg.k):
        mean, s, wsum = weighted_stats(data, w, k, cfg.fix_means_to_zero, MIN_COMPONENT_WEIGHT)
        warm = prev.components[k].precision if prev is not None else None
        q = cfg.estimator.fit(s, warm, k)
        comps.append(GmrfComponent(weight=wsum / n_points, mean=mean, precision=q))
    total = sum(c.weight for c in comps)
    for c in comps:
        c.weight /= total
    return MixtureModel(comps)


def _reseed_component(
    w: np.ndarray, k: int, point_ll: np.ndarray, n_dim: int
) -> np.ndarray:
    """Reassign the lowest-likelihood points to a starved component."""
    n_points = w.shape[0]
    m = min(n_points, max(n_dim + 1, n_points // (10 * w.shape[1])))
    worst = np.argsort(point_ll)[:m]
    w = w.copy()
    w[worst, :] *= 0.05
    w[worst, k] = 1.0
    w[worst] /= w[worst].sum(axis=1, keepdims=True)
    return w


def fit_em(data: np.ndarray, cfg: EmConfig, seed: int = 0, init_resp=None):
    """Run EM to convergence of the total log-likelihood.

    Returns (model, ll_trace, responsibilities). Components whose weight
    mass collapses are reseeded from the lowest-likelihood points rather
    than failing the run; if the reseeded M-step still finds an empty
    component, EmptyComponent names the reseeded components and the EM
    iteration (counted from 1). The initial responsibilities are a
    Dirichlet(1, ..., 1) draw per point from the seeded generator, unless
    init_resp gives an explicit (N, K) matrix.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatch("data must be a 2-d array")
    if data.shape[0] < cfg.k:
        raise DimensionMismatch("need at least K data points")
    if init_resp is not None:
        w = np.asarray(init_resp, dtype=np.float64)
        if w.shape != (data.shape[0], cfg.k):
            raise DimensionMismatch("init_resp shape differs from (N, K)")
    else:
        w = np.random.default_rng(seed).dirichlet(np.ones(cfg.k), size=data.shape[0])
    col = w.sum(axis=0)
    if np.any(col < MIN_COMPONENT_WEIGHT * data.shape[0]):
        raise DegenerateInit("initialization produced an empty component")

    model = None
    ll_trace: list[float] = []
    prev_ll = None
    for it in range(1, cfg.max_em_iters + 1):
        try:
            model = m_step(data, w, cfg, prev=model)
        except EmptyComponent:
            if model is None:
                raise DegenerateInit("initialization produced an empty component")
            point_ll = np.logaddexp.reduce(_weighted_log_densities(model, data), axis=1)
            col = w.sum(axis=0)
            starved = np.nonzero(col <= MIN_COMPONENT_WEIGHT * data.shape[0])[0]
            for k in starved:
                w = _reseed_component(w, int(k), point_ll, model.n)
            try:
                model = m_step(data, w, cfg, prev=model)
            except EmptyComponent as exc:
                names = ", ".join(map(str, starved))
                raise EmptyComponent(
                    f"EM iteration {it}: reseeding did not recover component(s) {names} ({exc})"
                ) from exc
        w, ll = e_step(model, data)
        ll_trace.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) <= LL_TOL * abs(ll):
            break
        prev_ll = ll
    return model, ll_trace, w


def predict(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """Hard labels: argmax responsibility, ties toward the smallest index."""
    resp, _ = e_step(model, data)
    return np.argmax(resp, axis=1)
