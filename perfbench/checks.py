"""Correctness checks for the benchmark's outputs.

Every check recomputes what it compares against with numpy, scipy or plain
Python, apart from gmrfmix, or tests a property the method must have. None
compares against a stored copy of an earlier output. Each check raises
CheckFailed with a one-line reason.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.special import logsumexp
from scipy.stats import multivariate_normal


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def empirical_cov(data: np.ndarray) -> np.ndarray:
    s = data.T @ data / data.shape[0]
    return 0.5 * (s + s.T)


def grid_mask(rows: int, cols: int) -> np.ndarray:
    """Boolean mask of the 5-point stencil on a rows x cols grid, diagonal included."""
    n = rows * cols
    mask = np.eye(n, dtype=bool)
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                mask[i, i + 1] = mask[i + 1, i] = True
            if r + 1 < rows:
                mask[i, i + cols] = mask[i + cols, i] = True
    return mask


def check_spd(q: np.ndarray, what: str) -> None:
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        raise CheckFailed(f"{what} fails Cholesky") from None


def check_on_pattern(q: np.ndarray, mask: np.ndarray, what: str) -> None:
    off = np.count_nonzero(q[~mask])
    require(off == 0, f"{what} has {off} nonzero entries off its pattern")


def check_stationary(q: np.ndarray, s: np.ndarray, mask: np.ndarray, tol: float, what: str) -> None:
    """max |(S - Q^-1)_ij| over the pattern must not exceed tol."""
    gap = float(np.max(np.abs(s - np.linalg.inv(q))[mask]))
    require(gap <= tol, f"{what}: max |S - Q^-1| on the pattern is {gap:.3g} > {tol:g}")


def glasso_kkt(q: np.ndarray, s: np.ndarray, lam: float) -> float:
    """Max stationarity violation of the diagonal-unpenalized l1 problem at Q."""
    w = np.linalg.inv(q)
    resid = 0.5 * (w + w.T) - s
    off = ~np.eye(q.shape[0], dtype=bool)
    worst = float(np.max(np.abs(np.diag(resid))))
    nz = off & (q != 0.0)
    if nz.any():
        worst = max(worst, float(np.max(np.abs(resid - lam * np.sign(q))[nz])))
    z = off & (q == 0.0)
    if z.any():
        worst = max(worst, float(np.max(np.abs(resid[z]) - lam)))
    return worst


def check_glasso_kkt(q: np.ndarray, s: np.ndarray, lam: float, tol: float) -> None:
    kkt = glasso_kkt(q, s, lam)
    require(kkt <= tol, f"glasso KKT residual {kkt:.3g} > {tol:g}")


def mean_rel_eig_error(true_eigs, est_eigs) -> float:
    t = np.sort(np.asarray(true_eigs, dtype=float))
    e = np.sort(np.asarray(est_eigs, dtype=float))
    return float(np.mean(np.abs(e - t) / t))


def check_eigenvalues(reported, q: np.ndarray, what: str) -> None:
    ref = np.linalg.eigvalsh(q)
    got = np.asarray(reported, dtype=float)
    require(got.shape == ref.shape, f"{what}: {got.size} eigenvalues reported, {ref.size} expected")
    gap = float(np.max(np.abs(got - ref)))
    require(gap <= 1e-8 * float(np.max(np.abs(ref))), f"{what}: eigenvalues off by {gap:.3g}")


def mixture_log_densities(weights, precisions, data: np.ndarray) -> np.ndarray:
    """(N, K) log(w_k) + log N(x; 0, Q_k^-1), through scipy."""
    cols = []
    for w, q in zip(weights, precisions):
        cov = np.linalg.inv(q)
        cov = 0.5 * (cov + cov.T)
        cols.append(math.log(w) + multivariate_normal.logpdf(data, mean=np.zeros(q.shape[0]), cov=cov))
    return np.column_stack(cols)


def check_mixture(weights, precisions, data: np.ndarray, total_ll: float, resp=None, pred=None) -> None:
    """The EM invariants of a fitted zero-mean mixture and its reported log-likelihood."""
    require(abs(sum(weights) - 1.0) <= 1e-12, f"weights sum to {sum(weights)!r}")
    for k, q in enumerate(precisions):
        check_spd(q, f"component {k} precision")
    log_p = mixture_log_densities(weights, precisions, data)
    ref = float(np.sum(logsumexp(log_p, axis=1)))
    require(
        abs(total_ll - ref) <= 1e-8 * abs(ref),
        f"total log-likelihood {total_ll!r} differs from scipy's {ref!r}",
    )
    if resp is not None:
        resp = np.asarray(resp)
        require(resp.shape == log_p.shape, f"responsibilities have shape {resp.shape}")
        worst = float(np.max(np.abs(resp.sum(axis=1) - 1.0)))
        require(worst <= 1e-12, f"a responsibility row sums to 1 {worst:+.3g}")
    if pred is not None:
        pred = np.asarray(pred)
        require(pred.shape == (data.shape[0],), f"{pred.shape} labels predicted for {data.shape[0]} rows")
        top2 = np.sort(log_p, axis=1)[:, -2:]
        near_tie = top2[:, 1] - top2[:, 0] <= 1e-8 * np.abs(top2[:, 1])
        wrong = (pred != np.argmax(log_p, axis=1)) & ~near_tie
        require(not wrong.any(), f"{int(wrong.sum())} predicted labels are not the most likely component")


def check_ll_trace(trace, what: str) -> None:
    arr = np.asarray(trace, dtype=float)
    require(arr.size >= 1, f"{what}: empty log-likelihood trace")
    drops = np.diff(arr) < -1e-8 * np.abs(arr[:-1])
    require(not drops.any(), f"{what}: log-likelihood decreases at iteration {int(np.argmax(drops)) + 1}")


def brute_force_nmi_vi(a, b) -> tuple[float, float]:
    """NMI (arithmetic-mean normalizer) and VI, natural logs, from raw counts."""
    a = [int(x) for x in a]
    b = [int(x) for x in b]
    n = len(a)
    ca, cb, cab = Counter(a), Counter(b), Counter(zip(a, b))
    ha = -sum(c / n * math.log(c / n) for c in ca.values())
    hb = -sum(c / n * math.log(c / n) for c in cb.values())
    mi = sum(c / n * math.log(c * n / (ca[x] * cb[y])) for (x, y), c in cab.items())
    if ha == 0.0 and hb == 0.0:
        nmi = 1.0
    elif ha == 0.0 or hb == 0.0:
        nmi = 0.0
    else:
        nmi = mi / (0.5 * (ha + hb))
    return nmi, max(0.0, ha + hb - 2.0 * mi)


def check_clustering_metrics(metrics: dict, labels, pred) -> None:
    nmi, vi = brute_force_nmi_vi(labels, pred)
    require(abs(metrics["nmi"] - nmi) <= 1e-10, f"NMI {metrics['nmi']!r} but counting gives {nmi!r}")
    require(abs(metrics["vi"] - vi) <= 1e-10, f"VI {metrics['vi']!r} but counting gives {vi!r}")
    counts = [0] * len(metrics["component_counts"])
    for p in pred:
        counts[int(p)] += 1
    require(counts == metrics["component_counts"], "component counts differ from the predictions")
