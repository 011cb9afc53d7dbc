"""Clustering metrics and spectral bias diagnostics.

NMI uses the arithmetic mean of entropies as its normalizer; both metrics
use natural logarithms. The bias report compares estimator spectra against
a ground-truth precision and records Gershgorin and stationarity data for
a graphical-lasso estimate, reading its residuals from `glasso.stationarity_gap`.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyInput, LengthMismatch
from .glasso import GlassoConfig, stationarity_gap
from .matrices import SparseSpd, eigenvalues_sym, spd_inverse, write_atomic_text


def contingency_table(a, b) -> np.ndarray:
    """Count matrix of the joint labeling; rows index a's clusters."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch("label vectors must be 1-d and equal length")
    if a.size == 0:
        raise EmptyInput("empty labelings")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    counts = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(counts, (ai, bi), 1)
    return counts


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def _mutual_information(counts: np.ndarray) -> float:
    n = counts.sum()
    p = counts / n
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / (pa @ pb)[nz])))


def nmi(a, b) -> float:
    """I(A;B) / mean(H(A), H(B)).

    Conventions: 1.0 when both partitions are single-cluster, 0.0 when
    exactly one of them is.
    """
    counts = contingency_table(a, b)
    ha = _entropy(counts.sum(axis=1) / counts.sum())
    hb = _entropy(counts.sum(axis=0) / counts.sum())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return _mutual_information(counts) / (0.5 * (ha + hb))


def vi(a, b) -> float:
    """Variation of information H(A) + H(B) - 2 I(A;B), natural logs."""
    counts = contingency_table(a, b)
    ha = _entropy(counts.sum(axis=1) / counts.sum())
    hb = _entropy(counts.sum(axis=0) / counts.sum())
    return max(0.0, ha + hb - 2.0 * _mutual_information(counts))


@dataclass
class BiasReport:
    eigenvalues: dict = field(default_factory=dict)  # name -> ascending list
    mean_rel_error: dict = field(default_factory=dict)  # name -> float
    gershgorin: dict | None = None  # per-row centers, radii, bound data
    kkt_signs: list | None = None  # per-entry stationarity/sign table
    nmi_normalization: str = "arithmetic-mean"

    def to_json(self) -> dict:
        return {
            "eigenvalues": {k: list(map(float, v)) for k, v in self.eigenvalues.items()},
            "mean_rel_error": {k: float(v) for k, v in self.mean_rel_error.items()},
            "gershgorin": self.gershgorin,
            "kkt_signs": self.kkt_signs,
            "nmi_normalization": self.nmi_normalization,
        }

    def save(self, path: str) -> None:
        write_atomic_text(path, json.dumps(self.to_json(), indent=2))


def mean_relative_eigenvalue_error(true_eigs: np.ndarray, est_eigs: np.ndarray) -> float:
    """Mean of |est_i - true_i| / true_i after sorting both spectra ascending."""
    t = np.sort(np.asarray(true_eigs, dtype=np.float64))
    e = np.sort(np.asarray(est_eigs, dtype=np.float64))
    if t.shape != e.shape:
        raise DimensionMismatch("spectra have different lengths")
    return float(np.mean(np.abs(e - t) / t))


def bias_report(
    q_true: SparseSpd,
    s: np.ndarray,
    estimates: dict,
    lam: float,
) -> BiasReport:
    """Spectral comparison of estimates against the true precision.

    For the estimate named "glasso", additionally records per-row
    Gershgorin data of its inverse (centers S_ii, disc radii, and the bound
    built from the stationarity error matrix E = (W - S) / lambda) and the
    per-entry sign table over its off-diagonal nonzeros with |S_ij| > lambda,
    with the share of them where sign(S_ij) = -sign(Q_ij) (1.0 if none) and
    the largest stationarity gap over all its off-diagonal nonzeros.
    """
    true_eigs = eigenvalues_sym(q_true.dense)
    report = BiasReport()
    report.eigenvalues["truth"] = true_eigs.tolist()
    report.mean_rel_error["truth"] = 0.0
    for name, est in estimates.items():
        if est.n != q_true.n:
            raise DimensionMismatch(f"estimate {name!r} has wrong dimension")
        eigs = eigenvalues_sym(est.dense)
        report.eigenvalues[name] = eigs.tolist()
        report.mean_rel_error[name] = mean_relative_eigenvalue_error(true_eigs, eigs)

    if "glasso" in estimates and lam > 0:
        q = estimates["glasso"]
        w = spd_inverse(q)
        off = ~np.eye(q.n, dtype=bool)
        in_supp = (q.dense != 0.0) & off
        e_mat = (w - s) / lam
        bound_in = np.sum(np.where(in_supp, np.abs(s) - lam, 0.0), axis=1)
        bound_out = np.sum(
            np.where(off & ~in_supp, np.abs(s - lam * e_mat), 0.0), axis=1
        )
        resid = stationarity_gap(q.dense, w, s, GlassoConfig(lam=lam))
        eligible = in_supp & (np.abs(s) > lam)
        opposed = np.sign(s[eligible]) == -np.sign(q.dense[eligible])
        report.gershgorin = {
            "centers": np.diag(s).tolist(),
            "radii": np.sum(np.where(off, np.abs(w), 0.0), axis=1).tolist(),
            "bound": (bound_in + bound_out).tolist(),
            "sign_opposition_fraction": float(np.mean(opposed)) if opposed.size else 1.0,
            "max_kkt_residual": float(np.max(resid[in_supp], initial=0.0)),
        }
        ii, jj = np.nonzero(np.triu(eligible))
        columns = (ii, jj, np.sign(s[ii, jj]), np.sign(q.dense[ii, jj]), resid[ii, jj])
        keys = ("i", "j", "sign_s", "sign_q", "residual")
        report.kkt_signs = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]
    return report


def save_eigenvalue_csv(report: BiasReport, path: str) -> None:
    """Flat CSV of sorted eigenvalues per estimator, one column per name."""
    names = sorted(report.eigenvalues)
    cols = [report.eigenvalues[n] for n in names]
    arr = np.column_stack(cols)
    buf = io.StringIO()
    np.savetxt(buf, arr, delimiter=",", header=",".join(names), comments="", fmt="%.17g")
    write_atomic_text(path, buf.getvalue())
