"""Synthetic GMRF precision matrices and an exact sampler.

Two generators: the homogeneous 2D Laplacian precision on a lattice
(truncated, Dirichlet-style boundary, so the operator stays SPD) and a
randomized anisotropic-diffusion precision on a grid. Sampling solves
L^T x = z against the cached Cholesky factor, so samples have covariance
Q^{-1} exactly in distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .matrices import SparseSpd, SupportPattern, save_dense_csv, write_atomic_text


@dataclass(frozen=True)
class LatticeSpec:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("lattice dimensions must be >= 1")


@dataclass(frozen=True)
class DiffusionSpec:
    rows: int
    cols: int
    coeff_low: float = 0.1
    coeff_high: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        if not 0 < self.coeff_low <= self.coeff_high < np.inf:  # also rejects NaN
            raise ValueError("need 0 < coeff_low <= coeff_high < inf")


def _grid_edges(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (i, j), i < j, of the 5-point grid edges, nodes numbered row-major.

    Horizontal edges come first, then vertical ones, each row by row.
    """
    node = np.arange(rows * cols).reshape(rows, cols)
    i = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    j = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    return i, j


def _grid_pattern(rows: int, cols: int) -> SupportPattern:
    """5-point neighbor pattern on a rows x cols grid (row-major indexing)."""
    return SupportPattern(rows * cols, np.column_stack(_grid_edges(rows, cols)))


def laplacian2d_precision(spec: LatticeSpec) -> SparseSpd:
    """Precision from the 5-point Laplacian stencil, diagonal 4 everywhere.

    Missing neighbors at the boundary are simply absent, which makes the
    boundary rows strictly diagonally dominant and the matrix SPD.
    """
    n = spec.rows * spec.cols
    q = 4.0 * np.eye(n)
    i, j = _grid_edges(spec.rows, spec.cols)
    q[i, j] = q[j, i] = -1.0
    return SparseSpd._stored(q, _grid_pattern(spec.rows, spec.cols))


def diffusion_precision(spec: DiffusionSpec) -> SparseSpd:
    """Finite-difference anisotropic diffusion precision on a grid.

    Q = Dx^T diag(a_e) Dx + Dy^T diag(b_e) Dy + eps I, with node
    coefficients drawn i.i.d. uniform [coeff_low, coeff_high], edge
    coefficients the arithmetic mean of the adjacent nodes, and
    eps = 1e-2 * coeff_low anchoring the pure-Neumann null space.
    """
    rows, cols = spec.rows, spec.cols
    n = rows * cols
    rng = np.random.default_rng(spec.seed)
    a = rng.uniform(spec.coeff_low, spec.coeff_high, size=(rows, cols))
    b = rng.uniform(spec.coeff_low, spec.coeff_high, size=(rows, cols))
    # horizontal edges use a, vertical ones b
    coeff = 0.5 * np.concatenate([(a[:, :-1] + a[:, 1:]).ravel(), (b[:-1] + b[1:]).ravel()])
    i, j = _grid_edges(rows, cols)
    q = np.zeros((n, n))
    # each diagonal sums its edges in edge order (i, then j, per edge); the order fixes rounding
    ends = np.column_stack([i, j]).ravel()
    np.add.at(q, (ends, ends), np.repeat(coeff, 2))
    q[i, j] = q[j, i] = -coeff
    q += 1e-2 * spec.coeff_low * np.eye(n)
    return SparseSpd._stored(q, _grid_pattern(rows, cols))


def sample_gmrf(
    q: SparseSpd, mean: np.ndarray | None, count: int, seed=0
) -> np.ndarray:
    """Draw exact samples: z ~ N(0, I), solve L^T x = z, add the mean."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((q.n, count))
    x = solve_triangular(q.chol, z, lower=True, trans="T")
    data = x.T
    if mean is not None:
        data = data + np.asarray(mean, dtype=np.float64)
    return data


def make_clustering_dataset(
    k: int,
    spec: DiffusionSpec,
    samples_low: int,
    samples_high: int,
    seed: int = 0,
):
    """K zero-mean diffusion components, shuffled samples with labels.

    Per-component sample counts are uniform integers in [samples_low,
    samples_high]. All randomness is derived from the seed through a
    spawned SeedSequence per purpose, so outputs are bit-reproducible.
    """
    if k < 1:
        raise ValueError(f"need k >= 1 components, got {k}")
    if not 1 <= samples_low <= samples_high:
        raise ValueError("need 1 <= samples_low <= samples_high")
    children = np.random.SeedSequence(seed).spawn(2 * k + 2)
    prec_seeds = children[:k]
    sample_seeds = children[k : 2 * k]
    count_seed, shuffle_seed = children[2 * k], children[2 * k + 1]
    precisions = [
        diffusion_precision(
            DiffusionSpec(
                spec.rows, spec.cols, spec.coeff_low, spec.coeff_high,
                seed=prec_seeds[i],
            )
        )
        for i in range(k)
    ]
    counts = np.random.default_rng(count_seed).integers(
        samples_low, samples_high + 1, size=k
    )
    blocks = [
        sample_gmrf(precisions[i], None, int(counts[i]), seed=sample_seeds[i])
        for i in range(k)
    ]
    data = np.vstack(blocks)
    labels = np.repeat(np.arange(k), counts)
    perm = np.random.default_rng(shuffle_seed).permutation(data.shape[0])
    return data[perm], labels[perm], precisions


def save_dataset(
    out_dir: str,
    data: np.ndarray,
    labels: np.ndarray | None,
    precisions: list[SparseSpd],
    metadata: dict,
):
    """Write data CSV, labels CSV, truth JSON and metadata JSON to a directory."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    save_dense_csv(data, os.path.join(out_dir, "data.csv"))
    if labels is not None:
        text = "".join(f"{v}\n" for v in np.asarray(labels, dtype=int).tolist())
        write_atomic_text(os.path.join(out_dir, "labels.csv"), text)
    truth = [q.to_json() for q in precisions]
    write_atomic_text(os.path.join(out_dir, "truth.json"), json.dumps(truth))
    write_atomic_text(os.path.join(out_dir, "metadata.json"), json.dumps(metadata))

