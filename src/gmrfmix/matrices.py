"""Dense symmetric and pattern-sparse SPD matrix types.

Matrices are stored as full numpy squares; symmetry is an enforced
invariant, not a storage format. Everything here is immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DimensionMismatch, NotSpd

_SYM_RTOL = 1e-12


def check_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate that m is a square symmetric 2-d float array; return it as float64."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if not np.allclose(m, m.T, atol=_SYM_RTOL * scale, rtol=0.0):
        raise DimensionMismatch("matrix is not symmetric")
    return m


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric matrix.

    Only the lower triangle of m is read, so m must already be symmetric;
    callers validate at their own entry point. Raises NotSpd when a pivot
    is non-positive, which is the SPD oracle used throughout the line
    searches.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotSpd(str(exc)) from exc


class SupportPattern:
    """Symmetric set of allowed nonzero index pairs; the diagonal is always included.

    Pairs are normalized to (i, j) with i <= j. Instances are immutable.
    """

    def __init__(self, n: int, pairs=()):
        if n < 1:
            raise DimensionMismatch("pattern dimension must be >= 1")
        self.n = int(n)
        norm = set()
        for i, j in pairs:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise DimensionMismatch(f"pair ({i},{j}) out of range for n={n}")
            norm.add((min(i, j), max(i, j)))
        norm.update((i, i) for i in range(self.n))
        self.pairs = frozenset(norm)
        self._mask = None
        self._index_arrays = None

    @classmethod
    def full(cls, n: int) -> "SupportPattern":
        return cls(n, [(i, j) for i in range(n) for j in range(i, n)])

    @classmethod
    def diagonal(cls, n: int) -> "SupportPattern":
        return cls(n)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "SupportPattern":
        mask = np.asarray(mask, dtype=bool)
        mask = mask | mask.T
        ii, jj = np.nonzero(np.triu(mask))
        return cls(mask.shape[0], zip(ii.tolist(), jj.tolist()))

    @classmethod
    def from_matrix(cls, m: np.ndarray, eps: float = 0.0) -> "SupportPattern":
        """Support of the entries of m with magnitude strictly above eps."""
        m = check_symmetric(m)
        return cls.from_mask(np.abs(m) > eps)

    def mask(self) -> np.ndarray:
        """Boolean n x n mask (symmetric); cached."""
        if self._mask is None:
            mask = np.zeros((self.n, self.n), dtype=bool)
            for i, j in self.pairs:
                mask[i, j] = True
                mask[j, i] = True
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def index_arrays(self):
        """(rows, cols) index arrays over the pairs (i <= j), sorted; cached."""
        if self._index_arrays is None:
            pairs = sorted(self.pairs)
            rows = np.fromiter((p[0] for p in pairs), dtype=np.intp, count=len(pairs))
            cols = np.fromiter((p[1] for p in pairs), dtype=np.intp, count=len(pairs))
            rows.setflags(write=False)
            cols.setflags(write=False)
            self._index_arrays = (rows, cols)
        return self._index_arrays

    def union(self, other: "SupportPattern") -> "SupportPattern":
        if other.n != self.n:
            raise DimensionMismatch("pattern dimensions differ")
        return SupportPattern(self.n, self.pairs | other.pairs)

    def issubset(self, other: "SupportPattern") -> bool:
        return self.n == other.n and self.pairs <= other.pairs

    def __contains__(self, pair) -> bool:
        i, j = pair
        return (min(i, j), max(i, j)) in self.pairs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SupportPattern)
            and self.n == other.n
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self):
        return f"SupportPattern(n={self.n}, pairs={len(self.pairs)})"


class SparseSpd:
    """Symmetric positive-definite matrix stored on a SupportPattern.

    The Cholesky factor and log-determinant are computed once at
    construction, so likelihood evaluations stay O(n^2) per data point.
    Construction fails with NotSpd when the matrix is not positive-definite.
    """

    def __init__(self, matrix: np.ndarray, pattern: SupportPattern | None = None):
        matrix = check_symmetric(matrix)
        n = matrix.shape[0]
        if pattern is None:
            pattern = SupportPattern.from_matrix(matrix)
        if pattern.n != n:
            raise DimensionMismatch("pattern dimension differs from matrix")
        off = matrix[~pattern.mask()]
        if off.size and np.any(off != 0.0):
            raise DimensionMismatch("matrix has nonzeros outside the pattern")
        self.pattern = pattern
        self.n = n
        self._dense = matrix.copy()
        self._dense.setflags(write=False)
        self.chol = cholesky(self._dense)
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        # index arrays over the pattern (i <= j), used for O(|pattern|) sums
        self.pair_rows, self.pair_cols = pattern.index_arrays()

    @property
    def dense(self) -> np.ndarray:
        return self._dense

    def values(self) -> np.ndarray:
        """One value per pattern pair (i <= j), in sorted pair order."""
        return self._dense[self.pair_rows, self.pair_cols]

    def quad_form(self, d: np.ndarray) -> np.ndarray:
        """d^T Q d through the pattern entries only.

        Accepts a single vector or an (N, n) batch; returns a scalar or an
        (N,) array.
        """
        d = np.asarray(d, dtype=np.float64)
        single = d.ndim == 1
        if single:
            d = d[None, :]
        if d.shape[1] != self.n:
            raise DimensionMismatch("vector length differs from matrix dimension")
        v = self.values()
        prod = d[:, self.pair_rows] * d[:, self.pair_cols] * v
        doubled = np.where(self.pair_rows != self.pair_cols, 2.0, 1.0)
        out = prod @ doubled
        return float(out[0]) if single else out

    def to_json(self) -> dict:
        trips = [
            [int(i), int(j), float(self._dense[i, j])]
            for i, j in sorted(self.pattern.pairs)
        ]
        return {"n": self.n, "triplets": trips}

    @classmethod
    def from_json(cls, obj: dict) -> "SparseSpd":
        n = int(obj["n"])
        m = np.zeros((n, n))
        pairs = []
        for i, j, v in obj["triplets"]:
            i, j = int(i), int(j)
            m[i, j] = v
            m[j, i] = v
            pairs.append((i, j))
        return cls(m, SupportPattern(n, pairs))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path: str) -> "SparseSpd":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def spd_inverse(q: SparseSpd) -> np.ndarray:
    """Dense inverse of a pattern-sparse SPD matrix, symmetrized.

    Computed by LU inversion of q.dense (np.linalg.inv); the average with
    its transpose removes the rounding asymmetry.
    """
    inv = np.linalg.inv(q.dense)
    return 0.5 * (inv + inv.T)


def project_to_pattern(m: np.ndarray, pattern: SupportPattern) -> np.ndarray:
    """Zero every entry of m outside the pattern."""
    if m.shape != (pattern.n, pattern.n):
        raise DimensionMismatch("matrix dimension differs from pattern")
    return np.where(pattern.mask(), m, 0.0)


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a symmetric matrix."""
    return np.linalg.eigvalsh(check_symmetric(m))


def save_dense_csv(m: np.ndarray, path: str) -> None:
    np.savetxt(path, np.asarray(m, dtype=np.float64), delimiter=",", fmt="%.17g")


def load_dense_csv(path: str) -> np.ndarray:
    """Load a comma-separated 2-d array; ValueError names the file on NaN or Inf."""
    m = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path} contains NaN or Inf values")
    return m


def write_atomic_text(path: str, text: str) -> None:
    """Write text to path via a temp file + rename."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
