"""Dense symmetric and pattern-sparse SPD matrix types.

Matrices are stored as full numpy squares; symmetry is an enforced
invariant, not a storage format. `check_symmetric` checks a matrix that a
library caller passes in: square, finite, then symmetric. Everything here
is immutable after construction and safe to share across workers: a
SupportPattern holds two read-only views and sets nothing later. The one
exception is a SparseSpd's dense inverse, which `spd_inverse` fills once,
on first use.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import uuid
import warnings

import numpy as np

from .errors import DimensionMismatch, NotSpd

_SYM_RTOL = 1e-12


def check_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate that m is a square symmetric 2-d float array; return it as float64.

    ValueError on a NaN or an infinite entry, before symmetry is tested.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has NaN or Inf entries")
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

    Stored as two read-only views of the same set, both built once at
    construction: the symmetric boolean n x n mask (diagonal set) and the
    (rows, cols) index arrays of its upper triangle (i <= j) in row-major
    order. Instances are immutable: nothing is set after construction.
    """

    def __init__(self, n: int, pairs=()):
        if n < 1:
            raise DimensionMismatch("pattern dimension must be >= 1")
        n = int(n)
        ij = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.intp)
        ij = ij.reshape(len(ij), 2)
        bad = np.any((ij < 0) | (ij >= n), axis=1)
        if bad.any():
            i, j = ij[np.argmax(bad)]
            raise DimensionMismatch(f"pair ({i},{j}) out of range for n={n}")
        mask = np.eye(n, dtype=bool)
        mask[ij[:, 0], ij[:, 1]] = True
        mask[ij[:, 1], ij[:, 0]] = True
        self._store(mask)

    def _store(self, mask: np.ndarray) -> None:
        """Keep a symmetric mask with its diagonal set, and its upper-triangle indices."""
        self.n = mask.shape[0]
        # divmod of flat indices gives contiguous arrays (np.nonzero's are strided views)
        self._rows, self._cols = np.divmod(np.flatnonzero(np.triu(mask)), self.n)
        for a in (mask, self._rows, self._cols):
            a.setflags(write=False)
        self._mask = mask

    @classmethod
    def full(cls, n: int) -> "SupportPattern":
        return cls.from_mask(np.ones((n, n), dtype=bool))

    @classmethod
    def diagonal(cls, n: int) -> "SupportPattern":
        return cls(n)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "SupportPattern":
        """Pattern of mask | mask.T plus the diagonal."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1] or mask.shape[0] < 1:
            raise DimensionMismatch(f"expected a non-empty square mask, got shape {mask.shape}")
        pattern = cls.__new__(cls)
        pattern._store(mask | mask.T | np.eye(mask.shape[0], dtype=bool))
        return pattern

    @classmethod
    def from_json(cls, obj) -> "SupportPattern":
        """Pattern of the pairs of a SparseSpd JSON object; its values must be finite too."""
        n, ij, _ = _read_triplets(obj)
        return cls(n, ij)

    def mask(self) -> np.ndarray:
        """Boolean n x n mask (symmetric, diagonal set); read-only."""
        return self._mask

    def index_arrays(self):
        """(rows, cols) index arrays over the pairs (i <= j), in row-major order; read-only."""
        return self._rows, self._cols

    def issubset(self, other: "SupportPattern") -> bool:
        return self.n == other.n and not np.any(self._mask & ~other._mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SupportPattern)
            and self.n == other.n
            and np.array_equal(self._mask, other._mask)
        )

    def __hash__(self):
        return hash((self.n, self._mask.tobytes()))

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self):
        return f"SupportPattern(n={self.n}, pairs={len(self)})"


class SparseSpd:
    """Symmetric positive-definite matrix stored on a SupportPattern.

    The lower Cholesky factor L (Q = L L^T) and the log-determinant are
    computed once at construction; `quad_form` reuses L, so it costs one
    product with the n x n factor, O(n^2), per data point. The dense
    inverse is computed on the first `spd_inverse` call and kept.
    Construction fails with NotSpd when the matrix is not positive-definite.
    """

    def __init__(self, matrix: np.ndarray, pattern: SupportPattern | None = None):
        matrix = check_symmetric(matrix)
        if pattern is None:
            pattern = SupportPattern.from_mask(matrix != 0.0)
        if pattern.n != matrix.shape[0]:
            raise DimensionMismatch("pattern dimension differs from matrix")
        off = matrix[~pattern.mask()]
        if off.size and np.any(off != 0.0):
            raise DimensionMismatch("matrix has nonzeros outside the pattern")
        self._store(matrix.copy(), pattern)

    def _store(self, matrix: np.ndarray, pattern: SupportPattern) -> None:
        """Keep the matrix (not copied; made read-only) and its Cholesky factor."""
        matrix.setflags(write=False)
        self.pattern = pattern
        self.n = pattern.n
        self._dense = matrix
        self.chol = cholesky(matrix)
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        self._inverse = None  # filled by spd_inverse

    @classmethod
    def _stored(cls, matrix: np.ndarray, pattern: SupportPattern) -> "SparseSpd":
        """A float64 matrix the package built symmetric and on the pattern: __init__'s
        checks are skipped, the Cholesky factorization (NotSpd) is not."""
        q = cls.__new__(cls)
        q._store(matrix, pattern)
        return q

    @property
    def dense(self) -> np.ndarray:
        return self._dense

    def values(self) -> np.ndarray:
        """One value per pattern pair (i <= j), in sorted pair order."""
        return self._dense[self.pattern.index_arrays()]

    def quad_form(self, d: np.ndarray) -> np.ndarray:
        """d^T Q d as the squared norm of L^T d, from the cached Cholesky factor.

        Accepts a single vector or an (N, n) batch; returns a float or an
        (N,) array. A batch needs one (N, n) temporary, z = d @ L.
        """
        d = np.asarray(d, dtype=np.float64)
        single = d.ndim == 1
        if single:
            d = d[None, :]
        if d.shape[1] != self.n:
            raise DimensionMismatch("vector length differs from matrix dimension")
        z = d @ self.chol
        out = np.einsum("ij,ij->i", z, z)
        return float(out[0]) if single else out

    def to_json(self) -> dict:
        """{"n": n, "triplets": [[i, j, value], ...]} over the pattern pairs (i <= j)."""
        rows, cols = self.pattern.index_arrays()
        fields = (rows.tolist(), cols.tolist(), self.values().tolist())
        return {"n": self.n, "triplets": list(map(list, zip(*fields)))}

    @classmethod
    def from_json(cls, obj) -> "SparseSpd":
        """The matrix of a to_json object, each triplet setting (i, j) and (j, i)."""
        n, ij, values = _read_triplets(obj)
        lo, hi = ij.min(axis=1), ij.max(axis=1)
        m = np.zeros((n, n))
        m[lo, hi] = m[hi, lo] = values
        return cls._stored(m, SupportPattern(n, ij))

    def save(self, path: str) -> None:
        write_atomic_text(path, json.dumps(self.to_json()))

    @classmethod
    def load(cls, path: str) -> "SparseSpd":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _read_triplets(obj) -> tuple[int, np.ndarray, np.ndarray]:
    """n, the (m, 2) integer pairs and the m values of {"n": n, "triplets": [[i, j, value], ...]}.

    The one reader of the format SparseSpd.to_json writes. ValueError unless
    n is a JSON integer >= 1 and each triplet is three JSON numbers: integers
    i and j in [0, n), and a finite value; and unless each unordered pair
    {i, j} appears in one triplet at most.
    """
    if not isinstance(obj, dict) or not {"n", "triplets"} <= obj.keys():
        raise ValueError('expected an object with keys "n" and "triplets"')
    n, trips = obj["n"], obj["triplets"]
    if type(n) is not int or n < 1:
        raise ValueError(f'"n" must be an integer >= 1, got {json.dumps(n)}')
    if type(trips) is not list or not (
        set(map(type, trips)) <= {list}
        and set(map(len, trips)) <= {3}
        and set(map(type, itertools.chain.from_iterable(trips))) <= {int, float}
    ):
        raise ValueError('"triplets" must be a list of [i, j, value] lists of numbers')
    try:
        trips = np.array(trips, dtype=np.float64).reshape(len(trips), 3)
    except OverflowError:  # an integer too large for a float
        raise ValueError('"triplets" holds a number too large for a float') from None
    ij = trips[:, :2]
    bad = np.any((ij != np.floor(ij)) | (ij < 0) | (ij >= n), axis=1) | ~np.isfinite(trips[:, 2])
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"triplet {k} {trips[k].tolist()}: need integers i, j in [0, {n}) and a finite value"
        )
    _, first, pair = np.unique(np.sort(ij, axis=1), axis=0, return_index=True, return_inverse=True)
    first = first[pair.reshape(-1)]  # per triplet, the first triplet on its unordered pair
    repeat = first != np.arange(len(ij))
    if repeat.any():
        k = int(np.argmax(repeat))
        raise ValueError(
            f"triplet {k} {trips[k].tolist()}: repeats the pair of triplet {first[k]};"
            " each unordered pair may appear once"
        )
    return n, ij.astype(np.intp), trips[:, 2]


def spd_inverse(q: SparseSpd) -> np.ndarray:
    """Dense inverse of a pattern-sparse SPD matrix, symmetrized; read-only.

    Computed once per matrix, on the first call, by LU inversion of q.dense
    (np.linalg.inv); the average with its transpose removes the rounding
    asymmetry. Later calls return the same array.
    """
    if q._inverse is None:
        inv = np.linalg.inv(q.dense)
        inv = 0.5 * (inv + inv.T)
        inv.setflags(write=False)
        q._inverse = inv
    return q._inverse


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a symmetric matrix."""
    return np.linalg.eigvalsh(check_symmetric(m))


def save_dense_csv(m: np.ndarray, path: str) -> None:
    buf = io.StringIO()
    np.savetxt(buf, np.asarray(m, dtype=np.float64), delimiter=",", fmt="%.17g")
    write_atomic_text(path, buf.getvalue())


def _load_text(path: str, **kwargs) -> np.ndarray:
    """np.loadtxt without its empty-file warning; ValueError names the file on
    no data or on text that does not parse."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            m = np.loadtxt(path, **kwargs)
        except ValueError as exc:
            # without numpy's hint at `usecols`, a loadtxt option the CLI does not have
            reason = str(exc).split("; use `usecols`")[0]
            raise ValueError(f"{path}: {reason}") from None
    if m.size == 0:
        raise ValueError(f"{path} contains no data")
    return m


def load_labels(path: str) -> np.ndarray:
    """Load integer labels, one per line; ValueError names the file on no data."""
    return _load_text(path, dtype=int, ndmin=1)


def load_dense_csv(path: str) -> np.ndarray:
    """Load a comma-separated 2-d array; ValueError names the file on NaN, Inf or no data."""
    m = _load_text(path, delimiter=",", dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path} contains NaN or Inf values")
    return m


def write_atomic_text(path: str, text: str) -> None:
    """Write text to path via a uniquely named temp file beside it + rename.

    Readers see the old file or the new one, never a partial write, and
    concurrent writers do not share a temp file. The temp file is removed
    if the write or the rename fails.
    """
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        fh = open(tmp, "x")
    except FileNotFoundError as exc:  # a missing directory: name the file asked for
        raise FileNotFoundError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
