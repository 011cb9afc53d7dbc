import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrfmix.errors import DimensionMismatch, NotSpd
from gmrfmix.matrices import (
    SparseSpd,
    SupportPattern,
    cholesky,
    eigenvalues_sym,
    load_dense_csv,
    save_dense_csv,
    spd_inverse,
    write_atomic_text,
)


def random_spd(n, rng, density=1.0):
    a = rng.standard_normal((n, n))
    m = a @ a.T + n * np.eye(n)
    return 0.5 * (m + m.T)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factor(self):
        m = np.array([[4.0, 2.0], [2.0, 3.0]])
        l = cholesky(m)
        assert np.allclose(l, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(l @ l.T, m, rtol=1e-10)

    def test_indefinite_raises(self):
        with pytest.raises(NotSpd):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_fails_iff_min_eigenvalue_nonpositive(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(2, 21)
            a = rng.standard_normal((n, n))
            m = 0.5 * (a + a.T)
            min_eig = eigenvalues_sym(m)[0]
            try:
                cholesky(m)
                ok = True
            except NotSpd:
                ok = False
            assert ok == (min_eig > 0)

    def test_reconstruction_relative_error(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_spd(8, rng)
            l = cholesky(m)
            err = np.linalg.norm(l @ l.T - m) / np.linalg.norm(m)
            assert err < 1e-10


class TestSupportPattern:
    def test_diagonal_always_included(self):
        p = SupportPattern(3, [(0, 1)])
        for i in range(3):
            assert p.mask()[i, i]

    def test_symmetric_membership(self):
        p = SupportPattern(4, [(2, 0)])
        assert p.mask()[0, 2] and p.mask()[2, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionMismatch):
            SupportPattern(2, [(0, 2)])

    def test_mask_roundtrip(self):
        rng = np.random.default_rng(0)
        mask = rng.random((5, 5)) < 0.4
        mask = mask | mask.T
        np.fill_diagonal(mask, True)
        p = SupportPattern.from_mask(mask)
        assert np.array_equal(p.mask(), mask)

    def test_full_and_diagonal(self):
        assert len(SupportPattern.full(4)) == 10
        assert len(SupportPattern.diagonal(4)) == 4


@st.composite
def pair_lists(draw):
    """(n, list of index pairs) with n <= 12, pairs in either orientation."""
    n = draw(st.integers(1, 12))
    idx = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(idx, idx), max_size=3 * n))


@st.composite
def masks(draw):
    n = draw(st.integers(1, 12))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(bits, dtype=bool).reshape(n, n)


def pair_set(n, pairs):
    """The pattern as a Python set of normalized pairs plus the diagonal (reference)."""
    return {(min(i, j), max(i, j)) for i, j in pairs} | {(i, i) for i in range(n)}


class TestSupportPatternProperties:
    @settings(max_examples=60, deadline=None)
    @given(pair_lists())
    def test_index_arrays_are_the_sorted_pair_set(self, case):
        n, pairs = case
        rows, cols = SupportPattern(n, pairs).index_arrays()
        assert list(zip(rows.tolist(), cols.tolist())) == sorted(pair_set(n, pairs))

    @settings(max_examples=60, deadline=None)
    @given(masks())
    def test_from_mask_symmetrizes_and_sets_diagonal(self, m):
        p = SupportPattern.from_mask(m)
        assert np.array_equal(p.mask(), m | m.T | np.eye(len(m), dtype=bool))
        assert p == SupportPattern(len(m), zip(*np.nonzero(m)))

    @settings(max_examples=60, deadline=None)
    @given(pair_lists(), pair_lists())
    def test_set_semantics(self, a, b):
        (n, pa), (nb, pb) = a, b
        p, ref = SupportPattern(n, pa), pair_set(n, pa)
        assert len(p) == len(ref)
        for i in range(n):
            for j in range(n):
                assert p.mask()[i, j] == ((min(i, j), max(i, j)) in ref)
        q = SupportPattern(nb, pb)
        assert p.issubset(q) == (n == nb and ref <= pair_set(nb, pb))
        grown = SupportPattern(n, pa + [(i, j) for i, j in pb if max(i, j) < n])
        assert p.issubset(grown) and grown.issubset(p) == (grown == p)
        assert (p == q) == (n == nb and ref == pair_set(nb, pb))
        for other in (q, grown, SupportPattern.from_mask(p.mask())):
            assert p != other or hash(p) == hash(other)

    @settings(max_examples=40, deadline=None)
    @given(masks(), st.integers(0, 2**32 - 1))
    def test_sparse_spd_json_roundtrip_is_exact(self, m, seed):
        rng = np.random.default_rng(seed)
        p = SupportPattern.from_mask(m)
        vals = np.where(p.mask(), rng.standard_normal(m.shape), 0.0)
        vals = 0.5 * (vals + vals.T)
        n = len(m)
        q = SparseSpd(vals + np.diag(np.abs(vals).sum(axis=1) + 1.0), p)
        obj = json.loads(json.dumps(q.to_json()))
        q2 = SparseSpd.from_json(obj)
        assert np.array_equal(q2.dense, q.dense) and q2.pattern == q.pattern
        assert obj["n"] == n and len(obj["triplets"]) == len(p)


class TestQuadFormProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["diagonal", "random", "full"]),
        st.integers(1, 12),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, kind, n, n_points, seed):
        rng = np.random.default_rng(seed)
        if kind == "diagonal":
            p = SupportPattern.diagonal(n)
        elif kind == "full":
            p = SupportPattern.full(n)
        else:
            p = SupportPattern.from_mask(rng.random((n, n)) < 0.3)
        vals = np.where(p.mask(), rng.standard_normal((n, n)), 0.0)
        vals = 0.5 * (vals + vals.T)
        q = SparseSpd(vals + np.diag(np.abs(vals).sum(axis=1) + 1.0), p)
        d = rng.standard_normal((n_points, n)) * rng.uniform(0.1, 10.0)
        ref = np.einsum("ij,jk,ik->i", d, q.dense, d)
        out = q.quad_form(d)
        assert out.shape == (n_points,)
        np.testing.assert_allclose(out, ref, rtol=1e-12)
        assert np.all(out >= 0.0)
        one = q.quad_form(d[0])
        assert type(one) is float
        np.testing.assert_allclose(one, ref[0], rtol=1e-12)


class TestSparseSpd:
    def test_log_det_matches_slogdet(self):
        rng = np.random.default_rng(3)
        m = random_spd(6, rng)
        q = SparseSpd(m)
        _, ld = np.linalg.slogdet(m)
        assert abs(q.log_det - ld) <= 1e-10 * abs(ld)

    def test_rejects_values_outside_pattern(self):
        m = np.array([[2.0, 0.5], [0.5, 2.0]])
        with pytest.raises(DimensionMismatch):
            SparseSpd(m, SupportPattern.diagonal(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpd):
            SparseSpd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_quad_form_matches_dense(self):
        rng = np.random.default_rng(5)
        m = random_spd(7, rng)
        m[np.abs(m) < 0.5] = 0.0
        m = 0.5 * (m + m.T) + 7 * np.eye(7)
        q = SparseSpd(m)
        x = rng.standard_normal(7)
        assert np.isclose(q.quad_form(x), x @ m @ x)
        batch = rng.standard_normal((4, 7))
        assert np.allclose(q.quad_form(batch), np.einsum("ij,jk,ik->i", batch, m, batch))

    def test_json_roundtrip(self, tmp_path):
        m = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        q = SparseSpd(m)
        path = tmp_path / "q.json"
        q.save(str(path))
        q2 = SparseSpd.load(str(path))
        assert np.array_equal(q2.dense, q.dense)
        assert q2.pattern == q.pattern
        # each unordered pair listed once with i <= j
        obj = json.loads(path.read_text())
        assert all(i <= j for i, j, _ in obj["triplets"])


# one field of a valid {"n", "triplets"} object replaced; each must be a ValueError
MALFORMED_TRIPLETS = {
    "n-float": lambda o: {**o, "n": 3.0},
    "n-bool": lambda o: {**o, "n": True},
    "n-string": lambda o: {**o, "n": "3"},
    "n-zero": lambda o: {**o, "n": 0},
    "index-fractional": lambda o: {**o, "triplets": [[0, 1.5, -1.0]]},
    "index-negative": lambda o: {**o, "triplets": [[-1, 1, -1.0]]},
    "index-out-of-range": lambda o: {**o, "triplets": [[0, 3, -1.0]]},
    "index-nan": lambda o: {**o, "triplets": [[0, float("nan"), -1.0]]},
    "index-string": lambda o: {**o, "triplets": [[0, "1", -1.0]]},
    "value-nan": lambda o: {**o, "triplets": [[0, 1, float("nan")]]},
    "value-inf": lambda o: {**o, "triplets": [[0, 0, float("inf")]]},
    "value-minus-inf": lambda o: {**o, "triplets": [[1, 1, -float("inf")]]},
    "value-bool": lambda o: {**o, "triplets": [[1, 1, True]]},
    "value-huge-int": lambda o: {**o, "triplets": [[1, 1, 10**400]]},
    "no-n": lambda o: {"triplets": o["triplets"]},
    "no-triplets": lambda o: {"n": o["n"]},
    "not-an-object": lambda o: [o],
    "triplets-not-a-list": lambda o: {**o, "triplets": {"0": [0, 0, 1.0]}},
    "triplet-of-two": lambda o: {**o, "triplets": [[0, 1]]},
    "triplets-flat": lambda o: {**o, "triplets": [0, 1, -1.0]},
    "triplets-nested": lambda o: {**o, "triplets": [[[0, 1, -1.0]]]},
    # the valid object holds (0, 1, -1.0): the pair given again
    "pair-repeated-equal": lambda o: {**o, "triplets": o["triplets"] + [[0, 1, -1.0]]},
    "pair-repeated-unequal": lambda o: {**o, "triplets": o["triplets"] + [[0, 1, -0.5]]},
    "pair-reversed-equal": lambda o: {**o, "triplets": o["triplets"] + [[1, 0, -1.0]]},
    "pair-reversed-unequal": lambda o: {**o, "triplets": o["triplets"] + [[1, 0, 0.5]]},
}


class TestTripletJson:
    def valid(self):
        m = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        return SparseSpd(m).to_json()

    @pytest.mark.parametrize("load", [SparseSpd.from_json, SupportPattern.from_json])
    @pytest.mark.parametrize("bad", list(MALFORMED_TRIPLETS))
    def test_malformed_object_is_value_error(self, load, bad):
        with pytest.raises(ValueError):
            load(MALFORMED_TRIPLETS[bad](self.valid()))

    def test_pattern_from_json_reads_the_pairs(self):
        obj = self.valid()
        assert SupportPattern.from_json(obj) == SparseSpd.from_json(obj).pattern
        assert SupportPattern.from_json({"n": 4, "triplets": [[3, 0, 7.5]]}) == SupportPattern(
            4, [(0, 3)]
        )

    def test_repeated_pair_names_the_later_triplet(self):
        obj = {"n": 2, "triplets": [[0, 0, 2.0], [1, 1, 2.0], [0, 1, 0.5], [1, 0, -0.5]]}
        with pytest.raises(ValueError, match=r"^triplet 3 .*repeats the pair of triplet 2"):
            SparseSpd.from_json(obj)

    def test_integral_float_indices_and_either_triangle(self):
        q = SparseSpd.from_json({"n": 2, "triplets": [[0, 0, 2.0], [1.0, 0.0, -1.0], [1, 1, 2]]})
        assert np.array_equal(q.dense, [[2.0, -1.0], [-1.0, 2.0]])

    def test_well_formed_matrix_that_is_not_spd_is_not_spd(self):
        with pytest.raises(NotSpd):
            SparseSpd.from_json({"n": 2, "triplets": [[0, 0, 1.0], [0, 1, 2.0], [1, 1, 1.0]]})


class TestStoredConstruction:
    """SparseSpd._stored skips __init__'s checks, never the Cholesky factorization."""

    def test_equals_the_checked_construction(self):
        m = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        q, stored = SparseSpd(m), SparseSpd._stored(m.copy(), SparseSpd(m).pattern)
        for attr in ("dense", "chol"):
            assert np.array_equal(getattr(stored, attr), getattr(q, attr))
        assert stored.log_det == q.log_det and stored.pattern == q.pattern and stored.n == 3
        assert not stored.dense.flags.writeable

    def test_still_guarded_by_cholesky(self):
        with pytest.raises(NotSpd):
            SparseSpd._stored(np.array([[1.0, 2.0], [2.0, 1.0]]), SupportPattern.full(2))


class TestSpdInverse:
    def test_identity(self):
        q = SparseSpd(np.eye(4))
        assert np.allclose(spd_inverse(q), np.eye(4))

    def test_diagonal(self):
        q = SparseSpd(np.diag([2.0, 4.0]))
        assert np.allclose(spd_inverse(q), np.diag([0.5, 0.25]))

    def test_tridiagonal(self):
        q = SparseSpd(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        expected = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        assert np.allclose(spd_inverse(q), expected)

    def test_product_is_identity(self):
        rng = np.random.default_rng(11)
        m = random_spd(9, rng)
        q = SparseSpd(m)
        assert np.max(np.abs(q.dense @ spd_inverse(q) - np.eye(9))) < 1e-8

    def test_double_inverse_roundtrip(self):
        rng = np.random.default_rng(13)
        m = random_spd(6, rng)
        q = SparseSpd(m)
        inv = SparseSpd(spd_inverse(q), SupportPattern.full(6))
        assert np.max(np.abs(spd_inverse(inv) - m)) < 1e-8

    def test_computed_once_and_read_only(self, monkeypatch):
        q = SparseSpd(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(1) or inv(m))
        first = spd_inverse(q)
        assert spd_inverse(q) is first and spd_inverse(q) is first
        assert len(calls) == 1
        with pytest.raises(ValueError):
            first[0, 0] = 0.0


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(eigenvalues_sym(np.eye(4)), np.ones(4))

    def test_diagonal_sorted(self):
        assert np.allclose(eigenvalues_sym(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_lattice_2x2(self):
        from gmrfmix.synthetic import LatticeSpec, laplacian2d_precision

        q = laplacian2d_precision(LatticeSpec(2, 2))
        assert np.allclose(eigenvalues_sym(q.dense), [2.0, 4.0, 4.0, 6.0])

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        m = random_spd(10, rng)
        eigs = eigenvalues_sym(m)
        assert np.isclose(eigs.sum(), np.trace(m), rtol=1e-8)


def test_dense_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    m = rng.standard_normal((4, 4))
    path = tmp_path / "m.csv"
    save_dense_csv(m, str(path))
    assert np.array_equal(load_dense_csv(str(path)), m)


def test_csv_without_data_is_value_error_naming_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's empty-file warning must not escape
        with pytest.raises(ValueError, match=f"{path} contains no data"):
            load_dense_csv(str(path))


def test_failed_atomic_write_keeps_target_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    write_atomic_text(str(path), "old")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_atomic_text(str(path), "new")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.json"]


def test_atomic_write_into_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "missing" / "out.json"
    with pytest.raises(FileNotFoundError) as info:
        write_atomic_text(str(path), "text")
    assert info.value.filename == str(path)
    assert ".tmp" not in str(info.value)
