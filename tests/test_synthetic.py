import json

import numpy as np
import pytest

from gmrfmix.matrices import SparseSpd, SupportPattern, eigenvalues_sym, load_dense_csv
from gmrfmix.synthetic import (
    DiffusionSpec,
    LatticeSpec,
    diffusion_precision,
    laplacian2d_precision,
    make_clustering_dataset,
    sample_gmrf,
    save_dataset,
)


class TestLaplacian2d:
    def test_single_node(self):
        q = laplacian2d_precision(LatticeSpec(1, 1))
        assert np.array_equal(q.dense, [[4.0]])

    def test_2x2_eigenvalues(self):
        q = laplacian2d_precision(LatticeSpec(2, 2))
        assert np.allclose(eigenvalues_sym(q.dense), [2.0, 4.0, 4.0, 6.0])

    def test_2x2_entries(self):
        q = laplacian2d_precision(LatticeSpec(2, 2)).dense
        expected = np.array(
            [
                [4.0, -1.0, -1.0, 0.0],
                [-1.0, 4.0, 0.0, -1.0],
                [-1.0, 0.0, 4.0, -1.0],
                [0.0, -1.0, -1.0, 4.0],
            ]
        )
        assert np.array_equal(q, expected)

    def test_interior_rows_have_four_neighbors(self):
        q = laplacian2d_precision(LatticeSpec(32, 32)).dense
        n = 32 * 32
        for r, c in [(5, 5), (16, 16), (30, 1)]:
            i = r * 32 + c
            row = q[i]
            assert row[i] == 4.0
            neighbors = np.nonzero(row)[0]
            neighbors = neighbors[neighbors != i]
            assert len(neighbors) == 4
            assert np.all(row[neighbors] == -1.0)
            assert set(neighbors) == {i - 1, i + 1, i - 32, i + 32}

    def test_corner_row_truncated(self):
        q = laplacian2d_precision(LatticeSpec(3, 3)).dense
        assert q[0, 0] == 4.0  # diagonal stays 4 even at the boundary
        assert np.count_nonzero(q[0]) == 3  # self + 2 surviving neighbors

    def test_five_point_pattern(self):
        q = laplacian2d_precision(LatticeSpec(4, 5))
        mask = q.pattern.mask()
        for (i, j) in [(0, 1), (0, 5), (7, 12)]:
            assert mask[i, j]
        assert not mask[0, 2]  # no diagonal neighbors
        assert not mask[0, 6]

    def test_spd(self):
        q = laplacian2d_precision(LatticeSpec(6, 7))
        assert eigenvalues_sym(q.dense)[0] > 0


class TestDiffusionPrecision:
    def test_unit_coefficients_1x2(self):
        spec = DiffusionSpec(1, 2, coeff_low=1.0, coeff_high=1.0)
        q = diffusion_precision(spec).dense
        eps = 1e-2 * 1.0
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]]) + eps * np.eye(2)
        assert np.allclose(q, expected)

    def test_unit_coefficients_match_laplacian_interior(self):
        spec = DiffusionSpec(5, 5, coeff_low=1.0, coeff_high=1.0)
        q = diffusion_precision(spec).dense
        lap = laplacian2d_precision(LatticeSpec(5, 5)).dense
        eps = 1e-2
        for r in range(1, 4):
            for c in range(1, 4):
                i = r * 5 + c
                row = q[i].copy()
                row[i] -= eps
                assert np.allclose(row, lap[i])

    def test_row_sums(self):
        # difference operators annihilate constants, so without the anchor
        # every row sums to zero; with it, each row sums to exactly eps
        spec = DiffusionSpec(4, 6, coeff_low=0.2, coeff_high=0.9, seed=3)
        q = diffusion_precision(spec).dense
        eps = 1e-2 * 0.2
        assert np.allclose(q.sum(axis=1), eps)

    def test_spd_and_pattern(self):
        spec = DiffusionSpec(5, 4, seed=1)
        q = diffusion_precision(spec)
        assert eigenvalues_sym(q.dense)[0] > 0
        lap = laplacian2d_precision(LatticeSpec(5, 4))
        assert q.pattern == lap.pattern

    def test_seed_changes_coefficients(self):
        a = diffusion_precision(DiffusionSpec(3, 3, seed=0)).dense
        b = diffusion_precision(DiffusionSpec(3, 3, seed=1)).dense
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = diffusion_precision(DiffusionSpec(3, 3, seed=5)).dense
        b = diffusion_precision(DiffusionSpec(3, 3, seed=5)).dense
        assert np.array_equal(a, b)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            DiffusionSpec(2, 2, coeff_low=0.0)
        with pytest.raises(ValueError):
            DiffusionSpec(2, 2, coeff_low=0.5, coeff_high=0.4)

    @pytest.mark.parametrize(
        "low, high",
        [(0.1, np.inf), (np.inf, np.inf), (np.nan, 1.0), (0.1, np.nan)],
        ids=["high-inf", "both-inf", "low-nan", "high-nan"],
    )
    def test_coefficients_must_be_finite(self, low, high):
        with pytest.raises(ValueError, match="< inf"):
            DiffusionSpec(2, 2, coeff_low=low, coeff_high=high)


class TestSampleGmrf:
    def test_shape_and_mean_shift(self):
        q = laplacian2d_precision(LatticeSpec(2, 2))
        mean = np.array([1.0, 2.0, 3.0, 4.0])
        x = sample_gmrf(q, mean, 10, seed=0)
        x0 = sample_gmrf(q, None, 10, seed=0)
        assert x.shape == (10, 4)
        assert np.allclose(x - x0, mean)

    def test_empirical_covariance_converges(self):
        q = laplacian2d_precision(LatticeSpec(2, 3))
        x = sample_gmrf(q, None, 200_000, seed=42)
        s = x.T @ x / x.shape[0]
        cov = np.linalg.inv(q.dense)
        assert np.max(np.abs(s - cov)) < 0.01

    def test_whitened_samples_are_standard_normal(self):
        # multiplying by L^T undoes the solve exactly
        q = laplacian2d_precision(LatticeSpec(3, 3))
        x = sample_gmrf(q, None, 5000, seed=7)
        z = x @ q.chol
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05

    def test_deterministic(self):
        q = laplacian2d_precision(LatticeSpec(2, 2))
        assert np.array_equal(sample_gmrf(q, None, 5, seed=3), sample_gmrf(q, None, 5, seed=3))
        assert not np.array_equal(sample_gmrf(q, None, 5, seed=3), sample_gmrf(q, None, 5, seed=4))

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_must_be_positive(self, count):
        q = laplacian2d_precision(LatticeSpec(2, 2))
        with pytest.raises(ValueError, match="sample count must be >= 1"):
            sample_gmrf(q, None, count)


class TestMakeClusteringDataset:
    @pytest.mark.parametrize(
        "k, low, high, message",
        [
            (0, 5, 5, "k >= 1"),
            (-1, 5, 5, "k >= 1"),
            (2, 0, 5, "1 <= samples_low"),
            (2, 6, 5, "1 <= samples_low"),
        ],
        ids=["k0", "k-1", "low0", "low-above-high"],
    )
    def test_bad_counts_rejected(self, k, low, high, message):
        with pytest.raises(ValueError, match=message):
            make_clustering_dataset(k, DiffusionSpec(2, 2), low, high)

    def test_shapes_and_counts(self):
        data, labels, precs = make_clustering_dataset(
            3, DiffusionSpec(2, 2), samples_low=20, samples_high=30, seed=0
        )
        assert len(precs) == 3
        assert data.shape[1] == 4
        assert data.shape[0] == labels.shape[0]
        counts = np.bincount(labels, minlength=3)
        assert np.all(counts >= 20) and np.all(counts <= 30)

    def test_components_differ(self):
        _, _, precs = make_clustering_dataset(
            3, DiffusionSpec(3, 3), samples_low=5, samples_high=5, seed=1
        )
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(precs[i].dense, precs[j].dense)

    def test_bit_reproducible(self):
        a = make_clustering_dataset(2, DiffusionSpec(2, 3), 10, 15, seed=9)
        b = make_clustering_dataset(2, DiffusionSpec(2, 3), 10, 15, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        for qa, qb in zip(a[2], b[2]):
            assert np.array_equal(qa.dense, qb.dense)

    def test_labels_match_generating_component(self):
        # every labeled point must appear verbatim in the block sampled from
        # that component's precision, so shuffling cannot decouple the pair
        data, labels, precs = make_clustering_dataset(
            2, DiffusionSpec(2, 2), 30, 30, seed=4
        )
        children = np.random.SeedSequence(4).spawn(2 * 2 + 2)
        blocks = [
            {tuple(row) for row in sample_gmrf(precs[k], None, 30, seed=children[2 + k])}
            for k in range(2)
        ]
        for x, lab in zip(data, labels):
            assert tuple(x) in blocks[lab]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_clustering_dataset(2, DiffusionSpec(2, 2), 10, 5, seed=0)


def load_saved(out_dir):
    """(data, labels or None, precisions, metadata) read back as the CLI reads them."""
    data = load_dense_csv(str(out_dir / "data.csv"))
    labels_path = out_dir / "labels.csv"
    labels = np.loadtxt(labels_path, dtype=int, ndmin=1) if labels_path.exists() else None
    precisions = [SparseSpd.from_json(o) for o in json.loads((out_dir / "truth.json").read_text())]
    return data, labels, precisions, json.loads((out_dir / "metadata.json").read_text())


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        data, labels, precs = make_clustering_dataset(
            2, DiffusionSpec(2, 2), 5, 8, seed=2
        )
        meta = {"k": 2, "rows": 2, "cols": 2, "seed": 2}
        save_dataset(str(tmp_path), data, labels, precs, meta)
        data2, labels2, precs2, meta2 = load_saved(tmp_path)
        assert np.array_equal(data, data2)
        assert np.array_equal(labels, labels2)
        assert meta2 == meta
        for qa, qb in zip(precs, precs2):
            assert np.array_equal(qa.dense, qb.dense)
            assert qa.pattern == qb.pattern
        # one labeled row still loads as a length-1 label vector
        save_dataset(str(tmp_path / "one"), data[:1], labels[:1], precs, meta)
        data1, labels1, _, _ = load_saved(tmp_path / "one")
        assert data1.shape == (1, data.shape[1])
        assert labels1.shape == (1,) and labels1[0] == labels[0]

    def test_unlabeled_roundtrip(self, tmp_path):
        data, _, precs = make_clustering_dataset(1, DiffusionSpec(2, 2), 5, 5, seed=3)
        save_dataset(str(tmp_path), data, None, precs, {})
        data2, labels2, _, _ = load_saved(tmp_path)
        assert labels2 is None
        assert np.array_equal(data, data2)
