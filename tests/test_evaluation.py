import itertools
import math
import os
from collections import Counter

import numpy as np
import pytest

from gmrfmix.errors import DimensionMismatch, EmptyInput, LengthMismatch
from gmrfmix.evaluation import (
    BiasReport,
    bias_report,
    contingency_table,
    mean_relative_eigenvalue_error,
    nmi,
    save_eigenvalue_csv,
    vi,
)
from gmrfmix.glasso import GlassoConfig, glasso_solve
from gmrfmix.matrices import SparseSpd, eigenvalues_sym
from gmrfmix.synthetic import LatticeSpec, laplacian2d_precision, sample_gmrf


# -- independent brute-force oracle ------------------------------------------


def oracle_entropies(a, b):
    n = len(a)
    pa = Counter(a)
    pb = Counter(b)
    pab = Counter(zip(a, b))
    ha = -sum(c / n * math.log(c / n) for c in pa.values())
    hb = -sum(c / n * math.log(c / n) for c in pb.values())
    mi = sum(
        (c / n) * math.log((c / n) / ((pa[x] / n) * (pb[y] / n)))
        for (x, y), c in pab.items()
    )
    return ha, hb, mi


def oracle_nmi(a, b):
    ha, hb, mi = oracle_entropies(a, b)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return mi / (0.5 * (ha + hb))


def oracle_vi(a, b):
    ha, hb, mi = oracle_entropies(a, b)
    return ha + hb - 2.0 * mi


def random_labelings(rng, count, n=12, k=4):
    return [tuple(rng.integers(0, k, size=n).tolist()) for _ in range(count)]


class TestContingencyTable:
    def test_counts(self):
        t = contingency_table([0, 0, 1, 1], [0, 0, 0, 1])
        assert np.array_equal(t, [[2, 0], [1, 1]])
        assert t.sum() == 4

    def test_label_names_irrelevant(self):
        t1 = contingency_table([0, 0, 1], [5, 5, 9])
        t2 = contingency_table(["a", "a", "b"], [1, 1, 0])
        assert t1.sum() == t2.sum() == 3

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            contingency_table([0, 1], [0, 1, 2])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            contingency_table([], [])


class TestNmi:
    def test_identical_labelings(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_independent_labelings(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_partial_agreement_example(self):
        a, b = (0, 0, 1, 1), (0, 0, 0, 1)
        val = nmi(a, b)
        assert val == pytest.approx(oracle_nmi(a, b), rel=1e-12)
        # reference figure from the hand calculation, to the printed digits
        assert val == pytest.approx(0.3437, abs=5e-4)

    def test_single_cluster_conventions(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert nmi([0, 1, 2], [0, 0, 0]) == 0.0

    def test_matches_oracle_on_random_labelings(self):
        rng = np.random.default_rng(0)
        labs = random_labelings(rng, 30)
        for a, b in zip(labs[:15], labs[15:]):
            assert nmi(a, b) == pytest.approx(oracle_nmi(a, b), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        labs = random_labelings(rng, 20)
        for a, b in zip(labs[:10], labs[10:]):
            assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-14)
            assert -1e-12 <= nmi(a, b) <= 1.0 + 1e-12

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=15)
        b = rng.integers(0, 3, size=15)
        for perm in itertools.permutations(range(3)):
            a2 = np.array([perm[x] for x in a])
            assert nmi(a2, b) == pytest.approx(nmi(a, b), abs=1e-14)

    def test_self_similarity(self):
        rng = np.random.default_rng(3)
        for a in random_labelings(rng, 5):
            if len(set(a)) >= 2:
                assert nmi(a, a) == pytest.approx(1.0)


class TestVi:
    def test_identical_is_zero(self):
        assert vi([0, 1, 0, 2], [0, 1, 0, 2]) == 0.0

    def test_independent_two_cluster_example(self):
        assert vi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(2 * math.log(2))

    def test_partition_level(self):
        # renaming the clusters leaves the partition unchanged
        assert vi([0, 0, 1, 1], [7, 7, 3, 3]) == pytest.approx(0.0, abs=1e-14)

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        labs = random_labelings(rng, 20)
        for a, b in zip(labs[:10], labs[10:]):
            assert vi(a, b) == pytest.approx(oracle_vi(a, b), abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(5)
        labs = random_labelings(rng, 30)
        for a, b, c in zip(labs[:10], labs[10:20], labs[20:]):
            assert vi(a, b) == pytest.approx(vi(b, a), abs=1e-14)
            assert vi(a, c) <= vi(a, b) + vi(b, c) + 1e-12


class TestMeanRelativeEigenvalueError:
    def test_exact_match(self):
        assert mean_relative_eigenvalue_error([1.0, 2.0], [2.0, 1.0]) == 0.0

    def test_doubled_diagonal(self):
        # scaling a diagonal matrix by 2 doubles every eigenvalue
        assert mean_relative_eigenvalue_error([1.0, 3.0], [2.0, 6.0]) == pytest.approx(1.0)

    def test_sorted_pairing(self):
        assert mean_relative_eigenvalue_error([1.0, 4.0], [4.4, 0.9]) == pytest.approx(
            0.5 * (0.1 + 0.1)
        )

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mean_relative_eigenvalue_error([1.0], [1.0, 2.0])


class TestKktSignCheck:
    """bias_report's sign-opposition fraction and max stationarity residual."""

    def test_diagonal_is_vacuous(self):
        q = SparseSpd(np.diag([2.0, 3.0]))
        report = bias_report(q, np.diag([0.5, 1.0 / 3.0]), {"glasso": q}, lam=0.1)
        assert report.gershgorin["sign_opposition_fraction"] == 1.0
        assert report.gershgorin["max_kkt_residual"] == 0.0
        assert report.kkt_signs == []

    def test_residual_covers_nonzeros_outside_the_table(self):
        # q_01 != 0 but |s_01| <= lam: no table row, yet its residual counts
        q = SparseSpd(np.array([[2.0, -0.5], [-0.5, 2.0]]))
        report = bias_report(q, np.eye(2), {"glasso": q}, lam=0.1)
        w = np.linalg.inv(q.dense)
        assert report.kkt_signs == []
        assert report.gershgorin["sign_opposition_fraction"] == 1.0
        assert report.gershgorin["max_kkt_residual"] == pytest.approx(abs(w[0, 1] + 0.1))

    def test_hand_built_stationary_point(self):
        s = np.array([[1.0, 0.4], [0.4, 1.2]])
        lam = 0.1
        w = s.copy()
        w[0, 1] = w[1, 0] = s[0, 1] - lam  # sign(q) = -1 branch
        q = np.linalg.inv(w)
        assert q[0, 1] < 0
        report = bias_report(SparseSpd(q), s, {"glasso": SparseSpd(q)}, lam)
        assert report.gershgorin["max_kkt_residual"] < 1e-12
        assert report.gershgorin["sign_opposition_fraction"] == 1.0  # s_01 > 0, q_01 < 0

    def test_solver_output_residual_within_tol(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((40, 5))
        s = a.T @ a / 40
        s = 0.5 * (s + s.T)
        cfg = GlassoConfig(lam=0.1)
        res = glasso_solve(s, cfg)
        report = bias_report(res.q, s, {"glasso": res.q}, cfg.lam)
        assert report.gershgorin["max_kkt_residual"] <= 10 * cfg.newton_tol


class TestBiasReport:
    def test_truth_estimate_has_zero_error(self):
        q = laplacian2d_precision(LatticeSpec(2, 2))
        s = np.linalg.inv(q.dense)
        report = bias_report(q, s, {"exact": q}, lam=0.0)
        assert report.mean_rel_error["exact"] == 0.0
        assert report.eigenvalues["exact"] == report.eigenvalues["truth"]

    def test_doubled_diagonal_estimate(self):
        q = SparseSpd(np.diag([1.0, 2.0, 3.0]))
        est = SparseSpd(np.diag([2.0, 4.0, 6.0]))
        report = bias_report(q, np.eye(3), {"scaled": est}, lam=0.0)
        assert report.mean_rel_error["scaled"] == pytest.approx(1.0)

    def test_eigenvalue_lists_sorted_and_trace_consistent(self):
        q_true = laplacian2d_precision(LatticeSpec(3, 3))
        x = sample_gmrf(q_true, None, 500, seed=0)
        s = x.T @ x / x.shape[0]
        s = 0.5 * (s + s.T)
        cfg = GlassoConfig(lam=0.1)
        res = glasso_solve(s, cfg)
        report = bias_report(q_true, s, {"glasso": res.q}, lam=cfg.lam)
        for name, eigs in report.eigenvalues.items():
            assert eigs == sorted(eigs)
        assert sum(report.eigenvalues["glasso"]) == pytest.approx(
            np.trace(res.q.dense), rel=1e-6
        )

    def test_gershgorin_discs_contain_inverse_spectrum(self):
        q_true = laplacian2d_precision(LatticeSpec(3, 3))
        x = sample_gmrf(q_true, None, 500, seed=1)
        s = x.T @ x / x.shape[0]
        s = 0.5 * (s + s.T)
        cfg = GlassoConfig(lam=0.15)
        res = glasso_solve(s, cfg)
        report = bias_report(q_true, s, {"glasso": res.q}, lam=cfg.lam)
        assert report.gershgorin is not None
        w = np.linalg.inv(res.q.dense)
        centers = np.diag(w)
        radii = np.asarray(report.gershgorin["radii"])
        for mu in eigenvalues_sym(w):
            assert np.any(np.abs(mu - centers) <= radii + 1e-10)

    def test_sign_table_entries_have_eligible_magnitudes(self):
        q_true = laplacian2d_precision(LatticeSpec(3, 3))
        x = sample_gmrf(q_true, None, 400, seed=2)
        s = x.T @ x / x.shape[0]
        s = 0.5 * (s + s.T)
        cfg = GlassoConfig(lam=0.1)
        res = glasso_solve(s, cfg)
        report = bias_report(q_true, s, {"glasso": res.q}, lam=cfg.lam)
        for row in report.kkt_signs:
            i, j = row["i"], row["j"]
            assert abs(s[i, j]) > cfg.lam
            assert res.q.dense[i, j] != 0.0
            assert row["residual"] <= 10 * cfg.newton_tol

    def test_sign_table_matches_entrywise_reference(self):
        # a glasso iterate stopped early, so the residuals are far from zero
        q_true = laplacian2d_precision(LatticeSpec(3, 3))
        x = sample_gmrf(q_true, None, 60, seed=3)
        s = 0.5 * (x.T @ x + (x.T @ x).T) / x.shape[0]
        lam = 0.1
        q = glasso_solve(s, GlassoConfig(lam=lam, max_newton_iters=2)).q
        report = bias_report(q_true, s, {"glasso": q}, lam=lam)
        w = np.linalg.inv(q.dense)
        w = 0.5 * (w + w.T)
        reference = [
            {
                "i": i,
                "j": j,
                "sign_s": float(np.sign(s[i, j])),
                "sign_q": float(np.sign(q.dense[i, j])),
                "residual": float(abs(w[i, j] - s[i, j] - lam * np.sign(q.dense[i, j]))),
            }
            for i in range(q.n)
            for j in range(i + 1, q.n)
            if q.dense[i, j] != 0.0 and abs(s[i, j]) > lam
        ]
        assert reference and report.kkt_signs == reference
        # the Gershgorin block, entry by entry: E = (W - S) / lam
        gersh = report.gershgorin
        off = [(i, j) for i in range(q.n) for j in range(q.n) if i != j]
        nonzero = [(i, j) for i, j in off if q.dense[i, j] != 0.0]
        eligible = [(i, j) for i, j in nonzero if abs(s[i, j]) > lam]
        bound = [0.0] * q.n
        radii = [0.0] * q.n
        for i, j in off:
            e_ij = (w[i, j] - s[i, j]) / lam
            in_supp = q.dense[i, j] != 0.0
            bound[i] += abs(s[i, j]) - lam if in_supp else abs(s[i, j] - lam * e_ij)
            radii[i] += abs(w[i, j])
        assert gersh["centers"] == [float(s[i, i]) for i in range(q.n)]
        assert gersh["bound"] == pytest.approx(bound, rel=1e-12, abs=1e-15)
        assert gersh["radii"] == pytest.approx(radii, rel=1e-12, abs=1e-15)
        opposed = [np.sign(s[i, j]) == -np.sign(q.dense[i, j]) for i, j in eligible]
        assert gersh["sign_opposition_fraction"] == sum(opposed) / len(opposed)
        assert gersh["max_kkt_residual"] == max(
            float(abs(w[i, j] - s[i, j] - lam * np.sign(q.dense[i, j]))) for i, j in nonzero
        )

    def test_dimension_mismatch(self):
        q = SparseSpd(np.eye(2))
        with pytest.raises(DimensionMismatch):
            bias_report(q, np.eye(2), {"bad": SparseSpd(np.eye(3))}, lam=0.0)

    def test_json_and_csv_outputs(self, tmp_path):
        q = SparseSpd(np.diag([1.0, 2.0]))
        report = bias_report(q, np.eye(2), {"est": SparseSpd(np.eye(2))}, lam=0.0)
        assert report.nmi_normalization == "arithmetic-mean"
        json_path = tmp_path / "report.json"
        report.save(str(json_path))
        import json as json_mod

        loaded = json_mod.loads(json_path.read_text())
        assert loaded["mean_rel_error"]["truth"] == 0.0
        csv_path = tmp_path / "eigs.csv"
        save_eigenvalue_csv(report, str(csv_path))
        header = csv_path.read_text().splitlines()[0]
        assert set(header.split(",")) == {"truth", "est"}

    def test_failed_eigenvalue_csv_write_keeps_previous_file(self, tmp_path, monkeypatch):
        truth = SparseSpd(np.diag([1.0, 2.0]))
        path = tmp_path / "eigenvalues.csv"
        first = bias_report(truth, np.eye(2), {"est": SparseSpd(np.eye(2))}, lam=0.0)
        save_eigenvalue_csv(first, str(path))
        names = sorted(first.eigenvalues)
        direct = tmp_path / "direct.csv"
        np.savetxt(str(direct), np.column_stack([first.eigenvalues[k] for k in names]),
                   delimiter=",", header=",".join(names), comments="", fmt="%.17g")
        assert path.read_bytes() == direct.read_bytes()
        direct.unlink()
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        second = bias_report(truth, np.eye(2), {"est": SparseSpd(3.0 * np.eye(2))}, lam=0.0)
        with pytest.raises(OSError, match="rename failed"):
            save_eigenvalue_csv(second, str(path))
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["eigenvalues.csv"]
