import contextlib
import functools
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import gmrfmix.cli
from gmrfmix.cli import ESTIMATORS, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from gmrfmix.glasso import GlassoConfig, glasso_solve, refit
from gmrfmix.matrices import SparseSpd, load_dense_csv
from gmrfmix.mixture import EmConfig, MixtureModel
from gmrfmix.mle import dense_mle, estimate_known_support


def run(*argv):
    return main(list(argv))


def generate_lattice(tmp_path, rows=3, cols=3, samples=400, seed=2):
    out = tmp_path / "lap"
    assert run(
        "generate", "--kind", "laplacian2d", "--rows", str(rows), "--cols", str(cols),
        "--samples", str(samples), "--seed", str(seed), "--out-dir", str(out),
    ) == EXIT_OK
    return out


def assert_one_line_usage_error(code, capsys):
    """Exit code 2 with a single stderr line and no traceback; returns that line."""
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    return err


def count_glasso_solves(monkeypatch):
    """Route gmrfmix.cli.glasso_solve through a counter; returns the list of calls."""
    calls = []
    solve = gmrfmix.cli.glasso_solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(gmrfmix.cli, "glasso_solve", counting_solve)
    return calls


def generate_mixture(tmp_path, k=2, rows=2, cols=2, lo=30, hi=40, seed=0):
    out = tmp_path / "data"
    code = run(
        "generate", "--kind", "diffusion-mixture",
        "--k", str(k), "--rows", str(rows), "--cols", str(cols),
        "--samples-range", str(lo), str(hi), "--seed", str(seed),
        "--out-dir", str(out),
    )
    assert code == EXIT_OK
    return out


class TestGenerate:
    def test_laplacian_shapes(self, tmp_path):
        out = tmp_path / "lap"
        code = run(
            "generate", "--kind", "laplacian2d", "--rows", "3", "--cols", "4",
            "--samples", "25", "--seed", "1", "--out-dir", str(out),
        )
        assert code == EXIT_OK
        data = load_dense_csv(str(out / "data.csv"))
        assert data.shape == (25, 12)
        assert not (out / "labels.csv").exists()
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth) == 1 and truth[0]["n"] == 12

    def test_single_cell_grid(self, tmp_path):
        out = tmp_path / "one"
        code = run(
            "generate", "--kind", "laplacian2d", "--rows", "1", "--cols", "1",
            "--samples", "5000", "--seed", "0", "--out-dir", str(out),
        )
        assert code == EXIT_OK
        data = load_dense_csv(str(out / "data.csv"))
        assert data.shape == (5000, 1)
        # Q = [[4]] so the variance is 1/4
        assert data.var() == pytest.approx(0.25, rel=0.1)

    def test_mixture_outputs(self, tmp_path):
        out = generate_mixture(tmp_path)
        data = load_dense_csv(str(out / "data.csv"))
        labels = np.loadtxt(str(out / "labels.csv"), dtype=int)
        assert data.shape[0] == labels.shape[0]
        assert set(np.unique(labels)) <= {0, 1}
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["k"] == 2
        assert meta["edge_coefficients"] == "arithmetic-mean"

    def test_manifest_written(self, tmp_path):
        out = generate_mixture(tmp_path)
        manifest = json.loads((out / "manifest-generate.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["seed"] == 0
        assert "duration_seconds" in manifest

    def test_replay_is_byte_identical_except_duration(self, tmp_path):
        a = generate_mixture(tmp_path / "a", seed=5)
        b = generate_mixture(tmp_path / "b", seed=5)
        for name in ("data.csv", "labels.csv", "truth.json", "metadata.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest-generate.json").read_text())
        mb = json.loads((b / "manifest-generate.json").read_text())
        ma.pop("duration_seconds"), mb.pop("duration_seconds")
        ma["config"].pop("out_dir"), mb["config"].pop("out_dir")
        assert ma == mb

    def test_missing_samples_flag_is_usage_error(self, tmp_path):
        code = run(
            "generate", "--kind", "laplacian2d", "--rows", "2", "--cols", "2",
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path):
        code = run(
            "generate", "--kind", "laplacian2d", "--rows", "2", "--cols", "2",
            "--samples", "5", "--out-dir", str(tmp_path / "x"), "--bogus",
        )
        assert code == EXIT_USAGE


class TestFitAndEval:
    def test_fit_baseline_and_eval(self, tmp_path):
        out = generate_mixture(tmp_path, k=2)
        model_path = tmp_path / "model.json"
        code = run(
            "fit", "--data", str(out / "data.csv"), "--k", "2",
            "--estimator", "baseline", "--zero-means", "--seed", "0",
            "--out", str(model_path),
        )
        assert code == EXIT_OK
        model = MixtureModel.load(str(model_path))
        assert model.k == 2 and model.n == 4
        trace = np.loadtxt(str(tmp_path / "model_ll_trace.csv"), ndmin=1)
        assert trace.size >= 1
        metrics_path = tmp_path / "metrics.json"
        code = run(
            "eval", "--model", str(model_path), "--data", str(out / "data.csv"),
            "--labels", str(out / "labels.csv"), "--out", str(metrics_path),
        )
        assert code == EXIT_OK
        metrics = json.loads(metrics_path.read_text())
        assert 0.0 <= metrics["nmi"] <= 1.0
        assert metrics["vi"] >= 0.0
        assert sum(metrics["component_counts"]) == load_dense_csv(
            str(out / "data.csv")
        ).shape[0]

    def test_fit_glasso_requires_lambda(self, tmp_path):
        out = generate_mixture(tmp_path)
        code = run(
            "fit", "--data", str(out / "data.csv"), "--k", "2",
            "--estimator", "glasso", "--out", str(tmp_path / "m.json"),
        )
        assert code == EXIT_USAGE

    def test_fit_known_support(self, tmp_path):
        out = generate_mixture(tmp_path, k=1, lo=100, hi=100)
        truth = json.loads((out / "truth.json").read_text())
        support_path = tmp_path / "support.json"
        support_path.write_text(json.dumps(truth))
        code = run(
            "fit", "--data", str(out / "data.csv"), "--k", "1",
            "--estimator", "known-support", "--support", str(support_path),
            "--zero-means", "--out", str(tmp_path / "m.json"),
        )
        assert code == EXIT_OK
        model = MixtureModel.load(str(tmp_path / "m.json"))
        loaded = json.loads((out / "truth.json").read_text())[0]
        assert len(model.components[0].precision.to_json()["triplets"]) == len(
            loaded["triplets"]
        )

    @pytest.mark.parametrize(
        "support",
        [
            {"n": 4},
            {"n": 4, "triplets": [[0, 7, 1.0]]},
            {"n": 3, "triplets": [[0, 1, 1.0]]},
            [{"n": 4, "triplets": []}] * 3,
        ],
        ids=["no-triplets", "pair-out-of-range", "n-differs-from-data", "pattern-count"],
    )
    def test_bad_support_is_usage_error(self, tmp_path, capsys, support):
        out = generate_mixture(tmp_path)  # 2x2 grid: 4 columns
        support_path = tmp_path / "support.json"
        support_path.write_text(json.dumps(support))
        capsys.readouterr()
        code = run(
            "fit", "--data", str(out / "data.csv"), "--k", "4",
            "--estimator", "known-support", "--support", str(support_path),
            "--out", str(tmp_path / "m.json"),
        )
        assert f"--support {support_path}" in assert_one_line_usage_error(code, capsys)

    def test_eval_wrong_length_labels_is_usage_error(self, tmp_path):
        out = generate_mixture(tmp_path)
        model_path = tmp_path / "model.json"
        assert run(
            "fit", "--data", str(out / "data.csv"), "--k", "2",
            "--estimator", "baseline", "--out", str(model_path),
        ) == EXIT_OK
        bad_labels = tmp_path / "bad.csv"
        np.savetxt(str(bad_labels), np.zeros(3, dtype=int), fmt="%d")
        code = run(
            "eval", "--model", str(model_path), "--data", str(out / "data.csv"),
            "--labels", str(bad_labels), "--out", str(tmp_path / "m2.json"),
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", "0", "--estimator", "baseline"],
            ["--k", "1", "--estimator", "glasso", "--lambda", "-1"],
            ["--k", "100", "--estimator", "baseline"],  # the data has 60-80 rows
        ],
        ids=["k0", "negative-lambda", "k-above-rows"],
    )
    def test_invalid_config_value_is_usage_error(self, tmp_path, capsys, flags):
        out = generate_mixture(tmp_path)
        capsys.readouterr()
        code = run(
            "fit", "--data", str(out / "data.csv"), *flags, "--out", str(tmp_path / "m.json")
        )
        assert_one_line_usage_error(code, capsys)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_data_is_usage_error(self, tmp_path, capsys, bad):
        path = tmp_path / "data.csv"
        path.write_text(f"1.0,2.0\n{bad},0.5\n3.0,1.0\n")
        code = run(
            "fit", "--data", str(path), "--k", "1", "--estimator", "baseline",
            "--out", str(tmp_path / "m.json"),
        )
        assert str(path) in assert_one_line_usage_error(code, capsys)

    def test_eval_one_row(self, tmp_path):
        out = generate_mixture(tmp_path)
        model_path = tmp_path / "model.json"
        assert run(
            "fit", "--data", str(out / "data.csv"), "--k", "2",
            "--estimator", "baseline", "--zero-means", "--out", str(model_path),
        ) == EXIT_OK
        row = load_dense_csv(str(out / "data.csv"))[:1]
        data_path = tmp_path / "one.csv"
        np.savetxt(str(data_path), row, delimiter=",", fmt="%.17g")
        labels_path = tmp_path / "one_labels.csv"
        labels_path.write_text("0\n")
        metrics_path = tmp_path / "m1.json"
        code = run(
            "eval", "--model", str(model_path), "--data", str(data_path),
            "--labels", str(labels_path), "--out", str(metrics_path),
        )
        assert code == EXIT_OK
        assert sum(json.loads(metrics_path.read_text())["component_counts"]) == 1

    def test_missing_data_file_is_io_error(self, tmp_path):
        code = run(
            "fit", "--data", str(tmp_path / "nope.csv"), "--k", "1",
            "--estimator", "baseline", "--out", str(tmp_path / "m.json"),
        )
        assert code == EXIT_IO


class TestBiasReport:
    def test_happy_path(self, tmp_path):
        data_dir = tmp_path / "lap"
        assert run(
            "generate", "--kind", "laplacian2d", "--rows", "3", "--cols", "3",
            "--samples", "400", "--seed", "2", "--out-dir", str(data_dir),
        ) == EXIT_OK
        truth_path = tmp_path / "truth_single.json"
        truth_path.write_text(
            json.dumps(json.loads((data_dir / "truth.json").read_text())[0])
        )
        out_dir = tmp_path / "report"
        code = run(
            "bias-report", "--truth", str(truth_path),
            "--data", str(data_dir / "data.csv"), "--lambda", "0.1",
            "--estimators", "known-support,glasso,debiased",
            "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "bias_report.json").read_text())
        for name in ("truth", "known-support", "glasso", "debiased"):
            assert name in report["eigenvalues"]
            assert report["mean_rel_error"][name] >= 0.0
        assert report["gershgorin"] is not None
        eigs_csv = (out_dir / "eigenvalues.csv").read_text().splitlines()
        assert len(eigs_csv) == 1 + 9  # header + one row per eigenvalue
        assert (out_dir / "manifest-bias-report.json").exists()

    def test_truth_json_from_generate(self, tmp_path):
        data_dir = generate_lattice(tmp_path)
        out_dir = tmp_path / "report"
        code = run(
            "bias-report", "--truth", str(data_dir / "truth.json"),
            "--data", str(data_dir / "data.csv"), "--lambda", "0.1",
            "--estimators", "known-support", "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "bias_report.json").read_text())
        assert len(report["eigenvalues"]["truth"]) == 9

    @pytest.mark.parametrize(
        "make",
        [lambda t: [], lambda t: [t, t], lambda t: 3, lambda t: {"n": t["n"]}],
        ids=["empty-list", "two-precisions", "number", "no-triplets"],
    )
    def test_truth_of_other_shape_is_usage_error(self, tmp_path, capsys, make):
        data_dir = generate_lattice(tmp_path, rows=2, cols=2, samples=50)
        single = json.loads((data_dir / "truth.json").read_text())[0]
        truth_path = tmp_path / "t.json"
        truth_path.write_text(json.dumps(make(single)))
        capsys.readouterr()
        code = run(
            "bias-report", "--truth", str(truth_path),
            "--data", str(data_dir / "data.csv"), "--lambda", "0.1",
            "--estimators", "known-support", "--out-dir", str(tmp_path / "r"),
        )
        assert_one_line_usage_error(code, capsys)

    def test_glasso_solved_once_for_glasso_and_debiased(self, tmp_path, monkeypatch):
        data_dir = generate_lattice(tmp_path)
        calls = []
        solve = gmrfmix.cli.glasso_solve

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(gmrfmix.cli, "glasso_solve", counting_solve)
        code = run(
            "bias-report", "--truth", str(data_dir / "truth.json"),
            "--data", str(data_dir / "data.csv"), "--lambda", "0.1",
            "--estimators", "glasso,debiased", "--out-dir", str(tmp_path / "r"),
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_unknown_estimator_is_usage_error(self, tmp_path):
        data_dir = tmp_path / "lap"
        assert run(
            "generate", "--kind", "laplacian2d", "--rows", "2", "--cols", "2",
            "--samples", "50", "--seed", "0", "--out-dir", str(data_dir),
        ) == EXIT_OK
        truth_path = tmp_path / "t.json"
        truth_path.write_text(
            json.dumps(json.loads((data_dir / "truth.json").read_text())[0])
        )
        code = run(
            "bias-report", "--truth", str(truth_path),
            "--data", str(data_dir / "data.csv"), "--lambda", "0.1",
            "--estimators", "wat", "--out-dir", str(tmp_path / "r"),
        )
        assert code == EXIT_USAGE

    def test_bad_name_is_found_before_any_solve(self, tmp_path, monkeypatch, capsys):
        data_dir = generate_lattice(tmp_path)
        calls = count_glasso_solves(monkeypatch)
        capsys.readouterr()
        code = run(
            "bias-report", "--truth", str(data_dir / "truth.json"),
            "--data", str(data_dir / "data.csv"), "--lambda", "0.1",
            "--estimators", "glasso,wat", "--out-dir", str(tmp_path / "r"),
        )
        err = assert_one_line_usage_error(code, capsys)
        assert err == "usage error: unknown estimator 'wat'\n"
        assert calls == []
        assert not (tmp_path / "r").exists()

    def test_estimates_equal_direct_solver_calls(self, tmp_path, monkeypatch):
        data_dir = generate_lattice(tmp_path)
        seen = []
        report = gmrfmix.cli.bias_report

        def capture(q_true, s, estimates, lam):
            seen.append((q_true, s, estimates))
            return report(q_true, s, estimates, lam)

        monkeypatch.setattr(gmrfmix.cli, "bias_report", capture)
        code = run(
            "bias-report", "--truth", str(data_dir / "truth.json"),
            "--data", str(data_dir / "data.csv"), "--lambda", "0.1",
            "--estimators", "known-support,glasso,debiased,baseline",
            "--out-dir", str(tmp_path / "r"),
        )
        assert code == EXIT_OK
        [(q_true, s, estimates)] = seen
        lasso = glasso_solve(s, GlassoConfig(lam=0.1)).q
        direct = {
            "known-support": estimate_known_support(s, q_true.pattern).q,
            "glasso": lasso,
            "debiased": refit(s, lasso).q,
            "baseline": dense_mle(s),
        }
        assert list(estimates) == list(direct)
        for name, q in direct.items():
            assert np.array_equal(estimates[name].dense, q.dense), name
            assert np.array_equal(estimates[name].pattern.mask(), q.pattern.mask()), name


class TestLambdaSweep:
    def test_happy_path(self, tmp_path):
        data_dir = tmp_path / "lap"
        assert run(
            "generate", "--kind", "laplacian2d", "--rows", "2", "--cols", "3",
            "--samples", "300", "--seed", "3", "--out-dir", str(data_dir),
        ) == EXIT_OK
        out = tmp_path / "sweep.csv"
        code = run(
            "lambda-sweep", "--data", str(data_dir / "data.csv"),
            "--lambda-grid", "0.0", "0.05", "0.2", "--split", "0.8",
            "--seed", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "estimator,lambda,nnz_per_row,heldout_mean_nll"
        assert len(lines) == 1 + 2 * 3  # glasso + debiased per lambda
        for line in lines[1:]:
            name, lam, nnz, nll = line.split(",")
            assert name in ("glasso", "debiased")
            assert float(nnz) >= 0.0
            assert np.isfinite(float(nll))

    def test_one_glasso_solve_per_nonzero_lambda(self, tmp_path, monkeypatch):
        data_dir = generate_lattice(tmp_path, rows=2, cols=3, samples=300, seed=3)
        calls = count_glasso_solves(monkeypatch)
        code = run(
            "lambda-sweep", "--data", str(data_dir / "data.csv"),
            "--lambda-grid", "0.0", "0.05", "0.2", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == EXIT_OK
        assert len(calls) == 2

    def test_bad_split_is_usage_error(self, tmp_path, capsys):
        data_dir = tmp_path / "lap"
        assert run(
            "generate", "--kind", "laplacian2d", "--rows", "2", "--cols", "2",
            "--samples", "20", "--seed", "0", "--out-dir", str(data_dir),
        ) == EXIT_OK
        capsys.readouterr()
        for split in ("1.0", "nan", "inf", "-inf"):
            code = run(
                "lambda-sweep", "--data", str(data_dir / "data.csv"),
                "--lambda-grid", "0.1", f"--split={split}",
                "--out", str(tmp_path / "s.csv"),
            )
            assert "--split" in assert_one_line_usage_error(code, capsys)
        assert not (tmp_path / "s.csv").exists()


class TestConfigFile:
    def test_config_provides_defaults_and_flags_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rows": 2, "cols": 2, "samples": 7, "seed": 4}))
        out = tmp_path / "from_cfg"
        code = run(
            "--config", str(cfg_path),
            "generate", "--kind", "laplacian2d", "--out-dir", str(out),
        )
        assert code == EXIT_OK
        assert load_dense_csv(str(out / "data.csv")).shape == (7, 4)
        # explicit flag wins over the config value
        out2 = tmp_path / "override"
        code = run(
            "--config", str(cfg_path),
            "generate", "--kind", "laplacian2d", "--samples", "3",
            "--out-dir", str(out2),
        )
        assert code == EXIT_OK
        assert load_dense_csv(str(out2 / "data.csv")).shape == (3, 4)

    def test_config_keys_go_to_the_subcommands_that_have_them(self, tmp_path):
        out = generate_mixture(tmp_path)
        assert run(
            "fit", "--data", str(out / "data.csv"), "--k", "2",
            "--estimator", "baseline", "--out", str(tmp_path / "model.json"),
        ) == EXIT_OK
        cfg_path = tmp_path / "cfg.json"
        metrics = tmp_path / "metrics.json"
        cfg_path.write_text(json.dumps({"samples": 7, "out": str(metrics)}))
        assert run(
            "--config", str(cfg_path), "eval", "--model", str(tmp_path / "model.json"),
            "--data", str(out / "data.csv"), "--labels", str(out / "labels.csv"),
        ) == EXIT_OK
        config = json.loads((tmp_path / "manifest-eval.json").read_text())["config"]
        assert config["out"] == str(metrics) and metrics.exists()
        assert "samples" not in config

    @pytest.mark.parametrize("cfg", [{"bogus_key": 1}, {"func": "x"}])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(
            "--config", str(cfg_path), "generate", "--kind", "laplacian2d",
            "--samples", "5", "--out-dir", str(tmp_path / "x"),
        )
        key = next(iter(cfg))
        err = assert_one_line_usage_error(code, capsys)
        assert err == f"usage error: unknown config key {key!r}\n"
        assert not (tmp_path / "x").exists()

    def test_config_supplies_a_required_flag(self, tmp_path):
        out = generate_mixture(tmp_path)
        model = tmp_path / "model.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"labels": str(out / "labels.csv"), "k": 2}))
        assert run(
            "--config", str(cfg_path), "fit", "--data", str(out / "data.csv"),
            "--estimator", "baseline", "--out", str(model),
        ) == EXIT_OK
        metrics = tmp_path / "metrics.json"
        assert run(
            "--config", str(cfg_path), "eval", "--model", str(model),
            "--data", str(out / "data.csv"), "--out", str(metrics),
        ) == EXIT_OK
        assert json.loads(metrics.read_text())["component_counts"]

    @pytest.mark.parametrize("cfg", [None, {"k": 2}])
    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys, cfg):
        argv = []
        if cfg is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            argv = ["--config", str(cfg_path)]
        code = run(
            *argv, "eval", "--model", str(tmp_path / "m.json"),
            "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "metrics.json"),
        )
        err = assert_one_line_usage_error(code, capsys)
        assert err == "usage error: --labels is required\n"
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize(
        "cfg, argv",
        [
            ({"rows": [3]}, "generate --kind laplacian2d --samples 5 --out-dir {out}"),
            ({"samples": 2.5}, "generate --kind laplacian2d --out-dir {out}"),
            (
                {"lam": [1]},
                "bias-report --truth {truth} --data {data} --estimators glasso --out-dir {out}",
            ),
            ({"k": 2.5}, "fit --data {data} --estimator baseline --out {out}/m.json"),
            (
                {"estimators": ["glasso"]},
                "bias-report --truth {truth} --data {data} --lambda 0.1 --out-dir {out}",
            ),
            ({"lambda_grid": "0.1"}, "lambda-sweep --data {data} --out {out}/s.csv"),
            ({"lambda_grid": ["x"]}, "lambda-sweep --data {data} --out {out}/s.csv"),
            (
                {"zero_means": "no"},
                "fit --data {data} --k 1 --estimator baseline --out {out}/m.json",
            ),
        ],
        ids=["list-int", "float-int", "list-float", "float-k", "list-str", "str-list",
             "bad-list-item", "str-switch"],
    )
    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, cfg, argv):
        data_dir = generate_lattice(tmp_path, rows=2, cols=2, samples=50)
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        paths = {"data": data_dir / "data.csv", "truth": data_dir / "truth.json", "out": out}
        capsys.readouterr()
        code = run("--config", str(cfg_path), *(a.format(**paths) for a in argv.split()))
        key = next(iter(cfg))
        assert f"config key {key!r}" in assert_one_line_usage_error(code, capsys)
        assert not out.exists()

    def test_config_as_last_argument_is_usage_error(self, capsys):
        assert_one_line_usage_error(run("--config"), capsys)

    def test_missing_config_is_io_error(self, tmp_path):
        code = run(
            "--config", str(tmp_path / "nope.json"),
            "generate", "--kind", "laplacian2d", "--samples", "5",
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == EXIT_IO


class TestArgparseErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "d.csv", "--k", "1", "--estimator", "glasso", "--lambda", "-1e-3",
             "--out", "m.json"],
            ["fit", "--data", "d.csv", "--k", "x", "--estimator", "baseline", "--out", "m.json"],
            ["frobnicate"],
        ],
        ids=["negative-exponent-value", "non-integer-k", "unknown-subcommand"],
    )
    def test_argparse_error_is_one_line(self, tmp_path, capsys, argv):
        assert_one_line_usage_error(run(*argv), capsys)

    def test_help_still_exits_zero(self, capsys):
        assert run("fit", "--help") == EXIT_OK
        assert "--estimator" in capsys.readouterr().out


class TestNumericFailures:
    def test_singular_data_exits_numeric(self, tmp_path):
        # all-zero data: the covariance is 0 and even the relative ridge
        # floor (scaled by the zero diagonal) cannot restore definiteness
        data = np.zeros((10, 3))
        path = tmp_path / "deg.csv"
        np.savetxt(str(path), data, delimiter=",", fmt="%.17g")
        code = run(
            "fit", "--data", str(path), "--k", "1",
            "--estimator", "baseline", "--zero-means",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == EXIT_NUMERIC


class TestOutputDirectories:
    def test_eval_and_sweep_create_a_missing_directory(self, tmp_path):
        data = generate_mixture(tmp_path)
        model = tmp_path / "fit" / "model.json"
        assert run(
            "fit", "--data", str(data / "data.csv"), "--k", "2", "--estimator", "baseline",
            "--out", str(model),
        ) == EXIT_OK
        metrics = tmp_path / "runs" / "eval" / "metrics.json"
        assert run(
            "eval", "--model", str(model), "--data", str(data / "data.csv"),
            "--labels", str(data / "labels.csv"), "--out", str(metrics),
        ) == EXIT_OK
        sweep = tmp_path / "runs" / "missing" / "sweep.csv"
        assert run(
            "lambda-sweep", "--data", str(data / "data.csv"), "--lambda-grid", "0.1",
            "--out", str(sweep),
        ) == EXIT_OK
        for path, command in ((metrics, "eval"), (sweep, "lambda-sweep")):
            assert path.exists()
            assert (path.parent / f"manifest-{command}.json").exists()

    def test_directory_that_cannot_be_made_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        data = generate_mixture(tmp_path)
        capsys.readouterr()
        code = run(
            "lambda-sweep", "--data", str(data / "data.csv"), "--lambda-grid", "0.1",
            "--out", str(blocker / "sweep.csv"),
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1, err


class TestNonFiniteAndMalformedInput:
    def test_infinite_diffusion_coefficient(self, tmp_path, capsys):
        code = run(
            "generate", "--kind", "diffusion-mixture", "--k", "2", "--rows", "2", "--cols", "2",
            "--samples-range", "20", "30", "--coeff-high", "inf",
            "--out-dir", str(tmp_path / "d"),
        )
        assert "coeff_high" in assert_one_line_usage_error(code, capsys)

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_fit_lambda_must_be_finite(self, tmp_path, capsys, lam):
        data = generate_mixture(tmp_path)
        capsys.readouterr()
        code = run(
            "fit", "--data", str(data / "data.csv"), "--k", "1", "--estimator", "glasso",
            "--lambda", lam, "--out", str(tmp_path / "m.json"),
        )
        assert "lambda must be finite" in assert_one_line_usage_error(code, capsys)

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_sweep_lambda_must_be_finite(self, tmp_path, capsys, lam):
        data = generate_mixture(tmp_path)
        capsys.readouterr()
        out = tmp_path / "sweep.csv"
        code = run(
            "lambda-sweep", "--data", str(data / "data.csv"), "--lambda-grid", "0.1", lam,
            "--out", str(out),
        )
        assert "lambda must be finite" in assert_one_line_usage_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "make",
        [
            lambda data: {},
            lambda data: {"components": [{"weight": 1.0}]},
            lambda data: json.loads((data / "truth.json").read_text()),
        ],
        ids=["empty", "weight-only", "truth-list"],
    )
    def test_eval_model_of_other_shape_is_usage_error(self, tmp_path, capsys, make):
        data = generate_mixture(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(make(data)))
        capsys.readouterr()
        code = run(
            "eval", "--model", str(model), "--data", str(data / "data.csv"),
            "--labels", str(data / "labels.csv"), "--out", str(tmp_path / "m.json"),
        )
        assert str(model) in assert_one_line_usage_error(code, capsys)

    @pytest.mark.parametrize(
        "text", ["", "\n\n", "# no labels\n"], ids=["empty", "blank-lines", "comment-only"]
    )
    def test_eval_labels_without_data_is_named(self, tmp_path, capsys, json_inputs, text):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(json_inputs["model"]))
        labels = tmp_path / "labels.csv"
        labels.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "eval", "--model", str(model), "--data", json_inputs["data"],
                "--labels", str(labels), "--out", str(tmp_path / "out" / "m.json"),
            )
        assert f"{labels} contains no data" in assert_one_line_usage_error(code, capsys)
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize(
        "flag, text, reason",
        [
            ("--data", "abc,1\n", "could not convert string 'abc' to float64"),
            ("--data", "1,2\n3\n", "the number of columns changed from 2 to 1 at row 2"),
            ("--labels", "0\n1.5\n", "could not convert string '1.5' to int64"),
            ("--labels", "0\n1,1\n", "could not convert string '1,1' to int64"),
        ],
        ids=["data-cell-abc", "data-ragged-row", "labels-fraction", "labels-two-fields"],
    )
    def test_text_that_does_not_parse_is_named(
        self, tmp_path, capsys, json_inputs, flag, text, reason
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(json_inputs["model"]))
        inputs = {"--data": json_inputs["data"], "--labels": json_inputs["labels"], flag: str(bad)}
        code = run(
            "eval", "--model", str(model), "--data", inputs["--data"],
            "--labels", inputs["--labels"], "--out", str(tmp_path / "out" / "m.json"),
        )
        line = assert_one_line_usage_error(code, capsys)
        assert line.startswith(f"usage error: {bad}: {reason}"), line
        assert "usecols" not in line
        assert not (tmp_path / "out").exists()


class TestNegativeSeed:
    """A seed below 0 is one usage error naming --seed, before any output directory is made."""

    @pytest.mark.parametrize("command", ["generate", "fit", "lambda-sweep"])
    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, json_inputs, command):
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--kind", "laplacian2d", "--samples", "5",
                         "--out-dir", str(out)],
            "fit": ["fit", "--data", json_inputs["data"], "--k", "2", "--estimator", "baseline",
                    "--out", str(out / "model.json")],
            "lambda-sweep": ["lambda-sweep", "--data", json_inputs["data"], "--lambda-grid", "0.1",
                             "--out", str(out / "sweep.csv")],
        }[command]
        code = run(*argv, "--seed", "-1")
        assert assert_one_line_usage_error(code, capsys) == (
            "usage error: --seed must be >= 0, got -1\n"
        )
        assert not out.exists()

    def test_negative_config_file_seed_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -3}))
        out = tmp_path / "out"
        code = run(
            "--config", str(cfg_path),
            "generate", "--kind", "laplacian2d", "--samples", "5", "--out-dir", str(out),
        )
        assert assert_one_line_usage_error(code, capsys) == (
            "usage error: --seed must be >= 0, got -3\n"
        )
        assert not out.exists()


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    """A K=2 diffusion mixture on a 3x3 grid (generate --seed 1) and a baseline fit of it.

    Returns the paths of data.csv and labels.csv, the truth.json list and
    the model.json object.
    """
    tmp = tmp_path_factory.mktemp("json_inputs")
    d = tmp / "data"
    assert run(
        "generate", "--kind", "diffusion-mixture", "--k", "2", "--rows", "3", "--cols", "3",
        "--samples-range", "40", "60", "--seed", "1", "--out-dir", str(d),
    ) == EXIT_OK
    model = tmp / "model.json"
    assert run(
        "fit", "--data", str(d / "data.csv"), "--k", "2", "--estimator", "baseline",
        "--out", str(model),
    ) == EXIT_OK
    return {
        "data": str(d / "data.csv"),
        "labels": str(d / "labels.csv"),
        "truth": json.loads((d / "truth.json").read_text()),
        "model": json.loads(model.read_text()),
    }


def run_on_json_input(inputs, flag, obj):
    """Write obj to a file, give it as flag to the command that takes it, and run that.

    --truth goes to bias-report, --support to fit and --model to eval; each
    writes into a directory that does not exist yet. Returns (exit code,
    stderr lines, file path, whether the output directory exists afterwards).
    """
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out = os.path.join(work, "out")
        data = ["--data", inputs["data"]]
        argv = {
            "--truth": ["bias-report", "--truth", path, *data, "--lambda", "0.1",
                        "--estimators", "known-support", "--out-dir", out],
            "--support": ["fit", *data, "--k", "2", "--estimator", "known-support",
                          "--support", path, "--out", os.path.join(out, "model.json")],
            "--model": ["eval", "--model", path, *data, "--labels", inputs["labels"],
                        "--out", os.path.join(out, "metrics.json")],
        }[flag]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        return code, lines, path, os.path.exists(out)


def assert_rejected_input(result):
    """Exit 2, one stderr line naming the file, and no output directory."""
    code, lines, path, out_exists = result
    assert code == EXIT_USAGE, (code, lines)
    assert len(lines) == 1 and lines[0].startswith("usage error: ") and path in lines[0], lines
    assert not out_exists


def with_triplet_field(obj, k, col, value):
    obj = json.loads(json.dumps(obj))
    obj["triplets"][k][col] = value
    return obj


class TestJsonInputBoundary:
    """Each JSON input is checked once, when it is read: a malformed file exits 2."""

    @pytest.mark.parametrize(
        "flag, make",
        [
            ("--support", lambda t, m: {"n": 9, "triplets": [[0, 2.9, 1.0]]}),
            ("--support", lambda t, m: [with_triplet_field(t[0], 0, 1, 1.5), t[1]]),
            ("--truth", lambda t, m: {**t[0], "n": 9.7}),
            ("--truth", lambda t, m: {**t[0], "n": "9"}),
            ("--truth", lambda t, m: with_triplet_field(t[0], 0, 1, 99)),
            ("--truth", lambda t, m: with_triplet_field(t[0], 1, 1, 1.5)),
            ("--truth", lambda t, m: with_triplet_field(t[0], 0, 2, float("inf"))),
            ("--truth", lambda t, m: {**t[0], "triplets": t[0]["triplets"] + [
                [j, i, -v] for i, j, v in t[0]["triplets"] if i != j][:1]}),
            ("--model", lambda t, m: {"components": [
                {**m["components"][0], "precision": with_triplet_field(
                    m["components"][0]["precision"], 1, 1, 1.5)},
                m["components"][1],
            ]}),
            ("--model", lambda t, m: {"components": [
                {**m["components"][0], "weight": float("nan")}, m["components"][1],
            ]}),
            ("--model", lambda t, m: {"components": [
                {**m["components"][0], "mean": [float("nan")] * 9}, m["components"][1],
            ]}),
            ("--model", lambda t, m: {"components": [
                {**m["components"][0], "precision": with_triplet_field(
                    m["components"][0]["precision"], 0, 2, float("nan"))},
                m["components"][1],
            ]}),
            ("--model", lambda t, m: {"components": [
                {**c, "weight": str(c["weight"]), "mean": [str(v) for v in c["mean"]]}
                for c in m["components"]
            ]}),
            ("--model", lambda t, m: {"components": [
                {**m["components"][0], "mean": [True] + m["components"][0]["mean"][1:]},
                m["components"][1],
            ]}),
            ("--model", lambda t, m: {"components": [
                {**m["components"][0], "weight": 10 ** 400}, m["components"][1],
            ]}),
        ],
        ids=["support-index-2.9", "support-index-1.5", "truth-n-9.7", "truth-n-string",
             "truth-index-99", "truth-index-1.5", "truth-value-inf", "truth-pair-twice",
             "model-index-1.5",
             "model-weight-nan", "model-mean-nan", "model-value-nan", "model-numbers-as-strings",
             "model-mean-bool", "model-weight-huge-int"],
    )
    def test_malformed_input_is_usage_error(self, json_inputs, flag, make):
        obj = make(json_inputs["truth"], json_inputs["model"])
        assert_rejected_input(run_on_json_input(json_inputs, flag, obj))

    def test_non_finite_precision_value_is_named(self, json_inputs):
        m = json_inputs["model"]
        bad = with_triplet_field(m["components"][1]["precision"], 2, 2, float("nan"))
        model = {"components": [m["components"][0], {**m["components"][1], "precision": bad}]}
        _, lines, _, _ = run_on_json_input(json_inputs, "--model", model)
        assert "triplet 2 [" in lines[0] and "finite value" in lines[0], lines

    @pytest.mark.parametrize("flag", ["--truth", "--model"])
    def test_dimension_other_than_the_data_is_usage_error(self, tmp_path, json_inputs, flag):
        """A 2x2-grid precision or model given with the 3x3 grid's data."""
        small = generate_mixture(tmp_path)
        truth = json.loads((small / "truth.json").read_text())
        if flag == "--truth":
            obj = truth[0]
        else:
            assert run(
                "fit", "--data", str(small / "data.csv"), "--k", "2", "--estimator", "baseline",
                "--out", str(tmp_path / "model.json"),
            ) == EXIT_OK
            obj = json.loads((tmp_path / "model.json").read_text())
        result = run_on_json_input(json_inputs, flag, obj)
        assert_rejected_input(result)
        assert "n=4 but data has 9 columns" in result[1][0]

    def test_well_formed_truth_that_is_not_spd_exits_numeric(self, json_inputs):
        truth = json_inputs["truth"][0]
        diagonal = next(k for k, (i, j, _) in enumerate(truth["triplets"]) if i == j)
        code, lines, path, out_exists = run_on_json_input(
            json_inputs, "--truth", with_triplet_field(truth, diagonal, 2, -1.0)
        )
        assert code == EXIT_NUMERIC and len(lines) == 1, lines
        assert lines[0] == f"numerical failure: --truth {path}: Matrix is not positive definite"
        assert not out_exists

    def test_well_formed_model_that_is_not_spd_exits_numeric(self, json_inputs):
        m = json_inputs["model"]
        precision = m["components"][1]["precision"]
        diagonal = next(k for k, (i, j, _) in enumerate(precision["triplets"]) if i == j)
        bad = with_triplet_field(precision, diagonal, 2, -1.0)
        model = {"components": [m["components"][0], {**m["components"][1], "precision": bad}]}
        code, lines, path, out_exists = run_on_json_input(json_inputs, "--model", model)
        assert code == EXIT_NUMERIC and len(lines) == 1, lines
        assert lines[0] == f"numerical failure: --model {path}: Matrix is not positive definite"
        assert not out_exists

    @settings(max_examples=60, deadline=None)
    @given(
        flag=st.sampled_from(["--truth", "--support", "--model"]),
        edit=st.one_of(
            st.tuples(st.just("n"), st.sampled_from([9.0, 9.5, True, "9", 0, -1, None, [9]])),
            st.tuples(
                st.just("index"),
                st.sampled_from([0.5, 2.25, -1, 9, 99, float("nan"), float("inf"), "1", None]),
            ),
            st.tuples(
                st.just("value"),
                st.sampled_from([float("nan"), float("inf"), -float("inf"), "1.0", None, [1.0]]),
            ),
            st.tuples(st.just("drop"), st.sampled_from(["n", "triplets"])),
            st.tuples(st.just("nest"), st.sampled_from(["wrap", "flat", "dict", "pairs"])),
            st.tuples(
                st.just("weight"), st.sampled_from([float("nan"), float("inf"), None, [0.5]])
            ),
            st.tuples(
                st.just("mean"), st.sampled_from([float("nan"), float("inf"), -float("inf")])
            ),
            st.tuples(
                st.just("model"),
                st.sampled_from(
                    ["drop-components", "drop-weight", "drop-mean", "drop-precision",
                     "components-dict", "component-list", "mean-nested", "precision-list"]
                ),
            ),
        ),
        component=st.integers(0, 1),
        triplet=st.integers(0, 100),
        col=st.integers(0, 1),
    )
    def test_one_malformed_field_is_usage_error(
        self, json_inputs, flag, edit, component, triplet, col
    ):
        kind, value = edit
        model_only = kind in ("weight", "mean", "model")
        obj = json.loads(json.dumps(json_inputs["model" if flag == "--model" else "truth"]))
        if flag == "--model":
            comp = obj["components"][component]
            target = comp["precision"]
        else:
            assume(not model_only)
            if flag == "--truth":
                obj = target = obj[component]
            else:
                target = obj[component]
        trips = target["triplets"]
        if kind == "n":
            target["n"] = value
        elif kind in ("index", "value"):
            trips[triplet % len(trips)][col if kind == "index" else 2] = value
        elif kind == "drop":
            del target[value]
        elif kind == "nest":
            target["triplets"] = {
                "wrap": [trips],
                "flat": [x for t in trips for x in t],
                "dict": {str(k): t for k, t in enumerate(trips)},
                "pairs": [t[:2] for t in trips],
            }[value]
        elif kind == "weight":
            comp["weight"] = value
        elif kind == "mean":
            comp["mean"][triplet % len(comp["mean"])] = value
        elif value == "drop-components":
            del obj["components"]
        elif value.startswith("drop-"):
            del comp[value[5:]]
        elif value == "components-dict":
            obj["components"] = {str(k): c for k, c in enumerate(obj["components"])}
        elif value == "component-list":
            obj["components"][component] = list(comp.values())
        elif value == "mean-nested":
            comp["mean"] = [comp["mean"]]
        else:  # precision-list
            comp["precision"] = [target]
        assert_rejected_input(run_on_json_input(json_inputs, flag, obj))


# Command-line values as the fuzz test passes them. Scalars go as --flag=value,
# so that a value such as "-inf" is not read as a flag; list items are
# limited to forms argparse takes as negative numbers.
REAL_TEXT = st.one_of(
    st.sampled_from(["0", "nan", "inf", "-inf", "1e-300", "1e300"]),
    st.floats(-1.0, 3.0).map(lambda x: f"{x:.4f}"),
)
GRID_TEXT = st.one_of(
    st.sampled_from(["0", "nan", "inf", "1e300"]),
    st.floats(-1.0, 3.0).map(lambda x: f"{x:.4f}"),
)


def run_quietly(*argv):
    """(exit code, stderr lines) of one in-process CLI run, warnings counted as lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NUMERIC), (argv, code, lines)
    assert len(lines) <= 1, (argv, lines)
    return code


class TestCliFuzz:
    """generate, fit, eval, bias-report and lambda-sweep on small random flag values.

    Every run exits 0, 2, 3 or 4 with at most one stderr line and no
    traceback. Sizes stay small (at most 36 variables and 60 samples per
    component) and fit's EM is capped at 3 iterations, so no case is slow
    or allocates a large array.
    """

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        kind=st.sampled_from(["laplacian2d", "diffusion-mixture"]),
        rows=st.integers(-2, 6),
        cols=st.integers(-2, 6),
        k=st.integers(-1, 4),
        samples=st.integers(-2, 60),
        samples_range=st.one_of(
            st.tuples(st.integers(1, 30), st.integers(30, 60)),
            st.tuples(st.integers(-2, 60), st.integers(-2, 60)),
        ),
        coeffs=st.one_of(st.just(("0.1", "1.0")), st.tuples(REAL_TEXT, REAL_TEXT)),
        estimator=st.sampled_from(list(ESTIMATORS)),
        lam=st.one_of(st.none(), st.just("0.3"), REAL_TEXT),
        grid=st.lists(GRID_TEXT, min_size=1, max_size=3),
        split=st.one_of(
            st.just("0.8"),
            st.sampled_from(["nan", "inf", "-inf"]),
            st.floats(-0.5, 1.5).map(lambda x: f"{x:.3f}"),
        ),
        seed=st.integers(-2, 3),
        estimators=st.lists(st.sampled_from([*ESTIMATORS, "wat"]), min_size=1, max_size=3),
    )
    def test_exit_codes_and_messages(
        self, kind, rows, cols, k, samples, samples_range, coeffs, estimator, lam, grid,
        split, seed, estimators,
    ):
        capped = functools.partial(EmConfig, max_em_iters=3)
        with (
            tempfile.TemporaryDirectory() as tmp,
            mock.patch.object(gmrfmix.cli, "EmConfig", capped),
        ):
            d = os.path.join(tmp, "data")
            run_quietly(
                "generate", f"--kind={kind}", f"--rows={rows}", f"--cols={cols}", f"--k={k}",
                f"--samples={samples}", "--samples-range", *samples_range,
                f"--coeff-low={coeffs[0]}", f"--coeff-high={coeffs[1]}", f"--seed={seed}",
                f"--out-dir={d}",
            )
            data = os.path.join(d, "data.csv")
            model = os.path.join(tmp, "fit", "model.json")
            lam_flag = [] if lam is None else [f"--lambda={lam}"]
            extra = [*lam_flag]
            if estimator == "known-support":
                extra.append(f"--support={os.path.join(d, 'truth.json')}")
            run_quietly(
                "fit", f"--data={data}", f"--k={k}", f"--estimator={estimator}", *extra,
                f"--seed={seed}", f"--out={model}",
            )
            run_quietly(
                "eval", f"--model={model}", f"--data={data}",
                f"--labels={os.path.join(d, 'labels.csv')}",
                f"--out={os.path.join(tmp, 'eval', 'metrics.json')}",
            )
            run_quietly(
                "bias-report", f"--truth={os.path.join(d, 'truth.json')}", f"--data={data}",
                *lam_flag, f"--estimators={','.join(estimators)}",
                f"--out-dir={os.path.join(tmp, 'report')}",
            )
            run_quietly(
                "lambda-sweep", f"--data={data}", "--lambda-grid", *grid, f"--split={split}",
                f"--seed={seed}", f"--out={os.path.join(tmp, 'sweep', 'sweep.csv')}",
            )
