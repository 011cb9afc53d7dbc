"""The benchmark's three workloads.

Each workload has a `setup` that makes its inputs from the seed, `ops`,
the operations of one measured round, `solves`, the number of precision
estimates a round produced, and a `check` of the round's outputs. The
package is driven from outside: through `gmrfmix.cli.main` and the public
library functions, looked up at call time so that the traced run sees
every call.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

import checks
from checks import require
from gmrfmix import cli, glasso, mixture, mle, synthetic


class OpFailed(Exception):
    pass


def gmrfmix_cli(*argv) -> None:
    """Run one gmrfmix command in this process; a nonzero exit fails the operation."""
    argv = [str(a) for a in argv]
    code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"gmrfmix {argv[0]} exited with {code}")


class Capture:
    """Records what chosen functions return when the CLI calls them.

    The CLI writes neither the estimates of `bias-report` nor the
    responsibilities and labels that `fit` and `eval` compute; the checks
    need them. Only the names bound in `gmrfmix.cli` are rebound, and only
    the arguments and return values are kept.
    """

    def __init__(self, names):
        self.calls = {name: [] for name in names}
        for name in names:
            setattr(cli, name, self._recording(name, getattr(cli, name)))

    def _recording(self, name, fn):
        log = self.calls[name]

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append((args, out))
            return out

        return recorded

    def reset(self) -> None:
        for log in self.calls.values():
            log.clear()


def dense_from_triplets(obj: dict) -> np.ndarray:
    n = int(obj["n"])
    q = np.zeros((n, n))
    for i, j, v in obj["triplets"]:
        q[int(i), int(j)] = q[int(j), int(i)] = float(v)
    return q


def pattern_from_triplets(obj: dict) -> np.ndarray:
    n = int(obj["n"])
    mask = np.zeros((n, n), dtype=bool)
    for i, j, _ in obj["triplets"]:
        mask[int(i), int(j)] = mask[int(j), int(i)] = True
    return mask


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------


class LatticeRefit:
    """`bias-report` (known-support MLE, glasso, debiased refit) on lattice samples.

    A round covers `datasets` independent sample sets. The glasso's Newton
    iteration count, and its free set with it, depends on the data (4 to 8
    per solve at this size), and several sets narrow the seed-to-seed spread
    of a round's work. At lambda 0.3 and above the count is steadier, but
    the l1 eigenvalue error falls under 2x that of the debiased refit.
    """

    rows = 16
    samples = 300
    lam = 0.25
    datasets = 4

    def __init__(self):
        self.capture = Capture(["bias_report"])

    def setup(self, work: str, seed: int) -> dict:
        dirs = []
        for j in range(self.datasets):
            d = os.path.join(work, f"lattice-{j}")
            gmrfmix_cli(
                "generate", "--kind", "laplacian2d", "--rows", self.rows, "--cols", self.rows,
                "--samples", self.samples, "--seed", self.datasets * seed + j, "--out-dir", d,
            )
            # `bias-report --truth` reads one precision, `generate` writes a list
            truth = read_json(os.path.join(d, "truth.json"))
            with open(os.path.join(d, "truth_single.json"), "w") as fh:
                json.dump(truth[0], fh)
            dirs.append(d)
        return {"dirs": dirs}

    def ops(self, ctx: dict, out: str) -> list:
        self.capture.reset()
        return [
            functools.partial(
                gmrfmix_cli, "bias-report", "--truth", os.path.join(d, "truth_single.json"),
                "--data", os.path.join(d, "data.csv"), "--lambda", self.lam,
                "--estimators", "known-support,glasso,debiased",
                "--out-dir", os.path.join(out, f"report-{j}"),
            )
            for j, d in enumerate(ctx["dirs"])
        ]

    def solves(self, ctx: dict) -> int:
        return 3 * self.datasets

    def check(self, ctx: dict, out: str) -> None:
        calls = self.capture.calls["bias_report"]
        require(len(calls) == self.datasets, f"bias_report ran {len(calls)} times")
        for j, d in enumerate(ctx["dirs"]):
            (_, _, estimates, _), _ = calls[j]
            self._check_one(d, os.path.join(out, f"report-{j}"), estimates)

    def _check_one(self, d: str, out: str, estimates: dict) -> None:
        require(os.path.exists(os.path.join(out, "manifest-bias-report.json")), "no bias-report manifest")
        est = {name: q.dense for name, q in estimates.items()}
        truth = dense_from_triplets(read_json(os.path.join(d, "truth_single.json")))
        s = checks.empirical_cov(np.loadtxt(os.path.join(d, "data.csv"), delimiter=","))
        outer_tol = mle.MleConfig().outer_tol
        support = est["glasso"] != 0.0

        checks.check_stationary(est["known-support"], s, truth != 0.0, outer_tol, "known-support")
        checks.check_stationary(est["debiased"], s, support, outer_tol, "debiased")
        checks.check_glasso_kkt(est["glasso"], s, self.lam, glasso.GlassoConfig(lam=self.lam).newton_tol)
        require(np.array_equal(est["debiased"] != 0.0, support), "debiased support differs from glasso's")
        for name, q in est.items():
            checks.check_spd(q, name)

        report = read_json(os.path.join(out, "bias_report.json"))
        eigs = {"truth": np.linalg.eigvalsh(truth)}
        checks.check_eigenvalues(report["eigenvalues"]["truth"], truth, "truth")
        for name, q in est.items():
            checks.check_eigenvalues(report["eigenvalues"][name], q, name)
            eigs[name] = np.linalg.eigvalsh(q)
        err = {name: checks.mean_rel_eig_error(eigs["truth"], e) for name, e in eigs.items()}
        for name in ("known-support", "debiased"):
            require(
                err["glasso"] >= 2.0 * err[name],
                f"l1 eigenvalue error {err['glasso']:.4g} is under 2x that of {name} ({err[name]:.4g})",
            )


class EmL1Small:
    """EM with the debiased (glasso + refit) M-step on the small clustering profile."""

    k = 5
    rows = 5
    samples = (500, 1000)
    lam = 0.3
    em_iters = 2

    def setup(self, work: str, seed: int) -> dict:
        data, labels, _ = synthetic.make_clustering_dataset(
            self.k, synthetic.DiffusionSpec(self.rows, self.rows), *self.samples, seed=seed
        )
        return {"data": data, "em_seed": 100 + seed}

    def ops(self, ctx: dict, out: str) -> list:
        def fit():
            est = mixture.DebiasedEstimator(glasso.GlassoConfig(lam=self.lam, max_newton_iters=10))
            cfg = mixture.EmConfig(
                estimator=est, k=self.k, fix_means_to_zero=True, max_em_iters=self.em_iters
            )
            ctx["fit"] = mixture.fit_em(ctx["data"], cfg, seed=ctx["em_seed"])

        def label():
            ctx["pred"] = mixture.predict(ctx["fit"][0], ctx["data"])

        return [fit, label]

    def solves(self, ctx: dict) -> int:
        return self.k * len(ctx["fit"][1])

    def check(self, ctx: dict, out: str) -> None:
        model, trace, resp = ctx["fit"]
        checks.check_mixture(
            [c.weight for c in model.components],
            [c.precision.dense for c in model.components],
            ctx["data"], trace[-1], resp=resp, pred=ctx["pred"],
        )


class EmDenseCli:
    """`fit` then `eval` through the CLI, for the baseline and known-support M-steps."""

    k = 5
    rows = 10
    samples = (300, 350)
    em_iters = 3
    fits = ("baseline", "known-support")

    def __init__(self):
        self.capture = Capture(["fit_em", "predict"])
        # the CLI has no EM iteration flag; a fixed cap gives every seed the
        # same number of EM iterations, which a run to convergence does not
        cli.EmConfig = functools.partial(mixture.EmConfig, max_em_iters=self.em_iters)

    def setup(self, work: str, seed: int) -> dict:
        gmrfmix_cli(
            "generate", "--kind", "diffusion-mixture", "--k", self.k, "--rows", self.rows,
            "--cols", self.rows, "--samples-range", *self.samples, "--seed", seed,
            "--out-dir", work,
        )
        return {"dir": work, "seed": seed}

    def ops(self, ctx: dict, out: str) -> list:
        self.capture.reset()
        d = ctx["dir"]
        data = os.path.join(d, "data.csv")
        ops = []
        for name in self.fits:
            model = os.path.join(out, name, "model.json")
            extra = ["--support", os.path.join(d, "truth.json")] if name == "known-support" else []
            ops.append(functools.partial(
                gmrfmix_cli, "fit", "--data", data, "--k", self.k, "--estimator", name,
                *extra, "--zero-means", "--seed", ctx["seed"], "--out", model,
            ))
            ops.append(functools.partial(
                gmrfmix_cli, "eval", "--model", model, "--data", data,
                "--labels", os.path.join(d, "labels.csv"),
                "--out", os.path.join(out, name, "metrics.json"),
            ))
        return ops

    def solves(self, ctx: dict) -> int:
        return self.k * sum(len(trace) for _, (_, trace, _) in self.capture.calls["fit_em"])

    def check(self, ctx: dict, out: str) -> None:
        d = ctx["dir"]
        data = np.loadtxt(os.path.join(d, "data.csv"), delimiter=",")
        labels = np.loadtxt(os.path.join(d, "labels.csv"), dtype=int)
        grid = checks.grid_mask(self.rows, self.rows)
        fits = self.capture.calls["fit_em"]
        preds = self.capture.calls["predict"]
        require(len(fits) == len(self.fits) and len(preds) == len(self.fits), "a fit or eval did not run")
        for i, name in enumerate(self.fits):
            run = os.path.join(out, name)
            for command in ("fit", "eval"):
                require(os.path.exists(os.path.join(run, f"manifest-{command}.json")), f"{name}: no {command} manifest")
            model = read_json(os.path.join(run, "model.json"))
            weights = [c["weight"] for c in model["components"]]
            precisions = [dense_from_triplets(c["precision"]) for c in model["components"]]
            trace = np.atleast_1d(np.loadtxt(os.path.join(run, "model_ll_trace.csv")))
            checks.check_ll_trace(trace, name)
            _, (_, _, resp) = fits[i]
            _, pred = preds[i]
            checks.check_mixture(weights, precisions, data, float(trace[-1]), resp=resp, pred=pred)
            metrics = read_json(os.path.join(run, "metrics.json"))
            total = -metrics["mean_negative_log_likelihood"] * data.shape[0]
            checks.check_mixture(weights, precisions, data, total)
            checks.check_clustering_metrics(metrics, labels, pred)
            if name == "known-support":
                for k, c in enumerate(model["components"]):
                    pattern = pattern_from_triplets(c["precision"])
                    checks.check_on_pattern(pattern, grid, f"known-support component {k}")


WORKLOADS = {
    "lattice-refit": LatticeRefit,
    "em-l1-small": EmL1Small,
    "em-dense-cli": EmDenseCli,
}
