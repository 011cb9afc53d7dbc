"""Command-line entry point for reproducible experiment pipelines.

Subcommands: generate, fit, eval, bias-report, lambda-sweep. The four
precision estimators are named once, in ESTIMATORS; `fit`, `bias-report`
and `lambda-sweep` build every estimate from those M-step estimators.
`main` makes each command's output directory, times the command and writes
its run manifest there; all randomness flows from --seed. Exit codes:
0 success, 2 usage error, 3 I/O failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import DimensionMismatch, GmrfError, NotSpd
from .evaluation import bias_report, nmi, save_eigenvalue_csv, vi
from .glasso import GlassoConfig, glasso_solve, refit
from .matrices import SparseSpd, SupportPattern, load_dense_csv, load_labels, write_atomic_text
from .mixture import (
    BaselineEstimator,
    DebiasedEstimator,
    EmConfig,
    GlassoEstimator,
    KnownSupportEstimator,
    MixtureModel,
    e_step,
    fit_em,
    predict,
)
from .mle import dense_mle, neg_log_likelihood
from .synthetic import (
    DiffusionSpec,
    LatticeSpec,
    laplacian2d_precision,
    make_clustering_dataset,
    sample_gmrf,
    save_dataset,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


def _write_manifest(out_dir: str, command: str, config: dict, duration: float):
    manifest = {
        "command": command,
        "config": {k: v for k, v in config.items() if k != "func"},
        "artifact_version": __version__,
        "duration_seconds": duration,
    }
    path = os.path.join(out_dir, f"manifest-{command}.json")
    write_atomic_text(path, json.dumps(manifest, indent=2, sort_keys=True))


def _read_json_input(flag: str, path: str, parse):
    """parse(obj) of the JSON in the file given as flag; a malformed file is one
    UsageError naming the flag and the path. A well-formed precision that is not
    SPD stays NotSpd, a numerical failure, and is named the same way."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return parse(obj)
    except NotSpd as exc:
        raise NotSpd(f"{flag} {path}: {exc}") from exc
    except KeyError as exc:
        raise UsageError(f"{flag} {path}: missing key {exc}") from exc
    except (LookupError, TypeError, ValueError, DimensionMismatch) as exc:
        raise UsageError(f"{flag} {path}: {exc}") from exc


def _check_columns(flag: str, path: str, n: int, columns: int) -> None:
    if n != columns:
        raise UsageError(f"{flag} {path}: n={n} but data has {columns} columns")


def _empirical_cov(data: np.ndarray) -> np.ndarray:
    """Zero-mean (1/N) covariance of the rows."""
    s = data.T @ data / data.shape[0]
    return 0.5 * (s + s.T)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> None:
    if args.kind == "laplacian2d":
        if args.samples is None:
            raise UsageError("--samples is required for laplacian2d")
        q = laplacian2d_precision(LatticeSpec(args.rows, args.cols))
        data = sample_gmrf(q, None, args.samples, seed=args.seed)
        meta = {
            "kind": "laplacian2d",
            "rows": args.rows,
            "cols": args.cols,
            "samples": args.samples,
            "seed": args.seed,
        }
        save_dataset(args.out_dir, data, None, [q], meta)
    else:  # diffusion-mixture, the other --kind choice
        if args.samples_range is None:
            raise UsageError("--samples-range is required for diffusion-mixture")
        lo, hi = args.samples_range
        spec = DiffusionSpec(args.rows, args.cols, args.coeff_low, args.coeff_high)
        data, labels, precisions = make_clustering_dataset(
            args.k, spec, lo, hi, seed=args.seed
        )
        meta = {
            "kind": "diffusion-mixture",
            "rows": args.rows,
            "cols": args.cols,
            "k": args.k,
            "samples_range": [lo, hi],
            "coeff_range": [args.coeff_low, args.coeff_high],
            "edge_coefficients": "arithmetic-mean",
            "seed": args.seed,
        }
        save_dataset(args.out_dir, data, labels, precisions, meta)


# ---------------------------------------------------------------------------
# fit


def _load_support(path: str, n: int, k: int) -> list[SupportPattern]:
    """Patterns from a SparseSpd JSON object or a list of them (one, or one per component)."""

    def parse(obj):
        return [SupportPattern.from_json(o) for o in (obj if isinstance(obj, list) else [obj])]

    patterns = _read_json_input("--support", path, parse)
    if not patterns or 1 < len(patterns) < k:
        raise UsageError(f"--support {path}: need 1 pattern or at least {k}, got {len(patterns)}")
    for pattern in patterns:
        _check_columns("--support", path, pattern.n, n)
    return patterns


# name -> the M-step estimator it builds; the names --estimator and --estimators take
ESTIMATORS = {
    "baseline": BaselineEstimator,
    "glasso": GlassoEstimator,
    "debiased": DebiasedEstimator,
    "known-support": KnownSupportEstimator,
}


def _build_estimator(name: str, lam: float | None, patterns):
    """The M-step estimator registered as `name`.

    Only known-support calls `patterns`, which returns None when no support was given.
    """
    cls = ESTIMATORS.get(name)
    if cls is None:
        raise UsageError(f"unknown estimator {name!r}")
    if cls in (GlassoEstimator, DebiasedEstimator):
        if lam is None:
            raise UsageError(f"--lambda is required for {name}")
        return cls(GlassoConfig(lam=lam))
    if cls is KnownSupportEstimator:
        support = patterns()
        if not support:
            raise UsageError("--support (pattern JSON) is required for known-support")
        return cls(support)
    return cls()


def _cold_fits(names, s: np.ndarray, lam: float, patterns=lambda: None) -> dict:
    """Each named estimate, fitted once from a cold start on the covariance s.

    Every name is built before any solve. glasso and debiased share one
    graphical-lasso solve: the debiased estimate is its refit.
    """
    estimators = {name: _build_estimator(name, lam, patterns) for name in names}
    estimates, lasso = {}, None
    for name, est in estimators.items():
        if isinstance(est, (GlassoEstimator, DebiasedEstimator)):
            if lasso is None:
                lasso = glasso_solve(s, est.cfg).q
            debiased = isinstance(est, DebiasedEstimator)
            estimates[name] = refit(s, lasso, est.mle_cfg).q if debiased else lasso
        else:
            estimates[name] = est.fit(s, None, 0)
    return estimates


def cmd_fit(args) -> None:
    data = load_dense_csv(args.data)
    if args.k > data.shape[0]:
        raise UsageError(f"--k {args.k} exceeds the {data.shape[0]} rows of {args.data}")

    def patterns():
        return args.support and _load_support(args.support, data.shape[1], args.k)

    cfg = EmConfig(
        estimator=_build_estimator(args.estimator, args.lam, patterns),
        k=args.k,
        fix_means_to_zero=args.zero_means,
    )
    model, ll_trace, _ = fit_em(data, cfg, seed=args.seed)
    model.save(args.out)
    trace_path = os.path.splitext(args.out)[0] + "_ll_trace.csv"
    write_atomic_text(trace_path, "".join(f"{v:.17g}\n" for v in ll_trace))


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> None:
    model = _read_json_input("--model", args.model, MixtureModel.from_json)
    data = load_dense_csv(args.data)
    _check_columns("--model", args.model, model.n, data.shape[1])
    labels = load_labels(args.labels)
    if labels.shape[0] != data.shape[0]:
        raise UsageError(
            f"labels length {labels.shape[0]} differs from data rows {data.shape[0]}"
        )
    pred = predict(model, data)
    _, total_ll = e_step(model, data)
    counts = np.bincount(pred, minlength=model.k).tolist()
    metrics = {
        "nmi": nmi(labels, pred),
        "vi": vi(labels, pred),
        "component_counts": counts,
        "mean_negative_log_likelihood": -total_ll / data.shape[0],
    }
    write_atomic_text(args.out, json.dumps(metrics, indent=2))


# ---------------------------------------------------------------------------
# bias-report


def _load_truth(path: str) -> SparseSpd:
    """One precision from a SparseSpd JSON object or a one-element list of them."""

    def parse(obj):
        if isinstance(obj, list) and len(obj) != 1:
            raise ValueError(f"expected one precision, got a list of {len(obj)}")
        return SparseSpd.from_json(obj[0] if isinstance(obj, list) else obj)

    return _read_json_input("--truth", path, parse)


def cmd_bias_report(args) -> None:
    names = [e.strip() for e in args.estimators.split(",") if e.strip()]
    if not names:
        raise UsageError("--estimators names no estimator")
    q_true = _load_truth(args.truth)
    data = load_dense_csv(args.data)
    _check_columns("--truth", args.truth, q_true.n, data.shape[1])
    s = _empirical_cov(data)
    estimates = _cold_fits(names, s, args.lam, lambda: [q_true.pattern])
    report = bias_report(q_true, s, estimates, args.lam)
    report.save(os.path.join(args.out_dir, "bias_report.json"))
    save_eigenvalue_csv(report, os.path.join(args.out_dir, "eigenvalues.csv"))


# ---------------------------------------------------------------------------
# lambda-sweep


def cmd_lambda_sweep(args) -> None:
    if not 0 < args.split < 1:  # also rejects NaN
        raise UsageError(f"--split must be in (0, 1), got {args.split}")
    data = load_dense_csv(args.data)
    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(data.shape[0])
    n_train = int(round(args.split * data.shape[0]))
    if n_train < 2 or n_train >= data.shape[0]:
        raise UsageError("--split leaves too few train or test rows")
    train, test = data[perm[:n_train]], data[perm[n_train:]]
    s_train = _empirical_cov(train)
    s_test = _empirical_cov(test)

    names = ("glasso", "debiased")
    lines = ["estimator,lambda,nnz_per_row,heldout_mean_nll"]
    for lam in args.lambda_grid:
        # at lambda 0 both rows are the unpenalized dense MLE
        fits = _cold_fits(names, s_train, lam) if lam else dict.fromkeys(names, dense_mle(s_train))
        for name, q in fits.items():
            nnz_per_row = (2 * len(q.pattern) - q.n) / q.n
            nll = neg_log_likelihood(q, s_test)
            lines.append(f"{name},{lam:.17g},{nnz_per_row:.17g},{nll:.17g}")
    write_atomic_text(args.out, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# parser


class _CommandParser(argparse.ArgumentParser):
    """Parser that records the action of each flag a config file may set.

    Flags declared required=True are recorded too, not handed to argparse,
    so that a config file can supply them; `check_required` runs after the
    merge. A parse error is one UsageError line, not a usage block and exit.
    """

    def __init__(self, *args, **kwargs):
        self.actions = {}  # dest -> action
        self.required = {}  # dest -> flag
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, required=False, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:  # not --help
            self.actions[action.dest] = action
        if required:
            self.required[action.dest] = action.option_strings[0]
        return action

    def error(self, message):
        raise UsageError(message)

    def check_required(self, args) -> None:
        for dest, flag in self.required.items():
            if getattr(args, dest) is None:
                raise UsageError(f"{flag} is required")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _CommandParser]]:
    """The gmrfmix parser and its subcommand parsers by name."""
    parser = _CommandParser(prog="gmrfmix", description="GMRF mixture estimation pipelines")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("--kind", required=True, choices=["laplacian2d", "diffusion-mixture"])
    g.add_argument("--rows", type=int, default=10)
    g.add_argument("--cols", type=int, default=10)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--samples", type=int)
    g.add_argument("--samples-range", type=int, nargs=2)
    g.add_argument("--coeff-low", type=float, default=0.1)
    g.add_argument("--coeff-high", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit a mixture model by EM")
    f.add_argument("--data", required=True)
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--estimator", required=True, choices=list(ESTIMATORS))
    f.add_argument("--lambda", dest="lam", type=float)
    f.add_argument("--support", help="pattern JSON (known-support only)")
    f.add_argument("--zero-means", action="store_true")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("eval", help="score a fitted model against labels")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--labels", required=True)
    e.add_argument("--out", default="metrics.json")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("bias-report", help="spectral bias diagnostics")
    b.add_argument("--truth", required=True, help="true precision, SparseSpd JSON")
    b.add_argument("--data", required=True)
    b.add_argument("--lambda", dest="lam", type=float, required=True)
    b.add_argument("--estimators", required=True, help="comma-separated fit --estimator names")
    b.add_argument("--out-dir", required=True)
    b.set_defaults(func=cmd_bias_report)

    l = sub.add_parser("lambda-sweep", help="held-out NLL across a lambda grid")
    l.add_argument("--data", required=True)
    l.add_argument("--lambda-grid", type=float, nargs="+", required=True)
    l.add_argument("--split", type=float, default=0.8)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--out", default="lambda_sweep.csv")
    l.set_defaults(func=cmd_lambda_sweep)
    return parser, {"generate": g, "fit": f, "eval": e, "bias-report": b, "lambda-sweep": l}


def _config_value(action: argparse.Action, key: str, value):
    """A config value checked against its flag's nargs, type and choices, and converted.

    argparse applies none of these checks to a default that is not a string.
    """

    def convert(item):
        numbers = {int: (int,), float: (int, float)}.get(action.type, ())
        if isinstance(item, bool) or not isinstance(item, (str, *numbers)):
            raise ValueError
        item = item if action.type is None else action.type(item)
        if action.choices is not None and item not in action.choices:
            raise ValueError
        return item

    try:
        if action.nargs == 0:  # a store_true switch takes JSON booleans only
            if isinstance(value, bool):
                return value
        elif action.nargs is None:
            return convert(value)
        elif isinstance(value, list) and value and action.nargs in ("+", len(value)):
            return [convert(item) for item in value]
    except (ValueError, OverflowError):  # OverflowError: an integer too large for a float
        pass
    flag = action.option_strings[0]
    raise UsageError(f"config key {key!r}: {json.dumps(value)} is not a valid {flag} value")


def _apply_config_file(commands, argv):
    """Pre-parse --config and inject its values as defaults of the subcommands with that flag."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise UsageError("--config needs a file path")
    path = argv[idx + 1]
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError(f"--config {path} must hold a JSON object")
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        owners = [p for p in commands.values() if dest in p.actions]
        if not owners:
            raise UsageError(f"unknown config key {key!r}")
        for p in owners:
            p.set_defaults(**{dest: _config_value(p.actions[dest], key, value)})
    return argv[:idx] + argv[idx + 2 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        argv = _apply_config_file(commands, argv)
        args = parser.parse_args(argv)
        commands[args.command].check_required(args)
        if getattr(args, "seed", 0) < 0:  # numpy's own message would not name the flag
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        out_dir = os.path.abspath(vars(args).get("out_dir") or os.path.dirname(args.out))
        made = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.monotonic()
        try:
            args.func(args)
        except BaseException:
            if made:  # a failed command leaves no empty output directory behind
                with contextlib.suppress(OSError):
                    os.rmdir(out_dir)
            raise
        _write_manifest(out_dir, args.command, vars(args), time.monotonic() - t0)
        return EXIT_OK
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (UsageError, ValueError) as exc:
        # ValueError: a config dataclass rejecting a flag value, or CSV input
        # that does not parse or holds NaN/Inf
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GmrfError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
