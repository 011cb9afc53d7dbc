"""gmrfmix benchmark: one workload, one seed, one run.

Run from the root of the repository:

    python3 perfbench/run.py --workload em-l1-small --seed 0 --seconds 15 --trace 0

Set-up makes the workload's inputs from the seed several times and reports
the median. The run then repeats whole rounds of the workload's operations
while another round fits in --seconds, checks every round's outputs, and prints one
JSON object as its last line of output. With --trace 0 it holds the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run,
whose spans are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time

# pin BLAS to one thread before numpy loads: steadier timings on a shared box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import CheckFailed  # noqa: E402  (numpy loads here, after the pin)

SETUPS = 5
SETUP_SECONDS = 3.0
MAX_SETUPS = 100
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(REPO, ".perfbench_work")
TRACE_ROOT = os.path.join(REPO, ".perfbench_out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, rounds, setups, run_s) -> dict:
    """The per-layer metrics in BENCHMARK.json, per round (per set-up for synthetic)."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        wanted = json.load(fh)["per_layer"]
    run = tracer.summary(rounds)
    setup = tracer.summary(setups)
    out = {}
    for m in wanted:
        name = m["name"]
        if name == "trace.run_s":
            value = run_s
        elif name == "glasso.free_set.mean_size":
            calls = run["calls"].get("glasso.free_set", 0.0)
            value = run["counters"].get("glasso.free_set.size", 0.0) / calls if calls else 0.0
        else:
            stem, _, field = name.rpartition(".")
            src = setup if name.startswith("synthetic.") or stem == "cli.cmd_generate" else run
            if field in ("calls", "self_s"):
                value = src[field].get(stem, 0.0)
            else:
                value = src["counters"].get(name, 0.0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run_rounds(workload, ctx, work: str, seconds: float, tracer, problems: list) -> dict:
    """Whole rounds while another one fits in `seconds`, each checked.

    Every operation is timed on its own, for `round_s`. The self-test has
    already run the solvers once, so lazy imports are paid before round 0.
    """
    rounds, op_times, solves = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    longest = 0.0  # longest round so far, checks included
    while not rounds or time.perf_counter() - start + longest <= seconds:
        t_round = time.perf_counter()
        rounds.append(f"round-{len(rounds)}")
        tracer.round = rounds[-1]
        out = os.path.join(work, rounds[-1])
        ops = workload.ops(ctx, out)
        times = []
        try:
            for op in ops:
                t0 = time.perf_counter()
                op()
                times.append(time.perf_counter() - t0)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation failed in {rounds[-1]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        tracer.round = "check"
        attempted += len(ops)
        failed += len(ops) - len(times)
        if len(times) == len(ops):
            op_times.append(times)
            solves.append(workload.solves(ctx))
            try:
                workload.check(ctx, out)
            except CheckFailed as exc:
                problems.append(f"{rounds[-1]}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        longest = max(longest, time.perf_counter() - t_round)
    return {"rounds": rounds, "op_times": op_times, "solves": solves,
            "attempted": attempted, "failed": failed}


def round_s(op_times: list[list[float]], pick=min) -> float:
    """The time of one round, with each operation at its fastest over the rounds.

    Other tenants of a shared machine only ever add time, in stretches of
    seconds to minutes; the fastest run of an operation is the one they
    slowed least.
    """
    return sum(pick(col) for col in zip(*op_times)) if op_times else 0.0


def run_setups(workload, work: str, seed: int, tracer) -> tuple:
    """Set up at least SETUPS times and for at least SETUP_SECONDS; the last context is kept."""
    names, times = [], []
    start = time.perf_counter()
    while len(names) < SETUPS or (time.perf_counter() - start < SETUP_SECONDS and len(names) < MAX_SETUPS):
        names.append(f"setup-{len(names)}")
        tracer.round = names[-1]
        path = os.path.join(work, names[-1])
        t0 = time.perf_counter()
        ctx = workload.setup(path, seed)
        times.append(time.perf_counter() - t0)
        if len(names) > 1:
            shutil.rmtree(os.path.join(work, names[-2]), ignore_errors=True)
    return ctx, names, times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(REPO, "src", "gmrfmix")):
        print("error: src/gmrfmix not found next to perfbench/; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(REPO, "src"))

    import selftest
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    problems = [f"self-test: {name}" for name in selftest.run()]

    workload = WORKLOADS[args.workload]()
    tracer = Tracer()
    if args.trace:
        tracer.install()

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        ctx, setups, setup_times = run_setups(workload, work, args.seed, tracer)
        res = run_rounds(workload, ctx, work, args.seconds, tracer, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it

    run_s = round_s(res["op_times"])
    solves = statistics.median(res["solves"]) if res["solves"] else 0
    if args.trace:
        metrics = layer_metrics(tracer, res["rounds"], setups, run_s)
        os.makedirs(TRACE_ROOT, exist_ok=True)
        tracer.write(os.path.join(TRACE_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "solves_per_s": {"value": solves / run_s if run_s else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    for p in problems:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={len(res['rounds'])} "
          f"attempted={res['attempted']} failed={res['failed']}")
    print(f"  set-ups: {len(setups)}; estimates per round: {solves}")
    print("  timed rounds (s): " + " ".join(f"{sum(t):.3f}" for t in res["op_times"]))
    print(f"  round with every operation at its median (s): {round_s(res['op_times'], statistics.median):.3f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
