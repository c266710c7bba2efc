"""Benchmark of the centrum package: run workloads, check outputs, print metrics.

    python3 benchmarks/run.py --workload solve_euclid --seed 1 --seconds 30 --trace 0

Run it from the repository root. Each workload runs in its own child
process (benchmarks/child.py), one after another, with the package
imported from src/. With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run instead. --workload all runs every
workload in turn. See benchmarks/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_euclid", "verify_sweep", "triple_scale")
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# children that only set up; set-up time is the median over these and
# the measuring child, after one more that warms the file cache
SETUP_PROBES = 4
# a single-workload run must end within this many seconds
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env(nproc: int) -> dict:
    """Sweeps at their default of one thread, BLAS pools capped at nproc, src/ importable."""
    env = dict(os.environ)
    env.pop("CENTRUM_THREADS", None)
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env, seconds: float, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--size", args.size]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s child did not finish in time" % args.workload) from None
    if proc.returncode != 0:
        raise ChildFailed("%s child exited with code %d" % (args.workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("%s child printed no result" % args.workload)
    return json.loads(lines[-1])


def tail(times: list) -> tuple:
    """Highest percentile with at least ten samples above it: (value, percentile).

    Below 21 samples that percentile would sit under the median, so the
    median is reported (as percentile 50); the value never jumps as the
    sample count grows.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(args, env, deadline: float) -> tuple:
    """Run one workload; return (result line, report lines)."""
    report = []
    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES + 1):
            probe = run_child(args, env, 0, deadline)
            if i:
                setups.append(probe["setup_s"])
    spans = None
    if args.trace:
        spans = os.path.join(ROOT, ".bench_out",
                             "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    res = run_child(args, env, args.seconds, deadline, spans)
    setups.append(res["setup_s"])
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0
    versions = " ".join("%s=%s" % kv for kv in sorted(res["versions"].items()))
    threads = " ".join("%s=%s" % (v, env[v]) for v in THREAD_VARS)
    report.append("== %s seed=%d seconds=%g trace=%d size=%s; closed loop, one caller; "
                  "item: %s" % (args.workload, args.seed, args.seconds, args.trace, args.size,
                                res["item"]))
    report.append("env nproc=%d %s %s CENTRUM_THREADS=unset"
                  % (len(os.sched_getaffinity(0)), versions, threads))
    report.append("fail_ratio %g (%d of %d ops failed)"
                  % (failed / attempted, failed, attempted))
    metrics = {}
    if args.trace:
        for name, unit in metric_units().items():
            value = res["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            report.append("%-30s %.6g %s" % (name, value, unit))
        report.append("spans written to %s" % os.path.relpath(spans, ROOT))
    elif res["op_times"]:
        times = res["op_times"]
        tail_value, pct = tail(times)
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_value,
            "items_per_s": res["items"] / res["timed_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        notes = {
            "setup_s": "median of %d children" % len(setups),
            "op_p50_s": "n=%d" % len(times),
            "op_tail_s": "p%.1f, n=%d%s" % (pct, len(times),
                                           " (the median: fewer than 21 samples)"
                                           if len(times) < 21 else ""),
            "items_per_s": "%d items in %.3f s of ops" % (res["items"], res["timed_s"]),
            "peak_rss_mb": "measuring child",
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            report.append("%-12s %.6g %s  (%s)" % (name, values[name], unit, notes[name]))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "centrum", "__init__.py")):
        print("error: no centrum package under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    env = child_env(len(os.sched_getaffinity(0)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            result, report = measure(args, env, time.monotonic() + TIME_LIMIT_S)
        except ChildFailed as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        print("\n".join(report))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
