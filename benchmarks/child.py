"""One workload in its own process: set up, run ops in a closed loop, report.

Started by run.py, which passes its clock reading from just before the
start, so set-up time covers interpreter start, imports, the work
directory and one untimed smoke-size op. With --seconds 0 the child
only sets up. The result is the last line of stdout, as JSON.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np
import scipy

from tracing import Tracer, median_of, summarize
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Loop:
    """Closed loop, one caller: each op starts when the previous one is checked."""

    def __init__(self, workload):
        self.workload = workload
        self.op_times = []
        self.timed_s = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0

    def attempt(self, op) -> float:
        """Run and check one op; return its run time. Failures are counted, not raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.workload.run(op)
            elapsed = time.perf_counter() - start
            self.items += self.workload.check(op, outcome)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            print("op %d failed:" % (self.attempted - 1), file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        else:
            self.op_times.append(elapsed)
        self.timed_s += elapsed
        return elapsed

    def run_ops(self, seed: int, seconds: float) -> None:
        """Fresh inputs for every op; the op running at `seconds` is the last."""
        deadline = time.perf_counter() + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            self.attempt(self.workload.op(seed, index))
            index += 1

    def run_traced(self, seed: int, seconds: float, tracer: Tracer) -> dict:
        """Alternate untraced and traced passes over the run's first op.

        Every pass has the same inputs, so counts repeat exactly; the
        per-layer figures are medians over the traced passes.
        """
        op = self.workload.op(seed, 0)
        deadline = time.perf_counter() + seconds
        plain, traced, passes = [], [], []
        while not passes or time.perf_counter() < deadline:
            plain.append(self.attempt(op))
            first = len(tracer.spans)
            tracer.op_id = "pass%d" % len(passes)
            with tracer.patched():
                traced.append(self.attempt(op))
            passes.append(summarize(tracer.spans, first))
        layers = median_of(passes)
        layers["trace.pass_s"] = float(np.median(traced))
        layers["trace.overhead_s"] = float(np.median(traced) - np.median(plain))
        return layers


def write_spans(path: str, tracer: Tracer) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "op", "count"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading of the parent just before the start")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    cls = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        warm = cls("smoke", workdir)
        op = warm.op(args.seed, 0)
        warm.check(op, warm.run(op))
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

        loop = Loop(cls(args.size, workdir))
        layers = None
        if args.seconds > 0:
            if args.trace:
                tracer = Tracer()
                layers = loop.run_traced(args.seed, args.seconds, tracer)
                if args.spans:
                    write_spans(args.spans, tracer)
            else:
                loop.run_ops(args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "op_times": loop.op_times,
        "timed_s": loop.timed_s,
        "items": loop.items,
        "item": cls.item,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
