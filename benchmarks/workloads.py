"""The three benchmark workloads: the op each repeats, its sizes and its output checks.

An op is one call (or one short chain of calls) a user would make. The
run phase of an op is timed; its check is not, because the check is the
benchmark's own work. Every check recomputes what it can with plain
numpy instead of asking the package, so a wrong answer cannot confirm
itself.
"""

import contextlib
import json
import math
import os

import numpy as np

import centrum
import centrum.cli


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def derive_seed(seed: int, *path: int) -> int:
    """Seed for one op, fixed by the run seed and the op's position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint32)[0])


def beta(q: int) -> float:
    """Root of (b - 2)^(q-1) * b = 1 in [1 + sqrt 2, 3), by bisection."""
    lo, hi = 1.0 + math.sqrt(2.0), 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid - 2.0) ** (q - 1) * mid < 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _cli(argv) -> int:
    # the CLI reports progress on stdout; the benchmark's stdout is its result
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return centrum.cli.run([str(a) for a in argv])


class Workload:
    """Inputs of each op, how to run one op and how to check it."""

    name = ""
    item = ""
    sizes: dict = {}

    def __init__(self, size: str, workdir: str):
        self.params = self.sizes[size]
        self.workdir = workdir

    def op(self, seed: int, index: int):
        """Inputs of the op at this position in a run."""
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, outcome) -> int:
        """Raise CheckFailed on a wrong output; return the items completed."""
        raise NotImplementedError


class SolveEuclid(Workload):
    """`centrum gen` of a random Euclidean instance, then `centrum solve` on the file."""

    name = "solve_euclid"
    item = "one gen->solve pair"
    sizes = {
        "full": {"n": 300, "m": 300, "objectives": (1, 10, 75, 300)},
        "smoke": {"n": 20, "m": 20, "objectives": (1, 3, 8, 20)},
    }

    def op(self, seed, index):
        return derive_seed(seed, index)

    def run(self, op):
        p = self.params
        inst = os.path.join(self.workdir, "instance.json")
        out = os.path.join(self.workdir, "solution.json")
        gen_rc = _cli(["gen", "--family", "euclid", "-n", p["n"], "-m", p["m"],
                       "--seed", op, "-o", inst])
        if gen_rc != 0:
            return gen_rc, None
        ks = ",".join(str(k) for k in p["objectives"])
        return _cli(["solve", inst, "--objectives", ks, "--method", "graph", "--out", out]), out

    def check(self, op, outcome):
        rc, out = outcome
        if rc != 0:
            raise CheckFailed("exit code %d" % rc)
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        p = self.params
        ks = p["objectives"]
        # the generator documents its draws: Philox(seed), clients then
        # facilities, uniform in the unit square
        rng = np.random.Generator(np.random.Philox(op))
        clients = rng.random((p["n"], 2))
        facilities = rng.random((p["m"], 2))
        dist = np.sqrt(((clients[:, None, :] - facilities[None, :, :]) ** 2).sum(axis=2))
        running = np.cumsum(np.sort(dist, axis=0)[::-1, :], axis=0)
        costs = running[np.array(ks) - 1, :]  # (q, m)
        facility = result["facility"]
        expected = costs[:, facility] / costs.min(axis=1)
        if result["objectives"] != list(ks):
            raise CheckFailed("objectives %r" % (result["objectives"],))
        for got, want in zip(result["ratios"], expected):
            if not _close(got, float(want), 1e-9):
                raise CheckFailed("ratio %r, recomputed %r" % (got, float(want)))
        if result["worst_ratio"] != max(result["ratios"]):
            raise CheckFailed("worst_ratio is not the largest ratio")
        if result["worst_ratio"] > beta(len(ks)):
            raise CheckFailed("worst ratio %r above beta(%d)" % (result["worst_ratio"], len(ks)))
        return 1


class VerifySweep(Workload):
    """`centrum verify` over the pair, multi and shared suites.

    One op is one call of each suite: a single call takes about twice as
    long for shared as for the others, so ops of one call would put the
    median on the edge of a cluster.
    """

    name = "verify_sweep"
    item = "one random instance verified"
    suites = ("pair", "multi", "shared")
    sizes = {"full": {"instances": 150}, "smoke": {"instances": 5}}

    def op(self, seed, index):
        return tuple((suite, derive_seed(seed, index, j)) for j, suite in enumerate(self.suites))

    def run(self, op):
        outcomes = []
        for suite, seed in op:
            out = os.path.join(self.workdir, "report-%s.json" % suite)
            rc = _cli(["verify", "--suite", suite, "--instances", self.params["instances"],
                       "--seed", seed, "--out", out])
            outcomes.append((rc, out))
        return outcomes

    def check(self, op, outcome):
        for rc, out in outcome:
            if rc != 0:
                # exit code 3 means the sweep found violations
                raise CheckFailed("exit code %d" % rc)
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            if report["violations_total"] != 0:
                raise CheckFailed("%d violations" % report["violations_total"])
            if report["config"]["instances"] != self.params["instances"]:
                raise CheckFailed("report covers %r instances" % report["config"]["instances"])
        return len(outcome) * self.params["instances"]


class TripleScale(Workload):
    """The three-objective tight family at growing size, through the public API."""

    name = "triple_scale"
    item = "one client row"
    sizes = {
        "full": {"sizes": ((10**2, 10**4), (10**3, 10**5), (10**4, 10**6))},
        # one size on each side of the generators' cross-matrix limit
        "smoke": {"sizes": ((10, 10**2), (10, 3 * 10**3))},
    }
    # worst ratios of select_multi_graph on these sizes at the commit that
    # introduced this benchmark
    worst_ratios = {
        (10, 10**2): 1.9779544749999216,
        (10, 3 * 10**3): 1.9779544749999274,
        (10**2, 10**4): 2.5359683297125364,
        (10**3, 10**5): 2.535968329715805,
        (10**4, 10**6): 2.53596832971662,
    }

    def op(self, seed, index):
        # the family has no randomness; the seed only orders the sizes
        order = np.random.default_rng(derive_seed(seed, index)).permutation(
            len(self.params["sizes"]))
        return tuple(self.params["sizes"][i] for i in order)

    def run(self, op):
        results = []
        for k, n in op:
            inst = centrum.gen_tight_triple(k, n)
            chosen = centrum.select_multi_graph(inst, (1, k, n))
            report = centrum.check_inequalities(inst, (1, k, n))
            results.append((k, n, chosen.worst_ratio, report.violations_total))
            del inst, chosen, report
        return results

    def check(self, op, outcome):
        limit = beta(3) + 1e-9
        for k, n, worst, violations in outcome:
            if worst > limit:
                raise CheckFailed("k=%d n=%d: worst ratio %r above beta(3)" % (k, n, worst))
            if violations != 0:
                raise CheckFailed("k=%d n=%d: %d violations" % (k, n, violations))
            if not _close(worst, self.worst_ratios[(k, n)], 1e-9):
                raise CheckFailed("k=%d n=%d: worst ratio %r, recorded %r"
                                  % (k, n, worst, self.worst_ratios[(k, n)]))
        return sum(n for _, n in op)


WORKLOADS = {w.name: w for w in (SolveEuclid, VerifySweep, TripleScale)}
