"""Empirical verification: inequality checks, randomized sweeps, curves.

check_inequalities runs every structural inequality the cost function
and the optima are supposed to satisfy on one instance. The sweep
functions generate many seeded instances, run the selection rules, and
confirm the observed worst ratios stay below the guarantees, recording
per-bucket maxima so tightness is visible in the report. Reports
serialize deterministically so runs can be diffed.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from .bounds import PAIR_LIMIT, beta_q, pair_bound_f, pair_bound_shared
from .errors import BadConfig
from .generators import (
    gen_random_euclidean,
    gen_random_graph_metric,
    gen_tight_pair_line,
    gen_tight_pair_triangle,
    gen_tight_triple,
)
from .jsonutil import dump_path
from .metric import validate_metric
from .objectives import cost_profile, graph_from_profile
from .selection import select_exhaustive, select_multi_graph, select_pair

_VIOLATION_CAP = 25  # per check, to keep reports readable


@dataclass
class CheckRecord:
    name: str
    instances: int = 0
    comparisons: int = 0
    max_slack: float = float("-inf")
    violation_count: int = 0
    violations: list = field(default_factory=list)

    def add(self, slack: float, detail=None, tol: float = 0.0) -> None:
        self.comparisons += 1
        if slack > self.max_slack:
            self.max_slack = slack
        if slack > tol:
            self.violation_count += 1
            if detail is not None and len(self.violations) < _VIOLATION_CAP:
                self.violations.append(dict(detail, slack=slack))

    def merge(self, other: "CheckRecord") -> None:
        self.instances += other.instances
        self.comparisons += other.comparisons
        self.max_slack = max(self.max_slack, other.max_slack)
        self.violation_count += other.violation_count
        room = _VIOLATION_CAP - len(self.violations)
        if room > 0:
            self.violations.extend(other.violations[:room])

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "comparisons": self.comparisons,
            "max_slack": None if self.comparisons == 0 else self.max_slack,
            "violations": self.violation_count,
            "examples": self.violations,
        }


@dataclass
class BoundRecord:
    """Observed worst ratios against a guarantee, one bucket."""

    name: str
    bound: float
    observations: int = 0
    max_observed: float = float("-inf")
    max_slack: float = float("-inf")  # observed minus the exact per-case bound
    violation_count: int = 0

    def add(self, observed: float, exact_bound: float, tol: float) -> None:
        self.observations += 1
        self.max_observed = max(self.max_observed, observed)
        slack = observed - exact_bound
        self.max_slack = max(self.max_slack, slack)
        if slack > tol:
            self.violation_count += 1

    def merge(self, other: "BoundRecord") -> None:
        self.observations += other.observations
        self.max_observed = max(self.max_observed, other.max_observed)
        self.max_slack = max(self.max_slack, other.max_slack)
        self.violation_count += other.violation_count

    def to_jsonable(self) -> dict:
        no_obs = self.observations == 0
        return {
            "name": self.name,
            "bound": None if math.isinf(self.bound) else self.bound,
            "observations": self.observations,
            "max_observed": None if no_obs else self.max_observed,
            "max_slack": None if no_obs or math.isinf(self.max_slack) else self.max_slack,
            "violations": self.violation_count,
        }


@dataclass
class VerificationReport:
    config: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)

    def check(self, name: str) -> CheckRecord:
        if name not in self.checks:
            self.checks[name] = CheckRecord(name=name)
        return self.checks[name]

    def bound(self, name: str, bound: float) -> BoundRecord:
        if name not in self.bounds:
            self.bounds[name] = BoundRecord(name=name, bound=bound)
        return self.bounds[name]

    def merge(self, other: "VerificationReport") -> None:
        for name, rec in other.checks.items():
            if name in self.checks:
                self.checks[name].merge(rec)
            else:
                self.checks[name] = rec
        for name, rec in other.bounds.items():
            if name in self.bounds:
                self.bounds[name].merge(rec)
            else:
                self.bounds[name] = rec

    @property
    def violations_total(self) -> int:
        return sum(r.violation_count for r in self.checks.values()) + sum(
            r.violation_count for r in self.bounds.values()
        )

    def to_jsonable(self) -> dict:
        return {
            "schema": 1,
            "config": self.config,
            "violations_total": self.violations_total,
            "checks": [self.checks[k].to_jsonable() for k in sorted(self.checks)],
            "bounds": [self.bounds[k].to_jsonable() for k in sorted(self.bounds)],
        }

    def summary(self) -> str:
        insts = max((r.instances for r in self.checks.values()), default=0)
        return "checks=%d bounds=%d instances>=%d violations=%d" % (
            len(self.checks),
            len(self.bounds),
            insts,
            self.violations_total,
        )

    def save(self, path) -> None:
        dump_path(self.to_jsonable(), path)


def _rel(lhs: float, rhs: float) -> float:
    """Signed slack of lhs <= rhs, relative to the scale involved."""
    return (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _simple_cycles(q: int):
    """All directed simple cycles of the complete digraph on q nodes,
    each yielded once (the smallest node first)."""
    for size in range(2, q + 1):
        for subset in combinations(range(q), size):
            for perm in permutations(subset[1:]):
                yield (subset[0],) + perm


def check_inequalities(instance, objectives, tol: float = 1e-9) -> VerificationReport:
    """Run every structural inequality on one instance.

    Cost-only inequalities run always; the ones whose proofs lean on
    the triangle inequality run only when the instance carries verified
    cross distances. Returns a report with one record per check.
    """
    profile = cost_profile(instance, objectives)
    report = VerificationReport()
    ks = profile.ks
    costs = profile.costs  # (m, q)
    opt = profile.optimal_costs
    metric = instance.metric_verified
    weights = graph_from_profile(profile).weights
    flabels = instance.facility_labels

    def vector_check(name, lhs, rhs, detail):
        rec = report.check(name)
        rec.instances = 1
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        slack = (lhs - rhs) / scale
        order = np.argsort(slack)[::-1]
        for j in order:
            rec.add(float(slack[j]), dict(detail, facility=flabels[j]), tol)

    if metric:
        rec = report.check("metric_axioms")
        rec.instances = 1
        for v in validate_metric(instance, tol=tol):
            rec.add(v.slack, v.to_jsonable(), tol)
        if rec.comparisons == 0:
            rec.add(0.0)

    for i, j in combinations(range(len(ks)), 2):
        k, p = ks[i], ks[j]
        pair = {"k": k, "p": p}
        vector_check("costs_monotone_in_k", costs[:, i], costs[:, j], pair)
        vector_check("topk_sum_scaling", costs[:, j], (p / k) * costs[:, i], pair)
        vector_check(
            "tail_average_bound",
            (k / (p - k)) * (costs[:, j] - costs[:, i]),
            costs[:, i],
            pair,
        )
        a_kp = float(weights[j, i])  # optimum of p measured under k
        a_pk = float(weights[i, j])  # optimum of k measured under p
        rec = report.check("ratio_product_bound")
        rec.instances = 1
        rec.add(_rel(a_kp * a_pk, p / k), pair, tol)
        rec = report.check("opt_cost_cross_bound_downward")
        rec.instances = 1
        rec.add(_rel((k / p) * a_pk * float(opt[j]), float(opt[i])), pair, tol)
        if metric:
            rec = report.check("reciprocal_pair_bound")
            rec.instances = 1
            rec.add(_rel(a_kp, 1.0 / a_pk + 2.0), pair, tol)
            if 2 * k <= p:
                rec = report.check("reciprocal_pair_bound_small_ratio")
                rec.instances = 1
                rec.add(_rel(a_kp, 1.0 / a_pk + 2.0 - 2.0 * k / p), pair, tol)
            rec = report.check("opt_cost_cross_bound_upward")
            rec.instances = 1
            rec.add(_rel((p / k) * (a_kp - 2.0) * float(opt[i]), float(opt[j])), pair, tol)

    # any p distinct clients sum to at most the objective-p cost; the
    # extremal candidates are the p clients farthest from some facility
    rec = report.check("subset_sum_domination")
    rec.instances = 1
    dist = instance.dist
    for a in range(dist.shape[1]):
        order = np.argsort(-dist[:, a], kind="stable")
        prefix = np.cumsum(dist[order, :], axis=0)
        for j, p in enumerate(ks):
            lhs = prefix[p - 1, :]
            rhs = costs[:, j]
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            slack = (lhs - rhs) / scale
            worst = int(np.argmax(slack))
            rec.add(
                float(slack[worst]),
                {"selector": flabels[a], "p": p, "facility": flabels[worst]},
                tol,
            )

    if metric and 2 <= len(ks) <= 5:
        rec = report.check("cycle_min_edge_bound")
        rec.instances = 1
        betas = {size: beta_q(size) for size in range(2, len(ks) + 1)}
        for cycle in _simple_cycles(len(ks)):
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            low = min(float(weights[u, v]) for u, v in edges)
            rec.add(
                low - betas[len(cycle)],
                {"cycle": [ks[c] for c in cycle]},
                tol,
            )

    return report


@dataclass
class PairSweepConfig:
    """Settings for the randomized pair-rule sweep.

    With shared=True the instances place facilities on the client
    points and the exhaustive rule is measured against the stronger
    shared-location bound instead.
    """

    instances: int = 50
    seed: int = 0
    max_clients: int = 60
    max_facilities: int = 12
    kinds: tuple = ("euclidean", "graph")
    pairs_per_instance: int = 3
    tight_xs: tuple = (1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 10.0, 100.0)
    shared: bool = False
    include_checks: bool = True
    tol: float = 1e-9

    def validate(self) -> None:
        if not isinstance(self.instances, int) or self.instances < 0:
            raise BadConfig("instances must be a non-negative integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise BadConfig("seed must be a non-negative integer")
        if not (isinstance(self.tol, float) and math.isfinite(self.tol) and self.tol > 0):
            raise BadConfig("tol must be a positive finite float")
        if self.max_clients < 4 or self.max_facilities < 2:
            raise BadConfig("need max_clients >= 4 and max_facilities >= 2")
        if self.pairs_per_instance < 1:
            raise BadConfig("pairs_per_instance must be >= 1")
        for kind in self.kinds:
            if kind not in ("euclidean", "graph"):
                raise BadConfig("unknown instance kind %r" % (kind,))
        if not self.kinds:
            raise BadConfig("kinds must be non-empty")
        for x in self.tight_xs:
            if not (x > 1.0 and math.isfinite(x)):
                raise BadConfig("tight_xs entries must be finite and > 1")
            if Fraction(x).limit_denominator(1000) != Fraction(x):
                raise BadConfig("tight x=%r is not a small rational" % (x,))

    def to_jsonable(self) -> dict:
        return {
            "sweep": "pair",
            "instances": self.instances,
            "seed": self.seed,
            "max_clients": self.max_clients,
            "max_facilities": self.max_facilities,
            "kinds": list(self.kinds),
            "pairs_per_instance": self.pairs_per_instance,
            "tight_xs": list(self.tight_xs),
            "shared": self.shared,
            "include_checks": self.include_checks,
            "tol": self.tol,
        }


_X_BUCKETS = (1.5, 2.0, 3.0, 4.0, 6.0, 10.0, 100.0, math.inf)


def _x_bucket(x: float, prefix: str = "pair_guarantee", shared: bool = False) -> tuple:
    fn = pair_bound_shared if shared else pair_bound_f
    for edge in _X_BUCKETS:
        if x <= edge:
            if math.isinf(edge):
                bound = 2.0 if shared else PAIR_LIMIT
                tag = "inf"
            else:
                bound = fn(edge)
                tag = "%g" % edge
            return "%s[x<=%s]" % (prefix, tag), bound
    raise AssertionError("unreachable")


def _ratio_for_tight_x(x: float) -> tuple:
    frac = Fraction(x).limit_denominator(1000)
    return frac.denominator, frac.numerator


def _random_instance(kind: str, rng, max_clients: int, max_facilities: int) -> object:
    seed = int(rng.integers(0, 2**63 - 1))
    n = int(rng.integers(4, max_clients + 1))
    m = int(rng.integers(2, max_facilities + 1))
    if kind == "euclidean":
        dim = int(rng.integers(1, 4))
        return gen_random_euclidean(n, m, dim=dim, seed=seed)
    n_vertices = int(rng.integers(4, max(5, max_clients // 2) + 1))
    density = float(rng.uniform(0.1, 0.6))
    return gen_random_graph_metric(
        n_vertices, edge_density=density, seed=seed, n_clients=n, m_facilities=m
    )


def _pair_job(config: PairSweepConfig, index: int) -> VerificationReport:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, index])))
    if config.shared:
        seed = int(rng.integers(0, 2**63 - 1))
        n = int(rng.integers(5, config.max_clients + 1))
        dim = int(rng.integers(1, 4))
        inst = gen_random_euclidean(n, None, dim=dim, seed=seed, shared=True)
    else:
        kind = config.kinds[index % len(config.kinds)]
        inst = _random_instance(kind, rng, config.max_clients, config.max_facilities)
    report = VerificationReport()
    n = inst.n_clients
    ks_seen = set()
    for _ in range(config.pairs_per_instance):
        k = int(rng.integers(1, n))
        p = int(rng.integers(k + 1, n + 1))
        ks_seen.update((k, p))
        x = p / k
        result = select_pair(inst, k, p)
        name, bucket_bound = _x_bucket(x)
        report.bound(name, bucket_bound).add(
            result.worst_ratio, pair_bound_f(x), config.tol
        )
        if config.shared:
            oracle = select_exhaustive(inst, (k, p))
            name, bucket_bound = _x_bucket(x, prefix="shared_guarantee", shared=True)
            report.bound(name, bucket_bound).add(
                oracle.worst_ratio, pair_bound_shared(x), config.tol
            )
    if config.include_checks:
        report.merge(check_inequalities(inst, sorted(ks_seen), tol=config.tol))
    return report


def _tight_pair_job(config: PairSweepConfig, x: float) -> VerificationReport:
    k, p = _ratio_for_tight_x(x)
    inst = gen_tight_pair_line(k, p) if x > 4.0 else gen_tight_pair_triangle(k, p)
    report = VerificationReport()
    result = select_pair(inst, k, p)
    name, bucket_bound = _x_bucket(p / k)
    report.bound(name, bucket_bound).add(result.worst_ratio, pair_bound_f(p / k), config.tol)
    if config.include_checks:
        report.merge(check_inequalities(inst, (k, p), tol=config.tol))
    return report


def sweep_pair(config: PairSweepConfig | None = None) -> VerificationReport:
    """Randomized + worst-case sweep of the two-objective rule.

    Deterministic for a fixed config: each job draws from its own seeded
    stream and the partial reports merge in job order.
    """
    config = config or PairSweepConfig()
    config.validate()
    report = VerificationReport(config=config.to_jsonable())
    for i in range(config.instances):
        report.merge(_pair_job(config, i))
    for x in config.tight_xs:
        report.merge(_tight_pair_job(config, float(x)))
    return report


@dataclass
class MultiSweepConfig:
    """Settings for the randomized many-objective sweep."""

    instances: int = 50
    seed: int = 0
    max_clients: int = 60
    max_facilities: int = 12
    kinds: tuple = ("euclidean", "graph")
    qs: tuple = (3, 4, 5)
    tight_sizes: tuple = ((60, 3600),)
    include_checks: bool = True
    tol: float = 1e-9

    def validate(self) -> None:
        if not isinstance(self.instances, int) or self.instances < 0:
            raise BadConfig("instances must be a non-negative integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise BadConfig("seed must be a non-negative integer")
        if not (isinstance(self.tol, float) and math.isfinite(self.tol) and self.tol > 0):
            raise BadConfig("tol must be a positive finite float")
        if not self.qs or any(not isinstance(q, int) or q < 2 for q in self.qs):
            raise BadConfig("qs must be integers >= 2")
        if self.max_clients < max(self.qs) + 1:
            raise BadConfig("max_clients too small for the largest q")
        for kind in self.kinds:
            if kind not in ("euclidean", "graph"):
                raise BadConfig("unknown instance kind %r" % (kind,))
        if not self.kinds:
            raise BadConfig("kinds must be non-empty")
        for size in self.tight_sizes:
            k, n = size
            if not (isinstance(k, int) and isinstance(n, int) and 1 < k < n):
                raise BadConfig("tight_sizes entries need 1 < k < n")

    def to_jsonable(self) -> dict:
        return {
            "sweep": "multi",
            "instances": self.instances,
            "seed": self.seed,
            "max_clients": self.max_clients,
            "max_facilities": self.max_facilities,
            "kinds": list(self.kinds),
            "qs": list(self.qs),
            "tight_sizes": [list(s) for s in self.tight_sizes],
            "include_checks": self.include_checks,
            "tol": self.tol,
        }


def _multi_job(config: MultiSweepConfig, index: int) -> VerificationReport:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, index])))
    kind = config.kinds[index % len(config.kinds)]
    q = config.qs[index % len(config.qs)]
    inst = _random_instance(kind, rng, config.max_clients, config.max_facilities)
    n = inst.n_clients
    q = min(q, n)
    ks = tuple(int(v) for v in np.sort(rng.choice(np.arange(1, n + 1), size=q, replace=False)))
    report = VerificationReport()
    graph_result = select_multi_graph(inst, ks)
    oracle = select_exhaustive(inst, ks)
    bound = beta_q(q) if q >= 2 else 1.0
    report.bound("multi_guarantee[q=%d]" % q, bound).add(
        graph_result.worst_ratio, bound, config.tol
    )
    # informational: how far the rule sits above the best single facility
    gap = report.bound("multi_vs_oracle_gap[q=%d]" % q, float("inf"))
    gap.add(graph_result.worst_ratio - oracle.worst_ratio, float("inf"), config.tol)
    if config.include_checks:
        report.merge(check_inequalities(inst, ks, tol=config.tol))
    return report


def _tight_multi_job(config: MultiSweepConfig, k: int, n: int) -> VerificationReport:
    inst = gen_tight_triple(k, n)
    ks = (1, k, n)
    report = VerificationReport()
    result = select_multi_graph(inst, ks)
    bound = beta_q(3)
    report.bound("multi_guarantee[q=3,tight]", bound).add(
        result.worst_ratio, bound, config.tol
    )
    if config.include_checks:
        report.merge(check_inequalities(inst, ks, tol=config.tol))
    return report


def sweep_multi(config: MultiSweepConfig | None = None) -> VerificationReport:
    """Randomized + worst-case sweep of the many-objective rule."""
    config = config or MultiSweepConfig()
    config.validate()
    report = VerificationReport(config=config.to_jsonable())
    for i in range(config.instances):
        report.merge(_multi_job(config, i))
    for k, n in config.tight_sizes:
        report.merge(_tight_multi_job(config, k, n))
    return report


def emit_bound_curves(
    x_max: float = 20.0,
    x_step: float = 0.05,
    q_max: int = 20,
    out_dir=".",
) -> tuple:
    """Write the guarantee curves to two CSV files.

    pair_bounds.csv holds x, the pair bound, and its shared-location
    variant on a grid from 1 to x_max; multi_bounds.csv holds beta(q)
    for q = 2..q_max. Returns the two paths.
    """
    if not (math.isfinite(x_max) and x_max > 1.0):
        raise BadConfig("x_max must be finite and > 1")
    if not (math.isfinite(x_step) and 0 < x_step <= x_max - 1.0):
        raise BadConfig("x_step must be positive and fit the range")
    if not isinstance(q_max, int) or q_max < 2:
        raise BadConfig("q_max must be an integer >= 2")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pair_path = out / "pair_bounds.csv"
    count = int(math.floor((x_max - 1.0) / x_step + 1e-9)) + 1
    xs = [1.0 + i * x_step for i in range(count)]
    if xs[-1] < x_max - 1e-12:
        xs.append(x_max)
    with open(pair_path, "w", encoding="utf-8") as fh:
        fh.write("x,pair_bound,shared_bound\n")
        for x in xs:
            fh.write(
                "%s,%s,%s\n"
                % (
                    format(x, ".17g"),
                    format(pair_bound_f(x), ".17g"),
                    format(pair_bound_shared(x), ".17g"),
                )
            )
    beta_path = out / "multi_bounds.csv"
    with open(beta_path, "w", encoding="utf-8") as fh:
        fh.write("q,beta\n")
        for q in range(2, q_max + 1):
            fh.write("%d,%s\n" % (q, format(beta_q(q), ".17g")))
    return pair_path, beta_path
