"""Empirical verification: inequality checks, randomized sweeps, curves.

check_inequalities runs every structural inequality the cost function
and the optima are supposed to satisfy on one instance. The sweep
functions generate many seeded instances, run the selection rules, and
confirm the observed worst ratios stay below the guarantees, recording
per-bucket maxima so tightness is visible in the report. Reports
serialize deterministically so runs can be diffed.
"""

import math
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path

import numpy as np

from .bounds import PAIR_LIMIT, beta_q, multi_guarantee, pair_bound_f, pair_bound_shared
from .errors import BadConfig
from .generators import (
    gen_random_euclidean,
    gen_random_graph_metric,
    gen_tight_pair_line,
    gen_tight_pair_triangle,
    gen_tight_triple,
)
from .jsonutil import dump_path
from .metric import _gather
from .objectives import _client_runs, _run_sums, cost_profile, graph_from_profile
from .selection import select_exhaustive, select_multi_graph, select_pair

_VIOLATION_CAP = 25  # per check, to keep reports readable
# cap on the cells of the subset-sum prefix sums or a walk product held
# at once: 256 KB, so 10^6 clients run one selector per block
_BLOCK_CELLS = 1 << 15


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

    def add_many(self, slacks, details_fn, tol: float = 0.0) -> None:
        """add(slacks[i], details_fn(i), tol) for each i in order.

        details_fn is called only for the violations kept as examples.
        """
        slacks = np.asarray(slacks, dtype=float)
        self.comparisons += slacks.size
        seen = slacks[~np.isnan(slacks)]
        if seen.size:
            # argmax takes the first maximum, as add's strict > does
            top = float(seen[np.argmax(seen)])
            if top > self.max_slack:
                self.max_slack = top
        bad = np.flatnonzero(slacks > tol)
        self.violation_count += bad.size
        for i in bad[: _VIOLATION_CAP - len(self.violations)]:
            self.violations.append(dict(details_fn(int(i)), slack=float(slacks[i])))

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
        for ours, theirs in ((self.checks, other.checks), (self.bounds, other.bounds)):
            for name, rec in theirs.items():
                if name in ours:
                    ours[name].merge(rec)
                else:
                    ours[name] = rec

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


def _rel(lhs, rhs):
    """Signed slacks of lhs <= rhs, relative to the scale involved."""
    return (lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


@cache
def _betas(q: int) -> tuple:
    return tuple(beta_q(size) for size in range(2, q + 1))


def _bottleneck_walks(weights) -> tuple:
    """(walks, best) over the off-diagonal entries of q x q weights:
    walks[i][x, z] is the largest min edge over walks of i + 1 edges
    from x to z, a (max, min) matrix power in row blocks of at most
    _BLOCK_CELLS cells, and best[L - 2] the largest diagonal entry of
    walks[L - 1]. The powers stop once best reaches the (max, min)
    closure's diagonal, which no closed walk exceeds; best is -inf after."""
    q = len(weights)
    edges = np.array(weights, dtype=float)
    np.fill_diagonal(edges, -np.inf)
    reach = edges.copy()
    for y in range(q):  # Floyd-Warshall: row and column y stay fixed
        np.maximum(reach, np.minimum(reach[:, y, None], reach[y]), out=reach)
    walks, best = [edges], np.full(q - 1, -np.inf)
    step = max(1, _BLOCK_CELLS // q**2)
    while best.max() < reach.diagonal().max():
        blocks = (walks[-1][a : a + step, :, None] for a in range(0, q, step))
        walks.append(np.concatenate([np.minimum(b, edges).max(axis=1) for b in blocks]))
        best[len(walks) - 2] = walks[-1].diagonal().max()
    return walks, best


def _witness_cycle(walks, best, low: float) -> list:
    """The simple cycle with every edge >= low, a value of best, read
    back through walks from the smallest node that reaches low at the
    first length any does. No shorter closed walk reaches low, so it
    repeats no node, and its other nodes reach low there too."""
    size = int(np.argmax(best >= low)) + 2
    x = z = int(np.argmax(walks[size - 1].diagonal() >= low))
    cycle = [x]
    for i in range(size - 2, -1, -1):  # z's predecessor, i + 1 edges from x
        z = int(np.argmax((walks[i][x] >= low) & (walks[0][:, z] >= low)))
        cycle.insert(1, z)
    return cycle


def _farthest_runs(instance, runs, selector: int) -> tuple:
    """The clients from farthest to nearest to one facility, ties by
    client index (a stable argsort of the negated distances, as the
    plain subset-sum check takes them), as runs of consecutive clients
    at one location: (cross rows, counts).

    runs is _client_runs(instance). Each location is one run unless
    two are equidistant from the facility; then the runs are the
    instance's _client_blocks, stably sorted by distance, and _run_sums
    gives the same bits however a location's clients are split.
    """
    rows, counts, local = runs
    col = local[:, selector]
    if np.any(np.diff(np.sort(col)) == 0):  # finite, so only equal entries differ by 0
        col = col[np.searchsorted(rows, instance._client_blocks[0])]
        rows, counts = instance._client_blocks
    order = np.argsort(-col, kind="stable")
    return rows[order], counts[order]


def check_inequalities(instance, objectives, tol: float = 1e-9) -> VerificationReport:
    """Run every structural inequality on one instance.

    Cost-only inequalities run always; the ones whose proofs lean on
    the triangle inequality need a metric instance (metric_verified):
    points, or cross distances, which every other generated instance
    carries (the tight families as a location metric, at any size).
    Its metric_axioms record comes from instance.violations(tol), which
    validates only where rounding could show. Returns a report with one
    record per check, each one array pass over all rank pairs,
    selectors or cycle lengths L = 2..q, in that order. The largest min
    edge over simple cycles of at most L nodes is checked against
    beta(L): it is the largest over closed walks of at most L edges, as
    each holds such a cycle whose min edge is no smaller.
    """
    profile = cost_profile(instance, objectives)
    report = VerificationReport()
    ks = profile.ks
    costs = profile.costs.T  # (q, m)
    opt = profile.optimal_costs
    metric = instance.metric_verified
    weights = graph_from_profile(profile).weights
    flabels = instance.facility_labels
    ranks = np.array(ks)
    q, m = costs.shape

    def record(name, slacks, details_fn):
        rec = report.check(name)
        rec.instances = 1
        rec.add_many(slacks, details_fn, tol)
        return rec

    if metric:
        violations = instance.violations(tol)
        rec = record(
            "metric_axioms", [v.slack for v in violations], lambda i: violations[i].to_jsonable()
        )
        if rec.comparisons == 0:
            rec.add(0.0)

    lo, hi = np.triu_indices(q, 1)  # rank pairs i < j, in combinations order
    if lo.size:
        pairs = [{"k": ks[i], "p": ks[j]} for i, j in zip(lo.tolist(), hi.tolist())]
        k, p = ranks[lo], ranks[hi]

        def facility_check(name, lhs, rhs):
            # per pair, facilities from the largest slack down, ties by
            # facility index (a stable sort, so the order is the same on
            # every numpy build)
            slack = _rel(lhs, rhs)
            order = np.argsort(-slack, axis=1, kind="stable")
            record(
                name,
                np.take_along_axis(slack, order, axis=1).ravel(),
                lambda i: dict(pairs[i // m], facility=flabels[order[i // m, i % m]]),
            )

        c_k, c_p = costs[lo], costs[hi]
        facility_check("costs_monotone_in_k", c_k, c_p)
        facility_check("topk_sum_scaling", c_p, (p / k)[:, None] * c_k)
        facility_check("tail_average_bound", (k / (p - k))[:, None] * (c_p - c_k), c_k)
        a_kp = weights[hi, lo]  # optimum of p measured under k
        a_pk = weights[lo, hi]  # optimum of k measured under p
        record("ratio_product_bound", _rel(a_kp * a_pk, p / k), pairs.__getitem__)
        record(
            "opt_cost_cross_bound_downward",
            _rel((k / p) * a_pk * opt[hi], opt[lo]),
            pairs.__getitem__,
        )
        if metric:
            record("reciprocal_pair_bound", _rel(a_kp, 1.0 / a_pk + 2.0), pairs.__getitem__)
            small = np.flatnonzero(2 * k <= p)
            if small.size:
                record(
                    "reciprocal_pair_bound_small_ratio",
                    _rel(a_kp[small], 1.0 / a_pk[small] + 2.0 - 2.0 * k[small] / p[small]),
                    lambda i: pairs[small[i]],
                )
            record(
                "opt_cost_cross_bound_upward",
                _rel((p / k) * (a_kp - 2.0) * opt[lo], opt[hi]),
                pairs.__getitem__,
            )

    # any p distinct clients sum to at most the objective-p cost; the
    # extremal candidates are the p clients farthest from some facility
    worst = np.empty((m, q), dtype=np.intp)
    top = np.empty((m, q))
    form = _client_runs(instance)
    if isinstance(form, np.ndarray):  # the plain dist
        step = max(1, _BLOCK_CELLS // form.size)
        for a in range(0, m, step):
            block = slice(a, a + step)
            order = np.argsort(-form[:, block], axis=0, kind="stable")
            prefix = form[order.T]  # (selectors, n, m), farthest clients first
            np.cumsum(prefix, axis=1, out=prefix)
            slack = _rel(prefix[:, ranks - 1, :], costs)
            worst[block] = np.argmax(slack, axis=2)
            top[block] = np.take_along_axis(slack, worst[block, :, None], axis=2)[..., 0]
    else:
        for a in range(m):
            rows, counts = _farthest_runs(instance, form, a)
            local = _gather(instance.cross, rows, instance.locations[1])
            prefix = np.array([_run_sums(local[:, f], counts, ks) for f in range(m)]).T
            slack = _rel(prefix, costs)
            worst[a] = np.argmax(slack, axis=1)
            top[a] = np.take_along_axis(slack, worst[a, :, None], axis=1)[:, 0]
    record(
        "subset_sum_domination",
        top.ravel(),
        lambda i: {"selector": flabels[i // q], "p": ks[i % q], "facility": flabels[worst.flat[i]]},
    )

    if metric and q >= 2:
        walks, best = _bottleneck_walks(weights)
        low = np.maximum.accumulate(best)
        record("cycle_min_edge_bound", low - _betas(q), lambda i: {
            "length": i + 2, "cycle": [ks[c] for c in _witness_cycle(walks, best, low[i])]})

    return report


_KINDS = ("euclidean", "graph")  # random instance kinds, alternated by job index
_PAIRS_PER_INSTANCE = 3
# the tight pair jobs as (k, p), at x = p/k = 1.5, 2, 3, 4, 4.5, 6, 10,
# 100: the triangle family up to x = 4 and the line family above
_TIGHT_PAIRS = ((2, 3), (1, 2), (1, 3), (1, 4), (2, 9), (1, 6), (1, 10), (1, 100))


@dataclass
class _SweepConfig:
    """The settings both sweeps have, their checks and their JSON form."""

    _sweep = ""  # the report's "sweep" value, set by each subclass; not a field

    instances: int = 50
    seed: int = 0
    max_clients: int = 60
    max_facilities: int = 12
    tol: float = 1e-9

    def validate(self) -> None:
        for name in ("instances", "seed", "max_clients", "max_facilities"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise BadConfig("%s must be a non-negative integer" % name)
        if not (isinstance(self.tol, float) and math.isfinite(self.tol) and self.tol > 0):
            raise BadConfig("tol must be a positive finite float")
        # a random instance draws 4..max_clients clients, 2..max_facilities facilities
        if self.max_clients < 4 or self.max_facilities < 2:
            raise BadConfig("need max_clients >= 4 and max_facilities >= 2")

    def to_jsonable(self) -> dict:
        """{"sweep": ..., **fields} in field order, with tuples (nested
        ones too) as lists."""

        def plain(value):
            return [plain(v) for v in value] if isinstance(value, (tuple, list)) else value

        return {"sweep": self._sweep, **{f.name: plain(getattr(self, f.name)) for f in fields(self)}}


@dataclass
class PairSweepConfig(_SweepConfig):
    """Settings for the randomized pair-rule sweep.

    Each random job alternates Euclidean and graph instances by job
    index (_KINDS) and draws three (k, p) pairs (_PAIRS_PER_INSTANCE);
    eight tight jobs follow, at x = p/k in 1.5, 2, 3, 4, 4.5, 6, 10 and
    100 (_TIGHT_PAIRS). Every job also runs check_inequalities.

    With shared=True the instances place facilities on the client
    points and the exhaustive rule is measured against the stronger
    shared-location bound too.
    """

    _sweep = "pair"

    shared: bool = False

    def validate(self) -> None:
        super().validate()
        if not isinstance(self.shared, bool):
            raise BadConfig("shared must be a bool")
        if self.shared and self.max_clients < 5:
            raise BadConfig("a shared sweep needs max_clients >= 5")


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


def _random_instance(index: int, rng, max_clients: int, max_facilities: int) -> object:
    seed = int(rng.integers(0, 2**63 - 1))
    n = int(rng.integers(4, max_clients + 1))
    m = int(rng.integers(2, max_facilities + 1))
    if _KINDS[index % len(_KINDS)] == "euclidean":
        dim = int(rng.integers(1, 4))
        return gen_random_euclidean(n, m, dim=dim, seed=seed)
    n_vertices = int(rng.integers(4, max(5, max_clients // 2) + 1))
    density = float(rng.uniform(0.1, 0.6))
    return gen_random_graph_metric(
        n_vertices, edge_density=density, seed=seed, n_clients=n, m_facilities=m
    )


def _draw_pair_job(config: PairSweepConfig, index: int) -> tuple:
    """The instance and the (k, p) pairs of random job index, drawn from
    the job's own stream."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, index])))
    if config.shared:
        seed = int(rng.integers(0, 2**63 - 1))
        n = int(rng.integers(5, config.max_clients + 1))
        dim = int(rng.integers(1, 4))
        inst = gen_random_euclidean(n, None, dim=dim, seed=seed, shared=True)
    else:
        inst = _random_instance(index, rng, config.max_clients, config.max_facilities)
    n = inst.n_clients
    pairs = []
    for _ in range(_PAIRS_PER_INSTANCE):
        k = int(rng.integers(1, n))
        pairs.append((k, int(rng.integers(k + 1, n + 1))))
    return inst, pairs


def _pair_job(config: PairSweepConfig, inst, pairs, shared: bool) -> VerificationReport:
    """select_pair for each (k, p) of pairs against f(p/k), and with
    shared the exhaustive rule against the shared bound; then
    check_inequalities once, on the sorted ranks of all pairs."""
    report = VerificationReport()
    for k, p in pairs:
        x = p / k
        result = select_pair(inst, k, p)
        name, bucket_bound = _x_bucket(x)
        report.bound(name, bucket_bound).add(result.worst_ratio, pair_bound_f(x), config.tol)
        if shared:
            oracle = select_exhaustive(inst, (k, p))
            name, bucket_bound = _x_bucket(x, prefix="shared_guarantee", shared=True)
            report.bound(name, bucket_bound).add(
                oracle.worst_ratio, pair_bound_shared(x), config.tol
            )
    ranks = sorted({rank for pair in pairs for rank in pair})
    report.merge(check_inequalities(inst, ranks, tol=config.tol))
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
        inst, pairs = _draw_pair_job(config, i)
        report.merge(_pair_job(config, inst, pairs, config.shared))
    for k, p in _TIGHT_PAIRS:
        inst = gen_tight_pair_line(k, p) if p > 4 * k else gen_tight_pair_triangle(k, p)
        report.merge(_pair_job(config, inst, [(k, p)], False))
    return report


@dataclass
class MultiSweepConfig(_SweepConfig):
    """Settings for the randomized many-objective sweep.

    Random job i alternates Euclidean and graph instances (_KINDS) and
    draws qs[i % len(qs)] ranks; one tight triple job per (k, n) of
    tight_sizes follows. Every job also runs check_inequalities.
    """

    _sweep = "multi"

    qs: tuple = (3, 4, 5)
    tight_sizes: tuple = ((60, 3600),)

    def validate(self) -> None:
        super().validate()
        if not self.qs or any(not isinstance(q, int) or q < 2 for q in self.qs):
            raise BadConfig("qs must be integers >= 2")
        if self.max_clients < max(self.qs) + 1:
            raise BadConfig("max_clients too small for the largest q")
        for size in self.tight_sizes:
            k, n = size
            if not (isinstance(k, int) and isinstance(n, int) and 1 < k < n):
                raise BadConfig("tight_sizes entries need 1 < k < n")


def _multi_job(config: MultiSweepConfig, index: int) -> VerificationReport:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, index])))
    q = config.qs[index % len(config.qs)]
    inst = _random_instance(index, rng, config.max_clients, config.max_facilities)
    n = inst.n_clients
    q = min(q, n)
    ks = tuple(int(v) for v in np.sort(rng.choice(np.arange(1, n + 1), size=q, replace=False)))
    report = VerificationReport()
    graph_result = select_multi_graph(inst, ks)
    oracle = select_exhaustive(inst, ks)
    bound = multi_guarantee(q).value
    report.bound("multi_guarantee[q=%d]" % q, bound).add(
        graph_result.worst_ratio, bound, config.tol
    )
    # informational: how far the rule sits above the best single facility
    gap = report.bound("multi_vs_oracle_gap[q=%d]" % q, float("inf"))
    gap.add(graph_result.worst_ratio - oracle.worst_ratio, float("inf"), config.tol)
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
