"""Inequality checker and seeded sweep harness."""

import csv
import dataclasses
import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from centrum import (
    MultiSweepConfig,
    PairSweepConfig,
    build_from_points,
    check_inequalities,
    emit_bound_curves,
    gen_random_euclidean,
    gen_random_graph_metric,
    gen_tight_pair_line,
    gen_tight_pair_triangle,
    gen_tight_triple,
    jsonutil,
    ratio_graph,
    select_exhaustive,
    select_largest_objective,
    select_multi_graph,
    select_pair,
    sweep_multi,
    sweep_pair,
)
from centrum import harness, objectives
from centrum.bounds import beta_q
from centrum.errors import BadConfig
from centrum.harness import CheckRecord, VerificationReport
from centrum.metric import MetricInstance, build_from_matrix
from centrum.objectives import _SHORT_RUN, _client_runs, cost_profile, graph_from_profile
from conftest import graph_instances, point_instances, raw_instances, subset_sum_plain

SQRT2 = math.sqrt(2.0)
BETA3 = (3.0 + math.sqrt(5.0)) / 2.0

METRIC_CHECKS = (
    "reciprocal_pair_bound",
    "opt_cost_cross_bound_upward",
    "cycle_min_edge_bound",
)
UNIVERSAL_CHECKS = (
    "costs_monotone_in_k",
    "topk_sum_scaling",
    "tail_average_bound",
    "ratio_product_bound",
    "opt_cost_cross_bound_downward",
    "subset_sum_domination",
)


_SLACKS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1e-9, 1e-3, -1.0, 2.0, math.nan]),
              st.floats(-3.0, 3.0)),
    max_size=40,
)


class TestCheckRecordAddMany:
    """add_many against a loop of add, the code it replaced."""

    @given(_SLACKS, _SLACKS, st.sampled_from([0.0, 1e-9, 0.5]))
    def test_matches_add_loop(self, before, slacks, tol):
        one, many = CheckRecord("c"), CheckRecord("c")
        for rec in (one, many):
            for i, s in enumerate(before):
                rec.add(s, {"i": i}, tol)
        for i, s in enumerate(slacks):
            one.add(s, {"j": i}, tol)
        many.add_many(np.array(slacks), lambda i: {"j": i}, tol)
        assert many.comparisons == one.comparisons
        assert many.violation_count == one.violation_count
        assert many.violations == one.violations
        assert math.copysign(1.0, many.max_slack) == math.copysign(1.0, one.max_slack)
        assert many.max_slack == one.max_slack

    def test_details_built_only_for_kept_examples(self):
        rec = CheckRecord("c")
        built = []
        rec.add_many(np.ones(100), lambda i: built.append(i) or {"i": i}, 0.0)
        assert built == list(range(25))
        assert rec.violation_count == 100


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


def _cycle_lows(weights):
    """(L, low, witness) for L = 2..q, by enumeration: low is the largest
    min edge over the simple cycles of at most L nodes, and the witness
    the one check_inequalities names, among the cycles with every edge
    >= low: of the fewest nodes, then the smallest first node, then
    the smallest last node, the smallest node before it, and so on."""
    cycles = list(_simple_cycles(len(weights)))
    mins = [min(weights[u, v] for u, v in zip(c, c[1:] + c[:1])) for c in cycles]
    for size in range(2, len(weights) + 1):
        low = max(w for c, w in zip(cycles, mins) if len(c) <= size)
        reach = [c for c, w in zip(cycles, mins) if w >= low]
        fewest = min(len(c) for c in reach)
        yield size, low, min((c for c in reach if len(c) == fewest), key=lambda c: (c[0], c[:0:-1]))


def loop_check_inequalities(instance, objectives, tol: float = 1e-9) -> VerificationReport:
    """The per-pair, per-selector loop that check_inequalities replaced,
    kept as its differential oracle. Tied facility slacks are listed by
    facility index, as check_inequalities lists them."""
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
        order = np.argsort(-slack, kind="stable")
        rec.add_many(slack[order], lambda i: dict(detail, facility=flabels[order[i]]), tol)

    if metric:
        rec = report.check("metric_axioms")
        rec.instances = 1
        violations = instance.violations(tol)
        rec.add_many([v.slack for v in violations], lambda i: violations[i].to_jsonable(), tol)
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

    if metric and len(ks) >= 2:
        rec = report.check("cycle_min_edge_bound")
        rec.instances = 1
        for size, low, cycle in _cycle_lows(weights):
            rec.add(low - beta_q(size), {"length": size, "cycle": [ks[c] for c in cycle]}, tol)

    return report


_DEGENERATE = build_from_matrix([[0.0, 5.0], [0.0, 6.0]])
_BROKEN_CROSS = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
_BROKEN = MetricInstance(dist=_BROKEN_CROSS[:2, 2:], cross=_BROKEN_CROSS, provenance={})


@st.composite
def _family_instances(draw):
    if draw(st.booleans()):
        k = draw(st.integers(2, 6))
        return gen_tight_triple(k, k * draw(st.integers(2, 6)))
    k = draw(st.integers(1, 3))
    p = draw(st.integers(k + 1, 16))
    return gen_tight_pair_line(k, p) if p > 4 * k else gen_tight_pair_triangle(k, p)


@st.composite
def _tied_instances(draw):
    """Small integer distances, so slacks tie often: a bare matrix, or
    integer points under L1, which give a verified metric."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 5))
    if draw(st.booleans()):
        cells = st.lists(st.integers(0, 3), min_size=m, max_size=m)
        return build_from_matrix(np.array(draw(st.lists(cells, min_size=n, max_size=n)), float))
    coords = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
    cpts = draw(st.lists(coords, min_size=n, max_size=n))
    fpts = draw(st.lists(coords, min_size=m, max_size=m))
    return build_from_points(cpts, fpts, norm=1)


def _tied_l1():
    """L1 distances from 60 clients to 40 facilities on a 3x3 grid, so
    each row holds long runs of tied slacks."""
    rng = np.random.default_rng(9)
    cpts, fpts = rng.integers(0, 3, (60, 1, 2)), rng.integers(0, 3, (1, 40, 2))
    return build_from_matrix(np.abs(cpts - fpts).sum(axis=2))


_ANY_INSTANCE = st.one_of(
    raw_instances(),
    point_instances(),
    graph_instances(),
    _family_instances(),
    _tied_instances(),
    st.sampled_from([_DEGENERATE, _BROKEN]),
)


def _report_bytes(fn, instance, ks, tol) -> str:
    return jsonutil.dumps(fn(instance, ks, tol=tol).to_jsonable())


class TestCheckInequalitiesOracle:
    """check_inequalities against the loop it replaced, byte for byte."""

    @pytest.mark.filterwarnings("ignore::centrum.errors.DegenerateOptimum")
    @settings(max_examples=120)
    @given(_ANY_INSTANCE, st.data(), st.sampled_from([1e-9, 0.0, -1.0]))
    def test_matches_loop(self, instance, data, tol):
        # q = 1 has no pairs or cycles; tol = -1 makes every comparison
        # an example, which pins the order and the cap
        n, m = instance.dist.shape
        ranks = st.sets(st.integers(1, n), min_size=1, max_size=min(n, 6))
        ks = tuple(sorted(data.draw(ranks, label="ks")))
        expected = _report_bytes(loop_check_inequalities, instance, ks, tol)
        for cap in (harness._BLOCK_CELLS, 1, n * m - 1, 2 * n * m):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "_BLOCK_CELLS", cap)
                assert _report_bytes(check_inequalities, instance, ks, tol) == expected, cap

    @pytest.mark.parametrize("tol", [1e-9, 0.0, -1.0])
    @pytest.mark.parametrize("family", ["euclid", "tied", "triple"])
    def test_matches_loop_on_sweep_sizes(self, tol, family):
        if family == "euclid":
            instance = gen_random_euclidean(60, 12, dim=2, seed=9)
        elif family == "triple":
            instance = gen_tight_triple(10, 60)
        else:
            instance = _tied_l1()
        n, m = instance.dist.shape
        for ks in [(1, 7, 30, 59, 60), (2, 3, 4, 5, 6, 40)]:
            expected = _report_bytes(loop_check_inequalities, instance, ks, tol)
            for selectors_per_block in (None, 1, 5):
                with pytest.MonkeyPatch.context() as mp:
                    if selectors_per_block is not None:
                        cap = selectors_per_block * n * m
                        mp.setattr(harness, "_BLOCK_CELLS", cap)
                    assert _report_bytes(check_inequalities, instance, ks, tol) == expected

    def test_tied_slacks_listed_by_facility(self):
        # in costs_monotone_in_k, f6, f22, f27, f30 and f32 tie at the
        # larger slack of the (1, 7) pair and every other facility at the
        # smaller one; in the other two checks every facility but f6 and
        # f22 ties at slack 0. numpy 2.4's default (unstable) sort listed
        # the first check as f32, f22, f27, f30, f6, f39, f37, ...
        report = check_inequalities(_tied_l1(), (1, 7, 30, 59, 60), tol=-1.0)
        at_zero = [j for j in range(27) if j not in (6, 22)]
        expected = {
            "costs_monotone_in_k": [6, 22, 27, 30, 32] + list(range(6)) + list(range(7, 21)),
            "topk_sum_scaling": at_zero,
            "tail_average_bound": at_zero,
        }
        for name, facilities in expected.items():
            examples = report.checks[name].violations
            assert [e["facility"] for e in examples] == ["f%d" % j for j in facilities]
            assert all((e["k"], e["p"]) == (1, 7) for e in examples)

    def test_memory_on_large_triple(self):
        # the subset-sum pass gathers one selector's prefix sums at a time
        # at this size; 8_010_437 bytes is the peak of the per-selector
        # loop it replaced (numpy 2.4), which held a second copy of them
        instance = gen_tight_triple(10**2, 10**5)
        tracemalloc.start()
        try:
            check_inequalities(instance, (1, 10**2, 10**5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8_010_437


def _run_form(instance) -> bool:
    return isinstance(_client_runs(instance), tuple)


class TestRunFormChecks:
    """Located instances with a client location of _SHORT_RUN clients or
    more take the run form of the top-k kernel and of the subset-sum
    check. Every output equals the plain form's, byte for byte."""

    @pytest.mark.filterwarnings("ignore::centrum.errors.DegenerateOptimum")
    @settings(max_examples=60)
    @given(st.one_of(graph_instances(), _family_instances()), st.data(),
           st.sampled_from([1e-9, -1.0]), st.sampled_from([1, 2, 4]))
    def test_matches_loop_at_every_run_length(self, instance, data, tol, short_run):
        # at 1 the run form on every located instance, with every run
        # long; above, short runs too, where some location holds that many
        n = instance.n_clients
        ks = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=min(n, 6)))))
        expected = _report_bytes(loop_check_inequalities, instance, ks, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(objectives, "_SHORT_RUN", short_run)
            assert _run_form(instance) == (instance._client_counts.max() >= short_run)
            assert _report_bytes(check_inequalities, instance, ks, tol) == expected

    @staticmethod
    def assert_plain_bits(inst, ks):
        """Costs and whole reports equal the plain form's, byte for
        byte, and so does the run form with every run long."""

        def outputs():
            out = [cost_profile(inst, ks).costs.tobytes()]
            out += [_report_bytes(check_inequalities, inst, ks, tol) for tol in (1e-9, -1.0)]
            return out

        chosen = outputs()
        for short_run, run_form in ((inst.n_clients + 1, False), (1, True)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(objectives, "_SHORT_RUN", short_run)
                assert _run_form(inst) == run_form
                assert outputs() == chosen, short_run

    def test_subset_sum_keeps_the_client_order_of_tied_locations(self):
        # on the line end - A - mid - B with spacing 0.1, A and B are
        # both 0.1 from mid, and their clients interleave by index; the
        # end facility's distances (0.1 at A, 0.3 at B) summed in that
        # order differ, bit for bit, from any order grouped by location
        u = 0.1
        cross = np.array([
            [0.0, 2 * u, u, u],
            [2 * u, 0.0, u, 3 * u],
            [u, u, 0.0, 2 * u],
            [u, 3 * u, 2 * u, 0.0],
        ])
        blocks = [(0, 3000), (1, 5000), (0, 6000), (1, 4000), (0, 1), (1, 7)]
        locs = np.repeat([b for b, _ in blocks], [c for _, c in blocks])
        inst = MetricInstance(cross=cross, locations=(locs, [2, 3]),
                              facility_labels=["mid", "end"])
        assert _run_form(inst)
        end = inst.dist[:, 1]
        by_index = np.cumsum(end)[-1]
        for first in (0, 1):
            grouped = np.r_[end[locs == first], end[locs != first]]
            assert np.cumsum(grouped)[-1] != by_index
        ks = (1, 3001, 5001, 8001, 14001, locs.size)
        for tol in (1e-9, -1.0):
            record = check_inequalities(inst, ks, tol=tol).checks["subset_sum_domination"]
            assert jsonutil.dumps(record.to_jsonable()) == jsonutil.dumps(
                subset_sum_plain(inst, ks, tol=tol)
            )
        worst = {(e["selector"], e["p"]): e["facility"] for e in record.violations}
        assert worst["mid", locs.size] == "end"
        self.assert_plain_bits(inst, ks)

    @pytest.mark.filterwarnings("ignore::centrum.errors.DegenerateOptimum")
    @pytest.mark.parametrize(
        "family,args",
        [
            # the largest client location holds 255 clients, then 256
            ("triple", (10, _SHORT_RUN + 9)),
            ("triple", (10, _SHORT_RUN + 10)),
            ("triple", (10**3, 10**5)),
            ("line", (50, _SHORT_RUN + 49)),
            ("line", (50, _SHORT_RUN + 50)),
            ("line", (10, 300_000)),
            ("triangle", (_SHORT_RUN - 1, 500)),
            ("triangle", (_SHORT_RUN, 500)),
            ("triangle", (100_000, 300_000)),
        ],
    )
    def test_families_on_both_sides_of_the_threshold(self, family, args):
        gen = {"triple": gen_tight_triple, "line": gen_tight_pair_line,
               "triangle": gen_tight_pair_triangle}[family]
        inst = gen(*args)
        n = inst.n_clients
        largest = inst._client_counts.max()
        assert largest >= _SHORT_RUN - 1
        assert _run_form(inst) == (largest >= _SHORT_RUN)
        sets = [(1, args[0], n), (2, args[0] + 1, n // 2, n - 1)] if family == "triple" else [args]

        def outputs(ks):
            out = {"costs": cost_profile(inst, ks).costs.tobytes()}
            for rule in (select_largest_objective, select_multi_graph, select_exhaustive):
                out[rule.__name__] = jsonutil.dumps(rule(inst, ks).to_jsonable())
            if len(ks) == 2:
                out["select_pair"] = jsonutil.dumps(select_pair(inst, *ks).to_jsonable())
            for tol in (1e-9, -1.0):
                out[tol] = jsonutil.dumps(check_inequalities(inst, ks, tol=tol).to_jsonable())
            return out

        for ks in sets:
            chosen = outputs(ks)
            for short_run in (n + 1, 1):  # plain, then every run long
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(objectives, "_SHORT_RUN", short_run)
                    assert outputs(ks) == chosen, short_run
            for tol in (1e-9, -1.0):
                record = check_inequalities(inst, ks, tol=tol).checks["subset_sum_domination"]
                assert jsonutil.dumps(record.to_jsonable()) == jsonutil.dumps(
                    subset_sum_plain(inst, ks, tol=tol)
                )

    def test_graph_clients_spread_over_many_vertices(self):
        # about 4000 clients per vertex
        inst = gen_random_graph_metric(50, 0.2, n_clients=200_000, m_facilities=10)
        assert _run_form(inst)
        self.assert_plain_bits(inst, (1, 77, 4000, 150_001, 200_000))

    @pytest.mark.parametrize("spots", [40, 41])
    def test_both_sides_of_the_mean_run_length(self, spots):
        # 10240 clients on 40 line locations are 256 at each, on 41 at
        # most 250
        n = 40 * _SHORT_RUN
        rng = np.random.default_rng(spots)
        positions = np.r_[rng.random(spots + 3), 0.5]
        cross = np.abs(positions[:, None] - positions[None, :])
        clients = rng.permutation(np.arange(n) % spots)
        facilities = [spots, spots + 1, 0, spots + 3, spots + 2]
        inst = MetricInstance(cross=cross, locations=(clients, facilities))
        assert _run_form(inst) == (spots == 40)
        self.assert_plain_bits(inst, (1, 300, 5000, n))


_WEIGHT = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.0, math.inf]), st.floats(1.0, 4.0))


@st.composite
def _weight_matrices(draw):
    """q x q ratio-graph weights, q = 2..7, with integer ties and inf."""
    q = draw(st.integers(2, 7))
    rows = draw(st.lists(st.lists(_WEIGHT, min_size=q, max_size=q), min_size=q, max_size=q))
    weights = np.array(rows)
    np.fill_diagonal(weights, 1.0)
    return weights


def _planted_instance():
    """Ten clients, a non-metric cross: f0 is 1 from every client, f1 is
    3 from client 0 and 0 from the rest. f0 is optimal under k = 1 and
    f1 under k = 5 and 10, so the 2-cycle between ranks 1 and 10 has
    edges 10/3 and 3, above beta(2) and beta(3)."""
    dist = np.c_[np.ones(10), np.r_[3.0, np.zeros(9)]]
    cross = np.ones((12, 12))
    np.fill_diagonal(cross, 0.0)
    cross[:10, 10:], cross[10:, :10] = dist, dist.T
    return MetricInstance(dist=dist, cross=cross, provenance={})


class TestCycleBound:
    """The (max, min) walk products against the enumeration of simple
    cycles they replaced."""

    @settings(max_examples=300)
    @given(_weight_matrices(), st.sampled_from([1, harness._BLOCK_CELLS]))
    def test_lows_and_witnesses_match_the_enumeration(self, weights, cells):
        q = len(weights)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_BLOCK_CELLS", cells)
            walks, best = harness._bottleneck_walks(weights)
        low = np.maximum.accumulate(best)
        cycles = list(_simple_cycles(q))
        mins = [min(weights[u, v] for u, v in zip(c, c[1:] + c[:1])) for c in cycles]
        for size, expected, cycle in _cycle_lows(weights):
            assert low[size - 2] == expected
            witness = harness._witness_cycle(walks, best, low[size - 2])
            assert witness == list(cycle)
            # simple, smallest node first, every edge reaching low, and
            # no cycle of fewer nodes reaches it
            assert len(set(witness)) == len(witness) and witness[0] == min(witness)
            assert all(weights[u, v] >= expected for u, v in zip(witness, witness[1:] + witness[:1]))
            assert all(w < expected for c, w in zip(cycles, mins) if len(c) < len(witness))
        # the record's max slack is the enumeration's, bit for bit
        assert np.max(low - harness._betas(q)) == max(
            w - beta_q(len(c)) for c, w in zip(cycles, mins)
        )

    def test_planted_violation_names_a_violating_cycle(self):
        inst = _planted_instance()
        weights = ratio_graph(inst, (1, 5, 10)).weights
        assert weights[0, 2] == 10 / 3 and weights[2, 0] == 3.0
        report = check_inequalities(inst, (1, 5, 10))
        assert report.checks["metric_axioms"].violation_count > 0
        rec = report.checks["cycle_min_edge_bound"]
        assert (rec.comparisons, rec.violation_count) == (2, 2)
        assert rec.max_slack == 3.0 - beta_q(2)
        assert rec.violations == [
            {"length": 2, "cycle": [1, 10], "slack": 3.0 - beta_q(2)},
            {"length": 3, "cycle": [1, 10], "slack": 3.0 - beta_q(3)},
        ]
        for example in rec.violations:  # a real cycle, above its own length's bound
            nodes = [(1, 5, 10).index(k) for k in example["cycle"]]
            low = min(weights[u, v] for u, v in zip(nodes, nodes[1:] + nodes[:1]))
            assert low - beta_q(len(nodes)) >= example["slack"] > 0

    def test_sweep_past_five_ranks(self):
        report = sweep_multi(MultiSweepConfig(instances=60, seed=3, qs=tuple(range(3, 13))))
        rec = report.checks["cycle_min_edge_bound"]
        assert rec.instances == 61
        assert rec.violation_count == 0
        # q - 1 lengths per random instance, which is clamped to its
        # client count, and 2 for the tight triple
        observed = {q: report.bounds.get("multi_guarantee[q=%d]" % q) for q in range(2, 13)}
        assert observed[12].observations > 0
        assert rec.comparisons == 2 + sum((q - 1) * b.observations for q, b in observed.items() if b)

    @pytest.mark.parametrize("kind", ["euclid", "graph"])
    def test_all_ranks(self, kind):
        if kind == "euclid":
            inst = gen_random_euclidean(40, 10, seed=1)
        else:
            inst = gen_random_graph_metric(20, 0.3, seed=1, n_clients=40, m_facilities=10)
        ks = tuple(range(1, 41))
        report = check_inequalities(inst, ks)
        assert report.violations_total == 0
        assert report.checks["cycle_min_edge_bound"].comparisons == 39
        assert select_multi_graph(inst, ks).worst_ratio <= beta_q(40)
        assert select_largest_objective(inst, ks).worst_ratio <= 3.0


@st.composite
def _equidistant_instances(draw):
    """Located instances on integer line points, so client locations are
    often equidistant from a facility, with interleaved client blocks."""
    spots = draw(st.integers(2, 6))
    positions = np.array(draw(st.lists(st.integers(0, 8), min_size=spots, max_size=spots,
                                       unique=True)), float)
    cross = np.abs(positions[:, None] - positions[None, :])
    blocks = draw(st.lists(st.tuples(st.integers(0, spots - 1), st.integers(1, 4)),
                           min_size=1, max_size=12))
    clients = np.repeat([b for b, _ in blocks], [c for _, c in blocks])
    facilities = draw(st.permutations(range(spots)))  # every row holds a point
    return MetricInstance(cross=cross, locations=(clients, facilities))


class TestFarthestRuns:
    @settings(max_examples=200)
    @given(_equidistant_instances())
    def test_runs_expand_to_the_stable_argsort(self, inst):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(objectives, "_SHORT_RUN", 1)
            runs = _client_runs(inst)
            for a in range(inst.m_facilities):
                expected = inst.locations[0][np.argsort(-inst.dist[:, a], kind="stable")]
                assert np.array_equal(np.repeat(*harness._farthest_runs(inst, runs, a)), expected)


class TestCheckInequalities:
    def test_zero_violations_on_tight_line(self):
        inst = gen_tight_pair_line(1, 100)
        report = check_inequalities(inst, (1, 100))
        assert report.violations_total == 0
        for name in UNIVERSAL_CHECKS + METRIC_CHECKS:
            assert report.checks[name].violation_count == 0, name

    def test_small_ratio_bound_is_tight_on_line_family(self):
        # the refined two-objective bound holds with equality on this
        # family, so its max slack sits at the rounding floor
        inst = gen_tight_pair_line(1, 100)
        report = check_inequalities(inst, (1, 100))
        rec = report.checks["reciprocal_pair_bound_small_ratio"]
        assert rec.comparisons > 0
        assert abs(rec.max_slack) <= 1e-12

    def test_zero_violations_on_triple(self, triple_small):
        report = check_inequalities(triple_small, (1, 10, 60))
        assert report.violations_total == 0
        assert report.checks["cycle_min_edge_bound"].comparisons > 0

    def test_single_facility_trivial(self):
        inst = build_from_matrix([[1.0], [2.0], [3.0]])
        report = check_inequalities(inst, (1, 2, 3))
        assert report.violations_total == 0

    def test_seeded_euclidean_clean(self):
        inst = gen_random_euclidean(40, 8, dim=2, seed=3)
        report = check_inequalities(inst, (1, 10, 40))
        assert report.violations_total == 0

    def test_metric_checks_skip_unverified_instances(self):
        # without cross distances the triangle-based bounds cannot be
        # certified, so those checks must not appear at all
        inst = MetricInstance(
            dist=np.array([[1.0], [2.0], [3.0]]), cross=None, provenance={}
        )
        report = check_inequalities(inst, (1, 2))
        assert "reciprocal_pair_bound" not in report.checks
        assert "metric_axioms" not in report.checks
        assert report.checks["ratio_product_bound"].violation_count == 0

    def test_flags_violations_on_broken_cross(self):
        # hand-built cross distances violating the triangle inequality
        # must trip the axiom check instead of passing silently
        cross = np.array(
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        )
        inst = MetricInstance(dist=cross[:2, 2:], cross=cross, provenance={})
        report = check_inequalities(inst, (1, 2))
        rec = report.checks["metric_axioms"]
        assert rec.violation_count > 0
        assert rec.violations[0]["kind"] == "triangle"
        assert report.violations_total >= rec.violation_count

    def test_report_serialization_round_trip(self, triple_small):
        report = check_inequalities(triple_small, (1, 10, 60))
        doc = report.to_jsonable()
        assert doc["schema"] == 1
        assert doc["violations_total"] == 0
        names = [rec["name"] for rec in doc["checks"]]
        assert names == sorted(names)
        for rec in doc["checks"]:
            assert rec["violations"] == len(rec["examples"])


class TestSweepPair:
    def test_deterministic_across_runs(self):
        config = PairSweepConfig(instances=6, seed=42, max_clients=20, max_facilities=5)
        a = sweep_pair(config).to_jsonable()
        b = sweep_pair(config).to_jsonable()
        assert a == b

    def test_no_violations_and_tight_buckets(self):
        config = PairSweepConfig(instances=10, seed=1, max_clients=24, max_facilities=6)
        report = sweep_pair(config)
        assert report.violations_total == 0
        tight = report.bounds["pair_guarantee[x<=2]"]
        assert tight.violation_count == 0
        assert abs(tight.max_slack) <= 1e-9

    def test_bucket_observations_stay_below_f(self):
        config = PairSweepConfig(instances=12, seed=3, max_clients=24, max_facilities=6)
        report = sweep_pair(config)
        for name, rec in report.bounds.items():
            if not name.startswith("pair_guarantee"):
                continue
            assert rec.violation_count == 0, name
            if rec.observations:
                assert rec.max_observed <= rec.bound + 1e-9, name

    def test_shared_mode_uses_two_regime_bound(self):
        config = PairSweepConfig(
            instances=10, seed=5, max_clients=18, max_facilities=6, shared=True
        )
        report = sweep_pair(config)
        assert report.violations_total == 0
        shared_buckets = [n for n in report.bounds if n.startswith("shared_guarantee")]
        assert shared_buckets
        for name in shared_buckets:
            rec = report.bounds[name]
            assert rec.violation_count == 0
            assert rec.bound <= 2.0 + 1e-12

    @pytest.mark.parametrize(
        "kw",
        [
            dict(instances=-1),
            dict(seed=-1),
            dict(max_clients=1),
            dict(instances=True),
            dict(seed=False),
            dict(max_clients=10.5),
            dict(max_facilities=3.0),
            dict(max_facilities=1),
            dict(shared=True, max_clients=4),
            dict(shared="no"),
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(BadConfig):
            PairSweepConfig(**kw).validate()

    def test_config_fields(self):
        names = [f.name for f in dataclasses.fields(PairSweepConfig)]
        assert names == ["instances", "seed", "max_clients", "max_facilities", "tol", "shared"]
        assert list(PairSweepConfig().to_jsonable()) == ["sweep"] + names

    def test_tight_pairs_grid(self):
        xs = [p / k for k, p in harness._TIGHT_PAIRS]
        assert xs == [1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 10.0, 100.0]
        lines = [p > 4 * k for k, p in harness._TIGHT_PAIRS]
        assert lines == [x > 4.0 for x in xs]

    def test_no_instances_runs_the_tight_jobs(self):
        report = sweep_pair(PairSweepConfig(instances=0))
        buckets = [r for n, r in report.bounds.items() if n.startswith("pair_guarantee")]
        assert sum(r.observations for r in buckets) == len(harness._TIGHT_PAIRS) == 8
        assert not any(n.startswith("shared_guarantee") for n in report.bounds)
        counts = {name: rec.instances for name, rec in report.checks.items()}
        # the small-ratio bound needs p >= 2k, which x = 1.5 is not
        assert counts.pop("reciprocal_pair_bound_small_ratio") == 7
        assert counts and set(counts.values()) == {8}


class TestSweepMulti:
    def test_no_violations_within_beta(self):
        config = MultiSweepConfig(instances=8, seed=2, max_clients=20, max_facilities=5)
        report = sweep_multi(config)
        assert report.violations_total == 0
        for q in (3, 4, 5):
            rec = report.bounds["multi_guarantee[q=%d]" % q]
            assert rec.violation_count == 0

    def test_oracle_gap_is_informational(self):
        config = MultiSweepConfig(instances=6, seed=8, max_clients=16, max_facilities=4)
        report = sweep_multi(config)
        gaps = [rec for name, rec in report.bounds.items() if "oracle_gap" in name]
        assert gaps
        for rec in gaps:
            assert rec.violation_count == 0
            assert rec.max_observed >= 0.0
            assert rec.to_jsonable()["bound"] is None

    def test_two_objectives_stay_below_beta2(self):
        config = MultiSweepConfig(
            instances=8,
            seed=4,
            max_clients=20,
            max_facilities=5,
            qs=(2,),
            tight_sizes=(),
        )
        report = sweep_multi(config)
        rec = report.bounds["multi_guarantee[q=2]"]
        assert rec.violation_count == 0
        assert rec.max_observed <= 1.0 + SQRT2 + 1e-9

    def test_tight_family_approaches_beta3(self):
        config = MultiSweepConfig(
            instances=1, seed=0, tight_sizes=((60, 3600),), qs=(3,)
        )
        report = sweep_multi(config)
        rec = report.bounds["multi_guarantee[q=3,tight]"]
        assert rec.violation_count == 0
        assert 2.4 <= rec.max_observed <= BETA3

    def test_determinism(self):
        config = MultiSweepConfig(instances=5, seed=11, max_clients=14, max_facilities=4)
        assert sweep_multi(config).to_jsonable() == sweep_multi(config).to_jsonable()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(instances=-1),
            dict(instances=True),
            dict(seed=False),
            dict(max_clients=12.5),
            dict(max_facilities=3.0),
            dict(max_facilities=1),
            dict(qs=(2,), max_clients=3),
            dict(qs=()),
            dict(tight_sizes=((3, 3),)),
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(BadConfig):
            MultiSweepConfig(**kw).validate()

    def test_config_fields(self):
        names = [f.name for f in dataclasses.fields(MultiSweepConfig)]
        assert names == [
            "instances", "seed", "max_clients", "max_facilities", "tol", "qs", "tight_sizes"
        ]
        doc = MultiSweepConfig().to_jsonable()
        assert doc["sweep"] == "multi"
        assert doc["qs"] == [3, 4, 5]
        assert doc["tight_sizes"] == [[60, 3600]]


def _validate_always(self, tol=1e-9):
    """MetricInstance.violations before instances built from points or
    graphs skipped the check: validate_metric at every tol."""
    import centrum.metric as metric_mod

    if tol not in self._violations:
        self._violations[tol] = tuple(metric_mod.validate_metric(self, tol=tol))
    return list(self._violations[tol])


class TestSkipDifferential:
    """Sweep reports are byte-identical whether or not point and graph
    instances skip validate_metric at tol above their rounding bound."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-300])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("sweep", [
        lambda seed, tol: sweep_pair(PairSweepConfig(instances=12, seed=seed, tol=tol)),
        lambda seed, tol: sweep_pair(PairSweepConfig(instances=12, seed=seed, tol=tol, shared=True)),
        lambda seed, tol: sweep_multi(MultiSweepConfig(instances=12, seed=seed, tol=tol)),
    ], ids=["pair", "shared", "multi"])
    def test_reports_match_full_validation(self, sweep, seed, tol, monkeypatch):
        skipping = jsonutil.dumps(sweep(seed, tol).to_jsonable())
        monkeypatch.setattr(MetricInstance, "violations", _validate_always)
        validating = jsonutil.dumps(sweep(seed, tol).to_jsonable())
        assert skipping == validating
        assert '"metric_axioms"' in skipping


class TestEmitBoundCurves:
    def test_writes_both_tables(self, tmp_path):
        pair_path, beta_path = emit_bound_curves(
            x_max=6.0, x_step=0.5, q_max=6, out_dir=str(tmp_path)
        )
        with open(pair_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["x"]) == 1.0
        assert float(rows[0]["pair_bound"]) == 1.0
        by_x = {float(r["x"]): r for r in rows}
        assert float(by_x[4.0]["pair_bound"]) == 2.0
        assert float(by_x[4.0]["shared_bound"]) == 2.0
        assert float(by_x[6.0]["shared_bound"]) == 2.0
        values = [float(r["pair_bound"]) for r in rows]
        assert values == sorted(values)
        assert all(v < 1.0 + SQRT2 for v in values)

        with open(beta_path, newline="") as fh:
            brows = list(csv.DictReader(fh))
        assert brows[0]["q"] == "2"
        assert float(brows[0]["beta"]) == pytest.approx(1.0 + SQRT2, abs=1e-12)
        betas = [float(r["beta"]) for r in brows]
        assert betas == sorted(betas)
        assert all(b < 3.0 for b in betas)
        assert len(brows) == 5

    def test_rejects_bad_grid(self, tmp_path):
        with pytest.raises(BadConfig):
            emit_bound_curves(x_max=0.5, x_step=0.05, out_dir=str(tmp_path))
        with pytest.raises(BadConfig):
            emit_bound_curves(x_step=0.0, out_dir=str(tmp_path))
        with pytest.raises(BadConfig):
            emit_bound_curves(q_max=1, out_dir=str(tmp_path))

    def test_unwritable_directory_raises_oserror(self):
        with pytest.raises(OSError):
            emit_bound_curves(x_max=2.0, x_step=0.5, q_max=3, out_dir="/dev/null/x")


class TestTightTripleEdges:
    def test_some_node_within_beta3(self):
        # at moderate sizes at least one candidate's worst outgoing
        # edge already sits under the three-objective ceiling
        graph = ratio_graph(gen_tight_triple(60, 3600), (1, 60, 3600))
        best = min(graph.max_outgoing(i) for i in range(3))
        assert best <= BETA3 + 1e-12
        assert best >= 2.4
