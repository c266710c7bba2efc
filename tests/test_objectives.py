"""Costs, optima, ratios, and the ratio graph."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from centrum import (
    ObjectiveSet,
    approx_ratio,
    build_from_matrix,
    centrum_cost,
    check_inequalities,
    cost_profile,
    gen_tight_triple,
    optimal_facility,
    ratio_graph,
    select_exhaustive,
    select_largest_objective,
    select_multi_graph,
    select_pair,
)
from centrum import objectives
from centrum.errors import (
    BadParams,
    DegenerateOptimum,
    InvalidObjectiveSet,
    KOutOfRange,
    NonFinite,
)
from centrum.generators import triple_location_metric
from centrum.jsonutil import dumps
from centrum.metric import (
    MetricInstance,
    build_from_graph,
    build_from_points,
    instance_to_dict,
    load_instance,
)
from centrum.objectives import _SHORT_RUN, _client_runs, _repeat_add, _run_sums

from conftest import dist_matrices, draw_pair, raw_instances

SQRT5 = math.sqrt(5.0)
PHI = (SQRT5 - 1.0) / 2.0
GOLD = (1.0 + SQRT5) / 2.0
PSI = (3.0 - SQRT5) / 2.0
BETA3 = (3.0 + SQRT5) / 2.0


def brute_cost(column, k):
    return sum(sorted(column, reverse=True)[:k])


def partition_topk_sum(column, k):
    """The former single-column routine: partition out the k largest,
    sort them descending, running sum."""
    n = column.shape[0]
    top = column if k == n else np.partition(column, n - k)[n - k:]
    return float(np.cumsum(np.sort(top)[::-1])[-1])


def partition_costs(dist, k):
    """The former all-facility routine, same steps column by column."""
    n = dist.shape[0]
    top = dist if k == n else np.partition(dist, n - k, axis=0)[n - k:, :]
    return np.cumsum(np.sort(top, axis=0)[::-1, :], axis=0)[-1, :]


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def tied_matrices(draw):
    """Matrices whose entries repeat and whose sums depend on the order."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 5))
    entry = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 7.0])
    row = st.lists(entry, min_size=m, max_size=m)
    return np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float)


class TestObjectiveSet:
    def test_valid(self):
        objs = ObjectiveSet((1, 5, 20))
        assert list(objs) == [1, 5, 20]
        assert len(objs) == 3

    @pytest.mark.parametrize("ks", [(), (0,), (-1,), (2, 2), (3, 1), (1.5,), (True,)])
    def test_invalid(self, ks):
        with pytest.raises(InvalidObjectiveSet):
            ObjectiveSet(ks)

    def test_check_against_instance(self):
        inst = build_from_matrix([[1.0], [2.0]])
        ObjectiveSet((1, 2)).check_against(inst)
        with pytest.raises(KOutOfRange):
            ObjectiveSet((1, 3)).check_against(inst)


class TestCentrumCost:
    def test_top_two_of_three(self):
        inst = build_from_matrix([[3.0], [1.0], [2.0]])
        assert centrum_cost(inst, 0, 2) == 5.0

    def test_max_objective(self):
        inst = build_from_matrix([[3.0], [1.0], [2.0]])
        assert centrum_cost(inst, 0, 1) == 3.0

    def test_sum_objective(self):
        inst = build_from_matrix([[3.0], [1.0], [2.0]])
        assert centrum_cost(inst, 0, 3) == 6.0

    @pytest.mark.parametrize("k", [0, 4, -1, 1.5, True])
    def test_bad_k(self, k):
        inst = build_from_matrix([[3.0], [1.0], [2.0]])
        with pytest.raises(KOutOfRange):
            centrum_cost(inst, 0, k)

    def test_bad_facility(self):
        inst = build_from_matrix([[3.0], [1.0], [2.0]])
        with pytest.raises(BadParams):
            centrum_cost(inst, 5, 1)

    @given(dist_matrices(), st.data())
    def test_matches_brute_force(self, dist, data):
        inst = build_from_matrix(dist)
        k = data.draw(st.integers(1, inst.n_clients), label="k")
        a = data.draw(st.integers(0, inst.m_facilities - 1), label="facility")
        expect = brute_cost(dist[:, a].tolist(), k)
        assert centrum_cost(inst, a, k) == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestOptimalFacility:
    def test_single_facility(self):
        inst = build_from_matrix([[4.0], [1.0]])
        assert optimal_facility(inst, 1) == (0, 4.0)

    def test_lowest_index_wins_ties(self):
        inst = build_from_matrix([[2.0, 2.0], [1.0, 1.0]])
        idx, cost = optimal_facility(inst, 2)
        assert idx == 0
        assert cost == 3.0

    def test_picks_true_minimum(self):
        inst = build_from_matrix([[5.0, 1.0], [5.0, 1.0]])
        assert optimal_facility(inst, 1) == (1, 1.0)


class TestApproxRatio:
    def test_optimum_is_one(self):
        inst = build_from_matrix([[2.0, 7.0], [3.0, 8.0]])
        assert approx_ratio(inst, 0, 1) == 1.0

    def test_plain_ratio(self):
        inst = build_from_matrix([[2.0, 4.0]])
        assert approx_ratio(inst, 1, 1) == 2.0

    def test_degenerate_warns_and_returns_one(self):
        inst = build_from_matrix([[0.0, 3.0], [0.0, 4.0]])
        with pytest.warns(DegenerateOptimum):
            assert approx_ratio(inst, 0, 2) == 1.0

    def test_degenerate_other_facility_is_inf(self):
        inst = build_from_matrix([[0.0, 3.0], [0.0, 4.0]])
        with pytest.warns(DegenerateOptimum):
            assert approx_ratio(inst, 1, 2) == math.inf

    @given(raw_instances(), st.data())
    def test_never_below_one(self, inst, data):
        k = data.draw(st.integers(1, inst.n_clients), label="k")
        a = data.draw(st.integers(0, inst.m_facilities - 1), label="facility")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOptimum)
            assert approx_ratio(inst, a, k) >= 1.0


class TestCostProfile:
    def test_profile_matches_pointwise_costs(self):
        rng = np.random.Generator(np.random.Philox(7))
        dist = rng.uniform(0.0, 5.0, size=(9, 4))
        inst = build_from_matrix(dist)
        profile = cost_profile(inst, (1, 3, 9))
        for col, k in enumerate((1, 3, 9)):
            for a in range(4):
                assert profile.costs[a, col] == centrum_cost(inst, a, k)
            assert profile.optima[col] == optimal_facility(inst, k)

    def test_objective_order_preserved(self):
        inst = build_from_matrix([[1.0], [2.0], [3.0]])
        profile = cost_profile(inst, (1, 3))
        assert profile.ks == (1, 3)
        assert profile.costs[0].tolist() == [3.0, 6.0]

    def test_to_jsonable_names_optima(self):
        inst = build_from_matrix([[1.0, 2.0]], facility_labels=("near", "far"))
        doc = cost_profile(inst, (1,)).to_jsonable(inst)
        assert doc["optima"][0]["label"] == "near"

    @given(raw_instances(), st.data())
    def test_costs_monotone_in_k(self, inst, data):
        if inst.n_clients < 2:
            return
        k, p = draw_pair(data, inst.n_clients)
        profile = cost_profile(inst, (k, p))
        assert np.all(profile.costs[:, 0] <= profile.costs[:, 1] + 1e-9)

    @given(raw_instances(), st.data())
    def test_scaling_inequality(self, inst, data):
        # objective-p cost never exceeds (p/k) times the objective-k cost
        if inst.n_clients < 2:
            return
        k, p = draw_pair(data, inst.n_clients)
        profile = cost_profile(inst, (k, p))
        bound = (p / k) * profile.costs[:, 0]
        assert np.all(profile.costs[:, 1] <= bound + 1e-9 * np.maximum(1.0, bound))

    @given(raw_instances(), st.data())
    def test_tail_average_inequality(self, inst, data):
        # the tail beyond the top k averages at most c_k / k per client
        if inst.n_clients < 2:
            return
        k, p = draw_pair(data, inst.n_clients)
        profile = cost_profile(inst, (k, p))
        lhs = (k / (p - k)) * (profile.costs[:, 1] - profile.costs[:, 0])
        rhs = profile.costs[:, 0]
        assert np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, rhs))


class TestOneKernel:
    """Every cost view is bitwise equal to the partition-based routines
    the sort-and-running-sum kernel replaced."""

    @given(st.one_of(dist_matrices(max_clients=12), tied_matrices()), st.data())
    def test_views_match_partition_routines(self, dist, data):
        inst = build_from_matrix(dist)
        n, m = inst.dist.shape
        ks = data.draw(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True).map(sorted),
            label="ks",
        )
        profile = cost_profile(inst, ks)
        for col, k in enumerate(ks):
            old = partition_costs(inst.dist, k)
            assert bits(profile.costs[:, col]) == bits(old)
            best, cost = optimal_facility(inst, k)
            assert best == int(np.argmin(old))
            assert bits(cost) == bits(old[best])
            for a in range(m):
                assert bits(centrum_cost(inst, a, k)) == bits(partition_topk_sum(inst.dist[:, a], k))


def _degenerate_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, sum(issubclass(w.category, DegenerateOptimum) for w in caught)


class TestDegenerateOptimum:
    """A zero optimum reads the same through every entry point."""

    INST = build_from_matrix([[0.0, 5.0], [0.0, 6.0]])
    KS = (1, 2)
    RATIOS = {0: (1.0, 1.0), 1: (math.inf, math.inf)}

    def test_profile_warns_once(self):
        profile = cost_profile(self.INST, self.KS)
        ratios, count = _degenerate_warnings(lambda: (profile.ratios(), profile.ratios()))
        assert count == 1
        assert ratios[0] is ratios[1]
        assert np.array_equal(ratios[0], np.array([self.RATIOS[0], self.RATIOS[1]]))

    def test_approx_ratio(self):
        for facility, row in self.RATIOS.items():
            for col, k in enumerate(self.KS):
                ratio, count = _degenerate_warnings(lambda: approx_ratio(self.INST, facility, k))
                assert count == 1
                assert ratio == row[col]

    def test_ratio_graph(self):
        graph, count = _degenerate_warnings(lambda: ratio_graph(self.INST, self.KS))
        assert count == 1
        assert graph.degenerate
        assert graph.facilities == (0, 0)
        assert np.array_equal(graph.weights, np.array([self.RATIOS[0], self.RATIOS[0]]))

    @pytest.mark.parametrize(
        "rule",
        [
            lambda inst, ks: select_pair(inst, *ks),
            select_largest_objective,
            select_multi_graph,
            select_exhaustive,
        ],
        ids=["pair", "largest", "graph", "exhaustive"],
    )
    def test_selection_rules(self, rule):
        result, count = _degenerate_warnings(lambda: rule(self.INST, self.KS))
        assert count == 1
        assert result.facility == 0
        assert result.ratios == self.RATIOS[0]
        assert result.worst_ratio == 1.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda inst, ks: cost_profile(inst, ks).ratios(),
            lambda inst, ks: approx_ratio(inst, 1, ks[0]),
            ratio_graph,
            select_multi_graph,
            check_inequalities,
        ],
        ids=["ratios", "approx_ratio", "ratio_graph", "select_multi_graph", "check_inequalities"],
    )
    def test_warning_names_the_caller(self, call):
        # the first frame outside the package, wherever the warning is raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(self.INST, self.KS)
        [warning] = [w for w in caught if issubclass(w.category, DegenerateOptimum)]
        assert warning.filename == __file__

    def test_check_inequalities(self):
        report, count = _degenerate_warnings(lambda: check_inequalities(self.INST, self.KS))
        assert count == 1
        assert report.violations_total == 0
        # both weights are 1, so the ratio product sits below p/k = 2 by half
        assert report.checks["ratio_product_bound"].max_slack == -0.5


class TestRatioGraph:
    def test_single_objective(self):
        inst = build_from_matrix([[1.0, 2.0]])
        graph = ratio_graph(inst, (1,))
        assert graph.weights.shape == (1, 1)
        assert graph.weights[0, 0] == 1.0
        assert graph.max_outgoing(0) == 1.0

    def test_diagonal_is_one(self):
        rng = np.random.Generator(np.random.Philox(3))
        inst = build_from_matrix(rng.uniform(0.1, 4.0, size=(8, 3)))
        graph = ratio_graph(inst, (1, 4, 8))
        assert np.array_equal(np.diag(graph.weights), np.ones(3))

    def test_degenerate_collapses_to_ones(self):
        inst = build_from_matrix([[0.0, 5.0], [0.0, 6.0]])
        with pytest.warns(DegenerateOptimum):
            graph = ratio_graph(inst, (1, 2))
        assert graph.degenerate
        assert np.array_equal(graph.weights, np.ones((2, 2)))
        assert graph.facilities == (0, 0)

    @given(raw_instances(), st.data())
    def test_weights_at_least_one(self, inst, data):
        if inst.n_clients < 2:
            return
        k, p = draw_pair(data, inst.n_clients)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOptimum)
            graph = ratio_graph(inst, (k, p))
        assert np.all(graph.weights >= 1.0)

    @given(raw_instances(), st.data())
    def test_ratio_product_bounded(self, inst, data):
        # alpha_k(O_p) * alpha_p(O_k) <= p/k without any metric assumption
        if inst.n_clients < 2:
            return
        k, p = draw_pair(data, inst.n_clients)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOptimum)
            graph = ratio_graph(inst, (k, p))
        assert graph.weights[0, 1] * graph.weights[1, 0] <= p / k + 1e-9


class TestTripleClosedForms:
    """The six-location worst-case family has exact cost formulas."""

    def test_location_distances(self):
        labels, cross = triple_location_metric()
        d = {lab: row for lab, row in zip(labels, cross)}
        idx = {lab: i for i, lab in enumerate(labels)}

        def dd(u, v):
            return d[u][idx[v]]

        assert dd("opt_one", "a") == pytest.approx(1.0, abs=1e-12)
        assert dd("opt_one", "b") == pytest.approx(1.0, abs=1e-12)
        assert dd("opt_one", "c") == pytest.approx(1.0, abs=1e-12)
        assert dd("opt_mid", "a") == pytest.approx(BETA3, abs=1e-12)
        assert dd("opt_mid", "b") == pytest.approx(PHI, abs=1e-12)
        assert dd("opt_mid", "c") == pytest.approx(PHI, abs=1e-12)
        assert dd("opt_all", "a") == pytest.approx(GOLD, abs=1e-12)
        assert dd("opt_all", "b") == pytest.approx(GOLD, abs=1e-12)
        assert dd("opt_all", "c") == pytest.approx(PSI, abs=1e-12)

    def test_costs_match_formulas(self, triple_small):
        k, n = 10, 60
        profile = cost_profile(triple_small, (1, k, n))
        expected = {
            "opt_one": (1.0, float(k), float(n)),
            "opt_mid": (BETA3, BETA3 + (k - 1) * PHI, BETA3 + (n - 1) * PHI),
            "opt_all": (GOLD, k * GOLD, k * GOLD + (n - k) * PSI),
        }
        for a, label in enumerate(triple_small.facility_labels):
            for col in range(3):
                assert profile.costs[a, col] == pytest.approx(
                    expected[label][col], rel=1e-12
                ), (label, col)

    def test_named_facilities_are_the_optima(self, triple_small):
        profile = cost_profile(triple_small, (1, 10, 60))
        assert profile.optimal_facilities == (0, 1, 2)
        assert triple_small.facility_labels == ("opt_one", "opt_mid", "opt_all")

    def test_ratio_graph_matches_formulas(self, triple_small):
        k, n = 10, 60
        graph = ratio_graph(triple_small, (1, k, n))
        ck_mid = BETA3 + (k - 1) * PHI
        cn_all = k * GOLD + (n - k) * PSI
        expected = np.array([
            [1.0, k / ck_mid, n / cn_all],
            [BETA3, 1.0, (BETA3 + (n - 1) * PHI) / cn_all],
            [GOLD, k * GOLD / ck_mid, 1.0],
        ])
        assert np.allclose(graph.weights, expected, rtol=1e-12)

    def test_max_ratio_of_mid_optimum_is_exact_limit(self, triple_small):
        # the middle optimum is measured under the max objective against
        # a unit optimal cost, so its ratio hits the limit exactly
        graph = ratio_graph(triple_small, (1, 10, 60))
        assert graph.max_outgoing(1) == pytest.approx(BETA3, abs=1e-12)


def chunked_cumsum_last(total, value, count, chunk=1 << 16):
    """np.cumsum(np.r_[total, [value] * count])[-1], without the first
    element when total is None, summed one chunk of at most 2**16
    values at a time so that 10**7 additions stay small."""
    with np.errstate(over="ignore"):
        while count > 0:
            step = min(count, chunk)
            values = np.full(step, value)
            if total is not None:
                values = np.r_[total, values]
            total = float(np.cumsum(values)[-1])
            count -= step
    return total


_SUBNORMAL = st.floats(min_value=0.0, max_value=2.0**-1022, exclude_max=True)
_FINITE = st.floats(min_value=0.0, max_value=1.7e308)


@st.composite
def repeated_additions(draw):
    """(start, value, count) for _repeat_add: starts that are empty,
    signed zeros, subnormal or normal; values that are zero, subnormal,
    arbitrary, or a multiple of half the start's ulp (ties), possibly
    nudged one float either way."""
    start = draw(st.one_of(st.none(), st.sampled_from([0.0, -0.0]), _SUBNORMAL, _FINITE))
    half = math.ulp(start) / 2.0 if start else 2.0**-1074
    tie = st.builds(lambda j, nudge: nudge(j * half), st.integers(1, 9), st.sampled_from([
        lambda x: x,
        lambda x: math.nextafter(x, 0.0),
        lambda x: math.nextafter(x, math.inf),
    ]))
    value = draw(st.one_of(st.sampled_from([0.0, -0.0]), _SUBNORMAL, _FINITE, tie))
    count = draw(st.integers(0, 10**7))
    return start, value, count


class TestRunForm:
    """The run form of the top-k kernel (closed-form repeated addition
    over runs of co-located clients) gives np.cumsum's bits."""

    @settings(max_examples=150)
    @given(repeated_additions())
    def test_repeat_add_matches_cumsum(self, case):
        start, value, count = case
        assert bits(_repeat_add(start, value, count)) == bits(chunked_cumsum_last(start, value, count))

    @pytest.mark.parametrize(
        "start,value,count",
        [
            (1.0, 2.0**-53, 10**6),  # half-ulp ties from an even start
            (1.0 + 2.0**-52, 2.0**-53, 10**6),  # ... and from an odd one
            (1.0, 3 * 2.0**-53, 10**6),
            (1.0 + 2.0**-52, 3 * 2.0**-53, 10**6),
            (1.0 + 2.0**-52, 5 * 2.0**-53, 10**7),
            (1.5 * 2.0**1023, 2.0**970, 10**6),  # ties in the top binade
            (None, 0.1, 10**7),  # 24 binade crossings
            (None, 1.0 / 3.0, 10**7),
            (None, -0.0, 10),  # -0.0 as the first element stays
            (-0.0, 0.0, 3),
            (-0.0, -0.0, 10**6),
            (0.0, -0.0, 10**6),
            (None, 0.0, 10**7),
            (5e-324, 5e-324, 10**6),  # subnormal throughout
            (2.0**-1022 - 10 * 5e-324, 3 * 5e-324, 10**5),  # into the normals
            (1e308, 1e300, 10**7),  # overflow to inf
            (None, 1e304, 10**5),
            (2.0**60, 1.0, 10**7),  # absorbed at once
            (2.0**52, 0.75, 10**7),  # rounds up to 1 each step
        ],
    )
    def test_repeat_add_edge_cases(self, start, value, count):
        assert bits(_repeat_add(start, value, count)) == bits(chunked_cumsum_last(start, value, count))

    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 7.0, 1e-320, 2.5]),
                      st.integers(1, 300)),
            min_size=1,
            max_size=8,
        ),
        st.data(),
        st.sampled_from([1, 4, 64]),
    )
    def test_run_sums_match_cumsum(self, runs, data, short_run):
        values = np.array([v for v, _ in runs])
        counts = np.array([c for _, c in runs])
        n = int(counts.sum())
        ranks = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=6), label="ranks"))
        expected = np.cumsum(np.repeat(values, counts))[np.array(ranks) - 1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(objectives, "_SHORT_RUN", short_run)
            assert bits(_run_sums(values, counts, ranks)) == bits(expected)

    def test_applies_to_long_runs_of_located_instances_only(self):
        # the largest client location of gen_tight_triple(10, n) holds n - 10
        edge = _SHORT_RUN + 10
        assert isinstance(_client_runs(gen_tight_triple(10, edge - 1)), np.ndarray)
        assert isinstance(_client_runs(gen_tight_triple(10, edge)), tuple)
        for inst in (
            build_from_matrix(np.ones((edge, 2))),
            build_from_points(np.zeros((edge, 1)), [[1.0]]),
            build_from_graph([0, 1], [(0, 1, 1.0)], [0] * edge, [1]),
        ):
            assert isinstance(_client_runs(inst), tuple) == (inst.locations is not None), inst

    def test_signed_zeros_read_save_and_sum_as_zero(self, tmp_path):
        # the constructor stores -0.0 as 0.0, so no cost, on either form,
        # depends on how a sort orders signed zeros, and none reads -0.0
        n = 2 * _SHORT_RUN
        cross = [[-0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, -0.0]]
        docs = {
            "bare": {"dist": [[-0.0, 1.0]] * n + [[-0.0, -0.0]]},
            "located": {"cross": cross, "locations": [[0] * n + [1], [1, 2]]},
        }
        path = tmp_path / "zero.json"
        for name, doc in docs.items():
            path.write_text(json.dumps(doc))
            inst = load_instance(path)
            stored = inst.dist if inst.cross is None else inst.cross
            assert stored.tobytes() == np.abs(stored).tobytes(), name
            assert "-0.0" not in dumps(instance_to_dict(inst)), name
            derived = inst.dist.copy()
            given = np.where(derived == 0.0, -0.0, derived)
            if inst.cross is not None:  # a given dist is compared with -0.0 read as 0.0
                again = MetricInstance(dist=given, cross=inst.cross, locations=inst.locations)
                assert again.dist.tobytes() == derived.tobytes(), name
            ks = (1, n, n + 1)
            expected = np.cumsum(np.sort(derived, axis=0)[::-1], axis=0)[np.array(ks) - 1].T
            assert (expected == 0.0).any(), name
            for short_run in (1, n + 2):  # the run form on the located instance, then plain
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(objectives, "_SHORT_RUN", short_run)
                    costs = cost_profile(inst, ks).costs
                assert bits(costs) == bits(expected) == bits(np.abs(expected)), (name, short_run)

    @pytest.mark.parametrize("k,n", [(10, 60), (10, _SHORT_RUN + 9),
                                     (10, _SHORT_RUN + 10), (100, 10**5)])
    def test_costs_equal_the_plain_form(self, k, n):
        inst = gen_tight_triple(k, n)
        ks = (1, 2, k, k + 1, n // 2, n - 1, n)
        costs = {}
        for short_run in (n + 1, _SHORT_RUN, 1):  # plain, as chosen, every run long
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(objectives, "_SHORT_RUN", short_run)
                costs[short_run] = bits(cost_profile(inst, ks).costs)
        assert costs[_SHORT_RUN] == costs[n + 1] == costs[1]

    def test_centrum_cost_reads_the_kernel(self):
        inst = gen_tight_triple(100, 10**5)
        assert isinstance(_client_runs(inst), tuple)
        ks = (1, 99, 100, 101, 5000, 10**5 - 1, 10**5)
        profile = cost_profile(inst, ks)
        for a in range(inst.m_facilities):
            for col, k in enumerate(ks):
                assert bits(centrum_cost(inst, a, k)) == bits(profile.costs[a, col]), (a, k)


class TestCostOverflow:
    """A top-k cost that overflows raises NonFinite, naming the facility
    and the rank, on both forms of the kernel."""

    def test_plain_form(self):
        inst = build_from_matrix([[1e308, 1.0], [1e308, 1.0]])
        with pytest.raises(NonFinite, match=r"^the top-2 cost of facility f0 is not finite$"):
            cost_profile(inst, (1, 2))
        with pytest.raises(NonFinite, match="top-2 cost of facility f0"):
            centrum_cost(inst, 0, 2)
        assert centrum_cost(inst, 0, 1) == 1e308
        assert cost_profile(inst, (1,)).costs.tolist() == [[1e308], [1.0]]

    def test_run_form(self):
        n = 10**5
        cross = np.array([[0.0, 1.0, 1e304], [1.0, 0.0, 1e304], [1e304, 1e304, 0.0]])
        inst = MetricInstance(cross=cross, locations=(np.zeros(n, int), [1, 2]),
                              facility_labels=["near", "far"])
        assert isinstance(_client_runs(inst), tuple)
        with np.errstate(over="ignore"):
            running = np.cumsum(np.full(n, 1e304))
        last = int(np.argmax(np.isinf(running)))  # rank of the first inf is last + 1
        assert 17_000 < last < n
        profile = cost_profile(inst, (1, last - 1, last))
        assert bits(profile.costs[1]) == bits(running[[0, last - 2, last - 1]])
        assert centrum_cost(inst, 1, last) == running[last - 1]
        with pytest.raises(NonFinite, match=r"^the top-%d cost of facility far is not finite$" % (last + 1)):
            cost_profile(inst, (1, last + 1))
        with pytest.raises(NonFinite, match="top-%d cost of facility far" % n):
            centrum_cost(inst, 1, n)
