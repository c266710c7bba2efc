"""Costs, optima, ratios, and the ratio graph."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from centrum.errors import (
    BadParams,
    DegenerateOptimum,
    InvalidObjectiveSet,
    KOutOfRange,
)
from centrum.generators import triple_location_metric

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
