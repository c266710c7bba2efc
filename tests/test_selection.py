"""Facility pickers and their worst-case certificates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from centrum import (
    beta_q,
    gen_tight_pair_triangle,
    gen_tight_triple,
    select_exhaustive,
    select_largest_objective,
    select_multi_graph,
    select_pair,
)
from centrum.errors import BadObjectivePair, DegenerateOptimum
from centrum.metric import build_from_matrix
from centrum.objectives import ratio_graph

from conftest import draw_pair, raw_instances

GOLD = (1.0 + math.sqrt(5.0)) / 2.0
BETA3 = (3.0 + math.sqrt(5.0)) / 2.0


class TestSelectPair:
    def test_tight_triangle_prefers_larger_objective(self):
        # on the x = 1.5 worst case both candidates tie at sqrt(1.5),
        # and the tie goes to the optimum of the larger objective
        inst = gen_tight_pair_triangle(2, 3)
        result = select_pair(inst, 2, 3)
        assert result.worst_ratio == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert inst.facility_labels[result.facility] == "f_large"

    def test_identical_optima_ratio_one(self):
        inst = build_from_matrix([[1.0, 9.0], [2.0, 9.0], [3.0, 9.0]])
        result = select_pair(inst, 1, 3)
        assert result.facility == 0
        assert result.ratios == (1.0, 1.0)
        assert result.worst_ratio == 1.0

    def test_guarantee_attached(self):
        inst = build_from_matrix([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]])
        result = select_pair(inst, 1, 3)
        assert result.guarantee is not None
        assert result.guarantee.kind == "pair_f"
        assert result.worst_ratio <= result.guarantee.value + 1e-9

    @pytest.mark.parametrize("k,p", [(2, 2), (3, 2), (0, 2), (1, 99)])
    def test_rejects_bad_pairs(self, k, p):
        inst = build_from_matrix([[1.0], [2.0], [3.0]])
        with pytest.raises(BadObjectivePair):
            select_pair(inst, k, p)

    def test_degenerate_instance(self):
        inst = build_from_matrix([[0.0, 3.0], [0.0, 4.0]])
        with pytest.warns(DegenerateOptimum):
            result = select_pair(inst, 1, 2)
        assert result.facility == 0
        assert result.worst_ratio == 1.0

    @given(raw_instances(), st.data())
    def test_within_guarantee_on_metric_inputs(self, inst, data):
        # raw_instances builds from full matrices, which are exact metrics
        if inst.n_clients < 2:
            return
        k, p = draw_pair(data, inst.n_clients)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOptimum)
            result = select_pair(inst, k, p)
        assert result.worst_ratio <= result.guarantee.value + 1e-9

    def test_serialization_includes_none_oracle(self):
        inst = build_from_matrix([[1.0, 2.0]])
        doc = select_exhaustive(inst, (1,)).to_jsonable(inst)
        assert doc["guarantee"] == "oracle: none"
        assert doc["method"] == "exhaustive"

    def test_serialization_shape(self):
        inst = build_from_matrix([[1.0, 2.0], [2.0, 1.0]])
        doc = select_pair(inst, 1, 2).to_jsonable(inst)
        assert doc["objectives"] == [1, 2]
        assert len(doc["ratios"]) == 2
        assert doc["worst_ratio"] >= 1.0
        assert doc["guarantee"]["kind"] == "pair_f"


class TestSelectLargestObjective:
    def test_picks_last_rank_optimum(self):
        inst = build_from_matrix([[1.0, 5.0], [1.0, 5.0], [9.0, 5.0]])
        result = select_largest_objective(inst, (1, 3))
        assert result.facility == 0

    def test_constant_guarantee(self):
        inst = build_from_matrix([[1.0, 2.0]])
        result = select_largest_objective(inst, (1,))
        assert result.guarantee.kind == "constant"
        assert result.guarantee.value == 3.0

    def test_triple_family_worst_ratio_is_golden(self):
        # with a small first objective the sum-optimal facility pays
        # exactly the golden ratio on the max objective
        inst = gen_tight_triple(2, 4000)
        result = select_largest_objective(inst, (1, 2, 4000))
        assert result.worst_ratio == pytest.approx(GOLD, abs=1e-12)

    @given(raw_instances(), st.data())
    def test_never_beats_exhaustive(self, inst, data):
        if inst.n_clients < 2:
            return
        k, p = draw_pair(data, inst.n_clients)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOptimum)
            quick = select_largest_objective(inst, (k, p))
            best = select_exhaustive(inst, (k, p))
        assert best.worst_ratio <= quick.worst_ratio + 1e-12


class TestSelectMultiGraph:
    def test_single_objective_trivial(self):
        inst = build_from_matrix([[1.0, 2.0]])
        result = select_multi_graph(inst, (1,))
        assert result.ratios == (1.0,)
        assert result.guarantee.kind == "constant"
        assert result.guarantee.value == 1.0

    def test_within_beta_on_seeded_instance(self):
        rng = np.random.Generator(np.random.Philox(11))
        dist = rng.uniform(0.5, 5.0, size=(20, 6))
        # make it a metric by clamping through a common hub
        inst = build_from_matrix(np.minimum(dist, dist.min() * 2.0 + 1.0))
        result = select_multi_graph(inst, (1, 5, 20))
        assert result.worst_ratio <= BETA3 + 1e-9
        assert result.guarantee.value == pytest.approx(BETA3, abs=1e-12)

    def test_triple_hits_guarantee_branch(self):
        inst = gen_tight_triple(10, 60)
        result = select_multi_graph(inst, (1, 10, 60))
        assert result.worst_ratio <= BETA3 + 1e-12
        assert result.guarantee.kind == "beta_q"

    @pytest.mark.parametrize("k,n", [(3, 12), (10, 100), (100, 10**4)])
    def test_tight_triple_within_beta_exactly(self, k, n):
        # from k = 10 on, the middle optimum's ratio under objective 1 is
        # (3 + sqrt(5)) / 2 in floats: no ratio of the family exceeds beta(3)
        inst = gen_tight_triple(k, n)
        assert select_multi_graph(inst, (1, k, n)).worst_ratio <= beta_q(3)
        assert ratio_graph(inst, (1, k, n)).weights.max() <= beta_q(3)

    @given(raw_instances(), st.data())
    def test_never_beats_exhaustive(self, inst, data):
        if inst.n_clients < 3:
            return
        ks = sorted(
            data.draw(
                st.sets(st.integers(1, inst.n_clients), min_size=2, max_size=3),
                label="objectives",
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOptimum)
            graph_pick = select_multi_graph(inst, ks)
            best = select_exhaustive(inst, ks)
        assert best.worst_ratio <= graph_pick.worst_ratio + 1e-12

    @given(raw_instances(), st.data())
    def test_exhaustive_worst_is_maximum_of_row(self, inst, data):
        if inst.n_clients < 2:
            return
        k, p = draw_pair(data, inst.n_clients)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateOptimum)
            result = select_exhaustive(inst, (k, p))
        assert result.worst_ratio == max(result.ratios)
        assert result.worst_ratio >= 1.0
