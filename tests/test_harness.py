"""Inequality checker and seeded sweep harness."""

import csv
import math

import numpy as np
import pytest

from centrum import (
    MultiSweepConfig,
    PairSweepConfig,
    check_inequalities,
    emit_bound_curves,
    gen_random_euclidean,
    gen_tight_pair_line,
    gen_tight_triple,
    ratio_graph,
    sweep_multi,
    sweep_pair,
)
from centrum.errors import BadConfig
from centrum.metric import MetricInstance, build_from_matrix

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
            dict(tight_xs=(math.pi,)),
            dict(kinds=("bogus",)),
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(BadConfig):
            PairSweepConfig(**kw).validate()


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
