"""Acceptance suite: one test per shipped guarantee.

Run `pytest -v tests/test_acceptance.py`; the terminal summary prints
one PASS/FAIL line per criterion. Budgets are asserted inside the
tests, so a pass also certifies the runtime.
"""

import csv
import math
import time
from fractions import Fraction

import pytest

from centrum import (
    MultiSweepConfig,
    PairSweepConfig,
    beta_q,
    check_inequalities,
    emit_bound_curves,
    gen_random_euclidean,
    gen_random_graph_metric,
    gen_tight_pair_line,
    gen_tight_pair_triangle,
    gen_tight_triple,
    pair_bound_f,
    ratio_graph,
    select_pair,
    sweep_multi,
    sweep_pair,
)
from centrum.harness import VerificationReport

SQRT2 = math.sqrt(2.0)
BETA3 = (3.0 + math.sqrt(5.0)) / 2.0
GRID_XS = (1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 10.0, 100.0)


def grid_pair(x):
    frac = Fraction(x).limit_denominator(1000)
    return frac.denominator, frac.numerator


def tight_pair_instance(k, p):
    if p / k <= 4.0:
        return gen_tight_pair_triangle(k, p)
    return gen_tight_pair_line(k, p)


def test_criterion_1_closed_form_anchors():
    start = time.perf_counter()

    b2 = beta_q(2)
    b3 = beta_q(3)
    assert abs(b2 - (1.0 + SQRT2)) <= 1e-12
    assert abs(b3 - (3.0 + math.sqrt(5.0)) / 2.0) <= 1e-12
    for q, b in ((2, b2), (3, b3)):
        assert abs((b - 2.0) ** (q - 1) * b - 1.0) <= 1e-12

    assert abs(pair_bound_f(1.0) - 1.0) <= 1e-12
    # both closed-form branches agree at the crossover
    small_branch = math.sqrt(4.0)
    y = 1.0 / 4.0
    large_branch = 1.0 - y + math.sqrt(y * y - 2.0 * y + 2.0)
    assert abs(small_branch - 2.0) <= 1e-12
    assert abs(large_branch - 2.0) <= 1e-12
    assert abs(pair_bound_f(4.0) - 2.0) <= 1e-12

    assert time.perf_counter() - start < 1.0


def test_criterion_2_tight_grid_hits_pair_bound():
    for x in GRID_XS:
        k, p = grid_pair(x)
        assert p / k == x
        inst = tight_pair_instance(k, p)
        f = pair_bound_f(x)

        graph = ratio_graph(inst, (k, p))
        alpha_k_of_op = graph.weights[1, 0]
        alpha_p_of_ok = graph.weights[0, 1]
        assert abs(alpha_k_of_op - f) <= 1e-9, (x, alpha_k_of_op, f)
        assert abs(alpha_p_of_ok - f) <= 1e-9, (x, alpha_p_of_ok, f)

        result = select_pair(inst, k, p)
        assert abs(result.worst_ratio - f) <= 1e-9, (x, result.worst_ratio, f)


def test_criterion_3_pair_rule_sweep():
    start = time.perf_counter()
    config = PairSweepConfig(
        instances=1000,
        seed=20260819,
        max_clients=200,
        max_facilities=50,
        kinds=("euclidean", "graph"),
    )
    report = sweep_pair(config)
    elapsed = time.perf_counter() - start

    assert report.violations_total == 0
    buckets = [r for n, r in report.bounds.items() if n.startswith("pair_guarantee")]
    assert buckets
    for rec in buckets:
        assert rec.violation_count == 0, rec.name
        if rec.observations:
            assert rec.max_observed <= rec.bound + 1e-9, rec.name
    assert sum(r.observations for r in buckets) >= 1000
    assert elapsed < 300.0, elapsed


def test_criterion_4_multi_rule_sweep():
    start = time.perf_counter()
    config = MultiSweepConfig(
        instances=500,
        seed=20260819,
        max_clients=200,
        max_facilities=50,
        qs=(3, 4, 5),
        tight_sizes=(),
    )
    report = sweep_multi(config)
    elapsed = time.perf_counter() - start

    assert report.violations_total == 0
    total = 0
    for q in (3, 4, 5):
        rec = report.bounds["multi_guarantee[q=%d]" % q]
        assert rec.violation_count == 0
        assert rec.observations > 0
        assert rec.max_observed <= beta_q(q) + 1e-9
        total += rec.observations
    assert total >= 500
    assert elapsed < 300.0, elapsed


def test_criterion_5_large_triple_near_tightness():
    # Each candidate's worst ratio in gen_tight_triple(k, n) has a closed
    # form. opt_mid sits at beta(3) exactly; opt_all's gap is ~8.47/k and
    # opt_one's gap is ~8.47/(n/k). A 1e-3 gap on all three at once needs
    # k >= 8469 and n/k >= 8469, i.e. n >= ~7.2e7 clients, far past this
    # budget. So each 10**6-client instance checks the limit it reaches:
    # large k for opt_mid and opt_all, large n/k for opt_one.
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    gold = (1.0 + math.sqrt(5.0)) / 2.0
    psi = (3.0 - math.sqrt(5.0)) / 2.0

    def closed_forms(k, n):
        return {
            "opt_one": n / (k * gold + (n - k) * psi),
            "opt_mid": BETA3,
            "opt_all": k * gold / (BETA3 + (k - 1) * phi),
        }

    start = time.perf_counter()
    cases = (
        (10**4, 10**6, ("opt_mid", "opt_all")),
        (10**2, 10**6, ("opt_one",)),
    )
    for k, n, near_limit in cases:
        inst = gen_tight_triple(k, n)
        graph = ratio_graph(inst, (1, k, n))
        assert graph.facilities == (0, 1, 2), (k, n, graph.facilities)

        worst = {
            inst.facility_labels[graph.facilities[i]]: graph.max_outgoing(i)
            for i in range(3)
        }
        expected = closed_forms(k, n)
        for label, ratio in worst.items():
            assert ratio == pytest.approx(expected[label], rel=1e-9), (k, n, label)

        gaps = {label: BETA3 - worst[label] for label in near_limit}
        assert all(abs(g) <= 1e-3 for g in gaps.values()), (k, n, gaps)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed


def test_criterion_6_inequality_battery():
    euclid_cases = [
        (20, 5, 1, 11), (35, 8, 2, 12), (60, 10, 3, 13), (90, 12, 2, 14),
        (120, 9, 1, 15), (45, 6, 3, 16), (75, 11, 2, 17), (150, 10, 2, 18),
    ]
    graph_cases = [
        (12, 0.2, 21, None, None), (20, 0.4, 22, None, None),
        (30, 0.1, 23, 40, 8), (45, 0.3, 24, 60, 10),
        (25, 0.8, 25, None, None), (60, 0.15, 26, 90, 12),
    ]
    instances = [gen_random_euclidean(n, m, dim=d, seed=s) for n, m, d, s in euclid_cases]
    instances += [
        gen_random_graph_metric(v, dens, seed=s, n_clients=nc, m_facilities=mf)
        for v, dens, s, nc, mf in graph_cases
    ]
    instances += [
        gen_tight_pair_line(1, 8), gen_tight_pair_line(1, 20), gen_tight_pair_line(2, 30),
        gen_tight_pair_triangle(1, 2), gen_tight_pair_triangle(2, 5),
        gen_tight_pair_triangle(1, 4),
        gen_tight_triple(2, 6), gen_tight_triple(5, 30), gen_tight_triple(10, 60),
    ]

    def objective_sets(n):
        sets = [(1, n)]
        if n >= 4:
            sets.append(tuple(sorted({1, max(2, n // 2), n})))
        if n >= 16:
            sets.append(tuple(sorted({1, n // 8, n // 4, n // 2, n})))
        return sets

    merged = VerificationReport()
    for inst in instances:
        for objs in objective_sets(inst.n_clients):
            merged.merge(check_inequalities(inst, objs, tol=1e-9))

    required = (
        "topk_sum_scaling",
        "tail_average_bound",
        "reciprocal_pair_bound",
        "reciprocal_pair_bound_small_ratio",
        "ratio_product_bound",
        "cycle_min_edge_bound",
    )
    for name in required:
        rec = merged.checks[name]
        assert rec.comparisons > 0, name
        assert rec.violation_count == 0, name
    assert merged.violations_total == 0


def test_criterion_7_shared_location_sweep():
    start = time.perf_counter()
    config = PairSweepConfig(
        instances=500,
        seed=2026,
        max_clients=120,
        max_facilities=12,
        shared=True,
    )
    report = sweep_pair(config)
    elapsed = time.perf_counter() - start

    assert report.violations_total == 0
    shared = {n: r for n, r in report.bounds.items() if n.startswith("shared_guarantee")}
    assert shared
    small_regime = [r for r in shared.values() if r.bound < 2.0]
    flat_regime = [r for r in shared.values() if r.bound == 2.0]
    assert small_regime and flat_regime
    for rec in shared.values():
        assert rec.violation_count == 0, rec.name
        assert rec.max_observed <= rec.bound + 1e-9, rec.name
    assert elapsed < 300.0, elapsed


def test_criterion_8_bound_curve_tables(tmp_path):
    pair_path, beta_path = emit_bound_curves(
        x_max=20.0, x_step=0.05, q_max=20, out_dir=str(tmp_path)
    )

    with open(pair_path, newline="") as fh:
        rows = [(float(r["x"]), float(r["pair_bound"])) for r in csv.DictReader(fh)]
    assert rows[0] == (1.0, 1.0)
    by_x = dict(rows)
    assert by_x[4.0] == 2.0
    values = [v for _, v in rows]
    assert values == sorted(values)
    assert all(v < 1.0 + SQRT2 for v in values)
    assert values[-1] > 2.3

    with open(beta_path, newline="") as fh:
        brows = [(int(r["q"]), float(r["beta"])) for r in csv.DictReader(fh)]
    assert brows[0][0] == 2
    assert abs(brows[0][1] - (1.0 + SQRT2)) <= 1e-12
    betas = [b for _, b in brows]
    assert betas == sorted(betas)
    assert all(b < 3.0 for b in betas)
