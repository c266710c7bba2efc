"""Worst-case families and random instance generators."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import centrum
from centrum import (
    check_inequalities,
    cost_profile,
    gen_random_euclidean,
    gen_random_graph_metric,
    gen_tight_pair_line,
    gen_tight_pair_triangle,
    gen_tight_triple,
    pair_bound_f,
    ratio_graph,
    select_multi_graph,
    select_pair,
    validate_metric,
)
from centrum.errors import BadKN, BadParams, RatioTooLarge, RatioTooSmall

SQRT5 = math.sqrt(5.0)
BETA3 = (3.0 + SQRT5) / 2.0


class TestTightPairLine:
    def test_both_cross_ratios_hit_the_bound(self):
        k, p = 1, 100
        inst = gen_tight_pair_line(k, p)
        graph = ratio_graph(inst, (k, p))
        f = pair_bound_f(p / k)
        assert graph.weights[0, 1] == pytest.approx(f, abs=1e-12)
        assert graph.weights[1, 0] == pytest.approx(f, abs=1e-12)
        assert f == pytest.approx(2.3971602609511113, abs=1e-12)

    def test_named_facilities_are_optimal(self):
        inst = gen_tight_pair_line(1, 100)
        profile = cost_profile(inst, (1, 100))
        labels = [inst.facility_labels[a] for a in profile.optimal_facilities]
        assert labels == ["near", "far"]

    def test_is_a_valid_metric(self):
        inst = gen_tight_pair_line(1, 50)
        assert validate_metric(inst) == []

    def test_select_pair_on_it_stays_within_f(self):
        inst = gen_tight_pair_line(1, 100)
        result = select_pair(inst, 1, 100)
        assert result.worst_ratio <= pair_bound_f(100.0) + 1e-12

    def test_needs_ratio_above_four(self):
        with pytest.raises(RatioTooSmall):
            gen_tight_pair_line(2, 8)

    def test_rejects_non_pair(self):
        with pytest.raises(BadParams):
            gen_tight_pair_line(3, 3)


class TestTightPairTriangle:
    def test_ratios_hit_sqrt_x(self):
        inst = gen_tight_pair_triangle(2, 3)
        graph = ratio_graph(inst, (2, 3))
        root = math.sqrt(1.5)
        assert graph.weights[0, 1] == pytest.approx(root, abs=1e-12)
        assert graph.weights[1, 0] == pytest.approx(root, abs=1e-12)

    def test_boundary_ratio_four_accepted(self):
        inst = gen_tight_pair_triangle(1, 4)
        graph = ratio_graph(inst, (1, 4))
        assert graph.weights[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_is_a_valid_metric(self):
        inst = gen_tight_pair_triangle(1, 3)
        assert validate_metric(inst) == []

    def test_needs_ratio_at_most_four(self):
        with pytest.raises(RatioTooLarge):
            gen_tight_pair_triangle(1, 5)

    def test_rejects_reversed_pair(self):
        with pytest.raises(BadParams):
            gen_tight_pair_triangle(3, 2)


class TestTightTriple:
    def test_smallest_valid_size(self):
        inst = gen_tight_triple(2, 3)
        assert inst.n_clients == 3
        assert inst.m_facilities == 3
        assert validate_metric(inst) == []

    def test_all_nodes_below_beta3_at_small_sizes(self):
        # the three-way bound holds with room to spare until the
        # objective gap grows; a small instance stays strictly inside
        graph = ratio_graph(gen_tight_triple(2, 3), (1, 2, 3))
        worst = min(graph.max_outgoing(i) for i in range(3))
        assert worst < BETA3

    def test_closed_form_costs(self, triple_small):
        phi = (SQRT5 - 1.0) / 2.0
        gold = (1.0 + SQRT5) / 2.0
        psi = (3.0 - SQRT5) / 2.0
        k, n = 10, 60
        profile = cost_profile(triple_small, (1, k, n))
        assert profile.optimal_costs[0] == pytest.approx(1.0, abs=1e-12)
        assert profile.optimal_costs[1] == pytest.approx(BETA3 + (k - 1) * phi, rel=1e-12)
        assert profile.optimal_costs[2] == pytest.approx(k * gold + (n - k) * psi, rel=1e-12)

    def test_mid_node_tightness_grows_with_size(self):
        # as both sizes scale up, the middle optimum's worst outgoing
        # edge climbs toward the three-objective limit
        small = ratio_graph(gen_tight_triple(10, 60), (1, 10, 60))
        big = ratio_graph(gen_tight_triple(100, 600), (1, 100, 600))
        assert small.max_outgoing(1) <= big.max_outgoing(1) + 1e-12
        assert big.max_outgoing(1) <= BETA3 + 1e-12

    def test_large_instance_holds_the_location_metric(self):
        inst = gen_tight_triple(100, 5000)
        assert inst.cross.shape == (6, 6)
        assert inst.metric_verified
        assert inst.n_clients == 5000

    def test_client_multiplicities(self, triple_small):
        labels = triple_small.client_labels
        assert labels[0].endswith("@a")
        assert sum(1 for s in labels if s.endswith("@b")) == 10 - 1
        assert sum(1 for s in labels if s.endswith("@c")) == 60 - 10

    @pytest.mark.parametrize("k,n", [(1, 5), (5, 5), (6, 3), (0, 10)])
    def test_rejects_bad_sizes(self, k, n):
        with pytest.raises(BadKN):
            gen_tight_triple(k, n)

    def test_large_triple_formats_no_client_label(self):
        # with one stored label string per client, this build peaked at
        # 10,639,153 traced bytes; with labels made on demand it peaks at
        # 3,522,722 (numpy 2.4): dist, the row gather and the index array
        k, n = 10**2, 10**5
        tracemalloc.start()
        try:
            inst = gen_tight_triple(k, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        select_multi_graph(inst, (1, k, n))
        check_inequalities(inst, (1, k, n))
        assert inst._client_labels.cache is None
        assert peak <= 5_000_000


class TestTripleLocationMetric:
    def test_equals_dijkstra_bit_for_bit(self):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        from centrum.generators import _TRIPLE_EDGES, triple_location_metric

        labels, cross = triple_location_metric()
        index = {v: i for i, v in enumerate(labels)}
        adj = np.zeros((6, 6))
        for u, v, w in _TRIPLE_EDGES:
            adj[index[u], index[v]] = adj[index[v], index[u]] = w
        expected = shortest_path(csr_matrix(adj), method="D", directed=False)
        assert cross.tobytes() == expected.tobytes()

    def test_tight_family_checks_load_no_scipy_sparse(self):
        script = (
            "import sys\n"
            "from centrum import check_inequalities, gen_tight_triple, select_multi_graph\n"
            "inst = gen_tight_triple(10, 600)\n"
            "select_multi_graph(inst, (1, 10, 600))\n"
            "report = check_inequalities(inst, (1, 10, 600))\n"
            "assert report.checks['metric_axioms'].comparisons == 1\n"
            "assert inst.violations(0.0) == [] and inst.violations(-1.0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(centrum.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestRandomEuclidean:
    def test_gen_holds_no_dist(self):
        # the instance keeps the coordinates, 3.2 MB, drawn and then copied
        tracemalloc.start()
        try:
            inst = gen_random_euclidean(2 * 10**5, 20, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst._dist is None and inst.n_clients == 2 * 10**5
        assert peak <= 2.5 * inst.points[0].nbytes

    def test_memory_is_the_client_facility_matrix(self):
        # the metric over all 200,020 points would take 320 GB; the first
        # read of dist holds dist, 32 MB, and one block of differences
        inst = gen_random_euclidean(2 * 10**5, 20, seed=1)
        tracemalloc.start()
        try:
            dist = inst.dist
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.shape == (2 * 10**5, 20)
        assert peak <= 1.25 * dist.nbytes

    @pytest.mark.parametrize("dim", [True, 1.0, "2", None])
    def test_rejects_non_integer_dim(self, dim):
        # dim=True built a 1-d instance
        with pytest.raises(BadParams, match="dim must be an integer >= 1"):
            gen_random_euclidean(3, 2, dim=dim, seed=0)

    def test_shape_and_determinism(self):
        a = gen_random_euclidean(50, 10, dim=2, seed=7)
        b = gen_random_euclidean(50, 10, dim=2, seed=7)
        assert a.n_clients == 50
        assert a.m_facilities == 10
        assert np.array_equal(a.dist, b.dist)
        assert a.cross is None and b.cross is None
        assert all(np.array_equal(u, v) for u, v in zip(a.points[:2], b.points[:2]))

    def test_different_seeds_differ(self):
        a = gen_random_euclidean(20, 5, dim=2, seed=1)
        b = gen_random_euclidean(20, 5, dim=2, seed=2)
        assert not np.array_equal(a.dist, b.dist)

    def test_is_a_valid_metric(self):
        inst = gen_random_euclidean(30, 8, dim=3, seed=13)
        assert validate_metric(inst) == []

    def test_shared_mode_clients_are_facilities(self):
        inst = gen_random_euclidean(12, 12, dim=2, seed=5, shared=True)
        assert inst.m_facilities == 12
        assert np.allclose(np.diag(inst.dist), 0.0)

    def test_provenance_records_generator(self):
        inst = gen_random_euclidean(10, 3, dim=1, seed=0)
        assert inst.provenance["family"] == "random_euclidean"
        assert inst.provenance["seed"] == 0

    @pytest.mark.parametrize("n,m,dim", [(0, 3, 2), (5, 0, 2), (5, 3, 0)])
    def test_rejects_bad_shapes(self, n, m, dim):
        with pytest.raises(BadParams):
            gen_random_euclidean(n, m, dim=dim, seed=0)

    @pytest.mark.parametrize("shared", [1, 0, None, "yes"])
    def test_shared_must_be_a_bool(self, shared):
        # shared=1 ran a shared instance and recorded "shared": true
        with pytest.raises(BadParams, match="shared must be True or False"):
            gen_random_euclidean(3, 2, seed=0, shared=shared)
        assert gen_random_euclidean(3, 2, seed=0, shared=np.bool_(True)).m_facilities == 3


class TestRandomGraphMetric:
    def test_determinism(self):
        a = gen_random_graph_metric(15, 0.3, seed=21)
        b = gen_random_graph_metric(15, 0.3, seed=21)
        assert np.array_equal(a.dist, b.dist)

    def test_is_a_valid_metric(self):
        inst = gen_random_graph_metric(25, 0.2, seed=9)
        assert validate_metric(inst) == []

    def test_full_density_still_connected(self):
        inst = gen_random_graph_metric(8, 1.0, seed=4)
        assert np.all(np.isfinite(inst.dist))

    def test_sampled_clients_and_facilities(self):
        inst = gen_random_graph_metric(30, 0.2, seed=2, n_clients=50, m_facilities=6)
        assert inst.n_clients == 50
        assert inst.m_facilities == 6

    def test_single_vertex(self):
        inst = gen_random_graph_metric(1, 0.5, seed=0)
        assert inst.dist.shape == (1, 1)
        assert inst.dist[0, 0] == 0.0

    @pytest.mark.parametrize("nv,density", [(0, 0.5), (5, -0.1), (5, 1.5)])
    def test_rejects_bad_params(self, nv, density):
        with pytest.raises(BadParams):
            gen_random_graph_metric(nv, density, seed=0)

    @pytest.mark.parametrize("density", [True, False, np.bool_(True), "0.5", None])
    def test_rejects_non_numeric_density(self, density):
        # True was taken as 1.0 and recorded as "edge_density": 1.0; a
        # string or None failed with a TypeError
        with pytest.raises(BadParams, match="edge_density"):
            gen_random_graph_metric(5, density, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, False, np.bool_(True), "3", None])
@pytest.mark.parametrize("build", [
    lambda seed: gen_random_euclidean(3, 2, seed=seed),
    lambda seed: gen_random_graph_metric(5, 0.3, seed=seed),
], ids=["euclid", "graph"])
def test_seed_must_be_a_nonnegative_integer(build, seed):
    # -1 failed inside numpy's SeedSequence, 1.5 with a TypeError, and
    # True was taken and recorded as 1
    with pytest.raises(BadParams, match="seed must be an integer >= 0"):
        build(seed)


@pytest.mark.parametrize("seed", [0, np.int64(7), 2**70])
def test_integer_seeds_accepted_and_recorded(seed):
    for inst in (gen_random_euclidean(3, 2, seed=seed), gen_random_graph_metric(4, 0.5, seed=seed)):
        assert inst.provenance["seed"] == int(seed) and type(inst.provenance["seed"]) is int
    again = gen_random_euclidean(3, 2, seed=int(seed))
    assert again.points[0].tobytes() == gen_random_euclidean(3, 2, seed=seed).points[0].tobytes()
