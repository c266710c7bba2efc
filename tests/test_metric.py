"""Instance construction, validation, and serialization."""

import dataclasses
import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import cdist

from centrum import (
    MetricInstance,
    build_from_graph,
    build_from_matrix,
    build_from_points,
    check_inequalities,
    gen_random_euclidean,
    gen_random_graph_metric,
    gen_tight_pair_line,
    gen_tight_pair_triangle,
    gen_tight_triple,
    instance_from_dict,
    instance_to_dict,
    jsonutil,
    load_instance,
    save_instance,
    select_multi_graph,
    validate_metric,
)
from centrum.cli import run
from centrum.errors import (
    AsymmetricCross,
    BadParams,
    DimensionMismatch,
    DisconnectedGraph,
    MissingCrossDistances,
    NegativeDistance,
    NonFinite,
    NonPositiveWeight,
    NonzeroDiagonal,
    TriangleViolation,
)
from centrum.metric import _KERNEL_CELLS, _norm_distances, _shortest_paths
from centrum.objectives import _SHORT_RUN

from conftest import (
    expanded,
    graph_instances,
    metric_instances,
    metric_matrix,
    point_instances,
)


def loop_validate(instance, tol=1e-9):
    """The full O(N^3) enumeration that validate_metric's gate replaced,
    kept as the differential oracle: (kind, points, slack) per record.
    A point instance is checked on its metric over all points."""
    cross = metric_matrix(instance)
    size = cross.shape[0]
    label = instance.point_label
    out = []
    asym = np.argwhere(np.abs(cross - cross.T) > tol * np.maximum(1.0, np.abs(cross)))
    for i, j in asym:
        if i < j:
            out.append(("asymmetry", (label(i), label(j)), float(abs(cross[i, j] - cross[j, i]))))
    for i in range(size):
        if cross[i, i] != 0:
            out.append(("nonzero_diagonal", (label(i),), float(cross[i, i])))
    for y in range(size):
        through = cross[:, y][:, None] + cross[y, :][None, :]
        slack = cross - through
        scale = np.maximum(1.0, np.maximum(cross, through))
        bad = np.argwhere(slack > tol * scale)
        for x, z in bad:
            if x < z and x != y and z != y:
                out.append(("triangle", (label(x), label(y), label(z)), float(slack[x, z])))
    return out


_CDIST_METRICS = {1: "cityblock", 2: "euclidean", math.inf: "chebyshev"}


def cdist_oracle(a, b, norm):
    """scipy's cdist, which _norm_distances replaced, kept as its
    differential oracle."""
    return cdist(a, b, metric=_CDIST_METRICS[norm])


def records(violations):
    return [(v.kind, v.points, v.slack) for v in violations]


def gated(instance, tol=1e-9):
    """validate_metric with one (x, z) pair per block of its exact
    recheck, so every pair its closure gate flags is rechecked alone."""
    import centrum.metric as metric_mod

    saved = metric_mod._RECHECK_CELLS
    metric_mod._RECHECK_CELLS = 1  # one (x, z) pair per recheck block
    try:
        return validate_metric(instance, tol=tol)
    finally:
        metric_mod._RECHECK_CELLS = saved


def with_cross(cross, n):
    return MetricInstance(dist=cross[:n, n:].copy(), cross=cross)


_TOLS = st.sampled_from([1e-9, 1e-6, 1e-3, 0.0])


@st.composite
def shared_euclid(draw):
    """Facilities on the client points: a zero distance per facility."""
    n = draw(st.integers(2, 12))
    return gen_random_euclidean(n, None, dim=draw(st.integers(1, 3)),
                                seed=draw(st.integers(0, 10**6)), shared=True)


@st.composite
def tight_instances(draw):
    k = draw(st.integers(1, 4))
    family = draw(st.sampled_from(["line", "triangle", "triple"]))
    if family == "line":
        return gen_tight_pair_line(k, k * draw(st.integers(5, 9)))
    if family == "triangle":
        return gen_tight_pair_triangle(k, k * draw(st.integers(2, 4)))
    return gen_tight_triple(k + 1, (k + 1) * draw(st.integers(2, 6)))


def base_metrics():
    return st.one_of(metric_instances(), shared_euclid(), tight_instances())


@st.composite
def near_metrics(draw):
    """A metric with a few distances moved to within ulps of the
    tolerance boundary of one of their triangles, either side of it."""
    base = expanded(draw(base_metrics()))
    tol = draw(_TOLS)
    cross = base.cross.copy()
    size = cross.shape[0]
    if size >= 3:
        for _ in range(draw(st.integers(1, 3))):
            x, y, z = draw(st.permutations(range(size)))[:3]
            through = cross[x, y] + cross[y, z]
            value = through
            for _ in range(3):  # fixed point of value = through + tol * max(1, value)
                value = through + tol * max(1.0, value)
            steps = draw(st.integers(-4, 4))
            for _ in range(abs(steps)):
                value = np.nextafter(value, np.inf if steps > 0 else 0.0)
            cross[x, z] = cross[z, x] = value
    return with_cross(cross, base.n_clients), tol


@st.composite
def sub_tolerance_chains(draw):
    """Points on a line whose every triangle holds within tol, while the
    path through all neighbours undercuts far pairs by more than tol."""
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    gaps = draw(st.lists(st.floats(0.01, 0.08), min_size=4, max_size=10))
    eps = tol * draw(st.floats(0.5, 0.95))
    pos = np.concatenate([[0.0], np.cumsum(gaps)])
    hops = np.abs(np.subtract.outer(np.arange(pos.size), np.arange(pos.size)))
    cross = np.abs(np.subtract.outer(pos, pos)) + eps * np.maximum(hops - 1, 0)
    return with_cross(cross, draw(st.integers(1, pos.size - 1))), tol


class TestBuildFromMatrix:
    def test_minimal_instance(self):
        inst = build_from_matrix([[0.0]])
        assert inst.n_clients == 1
        assert inst.m_facilities == 1
        assert not inst.metric_verified

    def test_default_labels(self):
        inst = build_from_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert inst.client_labels == ("c0", "c1")
        assert inst.facility_labels == ("f0", "f1")

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeDistance):
            build_from_matrix([[1.0, -0.5]])

    def test_nan_rejected(self):
        with pytest.raises(NonFinite):
            build_from_matrix([[float("nan")]])

    def test_inf_rejected(self):
        with pytest.raises(NonFinite):
            build_from_matrix([[float("inf")]])

    def test_ragged_rejected(self):
        with pytest.raises(BadParams):
            build_from_matrix([[1.0, 2.0], [3.0]])

    def test_label_count_mismatch(self):
        with pytest.raises(BadParams):
            build_from_matrix([[1.0]], client_labels=("a", "b"))

    def test_triangle_violation_in_cross(self):
        # d(x,z) = 5 but d(x,y) + d(y,z) = 2
        cross = [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ]
        with pytest.raises(TriangleViolation):
            build_from_matrix([[5.0], [1.0]], cross=cross)

    def test_asymmetric_cross_rejected(self):
        cross = [
            [0.0, 1.0, 1.0],
            [2.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ]
        with pytest.raises(AsymmetricCross):
            MetricInstance(dist=np.array([[1.0], [1.0]]), cross=np.array(cross))

    @pytest.mark.parametrize("layout", ["located", "bare"])
    def test_near_symmetric_cross_averages_only_its_asymmetric_pair(self, layout):
        # averaging the whole matrix took 1e308 + 1e308 to inf
        cross = np.array([[0.0, 1.0, 1e308], [1.0 + 1e-12, 0.0, 1e308], [1e308, 1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if layout == "located":
                inst = MetricInstance(cross=cross, locations=([0, 1], [2]))
            else:
                inst = build_from_matrix(cross[:2, 2:], cross=cross)
            assert inst.violations(0.0) == []
        assert np.isfinite(inst.cross).all()
        assert inst.cross[0, 2] == inst.cross[2, 1] == 1e308
        pair = (cross[0, 1] + cross[1, 0]) / 2.0  # as the whole-matrix average gave it
        assert inst.cross[0, 1].tobytes() == inst.cross[1, 0].tobytes() == pair.tobytes()
        assert pair.hex() == "0x1.00000000008ccp+0"

    def test_nonzero_diagonal_rejected(self):
        cross = np.ones((3, 3))
        with pytest.raises(NonzeroDiagonal):
            MetricInstance(dist=np.ones((2, 1)), cross=cross)

    def test_cross_block_must_match_dist(self):
        cross = np.array([
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ])
        with pytest.raises(BadParams):
            MetricInstance(dist=np.array([[9.0], [1.0]]), cross=cross)

    def test_cross_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            MetricInstance(dist=np.ones((2, 1)), cross=np.zeros((4, 4)))

    def test_dist_is_readonly(self):
        inst = build_from_matrix([[1.0]])
        with pytest.raises(ValueError):
            inst.dist[0, 0] = 2.0


class TestBuildFromPoints:
    def test_single_pair_on_line(self):
        inst = build_from_points([[0.0]], [[3.0]])
        assert inst.dist[0, 0] == 3.0
        assert inst.metric_verified

    def test_euclidean_example(self):
        inst = build_from_points([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]])
        assert inst.dist[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert inst.dist[1, 0] == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_l1_example(self):
        inst = build_from_points([[0.0, 0.0]], [[1.0, 1.0]], norm=1)
        assert inst.dist[0, 0] == 2.0

    def test_linf_example(self):
        inst = build_from_points([[3.0, 4.0]], [[0.0, 0.0]], norm=float("inf"))
        assert inst.dist[0, 0] == 4.0

    def test_flat_vectors_accepted(self):
        inst = build_from_points([0.0, 2.0], [1.0])
        assert inst.dist.shape == (2, 1)
        assert inst.dist.tolist() == [[1.0], [1.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_from_points([[0.0, 0.0]], [[1.0]])

    def test_bad_norm(self):
        with pytest.raises(BadParams):
            build_from_points([[0.0]], [[1.0]], norm=3)

    def test_nonfinite_coordinates(self):
        with pytest.raises(NonFinite):
            build_from_points([[float("nan")]], [[1.0]])

    @given(point_instances())
    def test_always_a_metric(self, inst):
        assert validate_metric(inst) == []

    @given(point_instances())
    def test_matches_the_cdist_recipe(self, inst):
        """The matrices the builder computed before instances kept only
        their points and dist: cdist over all points, symmetrized, zero
        diagonal. validate_metric's matrix is that one, and dist is its
        client-facility block."""
        cpts, fpts, norm = inst.points
        everything = np.vstack([cpts, fpts])
        metric = {1: "cityblock", 2: "euclidean", math.inf: "chebyshev"}[norm]
        cross = cdist(everything, everything, metric=metric)
        cross = (cross + cross.T) / 2.0
        np.fill_diagonal(cross, 0.0)
        assert inst.cross is None
        assert metric_matrix(inst).tobytes() == cross.tobytes()
        assert inst.dist.tobytes() == cross[:len(cpts), len(cpts):].tobytes()
        assert inst.metric_verified


@st.composite
def kernel_inputs(draw):
    """(a, b, norm, cells) for _norm_distances with _KERNEL_CELLS = cells:
    dims 0-60; coordinates at mixed scales (1e-6 to 1e6 per entry), small
    integers, or a few tied values with rows shared between a and b;
    1 x k and k x 1 shapes; and, with small blocks, row counts just
    below, at and just above one or two blocks."""
    dim = draw(st.integers(0, 60))
    norm = draw(st.sampled_from([1, 2, math.inf]))
    m = draw(st.sampled_from([1, draw(st.integers(2, 40))]))
    cells = draw(st.sampled_from([_KERNEL_CELLS, draw(st.integers(1, 120))]))
    step = max(1, cells // m)
    n = draw(st.one_of(
        st.sampled_from([1, draw(st.integers(2, 30))]),
        st.builds(lambda j, d: min(max(1, j * step + d), 400),
                  st.integers(1, 2), st.integers(-1, 1)),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["scaled", "integer", "tied"]))
    if style == "scaled":
        a, b = (rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-6, 7, size=(k, dim))
                for k in (n, m))
    elif style == "integer":
        a, b = (rng.integers(-5, 6, size=(k, dim)).astype(float) for k in (n, m))
    else:
        a, b = (rng.choice([0.0, 0.5, -1.25, 3.0], size=(k, dim)) for k in (n, m))
        shared = min(n, m)
        b[:shared // 2] = a[:shared // 2]
    return a, b, norm, cells


def blocked_distances(a, b, norm, cells):
    """_norm_distances with row blocks of cells // len(b) rows."""
    import centrum.metric as metric_mod

    saved = metric_mod._KERNEL_CELLS
    metric_mod._KERNEL_CELLS = cells
    try:
        return _norm_distances(a, b, norm)
    finally:
        metric_mod._KERNEL_CELLS = saved


class TestNormDistances:
    """_norm_distances against cdist, which it replaced."""

    @staticmethod
    def assert_bit_equal(a, b, norm, cells=_KERNEL_CELLS):
        got = blocked_distances(a, b, norm, cells)
        expected = cdist_oracle(a, b, norm)
        assert got.shape == expected.shape == (len(a), len(b))
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @given(kernel_inputs())
    def test_bit_equal_to_cdist(self, case):
        self.assert_bit_equal(*case)

    @given(kernel_inputs())
    def test_exactly_symmetric_with_a_zero_diagonal(self, case):
        # what lets _point_cross skip the average of (c + c.T) / 2
        a, _, norm, cells = case
        a = a[:60]
        got = blocked_distances(a, a, norm, cells)
        assert np.array_equal(got, got.T) and not np.diag(got).any()

    def test_rows_across_the_real_block_edge(self):
        rng = np.random.default_rng(4)
        step = _KERNEL_CELLS // 7
        b = rng.normal(size=(7, 3))
        for norm in (1, 2, math.inf):
            for n in (step - 1, step, step + 1, 2 * step + 1):
                self.assert_bit_equal(rng.normal(size=(n, 3)), b, norm)

    def test_overflow_is_inf_without_a_warning(self):
        got = _norm_distances(np.array([[1e308], [0.0]]), np.array([[-1e308]]), 1)
        assert got.tolist() == [[math.inf], [1e308]]
        assert _norm_distances(np.array([[1e200]]), np.array([[0.0]]), 2)[0, 0] == math.inf


class TestPointsField:
    """The points field and the guards of the constructor."""

    def test_points_are_kept_read_only(self):
        cpts = np.array([[0.0, 0.0], [1.0, 2.0]])
        inst = build_from_points(cpts, [[0.5, 3.0]], norm="inf")
        stored_c, stored_f, norm = inst.points
        assert norm == math.inf
        assert stored_c.tolist() == cpts.tolist() and stored_f.tolist() == [[0.5, 3.0]]
        assert not stored_c.flags.writeable and not stored_f.flags.writeable
        assert cpts.flags.writeable  # the caller's array is copied, not frozen
        assert inst.metric_verified and inst.locations is None

    def test_norm_is_stored_as_1_2_or_inf(self):
        for given_norm, stored in ((1, 1), (2.0, 2), (float("inf"), math.inf), ("inf", math.inf)):
            norm = build_from_points([[0.0]], [[1.0]], norm=given_norm).points[2]
            assert norm == stored and type(norm) is type(stored)

    def test_constructor_derives_both_matrices(self):
        # dist is kept; the metric over all points is built on demand
        inst = MetricInstance(points=([[0.0], [4.0]], [[1.0]], 1))
        assert inst.dist.tolist() == [[1.0], [3.0]]
        assert inst.cross is None
        assert metric_matrix(inst).tolist() == [[0.0, 4.0, 1.0], [4.0, 0.0, 3.0], [1.0, 3.0, 0.0]]
        assert inst.violations() == [] and inst.violations(0.0) == []

    def test_points_with_other_matrices_rejected(self):
        points = ([[0.0], [4.0]], [[1.0]], 2)
        cross = metric_matrix(MetricInstance(points=points))
        for changes in (
            {"dist": [[1.0], [3.5]]},
            {"dist": [[1.0, 1.0], [3.0, 3.0]]},
            {"cross": cross},
            {"cross": cross + 0.5 * (1 - np.eye(3))},
            {"cross": cross[:2, :2]},
            {"cross": cross, "locations": ([0, 1], [2])},
            {"locations": ([0, 1], [2])},
        ):
            with pytest.raises(BadParams):
                MetricInstance(points=points, **changes)

    def test_malformed_points_rejected(self):
        for points in (
            ([[0.0]], [[1.0]]),
            ([[0.0]], [[1.0]], 2, "extra"),
            "abc",
            3,
            ([["x"]], [[1.0]], 2),
            ([[[0.0]]], [[1.0]], 2),
        ):
            with pytest.raises(BadParams):
                MetricInstance(points=points)
        with pytest.raises(DimensionMismatch):
            MetricInstance(points=([[0.0, 0.0]], [[1.0]], 2))
        with pytest.raises(NonFinite):
            MetricInstance(points=([[float("inf")]], [[1.0]], 2))

    def test_overflow_and_empty_sides_rejected(self, tmp_path, capsys):
        # a client-facility distance of 2e308 overflows when dist is first
        # read, which the constructor leaves to the instance's readers
        inst = MetricInstance(points=([[0.0], [1e308]], [[-1e308]], 1))
        assert (inst.n_clients, inst.m_facilities) == (2, 1) and inst._dist is None
        for _ in range(2):  # a failed read keeps nothing, so it fails again
            with pytest.raises(NonFinite, match=r"^dist\[1\]\[0\] is not finite"):
                inst.dist
            assert inst._dist is None
        path = tmp_path / "far.json"
        save_instance(inst, path)
        assert run(["solve", str(path), "--objectives", "1,2"]) == 2
        assert capsys.readouterr().err == "error: dist[1][0] is not finite\n"
        for points in (([], [[1.0]], 2), ([[0.0]], np.zeros((0, 1)), 2)):
            with pytest.raises(BadParams, match="at least one client and one facility"):
                MetricInstance(points=points)

    def test_distances_up_to_the_largest_float(self):
        # the clients are 1e308 apart, the facility 5e307 from each; the
        # symmetrized (c + c.T) / 2 of every point pair overflowed here
        inst = build_from_points([[5e307], [-5e307]], [[0.0]], norm=1)
        assert inst.dist.tolist() == [[5e307], [5e307]]
        assert metric_matrix(inst)[0, 1] == 1e308
        assert inst.violations(0.0) == []
        # two clients 2e308 apart build; that distance fails when read
        far = build_from_points([[1e308], [-1e308]], [[0.0]], norm=1)
        assert far.dist.tolist() == [[1e308], [1e308]]
        assert far.violations() == []  # skipped: at or above the rounding bound
        with pytest.raises(NonFinite, match=r"^cross\[0\]\[1\] is not finite"):
            far.violations(0.0)

    def test_bad_norm_rejected(self):
        for norm in (3, 0, -1, "two", "Inf", None, [2], float("nan")):
            with pytest.raises(BadParams):
                MetricInstance(points=([[0.0]], [[1.0]], norm))

    def test_bool_norm_rejected(self):
        # True == 1: it built an L1 instance and was saved back as "norm": 1
        for norm in (True, False, np.True_):
            with pytest.raises(BadParams, match="norm must be 1, 2, or inf"):
                MetricInstance(points=([[0.0]], [[1.0]], norm))
        doc = {"client_points": [[0.0]], "facility_points": [[1.0]], "norm": True}
        with pytest.raises(BadParams):
            instance_from_dict(doc)


class TestReplace:
    """dataclasses.replace hands the derived matrices back to the
    constructor, which takes them when they are bit-equal."""

    @pytest.mark.parametrize("build", [
        lambda: gen_tight_triple(3, 12),
        lambda: gen_tight_pair_line(2, 11),
        lambda: gen_random_graph_metric(8, 0.4, seed=3, n_clients=10, m_facilities=4),
        lambda: gen_random_euclidean(7, 3, seed=2),
        lambda: gen_random_euclidean(5, None, dim=3, seed=4, shared=True),
        lambda: build_from_points([[0.0], [2.0]], [[1.0]], norm=1),
    ])
    def test_replace_keeps_the_instance(self, build):
        inst = build()
        again = dataclasses.replace(inst, provenance={"family": "renamed"})
        assert again.provenance == {"family": "renamed"}
        assert again.dist.tobytes() == inst.dist.tobytes()
        assert (again.cross is None) == (inst.points is not None)
        assert metric_matrix(again).tobytes() == metric_matrix(inst).tobytes()
        assert again.client_labels == inst.client_labels
        assert again.facility_labels == inst.facility_labels

    def test_mismatched_dist_still_raises(self):
        triple = gen_tight_triple(3, 12)
        euclid = gen_random_euclidean(6, 3, seed=1)
        for inst in (triple, euclid):
            dist = inst.dist.copy()
            dist[0, 0] = np.nextafter(dist[0, 0], np.inf)
            with pytest.raises(BadParams):
                dataclasses.replace(inst, dist=dist)
        cross = metric_matrix(euclid)
        with pytest.raises(BadParams):  # a point instance takes no cross at all
            dataclasses.replace(euclid, cross=cross)
        cross[0, 1] = cross[1, 0] = np.nextafter(cross[0, 1], np.inf)
        with pytest.raises(BadParams):
            dataclasses.replace(euclid, cross=cross)
        with pytest.raises(BadParams):
            dataclasses.replace(euclid, points=(euclid.points[0] + 1.0, *euclid.points[1:]))


class TestBuildFromGraph:
    def test_path_graph(self):
        inst = build_from_graph(
            ["a", "b", "c"],
            [("a", "b", 1.0), ("b", "c", 1.0)],
            ["a", "c"],
            ["b"],
        )
        assert inst.dist[0, 0] == 1.0
        assert inst.dist[1, 0] == 1.0
        # shortest path a-c goes through b
        assert expanded(inst).cross[0, 1] == 2.0

    def test_single_vertex(self):
        inst = build_from_graph(["v"], [], ["v"], ["v"])
        assert inst.dist.tolist() == [[0.0]]

    def test_parallel_edges_keep_minimum(self):
        inst = build_from_graph(
            ["a", "b"],
            [("a", "b", 5.0), ("a", "b", 2.0)],
            ["a"],
            ["b"],
        )
        assert inst.dist[0, 0] == 2.0

    def test_shortcut_wins_over_direct_edge(self):
        inst = build_from_graph(
            ["a", "b", "c"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 10.0)],
            ["a"],
            ["c"],
        )
        assert inst.dist[0, 0] == 2.0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            build_from_graph(["a", "b"], [], ["a"], ["b"])

    def test_unreferenced_component_tolerated(self):
        inst = build_from_graph(
            ["a", "b", "x"],
            [("a", "b", 1.0)],
            ["a"],
            ["b"],
        )
        assert inst.dist[0, 0] == 1.0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            build_from_graph(["a", "b"], [("a", "b", 0.0)], ["a"], ["b"])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(BadParams):
            build_from_graph(["a"], [("a", "zz", 1.0)], ["a"], ["a"])
        with pytest.raises(BadParams):
            build_from_graph(["a"], [], ["a"], ["zz"])

    @pytest.mark.parametrize("vertices,edges,clients", [
        (["a", "b"], [("a", "b")], ["a"]),
        (["a", "b"], [("a", "b", "x")], ["a"]),
        (["a", "b"], [("a", "b", None)], ["a"]),
        (["a", "b"], [(["a"], "b", 1.0)], ["a"]),
        (["a", "b"], 5, ["a"]),
        (["a", "b"], [5], ["a"]),
        (["a", "b"], [("a", "b", 10**400)], ["a"]),
        ([["a"], "b"], [], ["b"]),
        (["a", "b"], [("a", "b", 1.0)], [["a"]]),
    ])
    def test_malformed_graph_rejected(self, vertices, edges, clients):
        with pytest.raises(BadParams):
            build_from_graph(vertices, edges, clients, ["b"])

    @pytest.mark.parametrize("provenance", ["s", 1, [1], [("a", 1)]])
    @pytest.mark.parametrize("build", [
        lambda p: build_from_graph(["a"], [], ["a"], ["a"], provenance=p),
        lambda p: build_from_matrix([[1.0]], provenance=p),
        lambda p: build_from_points([[0.0]], [[1.0]], provenance=p),
    ], ids=["graph", "matrix", "points"])
    def test_provenance_must_be_a_dict(self, build, provenance):
        # "s" and 1 failed inside dict() with a ValueError or TypeError
        with pytest.raises(BadParams, match="provenance must be a dict"):
            build(provenance)
        assert build({"a": 1}).provenance == {"a": 1} and build(None).provenance == {}

    def test_duplicate_vertex_ids_rejected(self):
        with pytest.raises(BadParams):
            build_from_graph(["a", "a"], [], ["a"], ["a"])

    def test_repeated_client_vertices(self):
        inst = build_from_graph(
            ["a", "b"],
            [("a", "b", 1.5)],
            ["a", "a", "b"],
            ["b"],
        )
        assert inst.n_clients == 3
        assert inst.dist[:, 0].tolist() == [1.5, 1.5, 0.0]

    def test_closure_matches_floyd_warshall(self):
        # independent all-pairs oracle on a fixed random graph
        rng = np.random.Generator(np.random.Philox(42))
        nv = 8
        edges = []
        for v in range(1, nv):
            u = int(rng.integers(0, v))
            edges.append((u, v, float(rng.uniform(0.2, 2.0))))
        for u in range(nv):
            for v in range(u + 1, nv):
                if rng.random() < 0.4:
                    edges.append((u, v, float(rng.uniform(0.2, 2.0))))
        dist = np.full((nv, nv), np.inf)
        np.fill_diagonal(dist, 0.0)
        for u, v, w in edges:
            dist[u, v] = min(dist[u, v], w)
            dist[v, u] = min(dist[v, u], w)
        for mid in range(nv):
            for i in range(nv):
                for j in range(nv):
                    through = dist[i, mid] + dist[mid, j]
                    if through < dist[i, j]:
                        dist[i, j] = through
        inst = build_from_graph(
            list(range(nv)), edges, list(range(nv)), list(range(nv))
        )
        assert np.allclose(inst.cross[:nv, :nv], dist, atol=1e-12)

    @given(graph_instances())
    def test_always_a_metric(self, inst):
        assert validate_metric(inst) == []

    def test_many_clients_on_few_vertices(self):
        # one cross row per referenced vertex, not per client: the
        # per-point layout made a 16,050-row matrix (2.0 GB) here
        vertices = list(range(50))
        edges = [(v, v + 1, 1.0 + v / 64) for v in range(49)]
        clients = [i % 50 for i in range(16_000)]
        tracemalloc.start()
        try:
            inst = build_from_graph(vertices, edges, clients, vertices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.cross.shape == (50, 50)
        assert inst.dist.shape == (16_000, 50)
        assert np.array_equal(inst.dist[:50], inst.cross)
        assert np.array_equal(inst.dist[50:], inst.dist[:-50])
        assert peak < 20_000_000


def dijkstra_oracle(adj, sources):
    """scipy's Dijkstra, which _shortest_paths replaced, kept as its
    differential oracle; it reads a zero entry as a missing edge."""
    sparse = csr_matrix(np.where(np.isinf(adj), 0.0, adj))
    return shortest_path(sparse, method="D", directed=False, indices=sources)


def random_adjacency(size, density, seed):
    """A random undirected graph with weights rounded to one decimal, so
    that equal path sums occur; inf where there is no edge."""
    rng = np.random.default_rng(seed)
    weights = np.round(rng.uniform(0.1, 2.0, (size, size)), 1)
    keep = np.triu(rng.random((size, size)) < density, 1)
    adj = np.full((size, size), np.inf)
    adj[keep] = weights[keep]
    return np.minimum(adj, adj.T)


class TestShortestPaths:
    @given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.data())
    def test_equals_scipy_dijkstra(self, size, density, seed, data):
        adj = random_adjacency(size, density, seed)
        sources = np.unique(data.draw(st.lists(st.integers(0, size - 1), min_size=1)))
        assert _shortest_paths(adj, sources).tobytes() == dijkstra_oracle(adj, sources).tobytes()

    @pytest.mark.parametrize("size", [100, 200])
    def test_equals_scipy_dijkstra_on_large_graphs(self, size):
        adj = random_adjacency(size, 0.35, size)
        sources = np.arange(size)
        assert _shortest_paths(adj, sources).tobytes() == dijkstra_oracle(adj, sources).tobytes()

    @given(st.integers(0, 2**32 - 1), st.data())
    def test_build_from_graph_equals_scipy(self, seed, data):
        # repeated client and facility vertices, parallel edges and self-loops
        rng = np.random.default_rng(seed)
        size = data.draw(st.integers(2, 30))
        weights = 0.1 * rng.integers(1, 20, 4 * size)
        edges = [(v, int(rng.integers(0, v)), weights[v]) for v in range(1, size)]
        edges += [(int(u), int(v), w) for (u, v), w in
                  zip(rng.integers(0, size, (3 * size, 2)), weights[size:])]
        vertex = st.integers(0, size - 1)
        clients = data.draw(st.lists(vertex, min_size=1, max_size=12))
        facilities = data.draw(st.lists(vertex, min_size=1, max_size=6))
        inst = build_from_graph(list(range(size)), edges, clients, facilities)
        adj = np.full((size, size), np.inf)
        for u, v, w in edges:
            if u != v:
                adj[u, v] = adj[v, u] = min(adj[u, v], w)
        referenced = np.unique(clients + facilities)
        cross = dijkstra_oracle(adj, referenced)[:, referenced]
        expected = MetricInstance(cross=cross, locations=inst.locations)
        assert inst.cross.tobytes() == expected.cross.tobytes()
        assert inst.dist.tobytes() == expected.dist.tobytes()

    def test_unreachable_vertices_stay_inf(self):
        adj = random_adjacency(6, 0.0, 1)
        expected = np.where(np.eye(6)[[0, 4]], 0.0, np.inf)
        assert np.array_equal(_shortest_paths(adj, [0, 4]), expected)
        with pytest.raises(DisconnectedGraph):
            build_from_graph(range(3), [(0, 1, 1.0), (2, 2, 1.0)], [0], [2])


class TestValidateMetric:
    def test_equilateral_passes(self):
        cross = np.ones((3, 3)) - np.eye(3)
        inst = MetricInstance(dist=cross[:2, 2:].copy(), cross=cross)
        assert validate_metric(inst) == []

    def test_near_violation_reported(self):
        # 2.001 > 1 + 1 by about 1e-3
        cross = np.array([
            [0.0, 1.0, 2.001],
            [1.0, 0.0, 1.0],
            [2.001, 1.0, 0.0],
        ])
        inst = MetricInstance(dist=cross[:2, 2:].copy(), cross=cross)
        violations = validate_metric(inst, tol=1e-9)
        assert len(violations) == 1
        assert violations[0].kind == "triangle"
        assert violations[0].slack == pytest.approx(1e-3, rel=1e-6)

    def test_tolerance_scales_with_distances(self):
        # same relative wiggle at a much larger scale still passes
        big = 1e12
        cross = np.array([
            [0.0, big, 2 * big + 1.0],
            [big, 0.0, big],
            [2 * big + 1.0, big, 0.0],
        ])
        inst = MetricInstance(dist=cross[:2, 2:].copy(), cross=cross)
        assert validate_metric(inst, tol=1e-9) == []
        assert len(validate_metric(inst, tol=1e-15)) == 1

    def test_requires_cross(self):
        inst = build_from_matrix([[1.0]])
        with pytest.raises(MissingCrossDistances):
            validate_metric(inst)


class TestValidateMetricOracle:
    """The gated validate_metric against the full enumeration."""

    @given(base_metrics(), _TOLS)
    def test_metric_families(self, inst, tol):
        expected = loop_validate(inst, tol)
        assert records(validate_metric(inst, tol=tol)) == expected
        assert records(gated(inst, tol)) == expected

    @given(near_metrics())
    def test_violations_at_the_tolerance(self, case):
        inst, tol = case
        expected = loop_validate(inst, tol)
        assert records(validate_metric(inst, tol=tol)) == expected
        assert records(gated(inst, tol)) == expected

    @given(sub_tolerance_chains())
    def test_chains_flagged_by_closure_but_clean(self, case):
        inst, tol = case
        closure = shortest_path(inst.cross, method="FW", directed=False)
        assert np.any(closure < inst.cross - tol * np.maximum(1.0, inst.cross))
        assert loop_validate(inst, tol) == []
        assert validate_metric(inst, tol=tol) == []
        assert gated(inst, tol) == []

    @pytest.mark.parametrize("cells", [100, 1 << 18])
    def test_many_violations_keep_enumeration_order(self, cells, monkeypatch):
        import centrum.metric as metric_mod

        # a small block size splits the recheck into many blocks
        monkeypatch.setattr(metric_mod, "_RECHECK_CELLS", cells)
        rng = np.random.default_rng(7)
        cross = rng.uniform(0.0, 10.0, (30, 30))
        cross = (cross + cross.T) / 2.0
        np.fill_diagonal(cross, 0.0)
        inst = with_cross(cross, 12)
        expected = loop_validate(inst)
        assert len(expected) > 500
        assert records(validate_metric(inst)) == expected

    def test_negative_tol_checks_every_triangle(self):
        inst = expanded(gen_tight_pair_triangle(2, 5))
        expected = [r for r in loop_validate(inst, -0.5) if r[0] == "triangle"]
        assert expected
        assert records(validate_metric(inst, tol=-0.5)) == expected


class TestZeroDistances:
    def test_zero_distance_is_an_edge(self):
        # points 0 and 1 share a location, so d(0,2) = 2 > d(0,1) + d(1,2) = 1.
        # A closure that read the zero as a missing edge would find no
        # path shorter than 2 and miss the violation.
        cross = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        inst = with_cross(cross, 1)
        assert records(validate_metric(inst)) == [("triangle", ("c0", "f0", "f1"), 1.0)]
        assert records(gated(inst)) == [("triangle", ("c0", "f0", "f1"), 1.0)]
        with pytest.raises(TriangleViolation):
            build_from_matrix(cross[:1, 1:], cross=cross)

    def test_shared_locations_moved_apart(self):
        # facility i sits on client i; stretching one client-facility
        # distance breaks the triangle through the co-located point
        inst = gen_random_euclidean(6, None, dim=2, seed=3, shared=True)
        cross = metric_matrix(inst)
        cross[0, 6 + 1] = cross[6 + 1, 0] = cross[0, 1] + 0.5
        moved = with_cross(cross, 6)
        expected = loop_validate(moved)
        assert ("triangle", ("c0", "c1", "f1"), pytest.approx(0.5)) in expected
        assert records(validate_metric(moved)) == expected
        assert records(gated(moved)) == expected

    def test_repeated_graph_vertices(self):
        inst = expanded(build_from_graph(
            ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)],
            ["a", "a", "c"], ["b", "c"],
        ))
        assert inst.cross[0, 1] == 0.0
        cross = inst.cross.copy()
        cross[0, 4] = cross[4, 0] = 3.5  # a -> c, while its twin is 3 away
        moved = with_cross(cross, 3)
        expected = loop_validate(moved)
        assert expected
        assert records(validate_metric(moved)) == expected
        assert records(gated(moved)) == expected


class TestValidateOnce:
    def test_cached_per_tol(self, monkeypatch):
        import centrum.metric as metric_mod

        calls = []
        real = metric_mod.validate_metric

        def counting(instance, tol=1e-9):
            calls.append(tol)
            return real(instance, tol=tol)

        monkeypatch.setattr(metric_mod, "validate_metric", counting)
        cross = np.array([[0.0, 1.0, 2.001], [1.0, 0.0, 1.0], [2.001, 1.0, 0.0]])
        inst = with_cross(cross, 2)
        first = inst.violations(1e-9)
        assert records(inst.violations(1e-9)) == records(first) == loop_validate(inst)
        assert inst.violations(1e-2) == []
        assert calls == [1e-9, 1e-2]

    def test_build_from_matrix_records_the_verdict(self, monkeypatch):
        import centrum.metric as metric_mod

        inst = build_from_matrix([[1.0]], cross=[[0.0, 1.0], [1.0, 0.0]])
        monkeypatch.setattr(metric_mod, "validate_metric", None)
        assert inst.violations(1e-9) == []


def counting_validate(monkeypatch):
    """Replace validate_metric, where violations looks it up, by a
    wrapper that records each tol it is called with."""
    import centrum.metric as metric_mod

    calls = []
    real = metric_mod.validate_metric

    def counting(instance, tol=1e-9):
        calls.append(tol)
        return real(instance, tol=tol)

    monkeypatch.setattr(metric_mod, "validate_metric", counting)
    return calls


_NORMS = st.sampled_from([1, 2, math.inf])


@st.composite
def scaled_points(draw):
    """Points in 1 to 50 coordinates at scales 1e-6 to 1e6, in general
    position or on one line, where every triangle through a middle
    point is an equality that rounding can break."""
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    dim = draw(st.integers(1, 50))
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-6, 6))
    if draw(st.booleans()):
        pts = rng.uniform(-1.0, 1.0, (n + m, dim))
    else:
        pts = rng.uniform(-1.0, 1.0, dim) + rng.uniform(-3.0, 3.0, (n + m, 1)) * rng.normal(size=dim)
    pts = pts * scale
    return build_from_points(pts[:n], pts[n:], norm=draw(_NORMS))


@st.composite
def weighted_graphs(draw):
    """Chains (every triangle along them an equality) and dense graphs on
    up to 120 vertices, weights spread over 1e-3 to 1e3."""
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    nv = draw(st.integers(2, 120))
    if draw(st.booleans()):
        pairs = [(v, v + 1) for v in range(nv - 1)]
    else:
        pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    weights = 10.0 ** rng.uniform(-3.0, 3.0, len(pairs))
    edges = [(u, v, float(w)) for (u, v), w in zip(pairs, weights)]
    vertices = list(range(nv))
    return build_from_graph(vertices, edges, vertices, vertices)


def _rounding_chain():
    """0.1 + 0.2 rounds up, so the chain 0.1, 0.2, 0.3 puts d(0, 3) one
    ulp above d(0, 1) + d(1, 3)."""
    return build_from_graph(
        [0, 1, 2, 3], [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)], [0, 1, 2, 3], [0, 3]
    )


class TestRoundingBound:
    """Point and graph instances skip validation at tol >= their
    rounding bound, where validate_metric provably finds nothing."""

    @given(scaled_points())
    def test_points_hold_within_the_bound(self, inst):
        bound = inst._rounding
        assert bound == (2 * inst.points[0].shape[1] + 8) * 2.0**-53
        assert validate_metric(inst, tol=bound) == []

    @given(scaled_points(), st.sampled_from([0.0, 1e-300, -1.0]))
    def test_points_below_the_bound_match_the_enumeration(self, inst, tol):
        # validated on the metric over all points, built for the call;
        # the old loop also listed every pair as asymmetric at tol < 0
        expected = [r for r in loop_validate(inst, tol) if r[0] == "triangle"]
        assert records(inst.violations(tol)) == expected

    @given(weighted_graphs())
    def test_graphs_hold_within_the_bound(self, inst):
        bound = inst._rounding
        assert bound == (2 * len(inst.cross) + 4) * 2.0**-53
        assert validate_metric(inst, tol=bound) == []

    def test_graphs_still_fail_the_exact_check(self, monkeypatch):
        calls = counting_validate(monkeypatch)
        for inst in (
            _rounding_chain(),
            gen_random_graph_metric(12, seed=4, n_clients=20, m_facilities=6),
        ):
            found = inst.violations(0.0)
            assert found and records(found) == records(validate_metric(inst, tol=0.0))
            assert 0 < max(v.slack for v in found) <= inst._rounding * inst.cross.max()
            assert inst.violations(inst._rounding) == []
        assert calls == [0.0, 0.0]

    def test_skipped_at_the_default_tol(self, monkeypatch):
        calls = counting_validate(monkeypatch)
        for inst in (
            gen_random_euclidean(12, 5, dim=3, seed=1),
            gen_random_euclidean(9, None, seed=2, shared=True),
            build_from_points([[0.0], [2.0]], [[1.0]], norm=1),
            gen_random_graph_metric(10, seed=3, n_clients=14, m_facilities=5),
            _rounding_chain(),
        ):
            assert inst.violations(1e-9) == []
        assert calls == []
        assert gen_tight_triple(3, 12).violations(1e-9) == []
        assert calls == [1e-9]

    def test_negative_and_nan_tol_validate(self, monkeypatch):
        calls = counting_validate(monkeypatch)
        nan = float("nan")
        for inst in (gen_random_euclidean(5, 3, seed=1), _rounding_chain()):
            assert records(inst.violations(-1.0)) == records(validate_metric(inst, tol=-1.0))
            assert inst.violations(-1.0)
            assert inst.violations(nan) == []
        assert calls == [-1.0, nan, -1.0, nan]

    def test_only_the_builders_set_a_bound(self):
        euclid = gen_random_euclidean(6, 3, seed=5)
        graph = _rounding_chain()
        assert dataclasses.replace(euclid, provenance={})._rounding == euclid._rounding
        # replace cannot carry the graph's bound, so that copy validates again
        assert dataclasses.replace(graph, provenance={})._rounding is None
        assert MetricInstance(cross=graph.cross, locations=graph.locations)._rounding is None
        assert with_cross(metric_matrix(euclid), 6)._rounding is None
        assert gen_tight_triple(3, 12)._rounding is None
        with pytest.raises(TypeError):
            MetricInstance(dist=[[1.0]], _rounding=1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(graph, _rounding=1.0)

    def test_loaded_files_keep_their_certificate(self, tmp_path):
        euclid, graph = gen_random_euclidean(6, 3, seed=5), _rounding_chain()
        save_instance(euclid, tmp_path / "e.json")
        save_instance(graph, tmp_path / "g.json")
        assert load_instance(tmp_path / "e.json")._rounding == euclid._rounding
        # a located file is a bare cross matrix: validated on load
        assert load_instance(tmp_path / "g.json", tol=1e-9)._rounding is None


class TestCallerArrays:
    """The constructor copies what it is given and freezes its own copies."""

    @staticmethod
    def assert_owned(given, stored):
        assert given.flags.writeable
        assert not np.shares_memory(given, stored)
        assert not stored.flags.writeable
        before = stored.copy()
        given[...] = 7
        assert np.array_equal(stored, before)

    def test_bare_matrix(self):
        d = np.ones((2, 2))
        inst = build_from_matrix(d)
        self.assert_owned(d, inst.dist)

    def test_matrix_with_cross(self):
        cross = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        dist = cross[:2, 2:].copy()
        inst = MetricInstance(dist=dist, cross=cross)
        self.assert_owned(dist, inst.dist)
        self.assert_owned(cross, inst.cross)

    def test_located(self):
        cross = np.array([[0.0, 1.0], [1.0, 0.0]])
        clients, facilities = np.arange(3) % 2, np.array([1])
        inst = MetricInstance(cross=cross, locations=(clients, facilities))
        assert inst.dist.tolist() == [[1.0], [0.0], [1.0]]
        self.assert_owned(cross, inst.cross)
        self.assert_owned(clients, inst.locations[0])
        self.assert_owned(facilities, inst.locations[1])
        assert not inst.dist.flags.writeable

    def test_points(self):
        cpts, fpts = np.array([[0.0, 1.0], [2.0, 2.0]]), np.array([[1.0, 0.0]])
        inst = build_from_points(cpts, fpts)
        assert not inst.dist.flags.writeable and inst.cross is None
        self.assert_owned(cpts, inst.points[0])
        self.assert_owned(fpts, inst.points[1])


class TestLazyDist:
    """A located instance keeps no per-client dist until it is read.
    The first read gives the matrix the constructor used to build,
    cross[np.ix_(*locations)], bit for bit, read-only, and keeps it."""

    @staticmethod
    def cases(tmp_path):
        """(name, build, (n, m), lazy): lazy is False where the caller
        gave a dist, which the constructor checks and so derives."""
        cross = metric_matrix(gen_random_euclidean(4, 2, seed=5))
        saved = tmp_path / "triple.json"
        save_instance(gen_tight_triple(4, 25), saved)
        edge = _SHORT_RUN + 10  # the largest client location of the run cases holds _SHORT_RUN
        return [
            ("line", lambda: gen_tight_pair_line(2, 11), (11, 2), True),
            ("line-run", lambda: gen_tight_pair_line(10, edge), (edge, 2), True),
            ("triangle", lambda: gen_tight_pair_triangle(3, 7), (7, 2), True),
            ("triangle-run", lambda: gen_tight_pair_triangle(_SHORT_RUN, edge), (edge, 2), True),
            ("triple-plain", lambda: gen_tight_triple(10, edge - 1), (edge - 1, 3), True),
            ("triple-run", lambda: gen_tight_triple(10, edge), (edge, 3), True),
            ("graph", lambda: gen_random_graph_metric(8, 0.4, seed=3, n_clients=30,
                                                      m_facilities=5), (30, 5), True),
            ("graph-repeats", lambda: build_from_graph(
                "abcd", [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 0.5)],
                ["a", "c", "a", "d", "c"], ["b", "b", "d"]), (5, 3), True),
            ("identity", lambda: MetricInstance(dist=cross[:4, 4:].copy(), cross=cross),
             (4, 2), False),
            ("loaded", lambda: load_instance(saved), (25, 3), True),
        ]

    def test_first_read_derives_the_matrix(self, tmp_path):
        for name, build, (n, m), lazy in self.cases(tmp_path):
            inst = build()
            assert (inst._dist is None) == lazy, name
            assert (inst.n_clients, inst.m_facilities) == (n, m), name
            assert repr(inst).startswith("MetricInstance(n_clients=%d, m_facilities=%d" % (n, m))
            doc = jsonutil.dumps(instance_to_dict(inst))
            assert (inst._dist is None) == lazy, name  # saving reads locations only
            unread = pickle.loads(pickle.dumps(inst))
            dist = inst.dist
            expected = inst.cross[np.ix_(*inst.locations)]
            assert dist.shape == expected.shape == (n, m), name
            assert dist.dtype == expected.dtype and dist.tobytes() == expected.tobytes(), name
            assert not dist.flags.writeable, name
            assert inst.dist is dist, name
            assert jsonutil.dumps(instance_to_dict(inst)) == doc, name
            assert unread._dist is None, name  # a pickle holds no derived dist
            for copy in (unread, pickle.loads(pickle.dumps(inst)),
                         dataclasses.replace(inst), dataclasses.replace(unread)):
                assert (copy.n_clients, copy.m_facilities) == (n, m), name
                assert copy.dist.tobytes() == dist.tobytes(), name
                assert not copy.dist.flags.writeable and copy.dist is copy.dist, name
                assert jsonutil.dumps(instance_to_dict(copy)) == doc, name

    def test_other_instances_keep_an_eager_dist(self, tmp_path):
        # only a bare matrix is its own dist: a point instance derives it
        # too (test_point_instances_derive_it_on_first_read)
        table = tmp_path / "bare.csv"
        table.write_text("f0,f1\n1,2\n3,4\n")
        for inst in (build_from_matrix([[1.0, 2.0], [3.0, 4.0]]), load_instance(table)):
            assert inst._dist is not None and inst.dist is inst._dist
            assert inst.locations is None and inst.points is None
            assert inst.dist.shape == (inst.n_clients, inst.m_facilities) == (2, 2)
            copy = pickle.loads(pickle.dumps(inst))
            assert copy._dist is not None  # a pickle keeps what nothing derives
            assert copy.dist.tobytes() == inst.dist.tobytes()
            assert not copy.dist.flags.writeable
        points = gen_random_euclidean(5, 3, seed=1)
        assert points._dist is None
        points.dist
        copy = pickle.loads(pickle.dumps(points))
        assert copy._dist is None
        assert not any(a.flags.writeable for a in copy.points[:2])

    @staticmethod
    def point_cases(tmp_path):
        """(name, build): point instances under each norm, shared, in
        dim 0, 1 and 3, and loaded from a saved file."""
        rng = np.random.default_rng(8)
        cpts, fpts = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
        saved = tmp_path / "euclid.json"
        save_instance(gen_random_euclidean(11, 5, dim=2, seed=6), saved)
        return [
            ("euclid", lambda: gen_random_euclidean(9, 4, dim=3, seed=2)),
            ("shared", lambda: gen_random_euclidean(6, None, dim=1, seed=3, shared=True)),
            ("l1", lambda: build_from_points(cpts, fpts, norm=1)),
            ("linf", lambda: build_from_points(cpts, fpts, norm="inf")),
            ("dim0", lambda: build_from_points(np.zeros((3, 0)), np.zeros((2, 0)))),
            ("loaded", lambda: load_instance(saved)),
        ]

    def test_point_instances_derive_it_on_first_read(self, tmp_path):
        for name, build in self.point_cases(tmp_path):
            inst = build()
            cpts, fpts, norm = inst.points
            assert inst._dist is None, name
            assert (inst.n_clients, inst.m_facilities) == (len(cpts), len(fpts)), name
            doc = jsonutil.dumps(instance_to_dict(inst))
            unread = pickle.loads(pickle.dumps(inst))
            assert inst.violations() == [], name  # at the rounding bound: no matrix
            assert inst._dist is None, name  # saving and pickling read the points only
            dist = inst.dist
            expected = cdist_oracle(cpts, fpts, norm)
            assert dist.shape == expected.shape == (len(cpts), len(fpts)), name
            assert dist.dtype == expected.dtype and dist.tobytes() == expected.tobytes(), name
            assert not dist.flags.writeable, name
            assert inst.dist is dist, name
            assert jsonutil.dumps(instance_to_dict(inst)) == doc, name
            assert unread._dist is None, name
            assert pickle.loads(pickle.dumps(inst))._dist is None, name
            for copy in (unread, pickle.loads(pickle.dumps(inst)),
                         dataclasses.replace(inst), dataclasses.replace(unread)):
                assert (copy.n_clients, copy.m_facilities) == dist.shape, name
                assert copy.dist.tobytes() == dist.tobytes(), name
                assert not copy.dist.flags.writeable and copy.dist is copy.dist, name
                assert jsonutil.dumps(instance_to_dict(copy)) == doc, name

    def test_a_given_dist_is_still_checked(self):
        inst = gen_tight_triple(3, 12)
        dist = inst.dist.copy()
        again = MetricInstance(dist=dist, cross=inst.cross, locations=inst.locations)
        assert again.dist.tobytes() == dist.tobytes()
        dist[-1, -1] = np.nextafter(dist[-1, -1], 0.0)
        with pytest.raises(BadParams, match="dist differs"):
            MetricInstance(dist=dist, cross=inst.cross, locations=inst.locations)

    def test_run_form_never_reads_dist(self):
        inst = gen_tight_triple(10, _SHORT_RUN + 10)
        ks = (1, 10, inst.n_clients)
        select_multi_graph(inst, ks)
        check_inequalities(inst, ks)
        assert inst._dist is None

    def test_million_clients_without_a_client_matrix(self):
        # one n x m float64 matrix alone is 24 MB; the index arrays stay below
        k, n = 10**4, 10**6
        check_inequalities(gen_tight_triple(10, 100), (1, 10, 100))  # first-call set-up
        tracemalloc.start()
        try:
            inst = gen_tight_triple(k, n)
            chosen = select_multi_graph(inst, (1, k, n))
            report = check_inequalities(inst, (1, k, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst._dist is None
        assert report.violations_total == 0 and chosen.worst_ratio < 2.6181
        assert peak < n * inst.m_facilities * 8 * 0.75, peak


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        inst = build_from_points([[0.0, 0.0], [1.0, 2.0]], [[3.0, 1.0]])
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert again.dist.tobytes() == inst.dist.tobytes()
        assert again.cross is None
        assert metric_matrix(again).tobytes() == metric_matrix(inst).tobytes()
        assert again.client_labels == inst.client_labels

    def test_load_point_cloud_document(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({
            "client_points": [[0.0, 0.0], [1.0, 0.0]],
            "facility_points": [[0.0, 1.0]],
            "norm": 2,
        }))
        inst = load_instance(path)
        assert inst.dist[1, 0] == pytest.approx(math.sqrt(2.0))

    def test_load_graph_document(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", 1.0], ["b", "c", 2.0]],
            "clients": ["a", "c"],
            "facilities": ["b"],
        }))
        inst = load_instance(path)
        assert inst.dist.tolist() == [[1.0], [2.0]]

    def test_load_csv(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("fA,fB\n1.0,2.0\n3.5,0.5\n")
        inst = load_instance(path)
        assert inst.facility_labels == ("fA", "fB")
        assert inst.dist.tolist() == [[1.0, 2.0], [3.5, 0.5]]
        assert not inst.metric_verified

    def test_load_csv_bad_cell(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("fA\nnot-a-number\n")
        with pytest.raises(BadParams):
            load_instance(path)

    def test_labels_block_accepted(self):
        inst = instance_from_dict({
            "dist": [[1.0]],
            "labels": {"clients": ["house"], "facilities": ["depot"]},
        })
        assert inst.client_labels == ("house",)
        assert inst.facility_labels == ("depot",)

    def test_unknown_document_shape(self):
        with pytest.raises(BadParams):
            instance_from_dict({"something": 1})
        with pytest.raises(BadParams):
            instance_from_dict([1, 2])

    def test_to_dict_includes_provenance(self):
        inst = build_from_matrix([[1.0]], provenance={"family": "unit-test"})
        doc = instance_to_dict(inst)
        assert doc["schema"] == 1
        assert doc["provenance"] == {"family": "unit-test"}

    @given(point_instances())
    def test_dict_round_trip_preserves_distances(self, inst):
        doc = instance_to_dict(inst)
        doc = json.loads(json.dumps({
            k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in doc.items()
        }))
        again = instance_from_dict(doc)
        assert np.array_equal(again.dist, inst.dist)
        assert again.cross is None
        assert np.array_equal(metric_matrix(again), metric_matrix(inst))


def _reloaded(inst, tmp_path):
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    return load_instance(path)


class TestBareCross:
    """A cross given with dist and no locations: the identity layout."""

    @staticmethod
    def bare_and_located(seed):
        n, m = 4, 3
        cross = np.random.default_rng(seed).uniform(1.0, 3.0, size=(n + m, n + m))
        cross[0, n] = 9.0  # longer than any path through a third point
        cross = (cross + cross.T) / 2.0
        np.fill_diagonal(cross, 0.0)
        bare = MetricInstance(dist=cross[:n, n:].copy(), cross=cross)
        located = MetricInstance(cross=cross, locations=(np.arange(n), np.arange(n, n + m)))
        return bare, located

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_identity_located_instance(self, seed):
        bare, located = self.bare_and_located(seed)
        assert bare.dist.tobytes() == located.dist.tobytes()
        assert bare.cross.tobytes() == located.cross.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(bare.locations, located.locations))
        assert [v.tolist() for v in bare.locations] == [[0, 1, 2, 3], [4, 5, 6]]
        assert bare.client_labels == located.client_labels == ("c0", "c1", "c2", "c3")
        assert bare.facility_labels == located.facility_labels == ("f0", "f1", "f2")
        for tol in (1e-9, 0.0):
            found = bare.violations(tol)
            assert found == located.violations(tol)
            assert ("c0", "c1", "f0") in [v.points for v in found]

    def test_saved_as_cross_and_locations(self, tmp_path):
        cross = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        inst = build_from_matrix(cross[:2, 2:], cross=cross, client_labels=("a", "b"))
        doc = instance_to_dict(inst)
        assert list(doc) == ["schema", "clients", "facilities", "cross", "locations"]
        assert [v.tolist() for v in doc["locations"]] == [[0, 1], [2]]
        # the matrices come back bit for bit: TestLocationsFile's "matrix" family
        again = _reloaded(inst, tmp_path)
        assert all(np.array_equal(a, b) for a, b in zip(again.locations, inst.locations))
        assert again.client_labels == ("a", "b") and again.facility_labels == ("f0",)

    def test_dist_must_equal_the_block_bit_for_bit(self, tmp_path, capsys):
        bare, _ = self.bare_and_located(0)
        dist = bare.dist.copy()
        dist[1, 2] = np.nextafter(dist[1, 2], np.inf)
        with pytest.raises(BadParams):
            MetricInstance(dist=dist, cross=bare.cross)
        path = tmp_path / "bare.json"
        jsonutil.dump_path({"dist": dist, "cross": bare.cross}, path)
        assert run(["solve", str(path), "--objectives", "1,3"]) == 2
        assert "dist differs" in capsys.readouterr().err


class TestLocationsFile:
    """Files of located instances: cross and locations, no dist."""

    FAMILIES = {
        "line": lambda: gen_tight_pair_line(2, 11),
        "triangle": lambda: gen_tight_pair_triangle(3, 7),
        "triple": lambda: gen_tight_triple(10, 60),
        "triple_large": lambda: gen_tight_triple(30, 3000),
        "euclid": lambda: gen_random_euclidean(9, 4, seed=3),
        "shared": lambda: gen_random_euclidean(6, None, seed=5, shared=True),
        "graph": lambda: gen_random_graph_metric(12, 0.3, seed=4, n_clients=20, m_facilities=6),
        "graph_all": lambda: gen_random_graph_metric(10, 0.5, seed=2),
        "graph_repeats": lambda: build_from_graph(*_GRAPH, [0, 2, 0, "x", 2, 0], [1, "x", 1]),
        "matrix": lambda: build_from_matrix([[1.0], [2.0]], cross=[
            [0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_round_trip(self, family, tmp_path):
        inst = self.FAMILIES[family]()
        again = _reloaded(inst, tmp_path)
        assert again.dist.tobytes() == inst.dist.tobytes()
        assert (again.cross is None) == (inst.cross is None)
        assert metric_matrix(again).tobytes() == metric_matrix(inst).tobytes()
        if inst.locations is None:
            assert again.locations is None
        else:
            assert all(np.array_equal(a, b) for a, b in zip(again.locations, inst.locations))
        assert again.client_labels == inst.client_labels
        assert again.facility_labels == inst.facility_labels

    def test_located_file_has_no_dist(self):
        doc = instance_to_dict(gen_tight_triple(3, 12))
        assert list(doc) == ["schema", "clients", "facilities", "cross", "locations",
                             "provenance"]
        assert doc["cross"].shape == (6, 6)
        assert [v.tolist() for v in doc["locations"]] == [[0, 1, 1] + [2] * 9, [3, 4, 5]]

    @staticmethod
    def _triple_doc():
        doc = instance_to_dict(gen_tight_triple(3, 12))
        return json.loads(jsonutil.dumps(doc))

    def _broken_docs(self):
        def edit(change):
            doc = self._triple_doc()
            change(doc)
            return doc

        def no_cross(doc):
            del doc["cross"]

        def with_dist(doc):
            doc["dist"] = gen_tight_triple(3, 12).dist.tolist()

        def set_row(side, value):
            return lambda doc: doc["locations"][side].__setitem__(0, value)

        return {
            "no cross": edit(no_cross),
            "dist and locations": edit(with_dist),
            "float row": edit(set_row(0, 1.5)),
            "string row": edit(set_row(1, "opt_one")),
            "bool row": edit(lambda doc: doc["locations"].__setitem__(1, [True, False, True])),
            "empty clients": edit(lambda doc: doc["locations"].__setitem__(0, [])),
            "empty facilities": edit(lambda doc: doc["locations"].__setitem__(1, [])),
            "one side": edit(lambda doc: doc["locations"].pop()),
            "nested rows": edit(lambda doc: doc["locations"].__setitem__(1, [[3, 4, 5]])),
            "row too large": edit(set_row(1, 6)),
            "negative row": edit(set_row(0, -1)),
            # client 0 is the only point on location a, row 0
            "unused row": edit(set_row(0, 1)),
        }

    def test_broken_documents_rejected(self):
        for what, doc in self._broken_docs().items():
            with pytest.raises(BadParams):
                instance_from_dict(doc)
                pytest.fail(what)

    def test_broken_files_exit_2(self, tmp_path, capsys):
        for i, doc in enumerate(self._broken_docs().values()):
            path = tmp_path / ("broken%d.json" % i)
            path.write_text(json.dumps(doc))
            assert run(["solve", str(path), "--objectives", "1,3"]) == 2
        assert capsys.readouterr().out == ""

    def test_constructor_checks(self):
        cross = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(BadParams):
            MetricInstance(locations=([0], [1]))
        with pytest.raises(BadParams):
            MetricInstance(dist=np.full((1, 1), 2.0), cross=cross, locations=([0], [1]))
        # a dist equal to the derived one is taken, as dataclasses.replace passes it
        assert MetricInstance(dist=np.ones((1, 1)), cross=cross, locations=([0], [1])).dist == 1.0
        with pytest.raises(DimensionMismatch):
            MetricInstance(cross=np.zeros((2, 3)), locations=([0], [1]))
        with pytest.raises(AsymmetricCross):
            MetricInstance(cross=[[0.0, 1.0], [2.0, 0.0]], locations=([0], [1]))
        inst = MetricInstance(cross=cross, locations=([0, 0, 1], [1]))
        assert inst.dist.tolist() == [[1.0], [1.0], [0.0]]
        assert not inst.dist.flags.writeable
        assert not inst.locations[0].flags.writeable


class TestPointsFile:
    """Point instances are saved as their coordinates and norm."""

    CASES = {
        "%s_%s_dim%d" % (norm, "shared" if shared else "plain", dim): (norm, shared, dim)
        for norm in (1, 2, "inf") for shared in (False, True) for dim in (1, 3)
    }

    @staticmethod
    def build(norm, shared, dim, seed=5):
        rng = np.random.default_rng(seed)
        cpts = rng.normal(size=(9, dim))
        fpts = cpts if shared else rng.normal(size=(4, dim))
        return build_from_points(cpts, fpts, norm=norm, provenance={"seed": seed})

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_trip(self, case, tmp_path):
        inst = self.build(*self.CASES[case])
        doc = instance_to_dict(inst)
        assert list(doc) == ["schema", "clients", "facilities", "client_points",
                             "facility_points", "norm", "provenance"]
        assert doc["schema"] == 1
        again = _reloaded(inst, tmp_path)
        assert again.dist.tobytes() == inst.dist.tobytes()
        assert again.cross is None
        assert metric_matrix(again).tobytes() == metric_matrix(inst).tobytes()
        assert again.points[2] == inst.points[2]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again.points[:2], inst.points[:2]))
        assert again.client_labels == inst.client_labels
        assert again.provenance == inst.provenance

    def test_linf_is_written_as_inf(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(self.build("inf", False, 2), path)
        doc = json.loads(path.read_text())
        assert doc["norm"] == "inf"
        assert "dist" not in doc and "cross" not in doc
        assert load_instance(path).points[2] == math.inf

    @staticmethod
    def _old_shape(inst):
        """The document of the same instance as cross and dist matrices."""
        return {"schema": 1, "clients": list(inst.client_labels),
                "facilities": list(inst.facility_labels),
                "dist": inst.dist, "cross": metric_matrix(inst), "provenance": inst.provenance}

    def test_commands_match_the_matrix_document(self, tmp_path, capsys):
        inst = gen_random_euclidean(12, 5, dim=3, seed=7)
        new, old = tmp_path / "points.json", tmp_path / "matrix.json"
        save_instance(inst, new)
        jsonutil.dump_path(self._old_shape(inst), old)
        commands = [["solve", "{}", "--objectives", "1,12", "--method", "pair"]]
        commands += [["solve", "{}", "--objectives", "1,4,12", "--method", method, "--profile"]
                     for method in ("largest", "graph", "exhaustive")]
        commands += [["graph", "{}", "--objectives", "1,4,12"],
                     ["verify", "--suite", "lemmas", "--instance", "{}"]]
        for command in commands:
            outputs = []
            for path in (new, old):
                code = run([arg.format(path) for arg in command])
                outputs.append((code, capsys.readouterr().out))
            assert outputs[0] == outputs[1], command
            assert outputs[0][0] == 0 and outputs[0][1]

    def test_gen_file_is_a_hundredth_of_the_matrices(self, tmp_path):
        path = tmp_path / "euclid.json"
        assert run(["gen", "--family", "euclid", "-n", "300", "-m", "300",
                    "--seed", "7", "-o", str(path)]) == 0
        size = path.stat().st_size
        assert size <= 94_000
        old = tmp_path / "matrix.json"
        jsonutil.dump_path(self._old_shape(load_instance(path)), old)
        assert 100 * size <= old.stat().st_size


class TestLocatedLayout:
    """A located instance against its expanded twin, which repeats each
    location's row once per point as the per-point layout did."""

    CASES = [
        (lambda: gen_tight_pair_line(2, 11), (2, 11)),
        (lambda: gen_tight_pair_line(5, 600), (1, 5, 600)),
        (lambda: gen_tight_pair_triangle(3, 7), (3, 7)),
        (lambda: gen_tight_pair_triangle(150, 598), (150, 598)),
        (lambda: gen_tight_triple(2, 5), (1, 2, 5)),
        (lambda: gen_tight_triple(10, 60), (1, 10, 60)),
        (lambda: gen_tight_triple(20, 597), (1, 20, 597)),
        (lambda: build_from_graph(*_GRAPH, [0, 2, 0, "x", 2, 0], [1, "x", 1]), (1, 3, 6)),
        (lambda: build_from_graph(*_GRAPH, [0, 2, "x"], [1, 1, 0]), (1, 2, 3)),
        (lambda: gen_random_graph_metric(12, 0.3, seed=4, n_clients=20, m_facilities=6),
         (1, 5, 20)),
        (lambda: gen_random_graph_metric(10, 0.5, seed=2), (1, 4, 10)),
        (lambda: gen_random_graph_metric(8, 0.2, seed=9, n_clients=40, m_facilities=10),
         (1, 2, 13, 40)),
        (lambda: gen_random_graph_metric(30, 0.1, seed=11, n_clients=60, m_facilities=12),
         (2, 7, 30, 59)),
    ]

    @staticmethod
    def assert_same_checks(inst, objectives):
        assert inst.locations is not None
        twin = expanded(inst)
        assert twin.cross[: inst.n_clients, inst.n_clients:].tobytes() == inst.dist.tobytes()
        for tol in (1e-9, 0.0):
            located = validate_metric(inst, tol=tol)
            full = validate_metric(twin, tol=tol)
            assert bool(located) == bool(full), tol
            ours = check_inequalities(inst, objectives, tol=tol).checks
            theirs = check_inequalities(twin, objectives, tol=tol).checks
            assert list(ours) == list(theirs)
            for name, rec in ours.items():
                if name == "metric_axioms" and located:
                    # one record per violated location triple against
                    # one per violated point triple
                    assert rec.violation_count and theirs[name].violation_count
                    continue
                assert jsonutil.dumps(rec.to_jsonable()) == jsonutil.dumps(
                    theirs[name].to_jsonable()), (tol, name)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_families(self, case):
        build, objectives = self.CASES[case]
        self.assert_same_checks(build(), objectives)

    @pytest.mark.filterwarnings("ignore::centrum.errors.DegenerateOptimum")
    @given(st.one_of(graph_instances(), tight_instances()), st.data())
    def test_random_graphs_and_tight_families(self, inst, data):
        n = inst.n_clients
        ranks = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=5, unique=True))
        self.assert_same_checks(inst, tuple(sorted(ranks)))

    def test_violation_names_first_point_on_each_location(self):
        # locations 0 and 2 are 3 apart, but 1 + 1 through location 1
        cross = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        inst = MetricInstance(cross=cross, locations=([1, 0, 0], [2, 1]))
        assert records(validate_metric(inst)) == [("triangle", ("c1", "c0", "f0"), 1.0)]
        assert records(validate_metric(expanded(inst)))[0] == ("triangle", ("c1", "c0", "f0"), 1.0)
        with pytest.raises(TriangleViolation):
            build_from_matrix(None, cross=cross, locations=([1, 0, 0], [2, 1]))


def _old_expanded_labels(loc_labels, placement, facility_locs):
    """The labels _expand_locations used to store, one string per client."""
    cidx = np.repeat([loc for loc, _ in placement], [c for _, c in placement])
    clients = tuple("c%d@%s" % (i, loc_labels[loc]) for i, loc in enumerate(cidx))
    return clients, tuple(str(loc_labels[loc]) for loc in np.asarray(facility_locs))


def _old_graph_labels(vertices, client_ids, facility_ids):
    """The labels build_from_graph used to store."""
    index = {v: i for i, v in enumerate(vertices)}
    cidx = [index[c] for c in client_ids]
    fidx = [index[f] for f in facility_ids]
    clients = tuple(str(c) if len(cidx) == len(set(cidx)) else "c%d:%s" % (i, c)
                    for i, c in enumerate(client_ids))
    facilities = tuple(str(f) if len(fidx) == len(set(fidx)) else "f%d:%s" % (j, f)
                       for j, f in enumerate(facility_ids))
    return clients, facilities


def _old_default_labels(n, m):
    return tuple("c%d" % i for i in range(n)), tuple("f%d" % j for j in range(m))


_TRIPLE_LOCATIONS = ["a", "b", "c", "opt_one", "opt_mid", "opt_all"]
_GRAPH = ([0, 1, 2, "x"], [(0, 1, 1.0), (1, 2, 2.0), (2, "x", 0.5)])


def _label_cases(tmp_path):
    """(instance builder, expected client labels, expected facility labels)."""
    vertices, edges = _GRAPH
    csv_path = tmp_path / "dist.csv"
    csv_path.write_text("fA,fB\n1.0,2.0\n3.5,0.5\n0.0,1.0\n")
    graph_cases = [
        ([0, 2, 0, "x", 2, 0], [1, "x", 1]),  # both repeat
        ([0, 2, 0], [1, "x"]),  # clients repeat
        ([0, 2, "x"], [1, 1, 0]),  # facilities repeat
        ([0, 1, 2, "x"], [0, 1, 2, "x"]),  # all distinct
    ]
    cases = [
        (lambda: gen_tight_pair_line(2, 11),
         *_old_expanded_labels(["heavy", "light", "near", "far"], [(0, 2), (1, 9)], [2, 3])),
        (lambda: gen_tight_pair_triangle(3, 7),
         *_old_expanded_labels(["apex", "f_small", "f_large"], [(0, 3), (2, 4)], [1, 2])),
    ]
    for k, n in [(10, 60), (10, 2500)]:
        cases.append((lambda k=k, n=n: gen_tight_triple(k, n), *_old_expanded_labels(
            _TRIPLE_LOCATIONS, [(0, 1), (1, k - 1), (2, n - k)], [3, 4, 5])))
    for cids, fids in graph_cases:
        cases.append((lambda c=cids, f=fids: build_from_graph(vertices, edges, c, f),
                      *_old_graph_labels(vertices, cids, fids)))
    cases += [
        (lambda: build_from_points([[0.0], [1.0], [3.0]], [[2.0], [5.0]]),
         *_old_default_labels(3, 2)),
        (lambda: gen_random_euclidean(7, 4, seed=3), *_old_default_labels(7, 4)),
        (lambda: build_from_matrix([[1.0, 2.0], [3.0, 4.0]]), *_old_default_labels(2, 2)),
        (lambda: build_from_matrix([[1.0], [2.0]], client_labels=[7, "b"]), ("7", "b"), ("f0",)),
        (lambda: load_instance(csv_path), _old_default_labels(3, 2)[0], ("fA", "fB")),
    ]
    return cases


class TestLabels:
    """Labels against test-local copies of the expressions that used to
    build them eagerly."""

    def test_matches_eager_labels(self, tmp_path):
        for build, clients, facilities in _label_cases(tmp_path):
            # single labels first, on an instance whose tuples were never read
            inst = build()
            n = inst.n_clients
            assert [inst.point_label(i) for i in range(n + inst.m_facilities)] == list(
                clients + facilities)
            assert inst.point_label(np.intp(n - 1)) == clients[-1]
            assert type(inst.client_labels) is tuple and inst.client_labels == clients
            assert type(inst.facility_labels) is tuple and inst.facility_labels == facilities
            doc = instance_to_dict(build())
            assert doc["clients"] == list(clients)
            assert doc["facilities"] == list(facilities)

    def test_label_tuple_built_once(self):
        inst = gen_tight_triple(10, 60)
        assert inst.client_labels is inst.client_labels

    def test_point_label_out_of_range(self):
        inst = gen_tight_triple(10, 60)
        with pytest.raises(IndexError):
            inst.point_label(63)
