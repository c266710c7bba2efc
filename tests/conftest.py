"""Shared fixtures and hypothesis strategies."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from centrum import (
    MetricInstance,
    build_from_graph,
    build_from_matrix,
    build_from_points,
    cost_profile,
    gen_tight_triple,
)
from centrum.harness import CheckRecord, _rel
from centrum.metric import _point_cross

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(rep, "when", "call") not in ("call", "setup"):
                continue
            name = nodeid.rsplit("::", 1)[-1]
            verdict = "PASS" if outcome == "passed" else "FAIL"
            if rows.get(name) != "FAIL":
                rows[name] = verdict
    if rows:
        terminalreporter.section("acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line("%s: %s" % (name, rows[name]))

_coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32)
_weight = st.floats(min_value=0.125, max_value=3.0, allow_nan=False, width=32)
_entry = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32)


@st.composite
def dist_matrices(draw, max_clients=8, max_facilities=5):
    """Arbitrary nonnegative matrices; not necessarily any metric."""
    n = draw(st.integers(1, max_clients))
    m = draw(st.integers(1, max_facilities))
    rows = draw(
        st.lists(
            st.lists(_entry, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(rows, dtype=float)


@st.composite
def raw_instances(draw):
    """Metric-unverified instances from arbitrary matrices."""
    return build_from_matrix(draw(dist_matrices()))


@st.composite
def point_instances(draw):
    """Verified metric instances from points under L1, L2, or Linf."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 5))
    norm = draw(st.sampled_from([1, 2, float("inf")]))
    pts = st.lists(_coord, min_size=dim, max_size=dim)
    cpts = draw(st.lists(pts, min_size=n, max_size=n))
    fpts = draw(st.lists(pts, min_size=m, max_size=m))
    return build_from_points(cpts, fpts, norm=norm)


@st.composite
def graph_instances(draw):
    """Verified metric instances from connected random graphs."""
    nv = draw(st.integers(2, 7))
    edges = []
    for v in range(1, nv):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v, draw(_weight)))
    for u in range(nv):
        for v in range(u + 1, nv):
            if draw(st.booleans()):
                edges.append((u, v, draw(_weight)))
    vertex = st.integers(0, nv - 1)
    clients = draw(st.lists(vertex, min_size=1, max_size=6))
    facilities = draw(st.lists(vertex, min_size=1, max_size=4))
    return build_from_graph(list(range(nv)), edges, clients, facilities)


def metric_instances():
    return st.one_of(point_instances(), graph_instances())


def metric_matrix(inst):
    """inst's cross matrix, or for a point instance, which keeps none,
    the metric over all its points that validate_metric builds."""
    if inst.points is not None:
        return _point_cross(inst.points)
    return inst.cross


def expanded(inst):
    """inst with one cross row per point, clients first, then
    facilities: a located instance's location rows repeated per point,
    a point instance's metric over all its points."""
    if inst.points is not None:
        cross = metric_matrix(inst)
    elif inst.locations is not None:
        rows = np.concatenate(inst.locations)
        cross = inst.cross[np.ix_(rows, rows)]
    else:
        return inst
    return MetricInstance(
        dist=inst.dist,
        cross=cross,
        client_labels=inst.client_labels,
        facility_labels=inst.facility_labels,
    )


def subset_sum_plain(instance, objectives, tol: float = 1e-9) -> dict:
    """check_inequalities' subset_sum_domination record as the plain
    form computes it on any instance, kept as the oracle of the run
    form: per selector, a stable argsort of the negated distances (ties
    by client index), a gather of every client row and a running sum
    over all n of them."""
    profile = cost_profile(instance, objectives)
    ks, costs, flabels = profile.ks, profile.costs.T, instance.facility_labels
    ranks = np.array(ks)
    dist = instance.dist
    q, m = costs.shape
    worst = np.empty((m, q), dtype=np.intp)
    top = np.empty((m, q))
    for a in range(m):
        block = slice(a, a + 1)
        order = np.argsort(-dist[:, block], axis=0, kind="stable")
        prefix = dist[order.T]  # (1, n, m), farthest clients first
        np.cumsum(prefix, axis=1, out=prefix)
        slack = _rel(prefix[:, ranks - 1, :], costs)
        worst[block] = np.argmax(slack, axis=2)
        top[block] = np.take_along_axis(slack, worst[block, :, None], axis=2)[..., 0]
    rec = CheckRecord("subset_sum_domination", instances=1)
    rec.add_many(
        top.ravel(),
        lambda i: {"selector": flabels[i // q], "p": ks[i % q], "facility": flabels[worst.flat[i]]},
        tol,
    )
    return rec.to_jsonable()


def draw_pair(data, n: int):
    """A rank pair 1 <= k < p <= n, for instances with n >= 2."""
    k = data.draw(st.integers(1, n - 1), label="k")
    p = data.draw(st.integers(k + 1, n), label="p")
    return k, p


@pytest.fixture(scope="session")
def triple_small():
    return gen_tight_triple(10, 60)
