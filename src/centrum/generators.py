"""Instance generators: worst-case families and random instances.

The worst-case families place many clients on a handful of locations,
so an instance holds the small location-level metric as its cross
matrix, plus the location of every client and facility; dist is
derived from the two only when something reads it, which selection
and the inequality checks skip on large families. Client labels
(c<i>@<location>) are kept as a rule over the client locations and
formatted only when read, so an instance of 10**6 clients holds no
label strings and no client-facility matrix until something names a
client or reads dist.
"""

import math

import numpy as np

from .bounds import pair_bound_f
from .errors import BadKN, BadParams, RatioTooLarge, RatioTooSmall
from .metric import MetricInstance, _Labels, _shortest_paths, build_from_graph, build_from_points

_SQRT5 = math.sqrt(5.0)


def _expand_locations(
    loc_cross: np.ndarray,
    loc_labels,
    client_placement,
    facility_locs,
    provenance,
) -> MetricInstance:
    """An instance over a location-level metric.

    client_placement is a list of (location index, count); facility_locs
    a list of location indices. Client i is labelled "c<i>@<its
    location's label>", made on demand from the client locations;
    facilities take their location's label.
    """
    cidx = np.repeat([loc for loc, _ in client_placement], [c for _, c in client_placement])
    labels = _Labels("c%d@%s", cidx.size, names=loc_labels, index=cidx)
    inst = MetricInstance(
        cross=loc_cross,
        locations=(cidx, facility_locs),
        client_labels=labels,
        facility_labels=[loc_labels[loc] for loc in facility_locs],
        provenance=provenance,
    )
    labels.index = inst.locations[0]  # the instance's copy, so cidx is freed
    return inst


def _check_rank(value, name: str, least: int = 1) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise BadParams("%s must be an integer >= %d, got %r" % (name, least, value))
    return int(value)


def gen_tight_pair_line(k: int, p: int) -> MetricInstance:
    """Worst case for the pair rule in the regime p/k > 4.

    All points on a line: k clients at the origin, p - k clients at 2,
    one facility at 1 and the other just past the far clients. Both
    optima then miss the other objective by exactly f(p/k).
    """
    k = _check_rank(k, "k")
    p = _check_rank(p, "p")
    if p <= k:
        raise BadParams("need k < p, got k=%d p=%d" % (k, p))
    x = p / k
    if x <= 4.0:
        raise RatioTooSmall(
            "p/k = %g is at most 4; use the triangle family for this regime" % x
        )
    delta = pair_bound_f(x) - 2.0
    positions = np.array([0.0, 2.0, 1.0, 2.0 + delta])
    cross = np.abs(positions[:, None] - positions[None, :])
    return _expand_locations(
        cross,
        ["heavy", "light", "near", "far"],
        [(0, k), (1, p - k)],
        [2, 3],
        provenance={
            "family": "tight_pair_line",
            "k": k,
            "p": p,
            "x": x,
            "target_ratio": 2.0 + delta,
        },
    )


def gen_tight_pair_triangle(k: int, p: int) -> MetricInstance:
    """Worst case for the pair rule in the regime p/k <= 4.

    Three locations: both facilities one unit apart, the k heavy
    clients at distance 1 from one facility and sqrt(p/k) from the
    other, the p - k remaining clients on the second facility. Both
    optima come out exactly sqrt(p/k) worse on the other objective.
    """
    k = _check_rank(k, "k")
    p = _check_rank(p, "p")
    if p <= k:
        raise BadParams("need k < p, got k=%d p=%d" % (k, p))
    x = p / k
    if x > 4.0:
        raise RatioTooLarge(
            "p/k = %g exceeds 4; use the line family for this regime" % x
        )
    root = math.sqrt(x)
    # direct distances already satisfy the triangle inequality because
    # root <= 2, so no shortest-path closure is needed
    cross = np.array([
        [0.0, 1.0, root],
        [1.0, 0.0, 1.0],
        [root, 1.0, 0.0],
    ])
    return _expand_locations(
        cross,
        ["apex", "f_small", "f_large"],
        [(0, k), (2, p - k)],
        [1, 2],
        provenance={
            "family": "tight_pair_triangle",
            "k": k,
            "p": p,
            "x": x,
            "target_ratio": root,
        },
    )


# Edge lengths of the six-location worst case for three objectives
# {1, k, n}. phi is the golden ratio minus 1; the limiting ratio at
# every node is (3 + sqrt(5)) / 2.
_PHI = (_SQRT5 - 1.0) / 2.0
_GOLD = (1.0 + _SQRT5) / 2.0
_PSI = (3.0 - _SQRT5) / 2.0
_TRIPLE_VERTICES = ["a", "b", "c", "opt_one", "opt_mid", "opt_all"]
_TRIPLE_EDGES = [
    ("opt_mid", "b", _PHI),
    ("opt_mid", "c", _PHI),
    ("c", "opt_all", _PSI),
    ("opt_all", "opt_one", _PHI),
    ("opt_one", "a", 1.0),
    ("opt_one", "b", 1.0),
    ("b", "opt_all", _GOLD),
    ("b", "c", _SQRT5 - 1.0),
    ("b", "a", 2.0),
]


def triple_location_metric() -> tuple:
    """(labels, cross) for the six locations of the three-objective
    worst case, distances taken as shortest paths over its edge list."""
    index = {v: i for i, v in enumerate(_TRIPLE_VERTICES)}
    size = len(_TRIPLE_VERTICES)
    adj = np.full((size, size), np.inf)
    for u, v, w in _TRIPLE_EDGES:
        adj[index[u], index[v]] = adj[index[v], index[u]] = w
    return list(_TRIPLE_VERTICES), _shortest_paths(adj, np.arange(size))


def gen_tight_triple(k: int, n: int) -> MetricInstance:
    """Worst case for three objectives {1, k, n}, needing 1 < k < n.

    Six locations; one client sits alone, k - 1 share a second spot,
    n - k share a third, and the three candidate facilities each serve
    one objective well. As k and n/k both grow, every candidate's worst
    ratio approaches beta(3) = (3 + sqrt(5)) / 2.

    With phi = (sqrt(5) - 1) / 2, gold = 1 + phi and psi = 1 - phi, and
    once k and n/k are both at least 6, the worst outgoing ratios are:

    - opt_mid: exactly beta(3), at every k and n;
    - opt_all: k * gold / (beta(3) + (k - 1) * phi), governed by k
      alone; its gap to beta(3) is about 8.47 / k;
    - opt_one: n / (k * gold + (n - k) * psi), governed by n/k alone;
      its gap is about 8.47 / (n/k).

    So no single instance gets all three within 1e-3 of beta(3) unless
    k >= 8469 and n/k >= 8469, i.e. n of about 7.2e7 clients or more.
    """
    for name, v in (("k", k), ("n", n)):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise BadKN("%s must be an integer, got %r" % (name, v))
    if not 1 < k < n:
        raise BadKN("need 1 < k < n, got k=%d n=%d" % (k, n))
    k, n = int(k), int(n)
    labels, cross = triple_location_metric()
    placements = [(0, 1), (1, k - 1), (2, n - k)]  # a, b, c
    facilities = [3, 4, 5]  # opt_one, opt_mid, opt_all
    return _expand_locations(
        cross,
        labels,
        placements,
        facilities,
        provenance={
            "family": "tight_triple",
            "k": k,
            "n": n,
            "limit_ratio": (3.0 + _SQRT5) / 2.0,
        },
    )


def gen_random_euclidean(
    n_clients: int,
    m_facilities: int | None,
    dim: int = 2,
    seed: int = 0,
    shared: bool = False,
) -> MetricInstance:
    """Uniform points in the unit cube under the Euclidean norm.

    With shared=True the facilities are the client points themselves
    (m_facilities is ignored). Same seed, same instance: draws come
    from a counter-based generator keyed only by the seed.
    """
    if not isinstance(shared, (bool, np.bool_)):
        raise BadParams("shared must be True or False, got %r" % (shared,))
    n_clients = _check_rank(n_clients, "n_clients")
    if not shared:
        m_facilities = _check_rank(m_facilities, "m_facilities")
    dim = _check_rank(dim, "dim")
    seed = _check_rank(seed, "seed", least=0)
    rng = np.random.Generator(np.random.Philox(seed))
    cpts = rng.random((n_clients, dim))
    fpts = cpts if shared else rng.random((m_facilities, dim))
    return build_from_points(
        cpts,
        fpts,
        norm=2,
        provenance={
            "family": "random_euclidean",
            "n_clients": n_clients,
            "m_facilities": n_clients if shared else m_facilities,
            "dim": dim,
            "seed": seed,
            "shared": bool(shared),
            "rng": "philox4x64",
        },
    )


def gen_random_graph_metric(
    n_vertices: int,
    edge_density: float = 0.3,
    seed: int = 0,
    n_clients: int | None = None,
    m_facilities: int | None = None,
) -> MetricInstance:
    """Shortest-path metric of a random connected weighted graph.

    A random spanning tree guarantees connectivity; extra edges are
    added independently with probability edge_density. Clients and
    facilities default to all vertices; when counts are given they are
    sampled with replacement, so repeats can occur.
    """
    n_vertices = _check_rank(n_vertices, "n_vertices")
    if (not isinstance(edge_density, (int, float, np.integer, np.floating))
            or isinstance(edge_density, bool) or not 0.0 <= edge_density <= 1.0):
        raise BadParams("edge_density must be in [0, 1], got %r" % (edge_density,))
    seed = _check_rank(seed, "seed", least=0)
    rng = np.random.Generator(np.random.Philox(seed))
    vertices = list(range(n_vertices))
    edges = []
    seen = set()
    # random spanning tree: attach each new vertex to a uniformly
    # chosen earlier one
    for v in range(1, n_vertices):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.1, 2.0))))
        seen.add((u, v))
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            if (u, v) in seen:
                continue
            if rng.random() < edge_density:
                edges.append((u, v, float(rng.uniform(0.1, 2.0))))
    if n_clients is None:
        client_ids = vertices
    else:
        n_clients = _check_rank(n_clients, "n_clients")
        client_ids = [int(i) for i in rng.integers(0, n_vertices, size=n_clients)]
    if m_facilities is None:
        facility_ids = vertices
    else:
        m_facilities = _check_rank(m_facilities, "m_facilities")
        facility_ids = [int(i) for i in rng.integers(0, n_vertices, size=m_facilities)]
    return build_from_graph(
        vertices,
        edges,
        client_ids,
        facility_ids,
        provenance={
            "family": "random_graph",
            "n_vertices": n_vertices,
            "edge_density": float(edge_density),
            "seed": seed,
            "rng": "philox4x64",
        },
    )
