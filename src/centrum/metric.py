"""Instances: clients, facilities, and the distances between them.

An instance always carries the client-facility distance matrix. It may
additionally carry the full symmetric matrix over clients and
facilities together (``cross``), which is what triangle-inequality
checks need. Instances built from point clouds or graph shortest paths
get the cross matrix for free; instances built from a bare matrix only
get one if the caller supplies it.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import cdist

from .errors import (
    AsymmetricCross,
    BadParams,
    CrossMismatch,
    DimensionMismatch,
    DisconnectedGraph,
    MissingCrossDistances,
    NegativeDistance,
    NonFinite,
    NonPositiveWeight,
    NonzeroDiagonal,
    TriangleViolation,
)

_NORM_NAMES = {1: "cityblock", 2: "euclidean", math.inf: "chebyshev"}


@dataclass(frozen=True)
class Violation:
    """One failed metric check, with the labels of the points involved."""

    kind: str  # "asymmetry" | "nonzero_diagonal" | "triangle"
    points: tuple
    slack: float

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "points": list(self.points), "slack": self.slack}


def _as_float_matrix(values, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadParams("%s is not a numeric matrix: %s" % (what, exc)) from None
    if arr.ndim != 2:
        raise BadParams("%s must be a 2-d matrix, got ndim=%d" % (what, arr.ndim))
    return arr


def _check_entries(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        idx = np.argwhere(~np.isfinite(arr))[0]
        raise NonFinite("%s[%d][%d] is not finite" % (what, idx[0], idx[1]))
    if np.any(arr < 0):
        idx = np.argwhere(arr < 0)[0]
        raise NegativeDistance(
            "%s[%d][%d] = %g is negative" % (what, idx[0], idx[1], arr[idx[0], idx[1]])
        )


@dataclass(frozen=True, eq=False)
class MetricInstance:
    """Immutable problem instance.

    dist has shape (n_clients, m_facilities). cross, when present, has
    shape (n+m, n+m) and is ordered clients first, then facilities; its
    upper-right block must equal dist.
    """

    dist: np.ndarray
    cross: np.ndarray | None = None
    client_labels: tuple = ()
    facility_labels: tuple = ()
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        dist = _as_float_matrix(self.dist, "dist")
        if dist.shape[0] < 1 or dist.shape[1] < 1:
            raise BadParams("instance needs at least one client and one facility")
        _check_entries(dist, "dist")
        dist.setflags(write=False)
        object.__setattr__(self, "dist", dist)
        n, m = dist.shape
        if not self.client_labels:
            object.__setattr__(self, "client_labels", tuple("c%d" % i for i in range(n)))
        else:
            object.__setattr__(self, "client_labels", tuple(str(s) for s in self.client_labels))
        if not self.facility_labels:
            object.__setattr__(self, "facility_labels", tuple("f%d" % j for j in range(m)))
        else:
            object.__setattr__(self, "facility_labels", tuple(str(s) for s in self.facility_labels))
        if len(self.client_labels) != n or len(self.facility_labels) != m:
            raise BadParams("label counts do not match matrix shape")
        if self.cross is not None:
            cross = _as_float_matrix(self.cross, "cross")
            if cross.shape != (n + m, n + m):
                raise DimensionMismatch(
                    "cross must be (%d, %d), got %r" % (n + m, n + m, cross.shape)
                )
            _check_entries(cross, "cross")
            if not np.array_equal(cross, cross.T):
                if not np.allclose(cross, cross.T, rtol=0, atol=1e-9):
                    i, j = np.argwhere(~np.isclose(cross, cross.T, rtol=0, atol=1e-9))[0]
                    raise AsymmetricCross("cross[%d][%d] != cross[%d][%d]" % (i, j, j, i))
                cross = (cross + cross.T) / 2.0
            if np.any(np.diag(cross) != 0):
                i = int(np.argwhere(np.diag(cross) != 0)[0][0])
                raise NonzeroDiagonal("cross[%d][%d] = %g" % (i, i, cross[i, i]))
            if not np.allclose(cross[:n, n:], dist, rtol=1e-12, atol=1e-12):
                raise CrossMismatch("cross client-facility block disagrees with dist")
            cross.setflags(write=False)
            object.__setattr__(self, "cross", cross)

    @property
    def n_clients(self) -> int:
        return self.dist.shape[0]

    @property
    def m_facilities(self) -> int:
        return self.dist.shape[1]

    @property
    def metric_verified(self) -> bool:
        """True when cross distances are present, so triangle checks can run."""
        return self.cross is not None

    def point_label(self, index: int) -> str:
        """Label for a cross-matrix index (clients first, then facilities)."""
        n = self.n_clients
        if index < n:
            return self.client_labels[index]
        return self.facility_labels[index - n]

    def __repr__(self):
        return "MetricInstance(n_clients=%d, m_facilities=%d, verified=%s)" % (
            self.n_clients,
            self.m_facilities,
            self.metric_verified,
        )


def validate_metric(instance: MetricInstance, tol: float = 1e-9) -> list:
    """Check symmetry, zero diagonal, and all triangle inequalities.

    Returns a list of Violation records (empty when the instance is a
    genuine metric up to relative tolerance). Requires cross distances.
    """
    if instance.cross is None:
        raise MissingCrossDistances(
            "validate_metric needs the full cross-distance matrix"
        )
    cross = instance.cross
    size = cross.shape[0]
    out = []
    asym = np.argwhere(np.abs(cross - cross.T) > tol * np.maximum(1.0, np.abs(cross)))
    for i, j in asym:
        if i < j:
            out.append(
                Violation(
                    "asymmetry",
                    (instance.point_label(i), instance.point_label(j)),
                    float(abs(cross[i, j] - cross[j, i])),
                )
            )
    for i in range(size):
        if cross[i, i] != 0:
            out.append(
                Violation("nonzero_diagonal", (instance.point_label(i),), float(cross[i, i]))
            )
    # d(x,z) <= d(x,y) + d(y,z) for every middle point y, with slack
    # measured relative to the scale of the three distances involved
    for y in range(size):
        through = cross[:, y][:, None] + cross[y, :][None, :]
        slack = cross - through
        scale = np.maximum(1.0, np.maximum(cross, through))
        bad = np.argwhere(slack > tol * scale)
        for x, z in bad:
            if x < z and x != y and z != y:
                out.append(
                    Violation(
                        "triangle",
                        (
                            instance.point_label(x),
                            instance.point_label(y),
                            instance.point_label(z),
                        ),
                        float(slack[x, z]),
                    )
                )
    return out


def build_from_matrix(
    dist,
    cross=None,
    client_labels=None,
    facility_labels=None,
    provenance=None,
    tol: float = 1e-9,
) -> MetricInstance:
    """Instance from an explicit client-facility matrix.

    Without cross distances the instance is usable but marked
    metric-unverified. With them, the full metric axioms are checked
    here and the first triangle violation raises.
    """
    inst = MetricInstance(
        dist=_as_float_matrix(dist, "dist"),
        cross=None if cross is None else _as_float_matrix(cross, "cross"),
        client_labels=tuple(client_labels) if client_labels else (),
        facility_labels=tuple(facility_labels) if facility_labels else (),
        provenance=dict(provenance or {}),
    )
    if inst.cross is not None:
        violations = validate_metric(inst, tol=tol)
        for v in violations:
            if v.kind == "triangle":
                raise TriangleViolation(v.points[0], v.points[1], v.points[2], v.slack)
        if violations:
            raise AsymmetricCross("cross matrix failed validation: %r" % violations[0])
    return inst


def build_from_points(
    client_points,
    facility_points,
    norm=2,
    client_labels=None,
    facility_labels=None,
    provenance=None,
) -> MetricInstance:
    """Instance from coordinates under an L1, L2, or Linf norm.

    The cross matrix is filled in from the same norm, so the result is
    metric-verified by construction.
    """
    cpts = np.asarray(client_points, dtype=float)
    fpts = np.asarray(facility_points, dtype=float)
    # a flat vector is n points on the line, not one n-dimensional point
    if cpts.ndim == 1:
        cpts = cpts[:, None]
    if fpts.ndim == 1:
        fpts = fpts[:, None]
    if cpts.ndim != 2 or fpts.ndim != 2:
        raise BadParams("points must be vectors or matrices of coordinates")
    if cpts.shape[1] != fpts.shape[1]:
        raise DimensionMismatch(
            "client points have dim %d, facility points dim %d"
            % (cpts.shape[1], fpts.shape[1])
        )
    if not (np.all(np.isfinite(cpts)) and np.all(np.isfinite(fpts))):
        raise NonFinite("point coordinates must be finite")
    key = math.inf if norm in (math.inf, float("inf"), "inf") else norm
    if key not in _NORM_NAMES:
        raise BadParams("norm must be 1, 2, or inf, got %r" % (norm,))
    everything = np.vstack([cpts, fpts])
    cross = cdist(everything, everything, metric=_NORM_NAMES[key])
    # cdist output can be asymmetric in the last ulp; the constructor
    # symmetrizes, but do it here so dist matches cross exactly
    cross = (cross + cross.T) / 2.0
    np.fill_diagonal(cross, 0.0)
    n = cpts.shape[0]
    return MetricInstance(
        dist=cross[:n, n:].copy(),
        cross=cross,
        client_labels=tuple(client_labels) if client_labels else (),
        facility_labels=tuple(facility_labels) if facility_labels else (),
        provenance=dict(provenance or {}),
    )


def build_from_graph(
    vertices,
    edges,
    client_ids,
    facility_ids,
    provenance=None,
) -> MetricInstance:
    """Instance from shortest-path distances of a weighted undirected graph.

    vertices is a sequence of hashable ids, edges a sequence of
    (u, v, weight) with weight > 0. client_ids and facility_ids pick
    vertices (repeats allowed, so several clients may share a vertex).
    Raises DisconnectedGraph if any two referenced vertices have no path.
    """
    verts = list(vertices)
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        raise BadParams("duplicate vertex ids")
    if not client_ids or not facility_ids:
        raise BadParams("need at least one client and one facility vertex")
    size = len(verts)
    adj = np.zeros((size, size))
    for u, v, w in edges:
        if u not in index or v not in index:
            raise BadParams("edge endpoint %r is not a vertex" % (u if u not in index else v,))
        w = float(w)
        if not math.isfinite(w) or w <= 0:
            raise NonPositiveWeight("edge (%r, %r) has weight %g" % (u, v, w))
        i, j = index[u], index[v]
        if i == j:
            continue
        if adj[i, j] == 0 or w < adj[i, j]:
            adj[i, j] = adj[j, i] = w
    try:
        cidx = [index[c] for c in client_ids]
        fidx = [index[f] for f in facility_ids]
    except KeyError as exc:
        raise BadParams("unknown vertex id %r" % (exc.args[0],)) from exc
    sp = shortest_path(csr_matrix(adj), method="D", directed=False)
    referenced = sorted(set(cidx) | set(fidx))
    block = sp[np.ix_(referenced, referenced)]
    if not np.all(np.isfinite(block)):
        raise DisconnectedGraph("some referenced vertices are not connected")
    sel = np.array(cidx + fidx)
    cross = sp[np.ix_(sel, sel)]
    n = len(cidx)
    return MetricInstance(
        dist=cross[:n, n:].copy(),
        cross=cross,
        client_labels=tuple(str(c) if len(cidx) == len(set(cidx)) else "c%d:%s" % (i, c)
                            for i, c in enumerate(client_ids)),
        facility_labels=tuple(str(f) if len(fidx) == len(set(fidx)) else "f%d:%s" % (j, f)
                              for j, f in enumerate(facility_ids)),
        provenance=dict(provenance or {}),
    )


def instance_to_dict(instance: MetricInstance) -> dict:
    out = {
        "schema": 1,
        "clients": list(instance.client_labels),
        "facilities": list(instance.facility_labels),
        "dist": instance.dist,
    }
    if instance.cross is not None:
        out["cross"] = instance.cross
    if instance.provenance:
        out["provenance"] = instance.provenance
    return out


def instance_from_dict(data: dict, tol: float = 1e-9) -> MetricInstance:
    """Build an instance from parsed JSON.

    Accepts three shapes: an explicit matrix ({"dist": ..., optional
    "cross"}), a point cloud ({"client_points", "facility_points",
    optional "norm"}), or a graph ({"vertices", "edges", "clients",
    "facilities"}).
    """
    if not isinstance(data, dict):
        raise BadParams("instance document must be a JSON object")
    labels = data.get("labels") or {}
    client_labels = data.get("clients") or labels.get("clients")
    facility_labels = data.get("facilities") or labels.get("facilities")
    provenance = data.get("provenance")
    if "dist" in data:
        return build_from_matrix(
            data["dist"],
            cross=data.get("cross"),
            client_labels=client_labels,
            facility_labels=facility_labels,
            provenance=provenance,
            tol=tol,
        )
    if "client_points" in data or "facility_points" in data:
        try:
            cpts = data["client_points"]
            fpts = data["facility_points"]
        except KeyError as exc:
            raise BadParams("point-cloud instance needs %s" % exc.args[0]) from exc
        norm = data.get("norm", 2)
        if norm == "inf":
            norm = math.inf
        return build_from_points(
            cpts, fpts, norm=norm,
            client_labels=client_labels,
            facility_labels=facility_labels,
            provenance=provenance,
        )
    if "vertices" in data:
        if client_labels is None or facility_labels is None:
            raise BadParams("graph instance needs clients and facilities lists")
        return build_from_graph(
            data["vertices"],
            [tuple(e) for e in data.get("edges", [])],
            client_labels,
            facility_labels,
            provenance=provenance,
        )
    raise BadParams(
        "instance document needs dist, client_points/facility_points, or vertices"
    )


def load_instance(path, tol: float = 1e-9) -> MetricInstance:
    """Read an instance from a .json document or a .csv distance table.

    CSV layout: header row of facility labels, one row per client.
    """
    text_path = str(path)
    if text_path.endswith(".csv"):
        with open(text_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2:
            raise BadParams("CSV needs a header row and at least one client row")
        header = [h.strip() for h in rows[0]]
        try:
            matrix = [[float(v) for v in row] for row in rows[1:] if row]
        except ValueError as exc:
            raise BadParams("CSV cell is not a number: %s" % exc) from exc
        widths = {len(r) for r in matrix}
        if widths != {len(header)}:
            raise BadParams("CSV rows do not all match the header width")
        return build_from_matrix(matrix, facility_labels=header, tol=tol)
    with open(text_path, encoding="utf-8") as fh:
        data = json.load(fh)
    return instance_from_dict(data, tol=tol)


def save_instance(instance: MetricInstance, path) -> None:
    from . import jsonutil

    jsonutil.dump_path(instance_to_dict(instance), path)
