"""Instances: clients, facilities, and the distances between them.

Every instance reads as a client-facility distance matrix (``dist``).
An instance may carry a symmetric metric (``cross``) over its distinct
locations, which is what triangle-inequality checks need, and the
location of every client and facility; its dist is then derived from
the two on the first read and kept, so an instance whose readers work
on locations (saving, the run form of the top-k kernel and of the
subset-sum check) never holds the per-client matrix. Instances built
from graph shortest paths or the tight generators get the cross
matrix for free; instances built from a bare matrix only get one if the
caller supplies it, which is read as one location per point. A
point-cloud instance keeps its coordinates and norm instead, holds no
cross matrix, and is saved as those coordinates; its dist is derived
from them on the first read and kept, like a located instance's.

Point and graph instances are metrics by construction. Each records a
relative rounding bound, and MetricInstance.violations(tol) re-checks
the triangle inequality only at tol below it, where rounding could
show; there a point instance's metric over all its points is built for
that check alone. Every other cross matrix is validated.

Point distances, graph shortest paths (_shortest_paths) and the
validation gate are computed with numpy alone.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
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

_NORMS = (1, 2, math.inf)
_KERNEL_CELLS = 1 << 16  # distances per row block of _norm_distances
_RECHECK_CELLS = 1 << 18  # (pair, middle point) cells per recheck block
_U = 2.0**-53  # unit roundoff of float64


@dataclass(frozen=True)
class Violation:
    """One failed metric check, with the labels of the points involved."""

    kind: str  # always "triangle": the constructor rejects the other axioms
    points: tuple
    slack: float

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "points": list(self.points), "slack": self.slack}


def _as_float_matrix(values, what: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)  # a copy: the caller keeps its array
    except (TypeError, ValueError) as exc:
        raise BadParams("%s is not a numeric matrix: %s" % (what, exc)) from None
    if arr.ndim != 2:
        raise BadParams("%s must be a 2-d matrix, got ndim=%d" % (what, arr.ndim))
    arr += 0.0  # -0.0 becomes 0.0, so no sort or sum sees a signed zero
    return arr


def _as_locations(locations, size: int) -> tuple:
    """(client_locs, facility_locs) as read-only arrays of cross rows."""
    try:
        rows = tuple(np.array(v) for v in locations)
    except (TypeError, ValueError) as exc:
        raise BadParams("locations must be two lists of cross rows: %s" % exc) from None
    if len(rows) != 2 or any(r.ndim != 1 or r.size == 0 or r.dtype.kind not in "iu" for r in rows):
        raise BadParams("locations must be two non-empty lists of integer cross rows")
    rows = tuple(r.astype(np.intp, copy=False) for r in rows)
    used = np.zeros(size, dtype=bool)
    for r in rows:
        if r.min() < 0 or r.max() >= size:
            raise BadParams("location rows must lie in [0, %d)" % size)
        used[r] = True
        r.setflags(write=False)
    if not used.all():
        raise BadParams("row %d of cross holds no client or facility" % np.argmin(used))
    return rows


def _as_points(points) -> tuple:
    """(client_points, facility_points, norm) as two read-only 2-d
    coordinate arrays and a norm of 1, 2 or math.inf."""
    try:
        cpts, fpts, norm = points
        cpts, fpts = (np.array(p, dtype=float) for p in (cpts, fpts))
        norm = math.inf if norm == "inf" else norm
        known = not isinstance(norm, (bool, np.bool_)) and norm in _NORMS
    except (TypeError, ValueError) as exc:
        raise BadParams("points must be (client_points, facility_points, norm): %s" % exc) from None
    # a flat vector is n points on the line, not one n-dimensional point
    cpts, fpts = (p[:, None] if p.ndim == 1 else p for p in (cpts, fpts))
    if cpts.ndim != 2 or fpts.ndim != 2:
        raise BadParams("points must be vectors or matrices of coordinates")
    if cpts.shape[1] != fpts.shape[1]:
        raise DimensionMismatch(
            "client points have dim %d, facility points dim %d"
            % (cpts.shape[1], fpts.shape[1])
        )
    if not (np.all(np.isfinite(cpts)) and np.all(np.isfinite(fpts))):
        raise NonFinite("point coordinates must be finite")
    if not known:
        raise BadParams("norm must be 1, 2, or inf, got %r" % (norm,))
    cpts.setflags(write=False)
    fpts.setflags(write=False)
    return cpts, fpts, norm if norm == math.inf else int(norm)


def _check_entries(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        idx = np.argwhere(~np.isfinite(arr))[0]
        raise NonFinite("%s[%d][%d] is not finite" % (what, idx[0], idx[1]))
    if np.any(arr < 0):
        idx = np.argwhere(arr < 0)[0]
        raise NegativeDistance(
            "%s[%d][%d] = %g is negative" % (what, idx[0], idx[1], arr[idx[0], idx[1]])
        )


class _Labels:
    """Labels this package invents, made on demand instead of stored.

    Label i is fmt % i, or fmt % (i, names[index[i]]) when names and an
    index array are given. Indexing formats one label; all() builds the
    whole tuple on its first call and keeps it.
    """

    __slots__ = ("fmt", "count", "names", "index", "cache")

    def __init__(self, fmt: str, count: int, names=None, index=None):
        self.fmt, self.count, self.names, self.index = fmt, count, names, index
        self.cache = None

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i) -> str:
        i = range(self.count)[i]  # a tuple's integer, bound and negative-index rules
        if self.names is None:
            return self.fmt % i
        return self.fmt % (i, self.names[self.index[i]])

    def all(self) -> tuple:
        if self.cache is None:
            fmt, names = self.fmt, self.names
            if names is None:
                self.cache = tuple(fmt % i for i in range(self.count))
            else:
                self.cache = tuple(fmt % (i, names[j]) for i, j in enumerate(self.index.tolist()))
        return self.cache


class _LabelField:
    """A MetricInstance label field. It stores what the constructor was
    given (a sequence, or a _Labels rule) under _<name> and reads back
    as a tuple."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, instance, owner=None):
        if instance is None:
            return ()  # the dataclass default
        labels = getattr(instance, self.slot)
        return labels.all() if isinstance(labels, _Labels) else labels

    def __set__(self, instance, value):
        object.__setattr__(instance, self.slot, value)


def _gather(cross: np.ndarray, rows, cols) -> np.ndarray:
    """cross[np.ix_(rows, cols)], bit for bit: the columns first, then
    the rows taken from that narrow block, which is several times faster
    when rows is long."""
    return cross[:, cols].take(rows, axis=0)


@np.errstate(over="ignore")  # an overflowing distance is inf, which its callers reject
def _norm_distances(a: np.ndarray, b: np.ndarray, norm) -> np.ndarray:
    """The (len(a), len(b)) matrix of distances between the rows of a and
    b under the L1, L2 or Linf norm (1, 2 or math.inf).

    Each distance takes the coordinates one at a time, in their order:
    it adds up their absolute differences (L1), adds up their squared
    differences and takes the square root (L2), or keeps the largest
    absolute difference (Linf). That is the order of
    scipy.spatial.distance.cdist, so the two agree bit for bit, and the
    output is exactly symmetric, with a zero diagonal, when a is b. The
    rows are taken in blocks of about _KERNEL_CELLS distances, so the
    work space beyond the output is one block. (A reduction of a
    (dim, rows, m) block over its first axis is not used: numpy sums a
    single-cell block pairwise.)
    """
    n, dim = a.shape
    m = len(b)
    out = np.zeros((n, m))
    fold = np.square if norm == 2 else np.abs
    combine = np.maximum if norm == math.inf else np.add
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    step = max(1, _KERNEL_CELLS // m)
    block = np.empty((min(step, n), m))
    for lo in range(0, n, step):
        rows = out[lo:lo + step]
        diff = block[:len(rows)]
        for k in range(dim):
            np.subtract(at[k, lo:lo + step, None], bt[k], out=diff)
            fold(diff, out=diff)
            combine(rows, diff, out=rows)
    if norm == 2:
        np.sqrt(out, out=out)
    return out


class _DistField:
    """MetricInstance.dist. It is stored under _dist. A located or point
    instance stores None there and derives dist on the first read, as
    cross[np.ix_(*locations)] or as the distances between its client and
    facility points, read-only, and keeps it. A point distance that
    overflows raises NonFinite there."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return None  # the dataclass default
        dist = instance._dist
        if dist is None:  # only a located or point instance stores None
            if instance.points is not None:
                dist = _norm_distances(*instance.points)
                if not np.isfinite(dist.max()):  # nonnegative: the maximum is finite iff all are
                    _check_entries(dist, "dist")
            else:
                dist = _gather(instance.cross, *instance.locations)
            dist.setflags(write=False)
            object.__setattr__(instance, "_dist", dist)
        return dist

    def __set__(self, instance, value):
        object.__setattr__(instance, "_dist", value)


def _own_labels(given, fmt: str, count: int):
    """Labels as the instance keeps them: a given sequence as a tuple of
    str, a _Labels rule as it is, nothing as the default fmt % i."""
    if isinstance(given, _Labels):
        return given
    if not given:
        return _Labels(fmt, count)
    return tuple(str(s) for s in given)


@dataclass(frozen=True, eq=False)
class MetricInstance:
    """Immutable problem instance.

    dist has shape (n_clients, m_facilities). cross, when present, is
    the metric over L distinct locations, locations = (client_locs,
    facility_locs) gives each point's row, and dist = cross[np.ix_(*locations)].
    Such a located instance keeps no dist until something reads it: the
    first read derives it and keeps it, and n_clients and m_facilities
    count the locations. A cross given with a dist and no locations has
    shape (n+m, n+m), clients first, and takes locations = (arange(n),
    arange(n, n + m)).
    With points = (client_points, facility_points, norm), norm 1, 2 or
    inf, there is no cross, and dist is derived from the coordinates on
    its first read and kept; n_clients and m_facilities count the
    points, and a client-facility distance that overflows raises
    NonFinite at that read. The metric over all n + m points is built
    only where validation needs it.

    A dist given with a cross or with points must be bit-equal to the
    derived one, so dataclasses.replace works on every instance; a
    cross given with points is rejected. A given dist or cross reads
    -0.0 as 0.0.

    The constructor copies the arrays it is given, so the caller's stay
    writeable and unshared; the instance's own arrays are read-only.

    client_labels and facility_labels read as tuples of str. Labels
    given by the caller are stored that way; labels the package makes
    up (c<i> and f<j> by default) are formatted on first read, and
    point_label formats a single one.
    """

    dist: np.ndarray | None = _DistField()
    cross: np.ndarray | None = None
    client_labels: tuple = _LabelField()
    facility_labels: tuple = _LabelField()
    provenance: dict = field(default_factory=dict)
    locations: tuple | None = None
    points: tuple | None = None
    # validate_metric's result per tol, so each instance is checked once
    _violations: dict = field(default_factory=dict, init=False, repr=False)
    # the relative rounding bound of a metric by construction (see
    # violations); only the point constructor and build_from_graph set it
    _rounding: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.points is not None:
            given = self._derive_from_points()
        else:
            given = self._take_matrices()
        n, m = self.n_clients, self.m_facilities
        object.__setattr__(self, "client_labels", _own_labels(self._client_labels, "c%d", n))
        object.__setattr__(self, "facility_labels", _own_labels(self._facility_labels, "f%d", m))
        if len(self._client_labels) != n or len(self._facility_labels) != m:
            raise BadParams("label counts do not match matrix shape")
        for name, value in given.items():
            if value is not None:
                value = _as_float_matrix(value, name)
                ours = getattr(self, name)
                if value.shape != ours.shape or value.tobytes() != ours.tobytes():
                    raise BadParams("%s differs from the one derived from points or cross" % name)

    def _derive_from_points(self) -> dict:
        """Set points from copies of the given ones, with no dist yet: the
        first read derives it with _norm_distances, whose output is
        nonnegative and so needs none of the bare-matrix guards, only a
        finiteness check. Return the dist the caller passed too."""
        if self.locations is not None or self.cross is not None:
            raise BadParams("an instance takes points, or a cross matrix, not both")
        points = _as_points(self.points)
        if len(points[0]) < 1 or len(points[1]) < 1:
            raise BadParams("instance needs at least one client and one facility")
        given = {"dist": self._dist}
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", None)  # derived on the first read
        dim = points[0].shape[1]
        if dim < 2**20:  # where the bound's proof holds (see violations)
            object.__setattr__(self, "_rounding", (2 * dim + 8) * _U)
        return given

    def _take_matrices(self) -> dict:
        """Set cross, dist and locations from copies of what the caller
        gave, after the bare-matrix guards; return the dist to match
        when cross derives it. A cross without locations is read as the
        identity layout: dist's n clients, then its m facilities."""
        given, locations = {"dist": self._dist}, self.locations
        if locations is None:
            dist = _as_float_matrix(self._dist, "dist")
            if dist.shape[0] < 1 or dist.shape[1] < 1:
                raise BadParams("instance needs at least one client and one facility")
            _check_entries(dist, "dist")
            if self.cross is None:
                dist.setflags(write=False)
                object.__setattr__(self, "dist", dist)
                return {}
            n, m = dist.shape
            locations = (np.arange(n), np.arange(n, n + m))
        elif self.cross is None:
            raise BadParams("locations need a cross matrix")
        cross = _as_float_matrix(self.cross, "cross")
        size = len(cross) if self.locations is not None else n + m
        if cross.shape != (size, size):
            raise DimensionMismatch("cross must be (%d, %d), got %r" % (size, size, cross.shape))
        _check_entries(cross, "cross")
        if not np.array_equal(cross, cross.T):
            if not np.allclose(cross, cross.T, rtol=0, atol=1e-9):
                i, j = np.argwhere(~np.isclose(cross, cross.T, rtol=0, atol=1e-9))[0]
                raise AsymmetricCross("cross[%d][%d] != cross[%d][%d]" % (i, j, j, i))
            # average only the entries that differ, so no symmetric one overflows
            odd = cross != cross.T
            cross[odd] = (cross[odd] + cross.T[odd]) / 2.0
            if not np.isfinite(cross.max()):
                _check_entries(cross, "cross")
        if np.any(np.diag(cross) != 0):
            i = int(np.argwhere(np.diag(cross) != 0)[0][0])
            raise NonzeroDiagonal("cross[%d][%d] = %g" % (i, i, cross[i, i]))
        cross.setflags(write=False)
        object.__setattr__(self, "cross", cross)
        object.__setattr__(self, "locations", _as_locations(locations, size))
        object.__setattr__(self, "dist", None)  # derived on the first read
        return given

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if self.locations is not None or self.points is not None:
            state["_dist"] = None  # derived again on the first read
        return state

    def __setstate__(self, state: dict) -> None:
        # pickle restores arrays writeable; the instance's own are
        # read-only, and a dist derived later is right only while cross
        # and locations, or points, stay as they were
        for value in state.values():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
        self.__dict__.update(state)

    @property
    def n_clients(self) -> int:
        if self.locations is not None:
            return len(self.locations[0])
        if self.points is not None:
            return len(self.points[0])
        return self._dist.shape[0]

    @property
    def m_facilities(self) -> int:
        if self.locations is not None:
            return len(self.locations[1])
        if self.points is not None:
            return len(self.points[1])
        return self._dist.shape[1]

    @cached_property
    def _client_counts(self) -> np.ndarray:
        """Clients on each cross row, summed over the client blocks."""
        rows, lengths = self._client_blocks
        # float sums of integers below 2**53 are exact
        return np.bincount(rows, weights=lengths, minlength=len(self.cross)).astype(np.intp)

    @cached_property
    def _client_blocks(self) -> tuple:
        """The client locations run-length encoded in client order:
        (cross rows, lengths) of the blocks of consecutive clients at
        one location. Needs locations."""
        locs = self.locations[0]
        starts = np.flatnonzero(np.r_[True, locs[1:] != locs[:-1]])
        return locs[starts], np.diff(np.r_[starts, locs.size])

    @property
    def metric_verified(self) -> bool:
        """True when the instance has points or cross distances, so
        triangle checks can run. Those of a point or graph instance form
        a metric by construction, and violations(tol) skips re-checking
        them at any tol the rounding allows; other cross matrices are
        validated."""
        return self.points is not None or self.cross is not None

    def violations(self, tol: float = 1e-9) -> list:
        """validate_metric(self, tol), computed on the first call only.

        Distances derived from points or from a graph are a metric up
        to rounding. Such an instance carries a relative rounding bound
        b, and at tol >= b this returns [] without validating: as shown
        below, validate_metric finds nothing there. A tol below b (0
        among them; negative and NaN tol too), an instance with no
        bound (bare matrices, tight families, loaded located files) and
        a graph instance passed through dataclasses.replace are
        validated; a point instance, which keeps no cross matrix, on the
        metric over all its points that validate_metric builds for the
        call. b is (2 dim + 8) u for points in dim coordinates and
        (2 V + 4) u for a graph on V vertices, with u = 2**-53.

        Why b suffices. Let each stored distance c be within a relative
        delta of the distance D of a true metric, |c - D| <= delta D.
        For a triple (x, y, z), t = fl(c[x,y] + c[y,z]) is at least
        (1 - u)(1 - delta)(D[x,y] + D[y,z]) >= (1 - u)(1 - delta) D[x,z],
        so c[x,z] - t <= (2 delta + u) D[x,z], and the rounded slack is
        at most (1 + u) times that. The scale max(1, c[x,z], t) is at
        least c[x,z] >= (1 - delta) D[x,z], and rounding tol times it
        loses at most a factor 1 - u. So no triple is violated once
        tol >= (2 delta + u)(1 + delta + 3u). While dim and V stay below
        2**20 the second-order part is under u, and the bounds below
        leave at least 4u of margin over 2 delta + u.

        - Points: each coordinate difference rounds once (exactly, when
          subnormal). L1 sums dim of them, in the kernel's fixed
          coordinate order, adding (dim - 1) u: delta <= dim u. L2
          squares them (2u more), sums, and takes a square root, which
          halves the relative error and adds u: delta <= (dim/2 + 2) u.
          Linf takes a maximum: delta <= u. The kernel's fixed
          coordinate order makes the metric over all points that
          validate_metric checks exactly symmetric, so nothing is
          averaged: delta <= (dim + 3/2) u, and 2 delta + u
          <= (2 dim + 4) u. Squares that underflow add an absolute
          error below 2**-500 per distance, which the 1 in the scale
          absorbs. A coordinate dimension of 2**20 or more gets no
          bound.
        - Graphs: Dijkstra settles a vertex at the rounded running sum
          along some path of at most V - 1 positive edges, at least
          (1 - (V - 2) u) times that path's length, so at least
          (1 - (V - 2) u) D. Rounded addition is monotone and never
          decreases a sum, so along a shortest path each vertex settles
          at most at fl(its predecessor's settled value + the edge), and
          the path's end at most at the path's rounded running sum,
          which is at most (1 + (V - 2) u) D.
          With the symmetrization delta <= (V - 1) u, and 2 delta + u
          <= (2 V - 1) u. The dense adjacency matrix keeps V far below
          2**20.
        """
        if self._rounding is not None and tol >= self._rounding:
            return []
        if tol not in self._violations:
            self._violations[tol] = tuple(validate_metric(self, tol=tol))
        return list(self._violations[tol])

    def point_label(self, index: int) -> str:
        """Label for a point index (clients first, then facilities)."""
        n = self.n_clients
        if index < n:
            return self._client_labels[index]
        return self._facility_labels[index - n]

    def __repr__(self):
        return "MetricInstance(n_clients=%d, m_facilities=%d, verified=%s)" % (
            self.n_clients,
            self.m_facilities,
            self.metric_verified,
        )


def _point_cross(points) -> np.ndarray:
    """The metric over all n + m points of a point instance, clients
    first: _norm_distances over every point, whose fixed coordinate
    order makes it exactly symmetric with a zero diagonal. Its
    client-facility block is the instance's dist, bit for bit. Raises
    NonFinite where a distance between two points overflows."""
    everything = np.vstack(points[:2])
    cross = _norm_distances(everything, everything, points[2])
    if not np.isfinite(cross.max()):
        _check_entries(cross, "cross")
    return cross


@np.errstate(over="ignore", invalid="ignore")  # an inf sum, slack -inf, violates nothing
def validate_metric(instance: MetricInstance, tol: float = 1e-9) -> list:
    """Check every triangle inequality of the cross matrix.

    Returns a list of Violation records, empty when the instance is a
    genuine metric up to relative tolerance, ordered by middle point and
    then row-major by (x, z). Requires points or cross distances; a
    point instance's metric over all its points is built here
    (_point_cross) and dropped afterwards. Symmetry and the zero
    diagonal hold already: the constructor makes cross exactly
    symmetric and rejects a nonzero diagonal.

    (x, y, z) with x < z, y not in {x, z}, is violated when, with every
    operation rounded as written, t = c[x,y] + c[y,z] and
    c[x,z] - t > tol * max(1, c[x,z], t). The exact test runs only on
    the pairs (x, z) that a gate flags, over every y.

    The gate is the Floyd-Warshall closure D of cross, built in place
    one middle point y at a time. Each update D[x,z] = min(D[x,z],
    D[x,y] + D[y,z]) adds entries no larger than cross, and rounded
    addition is monotone, so D[x,z] <= t for every y. A zero distance
    (shared locations, repeated graph vertices) is an edge of length 0.
    With tol >= 0 a violation needs t < c = c[x,z], so its threshold is
    tau = tol * max(1, c). From fl(c - t) <= (c - t)(1 + u), u = 2**-53,
    a violation gives t < c - tau/(1 + u) <= c - tau + u*tau. The gate
    flags D < (c - tau) + 2**-40 * (c + tau): the margin exceeds u*tau
    plus the rounding of the subtraction and the addition (each at most
    u*(c + tau)), so every violated pair is flagged. Pairs flagged but
    not violated, such as a chain of sub-tolerance shortcuts that add
    up past the threshold, fail the exact test and are dropped. A
    negative or NaN tol flags every pair.
    """
    if instance.points is not None:
        cross = _point_cross(instance.points)
    elif instance.cross is None:
        raise MissingCrossDistances(
            "validate_metric needs points or a cross-distance matrix"
        )
    else:
        cross = instance.cross
    size = cross.shape[0]
    if tol >= 0:
        closure = cross.copy()
        for y in range(size):
            np.minimum(closure, closure[:, y, None] + closure[None, y, :], out=closure)
        tau = tol * np.maximum(1.0, cross)
        flagged = closure < (cross - tau) + 2.0**-40 * (cross + tau)
    else:
        flagged = np.ones_like(cross, dtype=bool)
    xs, zs = np.nonzero(np.triu(flagged, 1))
    found = []
    step = max(1, _RECHECK_CELLS // size)
    for lo in range(0, xs.size, step):
        x, z = xs[lo:lo + step], zs[lo:lo + step]
        direct = cross[x, z][:, None]
        # cross[z, :] is cross[:, z] exactly, so these sums are the
        # c[x,y] + c[y,z] of the full enumeration, bit for bit
        through = cross[x, :] + cross[z, :]
        slack = direct - through
        scale = np.maximum(1.0, np.maximum(direct, through))
        bad = slack > tol * scale
        rows = np.arange(x.size)
        bad[rows, x] = False
        bad[rows, z] = False
        f, y = np.nonzero(bad)
        found.append((y, x[f], z[f], slack[f, y]))
    if not found:
        return []
    y, x, z, slack = (np.concatenate(parts) for parts in zip(*found))
    if y.size and instance.locations is not None:
        # a location is named by its first client, else its first facility
        point = np.unique(np.concatenate(instance.locations), return_index=True)[1]
        y, x, z = point[y], point[x], point[z]
    label = instance.point_label
    return [
        Violation("triangle", (label(x[i]), label(y[i]), label(z[i])), float(slack[i]))
        for i in np.lexsort((z, x, y))
    ]


def _own_provenance(given) -> dict:
    """A copy of the given provenance dict; {} for None."""
    if given is not None and not isinstance(given, dict):
        raise BadParams("provenance must be a dict (a JSON object), got %s" % type(given).__name__)
    return dict(given or {})


def build_from_matrix(
    dist,
    cross=None,
    client_labels=None,
    facility_labels=None,
    provenance=None,
    tol: float = 1e-9,
    locations=None,
) -> MetricInstance:
    """Instance from an explicit client-facility matrix (or cross and locations).

    Without cross distances the instance is usable but marked
    metric-unverified. With them, the full metric axioms are checked
    here and the first triangle violation raises.
    """
    inst = MetricInstance(
        dist=dist,
        cross=cross,
        client_labels=tuple(client_labels) if client_labels else (),
        facility_labels=tuple(facility_labels) if facility_labels else (),
        provenance=_own_provenance(provenance),
        locations=locations,
    )
    violations = inst.violations(tol) if inst.cross is not None else []
    if violations:
        v = violations[0]
        raise TriangleViolation(v.points[0], v.points[1], v.points[2], v.slack)
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

    The instance keeps the points and derives cross and dist from them
    with the same norm, so it is metric-verified by construction.
    """
    return MetricInstance(
        points=(client_points, facility_points, norm),
        client_labels=tuple(client_labels) if client_labels else (),
        facility_labels=tuple(facility_labels) if facility_labels else (),
        provenance=_own_provenance(provenance),
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

    The instance holds the metric over the referenced vertices, computed
    by _shortest_paths, and records the rounding bound (2 V + 4) 2**-53,
    V = len(vertices), of its shortest-path sums, so violations(tol)
    skips re-validation at tol at or above it (see
    MetricInstance.violations). A malformed edge or id raises BadParams.
    """
    try:
        verts = list(vertices)
        index = {v: i for i, v in enumerate(verts)}
    except TypeError as exc:
        raise BadParams("vertices must be a sequence of hashable ids: %s" % exc) from None
    if len(index) != len(verts):
        raise BadParams("duplicate vertex ids")
    if not client_ids or not facility_ids:
        raise BadParams("need at least one client and one facility vertex")
    size = len(verts)
    adj = np.full((size, size), np.inf)
    try:
        for u, v, w in edges:
            if u not in index or v not in index:
                raise BadParams("edge endpoint %r is not a vertex" % (u if u not in index else v,))
            w = float(w)
            if not math.isfinite(w) or w <= 0:
                raise NonPositiveWeight("edge (%r, %r) has weight %g" % (u, v, w))
            i, j = index[u], index[v]
            if i != j and w < adj[i, j]:  # a repeated edge keeps its smallest weight
                adj[i, j] = adj[j, i] = w
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams("edges must be (u, v, weight), ids and a number: %s" % exc) from None
    try:
        cidx = [index[c] for c in client_ids]
        fidx = [index[f] for f in facility_ids]
    except KeyError as exc:
        raise BadParams("unknown vertex id %r" % (exc.args[0],)) from exc
    except TypeError as exc:
        raise BadParams("client and facility ids must be vertex ids: %s" % exc) from None
    referenced, rows = np.unique(cidx + fidx, return_inverse=True)
    cross = _shortest_paths(adj, referenced)[:, referenced]
    if not np.all(np.isfinite(cross)):
        raise DisconnectedGraph("some referenced vertices are not connected")
    n = len(cidx)
    inst = MetricInstance(
        cross=cross,
        locations=(rows[:n], rows[n:]),
        client_labels=_vertex_labels(client_ids, cidx, "c%d:%s"),
        facility_labels=_vertex_labels(facility_ids, fidx, "f%d:%s"),
        provenance=_own_provenance(provenance),
    )
    object.__setattr__(inst, "_rounding", (2 * size + 4) * _U)
    return inst


def _shortest_paths(adj: np.ndarray, sources) -> np.ndarray:
    """The (len(sources), V) shortest-path distances from each source
    vertex over an undirected graph on V vertices, with adj[i, j] the
    weight of edge (i, j) (positive) and inf where there is none.

    Dijkstra's algorithm from every source at once: V rounds, each
    settling per row the nearest open vertex u and relaxing
    d = min(d, d[u] + adj[u]). A distance is the minimum of the rounded
    sums d[u] + w over the vertices u settled before it, so it equals
    scipy's shortest_path(method="D") bit for bit. Unreachable vertices
    stay inf: relaxing from a settled or an inf vertex changes nothing.
    """
    rows = np.arange(len(sources))
    d = np.full((len(sources), len(adj)), np.inf)
    d[rows, sources] = 0.0
    settled = np.zeros(d.shape, dtype=bool)
    for _ in range(len(adj)):
        u = np.where(settled, np.inf, d).argmin(axis=1)
        settled[rows, u] = True
        np.minimum(d, d[rows, u, None] + adj[u], out=d)
    return d


def _vertex_labels(ids, positions, fmt: str):
    """The vertex ids when they are distinct, else fmt % (i, id) for each."""
    if len(set(positions)) == len(positions):
        return ids
    return _Labels(fmt, len(positions), names=tuple(ids), index=np.arange(len(positions)))


def instance_to_dict(instance: MetricInstance) -> dict:
    """The JSON document of an instance, holding what defines it: the
    coordinates and norm ("inf" for Linf) of a point instance, else
    cross and locations, else dist."""
    out = {
        "schema": 1,
        "clients": list(instance.client_labels),
        "facilities": list(instance.facility_labels),
    }
    if instance.points is not None:
        cpts, fpts, norm = instance.points
        out["client_points"] = cpts
        out["facility_points"] = fpts
        out["norm"] = "inf" if norm == math.inf else norm
    elif instance.cross is not None:
        out["cross"] = instance.cross
        out["locations"] = list(instance.locations)
    else:
        out["dist"] = instance.dist
    if instance.provenance:
        out["provenance"] = instance.provenance
    return out


def _member(data: dict, key: str, kind: type):
    """data[key], or None when it is absent or null; BadParams when it
    is not a kind (dict for a JSON object, list for an array)."""
    value = data.get(key)
    if value is not None and not isinstance(value, kind):
        raise BadParams("%r must be a JSON %s" % (key, "object" if kind is dict else "array"))
    return value


def instance_from_dict(data: dict, tol: float = 1e-9) -> MetricInstance:
    """Build an instance from parsed JSON.

    Accepts three shapes: an explicit matrix ({"dist": ..., optional
    "cross"}, or {"cross", "locations"}), a point cloud ({"client_points",
    "facility_points", optional "norm"}), or a graph ({"vertices",
    "edges", "clients", "facilities"}).
    """
    if not isinstance(data, dict):
        raise BadParams("instance document must be a JSON object")
    labels = _member(data, "labels", dict) or {}
    client_labels = _member(data, "clients", list) or _member(labels, "clients", list)
    facility_labels = _member(data, "facilities", list) or _member(labels, "facilities", list)
    provenance = data.get("provenance")
    if "dist" in data and "locations" in data:
        raise BadParams("a document with locations derives dist and must not give it")
    if "dist" in data or "locations" in data:
        return build_from_matrix(
            data.get("dist"),
            cross=data.get("cross"),
            client_labels=client_labels,
            facility_labels=facility_labels,
            provenance=provenance,
            tol=tol,
            locations=data.get("locations"),
        )
    if "client_points" in data or "facility_points" in data:
        try:
            cpts = data["client_points"]
            fpts = data["facility_points"]
        except KeyError as exc:
            raise BadParams("point-cloud instance needs %s" % exc.args[0]) from exc
        return build_from_points(
            cpts, fpts, norm=data.get("norm", 2),
            client_labels=client_labels,
            facility_labels=facility_labels,
            provenance=provenance,
        )
    if "vertices" in data:
        if client_labels is None or facility_labels is None:
            raise BadParams("graph instance needs clients and facilities lists")
        return build_from_graph(
            _member(data, "vertices", list),
            _member(data, "edges", list) or [],
            client_labels,
            facility_labels,
            provenance=provenance,
        )
    raise BadParams(
        "instance document needs dist, locations, client_points/facility_points, or vertices"
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
