"""Top-k objective costs, optima, ratios, and the ratio graph.

The cost of facility A under objective k is the sum of the k largest
client distances to A: the k-th entry of the running sum of A's
column sorted descending, added left to right as np.cumsum adds. Every
cost in this module comes from the one kernel, _topk_costs, so two
costs of the same column are bitwise comparable and an approximation
ratio can never dip below 1 through float noise. A cost that
overflows raises NonFinite. Every ratio comes from CostProfile.ratios,
the one place a zero optimum is handled.

The kernel has two forms with the same bits, and _client_runs alone
picks one. The plain form sorts the n client rows. The run form serves
a located instance with some client location of _SHORT_RUN clients or
more: a column then holds one distance per client location, repeated
once per client there, so the sorted column is a list of runs (value
v, count c); it never reads the per-client dist. Short runs are
expanded into np.cumsum from the carried total; a long run is added by
_repeat_add, which gives the running sum after t additions of v in
O(binades) steps, bit for bit. Its argument: while
the running sum s stays in one binade, every sum is rounded to the same
grid of spacing u = ulp(s), so each step adds a multiple of u, fixed by
where v falls between grid points. Only an exact half-step depends on the
parity of s, and round-half-even leaves s even after one step, so once
two consecutive steps add the same d, every later step adds d while
the sum stays below the binade's top, and t steps give the exact
s + t*d. Repeated addition of one value never depends on how the
clients were stored, and the constructor stores -0.0 as 0.0, so costs
are bit-identical in both forms.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    DegenerateOptimum,
    InvalidObjectiveSet,
    KOutOfRange,
    NonFinite,
)
from .metric import _gather

# Runs of this many clients or more are added by _repeat_add, shorter ones
# by np.cumsum; only a located instance with such a run takes the run form.
_SHORT_RUN = 256


@dataclass(frozen=True)
class ObjectiveSet:
    """Strictly increasing ranks, each between 1 and the client count."""

    ks: tuple

    def __post_init__(self):
        ks = tuple(self.ks)
        if not ks:
            raise InvalidObjectiveSet("objective set must be non-empty")
        for k in ks:
            if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
                raise InvalidObjectiveSet("ranks must be integers >= 1, got %r" % (k,))
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise InvalidObjectiveSet("ranks must be strictly increasing: %r" % (ks,))
        object.__setattr__(self, "ks", tuple(int(k) for k in ks))

    def __len__(self):
        return len(self.ks)

    def __iter__(self):
        return iter(self.ks)

    def check_against(self, instance) -> None:
        if self.ks[-1] > instance.n_clients:
            raise KOutOfRange(
                "rank %d exceeds client count %d" % (self.ks[-1], instance.n_clients)
            )


def _outside_stacklevel() -> int:
    """The stacklevel at which warnings.warn, called by the caller of
    this function, names the first frame outside this package."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


def _as_objectives(objectives) -> ObjectiveSet:
    if isinstance(objectives, ObjectiveSet):
        return objectives
    return ObjectiveSet(tuple(objectives))


def _check_k(instance, k) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise KOutOfRange("k must be an integer, got %r" % (k,))
    if k < 1 or k > instance.n_clients:
        raise KOutOfRange("k=%d outside 1..%d" % (k, instance.n_clients))
    return int(k)


def _check_facility(instance, facility) -> int:
    m = instance.m_facilities
    if not isinstance(facility, (int, np.integer)) or not -m <= facility < m:
        raise BadParams("facility index %r outside 0..%d" % (facility, m - 1))
    return int(facility)


def _repeat_add(total, value: float, count: int):
    """total after count steps of total = total + value, each rounded
    as float64 addition rounds, in O(binades) steps; None as total
    means no sum yet, so the first step gives value itself (as
    np.cumsum keeps its first element). For total and value >= 0,
    the distances here.

    Steps are taken singly from a zero sum and at each binade edge.
    Within a binade [2**(e-1), 2**e) of spacing u, once two consecutive
    steps added the same d (the module docstring says why that settles
    it), each later step from s adds d while s + d + u <= 2**e, as the
    two grid points around s + value then both lie in the binade; t such
    steps give the exact s + t*d. A step that leaves the sum unchanged,
    or overflows, repeats forever.
    """
    if count <= 0:
        return total
    if total is None:
        total, count = value, count - 1
    last = None  # the previous step's increment, within this binade
    while count > 0:
        nxt = total + value
        if nxt == total or math.isinf(nxt):  # nxt: 0.0 + -0.0 is 0.0
            return nxt
        e = max(math.frexp(total)[1], -1021)  # subnormals share the grid of 2**-1022
        if math.frexp(nxt)[1] > e:
            total, count, last = nxt, count - 1, None
            continue
        step = nxt - total  # exact: both in one binade
        if step != last:
            total, count, last = nxt, count - 1, step
            continue
        # in units of u = 2**(e - 53), the binade's top is 2**53
        fit = (2**53 - 1 - int(math.ldexp(total, 53 - e))) // int(math.ldexp(step, 53 - e))
        if fit == 0:
            total, count = nxt, count - 1
            continue
        t = min(fit, count)
        total, count = total + t * step, count - t
    return total


def _run_sums(values, counts, ranks) -> np.ndarray:
    """np.cumsum(np.repeat(values, counts))[ranks - 1], bit for bit,
    without expanding long runs; ranks increasing, from 1 to
    counts.sum()."""
    out = np.empty(len(ranks))
    total, pos, j, i = None, 0, 0, 0
    for run in np.flatnonzero(counts >= _SHORT_RUN).tolist() + [len(counts)]:
        if i < run:  # the short runs before this long one, through np.cumsum
            chunk = np.repeat(values[i:run], counts[i:run])[: ranks[-1] - pos]
            if total is None:
                running = np.cumsum(chunk)
            else:
                running = np.cumsum(np.concatenate(([total], chunk)))[1:]
            end = pos + running.size
            while j < len(ranks) and ranks[j] <= end:
                out[j] = running[ranks[j] - pos - 1]
                j += 1
            total, pos = float(running[-1]), end
        if j == len(ranks):
            break
        value, end = float(values[run]), pos + int(counts[run])
        while j < len(ranks) and ranks[j] <= end:
            total = out[j] = _repeat_add(total, value, ranks[j] - pos)
            pos, j = ranks[j], j + 1
        if j == len(ranks):
            break
        total, pos, i = _repeat_add(total, value, end - pos), end, run + 1
    return out


def _client_runs(instance):
    """The kernel's form for this instance, for _topk_costs and the
    subset-sum check alike: (rows, counts, local) when some client
    location holds _SHORT_RUN clients or more, else instance.dist.

    rows are the cross rows holding clients, counts their client
    counts and local the (rows, facilities) distances; a location that
    full is a long run in every column.
    """
    # a location holds at most n clients: small instances skip the count
    if instance.locations is None or instance.n_clients < _SHORT_RUN:
        return instance.dist
    counts = instance._client_counts
    if counts.max() < _SHORT_RUN:
        return instance.dist
    rows = np.flatnonzero(counts)
    return rows, counts[rows], _gather(instance.cross, rows, instance.locations[1])


def _topk_costs(instance, ks, facilities=None) -> np.ndarray:
    """Sum of the k largest client distances to each facility (all, or
    the listed indices) for each k in increasing ks, shape (m, q).

    The only top-k kernel, in the form _client_runs picks. The plain
    form sorts every column once for all ranks and reads row k-1 of the
    running column sums; the run form (see the module docstring) gives
    the same bits from the location runs. Raises NonFinite, naming the
    facility and the rank, when a requested cost overflows.
    """
    cols = slice(None) if facilities is None else list(facilities)
    form = _client_runs(instance)
    with np.errstate(over="ignore"):  # an overflow raises NonFinite below
        if isinstance(form, np.ndarray):
            running = np.cumsum(np.sort(form[:, cols], axis=0)[::-1, :], axis=0)
            costs = running[np.array(ks) - 1, :].T
        else:
            _, counts, local = form
            local = local[:, cols]
            order = np.argsort(-local, axis=0, kind="stable")
            costs = np.array(
                [_run_sums(local[order[:, f], f], counts[order[:, f]], ks)
                 for f in range(local.shape[1])]
            )
    if not math.isfinite(costs.max()):  # costs are sums of distances, so >= 0 or inf
        f, col = np.argwhere(~np.isfinite(costs))[0]
        facility = f if facilities is None else cols[f]
        raise NonFinite(
            "the top-%d cost of facility %s is not finite"
            % (ks[col], instance.facility_labels[facility])
        )
    return costs


def centrum_cost(instance, facility: int, k: int) -> float:
    """Sum of the k largest client distances to one facility."""
    k = _check_k(instance, k)
    facility = _check_facility(instance, facility)
    return float(_topk_costs(instance, (k,), (facility,))[0, 0])


def optimal_facility(instance, k: int) -> tuple:
    """(index, cost) of the best facility for objective k.

    Ties go to the lowest facility index.
    """
    return cost_profile(instance, (_check_k(instance, k),)).optima[0]


def approx_ratio(instance, facility: int, k: int) -> float:
    """Cost of the given facility divided by the optimal cost for k.

    A zero optimal cost follows CostProfile.ratios: 1.0 when the
    facility also has zero cost, inf otherwise, with a DegenerateOptimum
    warning.
    """
    k = _check_k(instance, k)
    facility = _check_facility(instance, facility)
    return float(cost_profile(instance, (k,)).ratios()[facility, 0])


@dataclass(frozen=True, eq=False)
class CostProfile:
    """Costs of every facility under every requested objective."""

    ks: tuple
    costs: np.ndarray  # shape (m, q)
    optima: tuple  # per objective: (facility index, cost)

    @property
    def optimal_costs(self) -> np.ndarray:
        return np.array([c for _, c in self.optima])

    @property
    def optimal_facilities(self) -> tuple:
        return tuple(i for i, _ in self.optima)

    @property
    def degenerate(self) -> bool:
        return bool(np.any(self.optimal_costs == 0.0))

    def ratios(self) -> np.ndarray:
        """Ratio of every facility under every objective, shape (m, q).

        A zero optimum means every client sits on that facility, which
        then costs 0 under every objective. Ratios are then 1 where the
        cost is 0 and inf elsewhere, with one DegenerateOptimum warning
        per profile, which names the first caller outside this package.
        The matrix is computed once and read-only.
        """
        ratios = self.__dict__.get("_ratios")
        if ratios is None:
            if self.degenerate:
                warnings.warn(
                    "an optimal cost is zero; ratios are 1 where the cost is zero, inf elsewhere",
                    DegenerateOptimum,
                    stacklevel=_outside_stacklevel(),
                )
                ratios = np.where(self.costs == 0.0, 1.0, np.inf)
            else:
                ratios = self.costs / self.optimal_costs
            ratios.flags.writeable = False
            self.__dict__["_ratios"] = ratios
        return ratios

    def to_jsonable(self, instance=None) -> dict:
        labels = None if instance is None else instance.facility_labels
        return {
            "objectives": list(self.ks),
            "costs": self.costs,
            "optima": [
                {
                    "k": k,
                    "facility": idx,
                    "label": None if labels is None else labels[idx],
                    "cost": cost,
                }
                for k, (idx, cost) in zip(self.ks, self.optima)
            ],
        }


def cost_profile(instance, objectives) -> CostProfile:
    """Costs for every facility under each objective, plus the optima."""
    objs = _as_objectives(objectives)
    objs.check_against(instance)
    costs = _topk_costs(instance, objs.ks)
    best = np.argmin(costs, axis=0).tolist()  # the first minimum of each column
    optima = tuple((b, float(costs[b, col])) for col, b in enumerate(best))
    return CostProfile(ks=objs.ks, costs=costs, optima=optima)


@dataclass(frozen=True, eq=False)
class RatioGraph:
    """Complete digraph over the per-objective optima.

    Node i stands for the optimal facility of objectives[i]; the edge
    i -> j is weighted by the approximation ratio of node i's facility
    measured under node j's objective. Diagonal entries are 1.
    """

    ks: tuple
    facilities: tuple  # node -> facility index
    weights: np.ndarray  # shape (q, q)
    degenerate: bool = False

    def max_outgoing(self, node: int) -> float:
        row = self.weights[node]
        if row.shape[0] == 1:
            return 1.0
        return float(np.max(np.delete(row, node)))

    def best_node(self) -> int:
        """Node whose worst outgoing ratio is smallest (lowest index on ties)."""
        worsts = [self.max_outgoing(i) for i in range(len(self.ks))]
        return int(np.argmin(worsts))

    def to_jsonable(self, instance=None) -> dict:
        labels = None if instance is None else instance.facility_labels
        return {
            "objectives": list(self.ks),
            "nodes": [
                {
                    "k": k,
                    "facility": f,
                    "label": None if labels is None else labels[f],
                    "max_outgoing": self.max_outgoing(i),
                }
                for i, (k, f) in enumerate(zip(self.ks, self.facilities))
            ],
            "weights": self.weights,
            "degenerate": self.degenerate,
        }


def ratio_graph(instance, objectives) -> RatioGraph:
    return graph_from_profile(cost_profile(instance, objectives))


def graph_from_profile(profile: CostProfile) -> RatioGraph:
    return RatioGraph(
        ks=profile.ks,
        facilities=profile.optimal_facilities,
        weights=profile.ratios()[list(profile.optimal_facilities)],
        degenerate=profile.degenerate,
    )
