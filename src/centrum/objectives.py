"""Top-k objective costs, optima, ratios, and the ratio graph.

The cost of facility A under objective k is the sum of the k largest
client distances to A. Every cost in this module is computed by the
same routine (sort the column descending, running sum), so two costs
of the same column are bitwise comparable and an approximation ratio
can never dip below 1 through float noise. Every ratio comes from
CostProfile.ratios, the one place a zero optimum is handled.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParams,
    DegenerateOptimum,
    InvalidObjectiveSet,
    KOutOfRange,
)


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


def _topk_costs(dist: np.ndarray, ks) -> np.ndarray:
    """Sum of the k largest entries of every column for each k, shape (m, q).

    The only top-k routine: one descending sort of the columns serves
    all ranks, and row k-1 of the running column sums is the rank-k cost.
    """
    running = np.cumsum(np.sort(dist, axis=0)[::-1, :], axis=0)
    return running[np.array(ks) - 1, :].T


def centrum_cost(instance, facility: int, k: int) -> float:
    """Sum of the k largest client distances to one facility."""
    k = _check_k(instance, k)
    facility = _check_facility(instance, facility)
    return float(_topk_costs(instance.dist[:, [facility]], (k,))[0, 0])


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
        per profile. The matrix is computed once and read-only.
        """
        return self._ratios

    @cached_property
    def _ratios(self) -> np.ndarray:
        if self.degenerate:
            warnings.warn(
                "an optimal cost is zero; ratios are 1 where the cost is zero, inf elsewhere",
                DegenerateOptimum,
                stacklevel=4,
            )
            ratios = np.where(self.costs == 0.0, 1.0, np.inf)
        else:
            ratios = self.costs / self.optimal_costs
        ratios.flags.writeable = False
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
    costs = _topk_costs(instance.dist, objs.ks)
    optima = []
    for col in range(costs.shape[1]):
        best = int(np.argmin(costs[:, col]))
        optima.append((best, float(costs[best, col])))
    return CostProfile(ks=objs.ks, costs=costs, optima=tuple(optima))


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
