"""Selection rules: pick one facility that serves several objectives at once.

Every rule returns a SelectionResult holding the chosen facility, its
ratio under each requested objective, the worst of those ratios, and
the a-priori guarantee of the rule (None for the exhaustive oracle,
which has no closed-form guarantee). All ratios come from the
CostProfile the rule worked on, which the result carries.
"""

from dataclasses import dataclass

import numpy as np

from .bounds import BoundValue, multi_guarantee, pair_guarantee
from .errors import BadObjectivePair
from .objectives import CostProfile, ObjectiveSet, cost_profile, graph_from_profile

METHOD_PAIR = "pair_best_of_two"
METHOD_LARGEST = "largest_objective"
METHOD_GRAPH = "multi_graph"
METHOD_EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True, eq=False)
class SelectionResult:
    facility: int
    objectives: tuple
    ratios: tuple
    worst_ratio: float
    guarantee: BoundValue | None
    method: str
    profile: CostProfile  # the costs the choice was made from; not serialized

    def to_jsonable(self, instance=None) -> dict:
        return {
            "method": self.method,
            "facility": self.facility,
            "label": None if instance is None else instance.facility_labels[self.facility],
            "objectives": list(self.objectives),
            "ratios": list(self.ratios),
            "worst_ratio": self.worst_ratio,
            "guarantee": "oracle: none" if self.guarantee is None else self.guarantee.to_jsonable(),
        }


def _result(profile, facility: int, guarantee, method: str) -> SelectionResult:
    ratios = profile.ratios()[facility]
    return SelectionResult(
        facility=int(facility),
        objectives=profile.ks,
        ratios=tuple(float(r) for r in ratios),
        worst_ratio=float(np.max(ratios)),
        guarantee=guarantee,
        method=method,
        profile=profile,
    )


def _check_pair(instance, k, p) -> tuple:
    for v in (k, p):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise BadObjectivePair("ranks must be integers, got %r" % (v,))
    if not 1 <= k < p:
        raise BadObjectivePair("need 1 <= k < p, got k=%d p=%d" % (k, p))
    if p > instance.n_clients:
        raise BadObjectivePair("p=%d exceeds client count %d" % (p, instance.n_clients))
    return int(k), int(p)


def select_pair(instance, k: int, p: int) -> SelectionResult:
    """Best of the two optima for objectives k < p.

    Guaranteed worst ratio at most f(p/k) when the instance distances
    form a metric. Ties between the two candidates go to the optimum of
    the larger objective.
    """
    k, p = _check_pair(instance, k, p)
    profile = cost_profile(instance, ObjectiveSet((k, p)))
    ratios = profile.ratios()
    cand_k, cand_p = profile.optimal_facilities
    worst_k = float(np.max(ratios[cand_k]))
    worst_p = float(np.max(ratios[cand_p]))
    pick = cand_k if worst_k < worst_p else cand_p
    return _result(profile, pick, pair_guarantee(k, p), METHOD_PAIR)


def select_largest_objective(instance, objectives) -> SelectionResult:
    """Optimum of the largest rank; never worse than 3 times optimal
    under any smaller rank (metric instances)."""
    profile = cost_profile(instance, objectives)
    facility = profile.optima[-1][0]
    guarantee = BoundValue(value=3.0, kind="constant", params={"rule": METHOD_LARGEST})
    return _result(profile, facility, guarantee, METHOD_LARGEST)


def select_multi_graph(instance, objectives) -> SelectionResult:
    """Optimum whose worst outgoing ratio-graph edge is smallest.

    For q >= 2 objectives on a metric instance the worst ratio is at
    most beta(q); a single objective is served exactly.
    """
    profile = cost_profile(instance, objectives)
    graph = graph_from_profile(profile)
    node = graph.best_node()
    return _result(
        profile,
        graph.facilities[node],
        multi_guarantee(len(graph.ks)),
        METHOD_GRAPH,
    )


def select_exhaustive(instance, objectives) -> SelectionResult:
    """Facility minimizing the worst ratio over all facilities.

    The reference answer for the other rules; carries no closed-form
    guarantee.
    """
    profile = cost_profile(instance, objectives)
    worst = np.max(profile.ratios(), axis=1)
    facility = int(np.argmin(worst))
    return _result(profile, facility, None, METHOD_EXHAUSTIVE)
