"""Worst-case guarantee values.

Two families: the pair bound f(x), a function of the quotient x = p/k
of two objective ranks, and the multi bound beta(q), the root of a
polynomial equation in the number of objectives q. Both are exact
worst-case constants for their selection rules; f tops out at
1 + sqrt(2) and beta(q) climbs from there toward 3.
"""

import math
from dataclasses import dataclass, field

from .errors import InvalidQ, XOutOfRange

SQRT2 = math.sqrt(2.0)
PAIR_LIMIT = 1.0 + SQRT2  # supremum of f; beta(2) is the float just above it
MULTI_LIMIT = 3.0  # supremum of beta(q) over all q


@dataclass(frozen=True, eq=False)
class BoundValue:
    """A guarantee together with how it was obtained."""

    value: float
    kind: str  # "pair_f" | "beta_q" | "pair_shared" | "constant"
    params: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {"value": self.value, "kind": self.kind, "params": dict(self.params)}


def _check_x(x) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise XOutOfRange("x must be a number, got %r" % (x,)) from None
    if not math.isfinite(x) or x < 1.0:
        raise XOutOfRange("x must be finite and >= 1, got %r" % (x,))
    return x


def _f_small(x: float) -> float:
    return math.sqrt(x)


def _f_large(x: float) -> float:
    y = 1.0 / x
    return 1.0 - y + math.sqrt(y * y - 2.0 * y + 2.0)


def pair_bound_f(x) -> float:
    """Best worst-case ratio achievable by either of two optima, as a
    function of the rank quotient x = p/k >= 1.

    sqrt(x) up to x = 4, then a slower-growing branch that increases
    toward 1 + sqrt(2). Continuous and nondecreasing; both branches
    give exactly 2 at x = 4.
    """
    x = _check_x(x)
    return _f_small(x) if x <= 4.0 else _f_large(x)


def pair_bound_shared(x) -> float:
    """Pair bound when every client location is also a facility.

    Coincides with pair_bound_f up to x = 4 and caps at 2 beyond.
    """
    x = _check_x(x)
    return _f_small(x) if x <= 4.0 else 2.0


def beta_q(q) -> float:
    """Guarantee for picking the best of q >= 2 optima.

    The unique root of (beta - 2)^(q-1) * beta = 1 inside
    [1 + sqrt(2), 3). Bisection of [2, 3] on the sign of the rounded
    left side minus 1, until the ends are adjacent floats; the upper
    end, where the left side is at least 1, is returned. So
    beta(3) == (3 + sqrt(5)) / 2 in floats, beta(2) is the float just
    above 1 + sqrt(2), and beta(q) never decreases as q grows. It
    tends to 3, and is 3.0 from q = 10**16 on.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        raise InvalidQ("q must be an integer >= 2, got %r" % (q,))
    # beta is 3.0 in floats long before q - 1 = 2**64, and the cap keeps
    # the exponent within float range
    power = min(q - 1, 2**64)
    lo, hi = 2.0, 3.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if (mid - 2.0) ** power * mid < 1.0:
            lo = mid
        else:
            hi = mid


def pair_guarantee(k: int, p: int) -> BoundValue:
    x = p / k
    return BoundValue(value=pair_bound_f(x), kind="pair_f", params={"k": k, "p": p, "x": x})


def multi_guarantee(q: int) -> BoundValue:
    if q == 1:
        return BoundValue(value=1.0, kind="constant", params={"q": 1})
    return BoundValue(value=beta_q(q), kind="beta_q", params={"q": q})


def shared_guarantee(k: int, p: int) -> BoundValue:
    x = p / k
    return BoundValue(
        value=pair_bound_shared(x), kind="pair_shared", params={"k": k, "p": p, "x": x}
    )
