"""Exception types raised across the library.

Everything inherits from CentrumError so callers can catch library
failures with a single except clause. Metric problems get their own
subtree because instance construction wants to distinguish them.
"""


class CentrumError(Exception):
    """Base class for all errors raised by this package."""


class MetricError(CentrumError):
    """A distance matrix or cross-distance matrix is not usable."""


class NegativeDistance(MetricError):
    pass


class NonFinite(MetricError):
    pass


class DimensionMismatch(MetricError):
    pass


class AsymmetricCross(MetricError):
    pass


class NonzeroDiagonal(MetricError):
    pass


class MissingCrossDistances(MetricError):
    """The operation needs client-client / facility-facility distances."""


class TriangleViolation(MetricError):
    def __init__(self, x: str, y: str, z: str, slack: float):
        self.x = x
        self.y = y
        self.z = z
        self.slack = slack
        super().__init__(
            "d(%s,%s) exceeds d(%s,%s) + d(%s,%s) by %.6g" % (x, z, x, y, y, z, slack)
        )


class DisconnectedGraph(MetricError):
    pass


class NonPositiveWeight(MetricError):
    pass


class KOutOfRange(CentrumError):
    """Objective rank k must satisfy 1 <= k <= number of clients."""


class InvalidObjectiveSet(CentrumError):
    pass


class BadObjectivePair(CentrumError):
    """Pair operations need integers 1 <= k < p."""


class XOutOfRange(CentrumError):
    """Objective-size quotient must be a finite number >= 1."""


class InvalidQ(CentrumError):
    """Objective-count parameter must be an integer >= 2."""


class RatioTooSmall(CentrumError):
    """The requested pair is in the regime handled by the triangle family."""


class RatioTooLarge(CentrumError):
    """The requested pair is in the regime handled by the line family."""


class BadKN(CentrumError):
    """Triple construction needs integers 1 < k < n."""


class BadParams(CentrumError):
    """Generator or builder arguments are out of range."""


class BadConfig(CentrumError):
    """A sweep configuration fails validation."""


class DegenerateOptimum(UserWarning):
    """All clients sit on one facility, so an optimal cost is zero and
    approximation ratios against it are reported as 1 (or inf for other
    facilities)."""
