"""Closed-form guarantee curves and the cycle-bound root."""

import math

import pytest
from hypothesis import given, strategies as st

from centrum import (
    BoundValue,
    beta_q,
    multi_guarantee,
    pair_bound_f,
    pair_bound_shared,
    pair_guarantee,
    shared_guarantee,
)
from centrum.bounds import MULTI_LIMIT, PAIR_LIMIT
from centrum.errors import InvalidQ, XOutOfRange

SQRT2 = math.sqrt(2.0)

# value table computed independently of the implementation: sqrt(x) on the
# small branch, and the quadratic-formula expression on the large branch
F_TABLE = {
    1.0: 1.0,
    1.5: 1.2247448713915889,
    2.0: 1.4142135623730951,
    3.0: 1.7320508075688772,
    4.0: 2.0,
    4.5: 2.0446393612212646,
    6.0: 2.1350416126511091,
    10.0: 2.2453624047073713,
    100.0: 2.3971602609511113,
    1e6: 2.4142118552664904,
}


class TestPairBound:
    @pytest.mark.parametrize("x,expect", sorted(F_TABLE.items()))
    def test_frozen_values(self, x, expect):
        assert pair_bound_f(x) == pytest.approx(expect, abs=1e-15)

    def test_branch_point_agrees(self):
        # both closed forms meet at x = 4 with value exactly 2
        x = 4.0
        small = math.sqrt(x)
        y = 1.0 / x
        large = 1.0 - y + math.sqrt(y * y - 2.0 * y + 2.0)
        assert abs(small - 2.0) <= 1e-12
        assert abs(large - 2.0) <= 1e-12
        assert pair_bound_f(x) == 2.0

    def test_at_one(self):
        assert pair_bound_f(1.0) == 1.0

    def test_limit_is_one_plus_sqrt2(self):
        assert pair_bound_f(1e6) == pytest.approx(PAIR_LIMIT, abs=1e-5)
        assert pair_bound_f(1e12) < PAIR_LIMIT

    @pytest.mark.parametrize("x", [0.5, 0.0, -3.0, math.nan, math.inf])
    def test_rejects_bad_x(self, x):
        with pytest.raises(XOutOfRange):
            pair_bound_f(x)

    @given(st.floats(min_value=4.0001, max_value=1e9))
    def test_large_branch_root_identity(self, x):
        # on the large branch the value solves b^2 - 2(1 - 1/x)b - 1 = 0
        b = pair_bound_f(x)
        residual = b * b - 2.0 * (1.0 - 1.0 / x) * b - 1.0
        assert abs(residual) <= 1e-9

    @given(st.floats(min_value=1.0, max_value=1e6), st.floats(min_value=1.0, max_value=1e6))
    def test_monotone(self, x1, x2):
        lo, hi = sorted((x1, x2))
        assert pair_bound_f(lo) <= pair_bound_f(hi) + 1e-12

    @given(st.floats(min_value=1.0, max_value=1e12))
    def test_range(self, x):
        assert 1.0 <= pair_bound_f(x) < PAIR_LIMIT


class TestSharedBound:
    def test_small_matches_pair(self):
        for x in (1.0, 2.0, 3.0, 4.0):
            assert pair_bound_shared(x) == pair_bound_f(x)

    def test_large_is_flat_two(self):
        for x in (4.5, 10.0, 1e6):
            assert pair_bound_shared(x) == 2.0

    def test_continuous_at_four(self):
        assert pair_bound_shared(4.0) == 2.0
        assert pair_bound_shared(4.0 + 1e-12) == 2.0

    @given(st.floats(min_value=1.0, max_value=1e9))
    def test_never_above_two(self, x):
        assert 1.0 <= pair_bound_shared(x) <= 2.0


class TestBetaQ:
    def test_q2_closed_form(self):
        assert beta_q(2) == pytest.approx(1.0 + SQRT2, abs=1e-12)
        # 1 + sqrt(2) lies between PAIR_LIMIT and the next float up
        assert beta_q(2) == math.nextafter(PAIR_LIMIT, 3.0)

    def test_q3_closed_form(self):
        assert beta_q(3) == (3.0 + math.sqrt(5.0)) / 2.0

    def test_frozen_q4_q5(self):
        # grid-bisection oracle values, independent of this implementation
        assert beta_q(4) == pytest.approx(2.7166727492823326, abs=1e-11)
        assert beta_q(5) == pytest.approx(2.7748041132153389, abs=1e-11)

    @pytest.mark.parametrize("q", range(2, 65))
    def test_root_residual(self, q):
        b = beta_q(q)
        assert abs((b - 2.0) ** (q - 1) * b - 1.0) <= 1e-10

    def test_monotone_and_below_three(self):
        values = [beta_q(q) for q in range(2, 65)]
        assert all(v < MULTI_LIMIT for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(1.0 + SQRT2, abs=1e-12)

    def test_approaches_three(self):
        assert beta_q(50) > 2.9

    @pytest.mark.parametrize("q", [1, 0, -2, 2.5, True])
    def test_rejects_bad_q(self, q):
        with pytest.raises(InvalidQ):
            beta_q(q)

    @pytest.mark.parametrize("q", [2, 3, 4, 64, 10672, 10**5, 10**9])
    def test_first_float_past_the_root(self, q):
        # the rounded left side is >= 1 at beta(q) and < 1 one float below
        b = beta_q(q)
        below = math.nextafter(b, 2.0)
        assert (below - 2.0) ** (q - 1) * below < 1.0 <= (b - 2.0) ** (q - 1) * b
        assert b <= MULTI_LIMIT

    def test_three_at_huge_q(self):
        assert beta_q(10**16) == beta_q(2**64 + 1) == beta_q(10**400) == 3.0

    def test_nondecreasing_to_20000(self):
        values = [beta_q(q) for q in range(2, 20001)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] <= MULTI_LIMIT

    def test_interval_membership(self):
        for q in (2, 5, 17, 64):
            assert 1.0 + SQRT2 <= beta_q(q) < 3.0


class TestGuarantees:
    def test_pair_guarantee_carries_params(self):
        g = pair_guarantee(2, 9)
        assert g.kind == "pair_f"
        assert g.params == {"k": 2, "p": 9, "x": 4.5}
        assert g.value == pytest.approx(F_TABLE[4.5], abs=1e-15)

    def test_pair_guarantee_rejects_bad_order(self):
        with pytest.raises(XOutOfRange):
            pair_guarantee(9, 2)

    def test_multi_guarantee(self):
        g = multi_guarantee(3)
        assert g.kind == "beta_q"
        assert g.value == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_multi_guarantee_single_objective(self):
        g = multi_guarantee(1)
        assert g.kind == "constant"
        assert g.value == 1.0

    def test_shared_guarantee(self):
        assert shared_guarantee(1, 5).value == 2.0
        assert shared_guarantee(1, 3).value == pytest.approx(math.sqrt(3.0), abs=1e-15)
        assert shared_guarantee(2, 8).kind == "pair_shared"

    def test_bound_value_serialization(self):
        doc = BoundValue(2.0, "pair_f", {"k": 1, "p": 4}).to_jsonable()
        assert doc == {"value": 2.0, "kind": "pair_f", "params": {"k": 1, "p": 4}}
