import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ced.params import (
    ModelParams,
    WindowPosition,
    growth_bounds,
    rho_extinction,
    weight_b,
    window_position,
)

from sqrt_reference import Enclosure, sqrt_enclosure

WIDTH = F(1, 10**30)
GRID = F(1, 2**30)  # growth_bounds rounds outward onto multiples of this

rationals_pos = st.fractions(min_value=F(1, 32), max_value=50, max_denominator=32)


def m_at_zero(lam):
    """Radius of convergence of the weighted Catalan series at rho = 0.

    Exactly (1 + lambda)^2 / (4 lambda); symmetric under lambda <-> 1/lambda.
    """
    return (1 + lam) ** 2 / (4 * lam)


def quadratic(d, x):
    # both window endpoints are roots of x^2 - (4d-2)x + 1
    return x * x - (4 * d - 2) * x + 1


def window_ends(d, width=WIDTH):
    """Enclosures of the window ends 2d - 1 -/+ 2 sqrt(d^2 - d), each at most `width` wide.

    A reference for `window_position` that shares nothing with its sign test.
    """
    root = sqrt_enclosure(F(d * d - d), width / 2)
    center = 2 * d - 1
    return (
        Enclosure(center - 2 * root.hi, center - 2 * root.lo),
        Enclosure(center + 2 * root.lo, center + 2 * root.hi),
    )


def reference_position(d, lam, width):
    """The window position the enclosures certify, or None where they cannot separate lam."""
    lower, upper = window_ends(d, width)
    if lam < lower.lo:
        return WindowPosition.OUTSIDE_LEFT
    if lam > upper.hi:
        return WindowPosition.OUTSIDE_RIGHT
    if lower.hi < lam < upper.lo:
        return WindowPosition.INSIDE
    return None


class TestSqrtEnclosure:
    def test_perfect_squares_exact(self):
        assert sqrt_enclosure(F(9)) == Enclosure(F(3), F(3))
        assert sqrt_enclosure(F(1, 4)) == Enclosure(F(1, 2), F(1, 2))
        assert sqrt_enclosure(F(0)) == Enclosure(F(0), F(0))

    @given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6))
    @settings(max_examples=60)
    def test_encloses_and_width(self, x):
        enc = sqrt_enclosure(x, WIDTH)
        assert enc.lo * enc.lo <= x <= enc.hi * enc.hi
        assert enc.width <= WIDTH
        assert enc.lo >= 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_enclosure(F(-1))


class TestModelParams:
    def test_coercion(self):
        p = ModelParams(2, "3/7", 1)
        assert p.lam == F(3, 7) and p.rho == F(1)

    @pytest.mark.parametrize(
        "d,lam,rho",
        [(1, 1, 1), (2, 0, 1), (2, -1, 1), (2, 1, -1), ("2", 1, 1)],
    )
    def test_invalid(self, d, lam, rho):
        with pytest.raises(ValueError):
            ModelParams(d, lam, rho)

    def test_rho_zero_allowed(self):
        ModelParams(2, 1, 0)


class TestLambdaInterval:
    """The coexistence window as an interval of lambda, checked at its two ends."""

    def test_d2_values(self):
        lower, upper = window_ends(2)
        # 3 - 2 sqrt2 ~ 0.171573, 3 + 2 sqrt2 ~ 5.828427
        assert abs(float(lower.midpoint) - 0.17157287525381) < 1e-12
        assert abs(float(upper.midpoint) - 5.82842712474619) < 1e-12
        assert window_position(2, lower.lo) is WindowPosition.OUTSIDE_LEFT
        assert window_position(2, lower.hi) is WindowPosition.INSIDE
        assert window_position(2, upper.lo) is WindowPosition.INSIDE
        assert window_position(2, upper.hi) is WindowPosition.OUTSIDE_RIGHT

    def test_d2_conjugate_product_is_one(self):
        lower, upper = window_ends(2)
        assert lower.lo * upper.lo <= 1 <= lower.hi * upper.hi
        # so lambda -> 1/lambda maps the window onto itself, swapping the sides
        mirror = {
            WindowPosition.INSIDE: WindowPosition.INSIDE,
            WindowPosition.OUTSIDE_LEFT: WindowPosition.OUTSIDE_RIGHT,
            WindowPosition.OUTSIDE_RIGHT: WindowPosition.OUTSIDE_LEFT,
        }
        for lam in (lower.lo, lower.hi, upper.lo, upper.hi, F(1, 10), F(1), F(7, 3), F(6)):
            assert window_position(2, 1 / lam) is mirror[window_position(2, lam)]

    def test_d5_lower_endpoint(self):
        # 9 - 2 sqrt20, from a finer square-root oracle than window_ends uses
        fine = sqrt_enclosure(F(20), F(1, 10**40))
        assert window_position(5, 9 - 2 * fine.hi) is WindowPosition.OUTSIDE_LEFT
        assert window_position(5, 9 - 2 * fine.lo) is WindowPosition.INSIDE

    @pytest.mark.parametrize("d", [2, 3, 5, 17])
    def test_endpoints_satisfy_quadratic(self, d):
        lower, upper = window_ends(d)
        for enc in (lower, upper):
            # the quadratic changes sign across the enclosure, and so does the position
            assert quadratic(d, enc.lo) * quadratic(d, enc.hi) <= 0
            assert window_position(d, enc.lo) is not window_position(d, enc.hi)

    def test_invalid_d(self):
        for d in (1, 0, -3, True, "2", 2.0):
            with pytest.raises(ValueError, match="branching factor d"):
                window_position(d, F(1))


class TestWindowPosition:
    def test_known_positions(self):
        assert window_position(2, F(1)) is WindowPosition.INSIDE
        assert window_position(2, F(1, 10)) is WindowPosition.OUTSIDE_LEFT
        assert window_position(2, F(6)) is WindowPosition.OUTSIDE_RIGHT

    def test_very_close_rational_resolves(self):
        # rationals within 1e-35 and 1e-200 of the lower endpoint still separate
        for k in (35, 200):
            lower, _ = window_ends(2, F(1, 10 ** (k + 5)))
            assert window_position(2, lower.lo - F(1, 10**k)) is WindowPosition.OUTSIDE_LEFT
            assert window_position(2, lower.hi + F(1, 10**k)) is WindowPosition.INSIDE

    @pytest.mark.parametrize("d", [2, 3, 5, 17, 1024])
    def test_within_ten_to_minus_k_of_both_ends(self, d):
        # window_ends(d, 10^-k) brackets each end between two rationals at most
        # 10^-k apart, so each lies within 10^-k of the end, one on either side;
        # k starts where 10^-k is below the lower end, about 1/(4d), so all are positive
        for k in [*range(len(str(4 * d)), 131), 200, 500, 1000, 2000]:
            lower, upper = window_ends(d, F(1, 10**k))
            assert window_position(d, lower.lo) is WindowPosition.OUTSIDE_LEFT
            assert window_position(d, lower.hi) is WindowPosition.INSIDE
            assert window_position(d, upper.lo) is WindowPosition.INSIDE
            assert window_position(d, upper.hi) is WindowPosition.OUTSIDE_RIGHT

    @given(
        d=st.sampled_from([2, 3, 4, 5, 8, 17, 64, 1000, 1024]) | st.integers(2, 10**6),
        lam=rationals_pos | st.fractions(min_value=F(1, 10**9), max_value=10**7, max_denominator=10**12),
        edge=st.integers(0, 3),
        k=st.integers(1, 55),
        offset=st.integers(1, 10**6),
    )
    @settings(max_examples=400, derandomize=True)
    def test_agrees_with_enclosure_and_m_at_zero_references(self, d, lam, edge, k, offset):
        # one lambda from anywhere, and one moved from an end's enclosure
        # up to 10^-k toward and past that end
        lower, upper = window_ends(d, F(1, 10**60))
        near = (lower.lo, lower.hi, upper.lo, upper.hi)[edge] + (-1) ** edge * F(offset, 10**k * 10**6)
        for x in (lam, near) if near > 0 else (lam,):
            pos = window_position(d, x)
            expected = reference_position(d, x, F(1, 10**60))
            assert expected is None or pos is expected, (d, x)
            # m(0) = (1 + lambda)^2 / (4 lambda) exceeds d exactly outside the window
            assert (m_at_zero(x) > d) == pos.is_outside, (d, x)

class TestRhoExtinction:
    def test_examples(self):
        assert rho_extinction(2, F(1)) == 1
        assert rho_extinction(5, F(3, 2)) == 6

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValueError):
            rho_extinction(2, F(0))


def bound_enclosures(d, lam, width):
    """Enclosures at most `width` wide of the lower and the upper closed-form bound.

    Each is (sqrt(c lam + lam^2 + 1) - 3 lam - 3) / 4, with c = 8d + 2 and
    c = 32d + 2.  At width 10^-30 these are the Fraction enclosures that
    growth_bounds was once rounded from.
    """

    def bound(c):
        root = sqrt_enclosure(c * lam + lam * lam + 1, 4 * width)
        return Enclosure((root.lo - 3 * lam - 3) / 4, (root.hi - 3 * lam - 3) / 4)

    return bound(8 * d + 2), bound(32 * d + 2)


def grid_floor(x):
    return math.floor(x / GRID) * GRID


def grid_ceil(x):
    return math.ceil(x / GRID) * GRID


class TestGrowthBounds:
    def test_d2_lambda1(self):
        lower, upper = growth_bounds(2, F(1))
        assert lower == 0  # (sqrt20 - 6)/4 < 0, clamped
        # the upper bound lies within one grid step above (sqrt68 - 6)/4 ~ 0.561553
        fine = sqrt_enclosure(F(68), F(1, 10**40))
        assert upper - GRID < (fine.lo - 6) / 4 and (fine.hi - 6) / 4 <= upper

    def test_pinches_to_zero_at_upper_window_edge(self):
        root = sqrt_enclosure(F(2), WIDTH / 4)
        _, upper = growth_bounds(2, 3 + 2 * root.hi)  # just past 3 + 2 sqrt2
        assert upper == 0  # the bound is about -3 10^-32, rounded up

    def test_negative_beyond_window_signals_outside(self):
        _, upper = growth_bounds(2, F(1, 10))
        assert upper < 0

    def test_f1_positive_case(self):
        # the unclamped lower bound is positive iff (d-2) lam > lam^2 + 1
        lower, upper = growth_bounds(5, F(1))
        assert lower > 0
        assert lower < upper

    @given(
        d=st.sampled_from([2, 3, 5, 64, 1024, 2**32]) | st.integers(2, 2**32),
        lam=st.fractions(min_value=F(1, 10**4), max_value=10**4, max_denominator=10**40),
        edge=st.integers(0, 3),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_rounds_the_enclosure_route_outward(self, d, lam, edge):
        # lam from anywhere, and one lam within 10^-100 of a window edge, on either side
        ends = window_ends(d, F(1, 10**100))
        near = (ends[0].lo, ends[0].hi, ends[1].lo, ends[1].hi)[edge]
        for x in (lam, near):
            lo, hi = growth_bounds(d, x)
            # the 10^-30 enclosures, rounded outward: where no multiple of 2^-30 lies
            # inside an enclosure, its two ends round alike and pin growth_bounds
            lower, upper = bound_enclosures(d, x, WIDTH)
            assert max(0, grid_floor(lower.lo)) <= lo <= max(0, grid_floor(lower.hi)), (d, x)
            assert grid_ceil(upper.lo) <= hi <= grid_ceil(upper.hi), (d, x)
            # lo <= lower bound < lo + 2^-30 (or the bound is below 2^-30 when lo is
            # clamped) and hi - 2^-30 < upper bound <= hi, against a finer root
            lower, upper = bound_enclosures(d, x, F(1, 10**60))
            assert lo <= lower.lo or lo == 0, (d, x)
            assert lower.hi < lo + GRID, (d, x)
            assert hi - GRID < upper.lo and upper.hi <= hi, (d, x)


class TestMAtZero:
    @pytest.mark.parametrize("lam,expected", [(1, 1), (3, F(4, 3)), (F(1, 3), F(4, 3))])
    def test_examples(self, lam, expected):
        assert m_at_zero(F(lam)) == expected

    @given(rationals_pos)
    @settings(max_examples=60)
    def test_exceeds_d_iff_outside_closed_window(self, lam):
        for d in (2, 3):
            assert (m_at_zero(lam) > d) == (quadratic(d, lam) > 0)


class TestWeights:
    def test_examples_d2(self):
        p = ModelParams(2, F(1), F(1))
        assert weight_b(p, 0) / p.d == F(1, 12)
        assert weight_b(p, 0) == F(1, 6)
        assert weight_b(p, 1) / p.d == F(1, 20)

    def test_rho_zero_constant(self):
        p = ModelParams(2, F(1), F(0))
        assert {weight_b(p, j) / p.d for j in range(10)} == {F(1, 4)}

    @given(
        d=st.integers(2, 2**32),
        lam=st.fractions(min_value=F(1, 10**20), max_value=10**20, max_denominator=10**20),
        rho=st.fractions(min_value=0, max_value=10**20, max_denominator=10**20),
        j=st.integers(0, 40),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_is_d_u_v_from_the_definition(self, d, lam, rho, j):
        u = lam / (1 + lam + (j + 1) * rho)  # rise from height j
        v = 1 / (1 + lam + (j + 2) * rho)  # fall ending at height j
        assert weight_b(ModelParams(d, lam, rho), j) == d * u * v

    @given(lam=rationals_pos, rho=rationals_pos, rho2=rationals_pos, j=st.integers(0, 12))
    @settings(max_examples=60)
    def test_monotone_decreasing_in_rho(self, lam, rho, rho2, j):
        lo, hi = sorted([rho, rho2])
        if lo == hi:
            return
        assert weight_b(ModelParams(2, lam, hi), j) < weight_b(ModelParams(2, lam, lo), j)

    @given(lam=rationals_pos, rho=rationals_pos, j=st.integers(0, 40))
    @settings(max_examples=60)
    def test_vanishing_bound(self, lam, rho, j):
        p = ModelParams(2, lam, rho)
        assert weight_b(p, j) / p.d < lam / ((j + 1) ** 2 * rho**2)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            weight_b(ModelParams(2, 1, 1), -1)
