import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ced.contfrac
from ced.contfrac import _psi_upper, below_witness, forward_pass
from ced.decision import critical_rho
from ced.params import ModelParams, progression, weight_b

from contfrac_reference import eval_finite, is_good, psi_bounds, reference_below_witness, reference_km_good
from sqrt_reference import sqrt_enclosure

P211 = ModelParams(2, F(1), F(1))

entry_lists = st.lists(
    st.fractions(min_value=0, max_value=F(3, 2), max_denominator=30), min_size=1, max_size=8
)
worpitzky_lists = st.lists(
    st.fractions(min_value=0, max_value=F(1, 4), max_denominator=30), min_size=1, max_size=10
)


class TestEvalFinite:
    def test_single_entry(self):
        ev = eval_finite([F(1, 6)])
        assert ev.value == F(1, 6) and not ev.is_pole

    def test_pole_from_exact_one(self):
        # t_1 = (1/2)/(1 - 1/2) = 1 poisons level 0
        ev = eval_finite([F(1, 2)] * 3)
        assert ev.is_pole and ev.pole_level == 0
        assert ev.partials[1] == 1 and ev.partials[0] is None

    def test_constant_quarter_increases_to_half(self):
        vals = [eval_finite([F(1, 4)] * n).value for n in range(1, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < F(1, 2) for v in vals)
        assert F(1, 2) - vals[-1] < F(1, 20)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eval_finite([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eval_finite([F(1, 2), F(-1, 3)])

    @given(worpitzky_lists)
    @settings(max_examples=60)
    def test_quarter_disc_never_poles(self, entries):
        # entries <= 1/4 keep every tail value in [0, 1/2]
        ev = eval_finite(entries)
        assert not ev.is_pole
        assert all(0 <= t <= F(1, 2) for t in ev.partials)

    @given(entry_lists, st.data())
    @settings(max_examples=60)
    def test_partials_monotone_in_entries(self, entries, data):
        idx = data.draw(st.integers(0, len(entries) - 1))
        bump = data.draw(st.fractions(min_value=F(1, 30), max_value=1, max_denominator=30))
        before = eval_finite(entries)
        bumped = list(entries)
        bumped[idx] += bump
        after = eval_finite(bumped)
        # compare level by level until either sweep stopped
        for i in range(len(entries) - 1, -1, -1):
            tb, ta = before.partials[i], after.partials[i]
            if ta is None:
                break  # bumped sweep poled: that counts as an increase
            if tb is None:
                # the original poled but the bumped one kept going: impossible
                pytest.fail("pole disappeared after increasing an entry")
            if tb >= 0 and ta >= 0:
                assert ta >= tb


class TestIsGood:
    def test_single_small_entry_good(self):
        assert is_good([F(1, 6) * F(113, 100)]).good

    def test_exact_one_at_top_is_bad_level_zero(self):
        res = is_good([F(1, 2), F(1, 2)])
        assert not res.good and res.bad_level == 0

    def test_all_zero_good(self):
        assert is_good([F(0)] * 5).good

    def test_deep_violation_reported_deepest(self):
        res = is_good([F(1, 10), F(1, 10), F(3, 2)])
        assert not res.good and res.bad_level == 2


class TestPsiBounds:
    def test_endpoints_exact(self):
        b = psi_bounds(F(1, 4))
        assert b.lower == b.upper == 2
        b0 = psi_bounds(F(0))
        assert b0.lower == b0.upper == 1

    def test_eighth(self):
        # psi(1/8) = 4 (1 - sqrt(1/2)) ~ 1.171573
        b = psi_bounds(F(1, 8))
        fine = 4 * (1 - sqrt_enclosure(F(1, 2), F(1, 10**30)).midpoint)
        assert b.lower <= fine <= b.upper
        assert b.upper - b.lower <= F(1, 10**20)

    @given(st.fractions(min_value=0, max_value=F(1, 4), max_denominator=10**4))
    @settings(max_examples=60)
    def test_range_and_width(self, x):
        b = psi_bounds(x)
        assert 1 <= b.lower <= b.upper <= 2
        assert b.upper - b.lower <= F(1, 10**20)

    @given(
        st.fractions(min_value=0, max_value=F(1, 4), max_denominator=10**40),
        st.integers(1, 10**6),
        st.integers(0, 60),
    )
    @settings(max_examples=300, derandomize=True)
    def test_upper_is_monotone_off_rational_squares(self, x, k, e):
        # pairs from far apart down to 10^-60 apart, both sides of 10^-20
        gap = F(k, 10**e)
        for lo, hi in ((x - gap, x), (x, x + gap)):
            if 0 <= lo and hi <= F(1, 4):
                top = psi_bounds(hi)
                if top.lower < top.upper:  # 1 - 4 hi is not the square of a rational
                    assert psi_bounds(lo).upper <= top.upper

    def test_exact_rational_square_is_the_one_exception(self):
        # 1 - 4x = (1/9)^2: psi(x) = 9/5 exactly, and just below x the grid
        # bound lies above it; `decision._exact_closing` guards this case
        x = F(20, 81)
        assert psi_bounds(x).upper == psi_bounds(x).lower == F(9, 5)
        assert psi_bounds(x - F(1, 10**25)).upper > F(9, 5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            psi_bounds(F(3, 10))
        with pytest.raises(ValueError):
            psi_bounds(F(-1, 10))

    @pytest.mark.parametrize("x", [F(1, 8), F(1, 5), F(6, 25)])
    def test_own_continued_fraction_converges_into_bounds(self, x):
        b = psi_bounds(x)
        prev = None
        value = None
        for n in (10, 50, 200):
            value = eval_finite([F(1)] + [x] * n).value
            assert value is not None
            if prev is not None:
                assert value >= prev
            prev = value
        assert value <= b.upper
        assert b.lower - value < F(1, 10**6)


class TestBelowWitness:
    def test_no_death_m1_none_by_strictness(self):
        # tail values are 1/2 and exactly 1: not strictly above 1
        p = ModelParams(2, F(1), F(0))
        assert below_witness(p, 1) is None

    def test_no_death_m2_pole(self):
        p = ModelParams(2, F(1), F(0))
        assert below_witness(p, 2) == 0

    def test_above_threshold_no_witness(self):
        for m in range(1, 9):
            assert below_witness(P211, m) is None

    def test_small_death_rate_witness(self):
        p = ModelParams(2, F(1), F(1, 1000))
        assert below_witness(p, 2) == 0

    def test_m_validation(self):
        with pytest.raises(ValueError):
            below_witness(P211, 0)


class TestKmGood:
    def test_above_threshold_good_at_m1(self):
        assert weight_b(P211, 1) < F(1, 4)
        assert forward_pass(P211, [1]) == (1, False)

    def test_no_death_never_good(self):
        # b_m = 1/2 >= 1/4 for every m: the precondition can never fire
        p = ModelParams(2, F(1), F(0))
        for m in range(1, 12):
            assert forward_pass(p, [m]) != (m, False)

    def test_beyond_extinction_good_quickly(self):
        p = ModelParams(2, F(1), F(2))
        assert any(forward_pass(p, [m]) == (m, False) for m in range(1, 5))

    def test_m_validation(self):
        with pytest.raises(ValueError):
            forward_pass(P211, [0])


class TestForwardPass:
    @pytest.mark.parametrize(
        "p,depths,hit",
        [
            (ModelParams(2, F(1), F(0)), [1], None),  # every b_j = 1/2: F_2 = 0, the tie t_0 = 1
            (ModelParams(2, F(1), F(0)), [1, 2], (2, True)),  # ... is a pole one depth deeper
            (ModelParams(2, F(1), F(0)), [1, 3, 4], (3, True)),  # the first depth past the tie
            (ModelParams(20, F(1), F(1)), [1, 2], (1, True)),  # b_0 = 5/3: F_1 < 0
            (ModelParams(20, F(1), F(1)), [3], (3, True)),
            (ModelParams(2, F(1), F(1)), [1, 2], (1, False)),  # the closing test before any F_j
            (ModelParams(2, F(1), F(1)), [2, 4], (2, False)),
            (ModelParams(26, F(4, 5), F(3)), [1, 2, 4], (2, False)),  # b_0 psi(b_1) = 1 exactly at depth 1
            (ModelParams(2, F(1), F(1, 3)), [1, 2], (2, False)),  # b_1 = 1/4: no closing at depth 1
            (ModelParams(2, F(1), F(1, 8)), [1, 2, 4, 8, 16], (4, True)),
        ],
    )
    def test_first_depth(self, p, depths, hit):
        assert ced.contfrac.forward_pass(p, depths) == hit
        below = [m for m in depths if reference_below_witness(p, m) is not None]
        above = [m for m in depths if reference_km_good(p, m)]
        assert hit == min([(m, True) for m in below[:1]] + [(m, False) for m in above[:1]], default=None)


    @pytest.mark.parametrize(
        "p,m,scale",
        [
            (ModelParams(5, F(9), F(4, 5)), 3, 16),
            (ModelParams(4, F(1), F(8, 13)), 2, 16),
            (ModelParams(8, F(11, 2), F(2)), 4, 32),
        ],
    )
    def test_a_closing_test_the_bounds_straddle_reruns_exactly(self, monkeypatch, p, m, scale):
        # at these scales the bounds on u_{m-2} straddle b_{m-1} Y/Z, and only the exact rerun finds depth m good
        run, scales = ced.contfrac._pass, []
        monkeypatch.setattr(ced.contfrac, "_scale", lambda p: scale)
        monkeypatch.setattr(ced.contfrac, "_pass", lambda *args: scales.append(args[-1]) or run(*args))
        assert (forward_pass(p, [m]) == (m, False)) is reference_km_good(p, m) is True
        assert scales == [scale, 0]


class TestTailMonotonicity:
    def test_partials_nonincreasing_with_decreasing_entries(self):
        # with the tree-weighted entries at (2, 1, 1), shallower tails dominate
        m = 40
        ev = eval_finite([weight_b(P211, j) for j in range(m + 1)])
        assert not ev.is_pole
        for i in range(m):
            assert ev.partials[i] >= ev.partials[i + 1]


def dyadic(bits):
    return st.integers(1, 1 << (bits + 1)).map(lambda n: F(n, 1 << bits))


kernel_ds = st.one_of(st.sampled_from([2, 3, 4, 8, 64]), st.integers(2, 1000))
kernel_lams = st.fractions(min_value=F(1, 300), max_value=30, max_denominator=300)
kernel_rhos = st.one_of(
    dyadic(30),
    dyadic(60),
    dyadic(100),
    st.fractions(min_value=F(1, 1000), max_value=F(1, 4), max_denominator=1000),
    st.just(F(0)),
)


class TestIntegerKernels:
    """The continuant kernels against the Fraction sweeps over weight_b."""

    @given(kernel_ds, kernel_lams, kernel_rhos, st.integers(1, 64))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_match_fraction_reference(self, d, lam, rho, m):
        p = ModelParams(d, lam, rho)
        assert below_witness(p, m) == reference_below_witness(p, m)
        assert (forward_pass(p, [m]) == (m, False)) == reference_km_good(p, m)
        assert exact_kernels(p, m) == (below_witness(p, m), forward_pass(p, [m]) == (m, False))  # the fallback alone, too

    @pytest.mark.parametrize(
        "d,lam", [(2, F(1)), (3, F(5, 2)), (4, F(1, 10)), (8, F(3)), (64, F(1, 191)), (64, F(45, 4))]
    )
    def test_match_at_every_depth_near_the_threshold(self, d, lam):
        # both ends of a 2^-60 bracket sit next to the threshold, where the
        # kernels need their deepest sweeps and the tails come closest to 1
        bracket = critical_rho(d, lam, F(1, 1 << 60))
        for rho in (bracket.lo, bracket.hi, (bracket.lo + bracket.hi) / 2):
            p = ModelParams(d, lam, rho)
            for m in range(1, 65):
                assert below_witness(p, m) == reference_below_witness(p, m)
                assert (forward_pass(p, [m]) == (m, False)) == reference_km_good(p, m)

    def test_exact_tie_b1_is_one(self):
        # (d, lambda, rho) = (20, 1, 1): b_1 = 20/(4*5) = 1, a pole at level 0
        p = ModelParams(20, F(1), F(1))
        assert weight_b(p, 1) == 1
        assert below_witness(p, 1) == 0 == reference_below_witness(p, 1)

    def test_exact_tie_top_value_is_one(self):
        # (6, 2, 1): t_1 = b_1 = 2/5 and t_0 = (3/5)/(3/5) = 1, not above 1
        p = ModelParams(6, F(2), F(1))
        assert eval_finite([weight_b(p, 0), weight_b(p, 1)]).value == 1
        assert below_witness(p, 1) is None
        assert reference_below_witness(p, 1) is None

    def test_exact_tie_in_the_flattened_fraction(self):
        # (26, 4/5, 3): 1 - 4 b_1 = (2 b_0 - 1)^2, so psi(b_1) is exact and
        # b_0 psi(b_1) = 1 exactly, which is not good
        p = ModelParams(26, F(4, 5), F(3))
        psi = psi_bounds(weight_b(p, 1))
        assert psi.lower == psi.upper and weight_b(p, 0) * psi.upper == 1
        assert (forward_pass(p, [1]) == (1, False)) is reference_km_good(p, 1) is False

    @pytest.mark.parametrize("m", range(1, 12))
    def test_exact_ties_without_death(self, m):
        # rho = 0, d = 2, lambda = 1: every b_j = 1/2, so tails hit exactly 1
        p = ModelParams(2, F(1), F(0))
        assert below_witness(p, m) == reference_below_witness(p, m)

    @given(kernel_ds, kernel_lams, kernel_rhos, st.integers(1, 64))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_integer_closing_factor_is_psi_bounds_upper(self, d, lam, rho, m):
        # the precondition 4 alpha < G_{m+1} G_{m+2} is b_m < 1/4, and past it
        # the unreduced Y/Z is the very rational psi_bounds returns
        p = ModelParams(d, lam, rho)
        alpha = p.d * p.lam.numerator * p.lam.denominator * p.rho.denominator**2  # d a b e^2
        g = progression(p, m + 2)
        b_m = weight_b(p, m)
        assert F(alpha, g[m + 1] * g[m + 2]) == b_m
        assert (4 * alpha < g[m + 1] * g[m + 2]) == (b_m < F(1, 4))
        if b_m < F(1, 4):
            y, z = _psi_upper(alpha, g[m + 1] * g[m + 2])
            assert z > 0 and F(y, z) == psi_bounds(b_m).upper

    def test_exact_tie_b_m_is_a_quarter(self):
        # (2, 1, 1/3): b_1 = 18/(8*9) = 1/4 exactly, which fails b_m < 1/4
        p = ModelParams(2, F(1), F(1, 3))
        assert weight_b(p, 1) == F(1, 4)
        assert (forward_pass(p, [1]) == (1, False)) is reference_km_good(p, 1) is False


@st.composite
def near_threshold(draw):
    """(p, m): rho at or between the ends of a bracket of rho_c, lambda interior or near a window edge."""
    d = draw(st.one_of(st.sampled_from([2, 3, 4, 8, 64]), st.integers(2, 1000)))
    root = math.sqrt(d * d - d)
    lower, upper = 2 * d - 1 - 2 * root, 2 * d - 1 + 2 * root
    eps = draw(st.floats(0.03, 0.5))
    where = draw(st.sampled_from(["lower", "interior", "upper"]))
    x = {"lower": lower * (1 + eps), "interior": lower + (upper - lower) * eps, "upper": upper * (1 - eps)}[where]
    lam = F(x).limit_denominator(10**6)
    bracket = critical_rho(d, lam, F(1, 2 ** draw(st.integers(8, 100))))
    rho = bracket.lo + (bracket.hi - bracket.lo) * F(draw(st.integers(0, 4)), 4)
    return ModelParams(d, lam, rho), draw(st.integers(1, 300))


def exact_kernels(p, m):
    """Both kernels' answers from their exact runs alone: `_pass` at scale 0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ced.contfrac, "_scale", lambda p: 0)
        return below_witness(p, m), forward_pass(p, [m]) == (m, False)


class TestBoundSweeps:
    """The bound runs with the exact fallback against the exact runs alone."""

    @given(near_threshold())
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_match_the_exact_sweep(self, case):
        p, m = case
        assert (below_witness(p, m), forward_pass(p, [m]) == (m, False)) == exact_kernels(p, m)

    @pytest.mark.parametrize("scale", [1, 16])
    def test_match_the_exact_sweep_at_a_tiny_scale(self, scale):
        # at scale 1 every tail's bounds straddle 1 from the start, so every
        # below_witness call falls back to the exact run; at 16 the bounds
        # give out partway.  The forward pass at one depth reruns exactly at some depths
        run, fell_back, reran = ced.contfrac._pass, [], []

        @given(near_threshold())
        @settings(max_examples=60, derandomize=True, deadline=None, database=None)
        def check(case):
            p, m = case
            expected, exact = exact_kernels(p, m), []

            def recorded(*args):  # scale 0 is an exact run, and one with no closing depths below_witness's
                if not args[-1]:
                    exact.append(not args[-2])
                return run(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ced.contfrac, "_scale", lambda p: scale)
                mp.setattr(ced.contfrac, "_pass", recorded)
                assert (below_witness(p, m), forward_pass(p, [m]) == (m, False)) == expected
            fell_back.append(True in exact)
            reran.append(False in exact)

        check()
        assert all(fell_back) if scale == 1 else any(fell_back)
        assert any(reran)
