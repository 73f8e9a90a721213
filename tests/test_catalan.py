import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ced.catalan
from ced.catalan import (
    EXACT_TABLE_BYTES,
    MODE_CAPPED,
    MODE_EXACT,
    MODE_FLATTENED,
    ResourceBudgetError,
    _dyck_step_profiles,
    _pair_terms,
    check_table_size,
    partial_series,
    step_weights,
    weighted_catalan,
    weighted_catalan_bruteforce,
    weighted_catalan_floats,
    weighted_catalan_sequence,
)
from ced.params import ModelParams, integers, progression, weight_b

from catalan_reference import height_dp, quadratic_recurrence
from sqrt_reference import sqrt_enclosure

P211 = ModelParams(2, F(1), F(1))

small_rationals = st.fractions(min_value=F(1, 16), max_value=8, max_denominator=16)


def plain_catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def rise(p, j):
    """u(j), the weight of a rise from height j, from the definition."""
    return p.lam / (1 + p.lam + (j + 1) * p.rho)


def fall(p, j):
    """v(j), the weight of a fall ending at height j, from the definition."""
    return 1 / (1 + p.lam + (j + 2) * p.rho)


class TestWeightTable:
    def test_exact_uv_product(self):
        u, v = step_weights(P211, 5)
        for j in range(6):
            assert u[j] * v[j] == weight_b(P211, j) / P211.d

    def test_capped_zeroes_above_m(self):
        u, v = step_weights(P211, 6, MODE_CAPPED, m=2)
        assert u[2] == rise(P211, 2) and v[2] == fall(P211, 2)
        assert u[3] == 0 and v[3] == 0 and u[6] == 0

    def test_flattened_freezes_at_m(self):
        u, v = step_weights(P211, 6, MODE_FLATTENED, m=2)
        assert u[1] == rise(P211, 1)
        assert u[2] == u[5] == rise(P211, 2)
        assert v[3] == fall(P211, 2)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            step_weights(P211, 4, "nope")
        with pytest.raises(ValueError):
            step_weights(P211, 4, MODE_CAPPED)  # missing m
        with pytest.raises(ValueError):
            step_weights(P211, 4, MODE_CAPPED, m=0)
        with pytest.raises(ValueError):
            step_weights(P211, 4, MODE_EXACT, m=3)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError, match="height"):
            step_weights(P211, -1)


class TestWeightedCatalan:
    def test_k0_is_one(self):
        for p in (P211, ModelParams(3, F(5, 2), F(0))):
            assert weighted_catalan(p, 0).value == 1

    def test_single_path(self):
        assert weighted_catalan(P211, 1).value == F(1, 12)

    def test_two_paths_hand_sum(self):
        # UDUD contributes a0^2, UUDD contributes a0*a1
        a0, a1 = weight_b(P211, 0) / P211.d, weight_b(P211, 1) / P211.d
        assert weighted_catalan(P211, 2).value == a0 * a0 + a0 * a1 == F(1, 90)

    @pytest.mark.parametrize("lam", [F(1, 2), F(1), F(3)])
    def test_no_death_closed_form(self, lam):
        p = ModelParams(2, lam, F(0))
        base = lam / (1 + lam) ** 2
        seq = weighted_catalan_sequence(p, 12)
        for k in range(13):
            assert seq[k] == plain_catalan(k) * base**k

    def test_alternating_path_lower_bound(self):
        a0 = weight_b(P211, 0) / P211.d
        for k in range(1, 14):
            assert weighted_catalan(P211, k).value >= a0**k

    def test_upper_bound_by_plain_catalan(self):
        a0 = weight_b(P211, 0) / P211.d
        for k in range(1, 14):
            assert weighted_catalan(P211, k).value <= plain_catalan(k) * a0**k

    @given(lam=small_rationals, rho=small_rationals, rho2=small_rationals, k=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_strictly_decreasing_in_rho(self, lam, rho, rho2, k):
        lo, hi = sorted([rho, rho2])
        if lo == hi:
            return
        c_lo = weighted_catalan(ModelParams(2, lam, lo), k).value
        c_hi = weighted_catalan(ModelParams(2, lam, hi), k).value
        assert c_hi < c_lo

    def test_small_rho_growth_direction(self):
        # near rho = 0 the per-step base stays close to the no-death value
        # 4 lam/(1+lam)^2; at k = 50 the root already clears 3.5/4 * 0.99
        p = ModelParams(2, F(1), F(1, 10000))
        k = 50
        c = weighted_catalan(p, k).value
        assert float(c) ** (1.0 / k) > (4 - 0.5) * 0.25 * (1 - 1e-2)


class TestSandwich:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_capped_below_exact_below_flattened(self, m):
        for k in range(0, 9):
            exact = weighted_catalan(P211, k).value
            capped = weighted_catalan(P211, k, MODE_CAPPED, m).value
            flat = weighted_catalan(P211, k, MODE_FLATTENED, m).value
            assert capped <= exact <= flat
            if k <= m:
                assert capped == exact


class TestBruteForce:
    def test_matches_dp_small_grid(self):
        rng = random.Random(42)
        for _ in range(6):
            lam = F(rng.randint(1, 12), rng.randint(1, 12))
            rho = F(rng.randint(0, 12), rng.randint(1, 12))
            p = ModelParams(2, lam, rho)
            for k in range(0, 8):
                assert weighted_catalan_bruteforce(p, k).value == weighted_catalan(p, k).value

    def test_no_death_k4(self):
        p = ModelParams(2, F(1), F(0))
        assert weighted_catalan_bruteforce(p, 4).value == F(14, 256)

    def test_step_convention_on_height_three_path(self):
        # rises taken at heights 0,0,1,2,2 and falls ending at 0,2,2,1,0
        # multiply to u0^2 v0^2 u1 v1 u2^2 v2^2
        heights = [0, 1, 0, 1, 2, 3, 2, 3, 2, 1, 0]
        w = F(1)
        for a, b in zip(heights, heights[1:]):
            w *= rise(P211, a) if b > a else fall(P211, b)
        u = [rise(P211, j) for j in range(3)]
        v = [fall(P211, j) for j in range(3)]
        assert w == u[0] ** 2 * v[0] ** 2 * u[1] * v[1] * u[2] ** 2 * v[2] ** 2
        # and the full k=5 sum dominates this single path
        assert weighted_catalan_bruteforce(P211, 5).value > w

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            weighted_catalan_bruteforce(P211, 13)

    @pytest.mark.parametrize("table", [weighted_catalan_sequence, weighted_catalan, weighted_catalan_bruteforce])
    def test_negative_k_rejected(self, table):
        with pytest.raises(ValueError, match="must be nonnegative"):
            table(P211, -1)

    def test_step_profiles_group_every_path(self):
        # matched rise/fall pairs make e[2j] = e[2j+1], so a group is a
        # composition of k: 2^(k-1) of them
        for k in range(13):
            groups = _dyck_step_profiles(k)
            assert len(groups) == (2 ** (k - 1) if k else 1)
            assert sum(n for _, n in groups) == plain_catalan(k)
            for e, _ in groups:
                assert len(e) == 2 * k and e[::2] == e[1::2]

    def test_oracle_keeps_no_path_list(self):
        # a cached tuple of all 208012 paths at k = 12 peaked at 50 MiB;
        # the walk keeps only the 2048 groups
        _dyck_step_profiles.cache_clear()
        tracemalloc.start()
        try:
            weighted_catalan_bruteforce(ModelParams(2, 1, 1), 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestPartialSeries:
    def test_k0(self):
        assert partial_series(P211, F(7, 3), 0) == 1

    def test_monotone_in_truncation(self):
        vals = [partial_series(P211, F(2), K) for K in range(8)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_no_death_limit_from_below(self):
        # at lam=1, rho=0 the series at z=1/8 is sum C_k (1/32)^k, i.e. the
        # plain Catalan generating function at 1/32: 16 (1 - sqrt(7/8))
        p = ModelParams(2, F(1), F(0))
        root = sqrt_enclosure(F(14), F(1, 10**25))
        limit_below, limit_above = 16 - 4 * root.hi, 16 - 4 * root.lo
        s40 = partial_series(p, F(1, 8), 40)
        s60 = partial_series(p, F(1, 8), 60)
        assert s40 < s60
        assert limit_below < s60 < limit_above
        assert limit_above - s60 < F(1, 10**20)

    def test_mode_ordering_termwise(self):
        z = F(3, 2)
        for K in range(6):
            capped = partial_series(P211, z, K, MODE_CAPPED, 2)
            exact = partial_series(P211, z, K)
            flat = partial_series(P211, z, K, MODE_FLATTENED, 2)
            assert capped <= exact <= flat

    # K + 1 terms: odd, even and power-of-two counts for the pairwise merge
    @given(
        lam=small_rationals,
        num=st.integers(1, 2**30 - 1),
        z=st.fractions(min_value=0, max_value=16, max_denominator=1000),
        K=st.sampled_from([0, 1, 2, 3, 7, 8, 15, 16, 63, 64, 65, 110]),
        mode=st.sampled_from([MODE_EXACT, MODE_CAPPED, MODE_FLATTENED]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_merge_equals_the_sum_of_the_terms(self, lam, num, z, K, mode, data):
        m = None if mode == MODE_EXACT else data.draw(st.integers(1, K + 2))
        p = ModelParams(2, lam, F(num, 2**30))
        seq = weighted_catalan_sequence(p, K, mode, m)
        assert partial_series(p, z, K, mode, m) == sum(c * z**k for k, c in enumerate(seq))

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            partial_series(P211, F(-1), 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="K must be nonnegative"):
            partial_series(P211, F(1), -1)


# rho = 0 (closed form), small rho, dyadic rho as in the bisection brackets,
# and large odd denominators, whose G_i share few factors
recurrence_rhos = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=F(1, 10**6), max_value=F(1, 100), max_denominator=10**6),
    st.integers(1, 2**31).map(lambda n: F(n, 2**30)),
    st.integers(1, 2**37).map(lambda n: F(n, 2**36)),
    st.tuples(st.integers(1, 10**12), st.integers(10**9, 10**12)).map(lambda t: F(t[0], 2 * t[1] + 1)),
)


# short and 2^30 denominators and rho = 0; with b and e both even, the G_i share a content g >= 2
lemma_lams = st.one_of(small_rationals, st.integers(1, 2**33).map(lambda n: F(n, 2**30)))
lemma_rhos = st.one_of(st.just(F(0)), small_rationals, st.integers(1, 2**31).map(lambda n: F(n, 2**30)))


class TestExactRecurrence:
    @given(
        lam=st.fractions(min_value=F(1, 64), max_value=64, max_denominator=64),
        rho=recurrence_rhos,
        K=st.integers(0, 40),
        k=st.integers(0, 40),
        z=st.fractions(min_value=0, max_value=16, max_denominator=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_height_dp(self, lam, rho, K, k, z):
        p = ModelParams(2, lam, rho)
        seq = weighted_catalan_sequence(p, K)
        assert seq == height_dp(p, K)
        assert partial_series(p, z, K) == sum(c * z**i for i, c in enumerate(seq))
        k = min(k, K)
        assert weighted_catalan(p, k).value == seq[k]

    @pytest.mark.parametrize(
        "lam,rho",
        [(F(1), F(1)), (F(3, 2), F(2, 3)), (F(5, 7), F(0)), (F(1), F(12360736211, 2**36)), (F(7), F(9, 1000001))],
    )
    def test_progression_reproduces_weights(self, lam, rho):
        # u(j) = ae/G_{j+1}, v(j) = be/G_{j+2} and b_j = d a b e^2 / (G_{j+1} G_{j+2})
        # with lambda = a/b, rho = c/e
        p = ModelParams(2, lam, rho)
        a, b, e = lam.numerator, lam.denominator, rho.denominator
        g = progression(p, 22)
        alpha, g0, step = integers(p)
        assert alpha == 2 * a * b * e * e and g == [g0 + i * step for i in range(23)]
        for j in range(21):
            assert F(a * e, g[j + 1]) == rise(p, j)
            assert F(b * e, g[j + 2]) == fall(p, j)
            assert F(2 * a * b * e * e, g[j + 1] * g[j + 2]) == weight_b(p, j) == F(alpha, g[j + 1] * g[j + 2])

    @given(lam=lemma_lams, rho=lemma_rhos, K=st.integers(0, 40))
    @example(lam=F(5, 2), rho=F(300000001, 2**30), K=40)  # g = 14
    @example(lam=F(7, 3), rho=F(5, 11), K=40)  # g = 5
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_quadratic_recurrence(self, lam, rho, K):
        p = ModelParams(2, lam, rho)
        assert weighted_catalan_sequence(p, K) == quadratic_recurrence(p, K)

    @given(
        lam=lemma_lams,
        rho=lemma_rhos,
        K=st.integers(0, 40),
        z=st.one_of(st.fractions(min_value=0, max_value=16, max_denominator=1000),
                    st.integers(0, 2**34).map(lambda n: F(n, 2**30))),
    )
    @example(lam=F(5, 2), rho=F(300000001, 2**30), K=40, z=F(3))  # g = 14
    @example(lam=F(7, 3), rho=F(5, 11), K=40, z=F(2, 3))  # g = 5
    @example(lam=F(1, 3), rho=F(1), K=6, z=F(1))  # lead^K does not divide the series' numerator
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_lead_of_the_lemma(self, lam, rho, K, z):
        # D_k gamma_k = (-bc/g)^k Z_k, so lead^k D_K / D_k divides W_k = gamma_k D_K; the
        # sequence, one C_k and the series divide it out before reducing, and must stay exact
        p = ModelParams(2, lam, rho)
        b, c = lam.denominator, rho.numerator
        t = ced.catalan._exact_terms(p, K)
        assert t.lead == (-(b * c // math.gcd(*progression(p, K + 1))) if c else 1)
        _, g0, bc = integers(p)
        assert t.lead == (-(bc // math.gcd(g0, bc)) if bc else 1)
        d_k = 1
        for k, (w_k, step) in enumerate(zip(t.w, t.steps)):
            d_k *= step
            assert w_k % (t.lead**k * (t.w[0] // d_k)) == 0
        reference = quadratic_recurrence(p, K)
        assert weighted_catalan(p, K).value == reference[K]
        assert partial_series(p, z, K) == sum(c_k * z**k for k, c_k in enumerate(reference))

    @pytest.mark.parametrize(
        "lam,rho,K,g",
        [
            (F(1), F(1, 3), 30, 1),
            (F(3, 2), F(8, 9), 180, 1),
            (F(5, 2), F(80000003, 2**30), 120, 2),
            (F(5, 2), F(300000001, 2**30), 40, 14),
            (F(7, 3), F(5, 11), 40, 5),
        ],
    )
    def test_d_k_and_r_of_the_lemma(self, lam, rho, K, g):
        # D_K = H_1^K prod_{l=2..K+1} H_l^floor((K+1)/l) with H_l = G_l / g, g the gcd of the G_l,
        # and C_k = W_k r^k / D_K with r = -ae^2 / (cg)
        p = ModelParams(2, lam, rho)
        G = progression(p, K + 1)
        assert math.gcd(*G) == g
        h = [g_l // g for g_l in G]
        t = ced.catalan._exact_terms(p, K)
        assert t.w[0] == h[1] ** K * math.prod(h[l] ** ((K + 1) // l) for l in range(2, K + 2))
        assert (t.r_num, t.r_den) == (-lam.numerator * rho.denominator**2, rho.numerator * g)

    @given(lam=lemma_lams, rho=lemma_rhos, K=st.integers(1, 120))
    @example(lam=F(1, 10**48), rho=F(1), K=60)
    @example(lam=F(5, 2), rho=F(300000001, 2**30), K=120)  # g = 14
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_table_size_bounds_d_k(self, lam, rho, K):
        # the budget's bound on bits(D_K) holds for the D_K = w[0] that the recurrence runs on;
        # at rho = 0 it bounds the numerator and the denominator of each closed-form C_k
        p = ModelParams(2, lam, rho)
        bound = check_table_size(p, K)
        if rho:
            assert bound >= ced.catalan._exact_terms(p, K).w[0].bit_length()
        else:
            for c in weighted_catalan_sequence(p, K):
                assert bound >= max(c.numerator.bit_length(), c.denominator.bit_length())

    @pytest.mark.parametrize("lam,rho", [(F(1, 10**4299), F(1)), (F(1), F(10**4299 + 1, 10**4299))])
    def test_table_past_the_budget_raises_before_it_starts(self, monkeypatch, lam, rho):
        # 801 integers of the bound's 78 386 431 bits: about 7.5 GiB
        monkeypatch.setattr(ced.catalan, "_denominator_steps", None)  # never reached
        p = ModelParams(2, lam, rho)
        for call in (weighted_catalan_sequence, weighted_catalan_floats, lambda p, K: partial_series(p, 2, K)):
            with pytest.raises(ResourceBudgetError, match=f"K = 800 may need 7484 MiB, over the {EXACT_TABLE_BYTES >> 20}"):
                call(p, 800)

    def test_wrong_denominator_raises(self, monkeypatch):
        # drop the one factor G_{K+1} from D_K: the first term of the
        # recurrence at k = K is no longer an integer (G_11 = 17 is prime)
        real = ced.catalan._denominator_steps

        def short(g, k_max):
            steps = real(g, k_max)
            steps[-1] //= g[k_max + 1]
            return steps

        monkeypatch.setattr(ced.catalan, "_denominator_steps", short)
        p = ModelParams(2, F(1), F(1, 3))
        for call in (weighted_catalan_sequence, weighted_catalan, lambda p, K: partial_series(p, 2, K)):
            with pytest.raises(ArithmeticError, match="remainder"):
                call(p, 10)

    @pytest.mark.parametrize("K", [0, 1, 2, 10, 40])
    def test_one_exact_division_per_term(self, monkeypatch, K):
        calls = []
        real = ced.catalan._exact_div

        def counted(n, d):
            calls.append(d)
            return real(n, d)

        monkeypatch.setattr(ced.catalan, "_exact_div", counted)
        ced.catalan._exact_terms(ModelParams(2, F(3, 2), F(300000001, 2**30)), K)
        assert len(calls) == K


def float_column(p, K, scale):
    """float(scale^k C_k) of the exact values for k <= K, inf where that overflows."""
    out = []
    for k, c in enumerate(weighted_catalan_sequence(p, K)):
        try:
            out.append(float(scale**k * c))
        except OverflowError:
            out.append(math.inf)
    return out


class TestFloatColumns:
    # rates with short and with 30-bit denominators, and rho = 0 (the closed form)
    @given(
        d=st.sampled_from([2, 3, 64]),
        lam=st.one_of(small_rationals, st.integers(1, 2**33).map(lambda n: F(n, 2**30 - 35))),
        rho=st.one_of(st.just(F(0)), small_rationals, st.integers(1, 2**33).map(lambda n: F(n, 2**30 + 3))),
        K=st.integers(0, 60),
        scaled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equal_float_of_the_exact_value(self, d, lam, rho, K, scaled):
        scale = d if scaled else 1
        p = ModelParams(d, lam, rho)
        assert weighted_catalan_floats(p, K, scale) == float_column(p, K, scale)

    @pytest.mark.parametrize(
        "p,K,scale,first",
        [
            (ModelParams(64, F(1, 4), F(0)), 200, 64, math.inf),  # (64 * 16/25)^k passes 2^1024 at k = 194
            (ModelParams(2, F(1, 10**6), F(0)), 60, 1, 0.0),  # subnormal at k = 57 .. 59
        ],
    )
    def test_past_the_float_range(self, p, K, scale, first):
        floats = weighted_catalan_floats(p, K, scale)
        assert floats == float_column(p, K, scale) and floats[-1] == first

    def test_negative_k_max_rejected(self):
        with pytest.raises(ValueError):
            weighted_catalan_floats(P211, -1)


class TestModifiedModes:
    # m >= K - 1 takes the exact recurrence, smaller m the pair-weight DP
    @given(
        lam=st.fractions(min_value=F(1, 64), max_value=64, max_denominator=64),
        rho=recurrence_rhos,
        K=st.integers(0, 40),
        mode=st.sampled_from([MODE_CAPPED, MODE_FLATTENED]),
        z=st.fractions(min_value=0, max_value=16, max_denominator=1000),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_height_dp(self, lam, rho, K, mode, z, data):
        m = data.draw(st.integers(1, K + 3))
        p = ModelParams(2, lam, rho)
        ref = height_dp(p, K, mode, m)
        assert weighted_catalan_sequence(p, K, mode, m) == ref
        assert partial_series(p, z, K, mode, m) == sum(c * z**i for i, c in enumerate(ref))
        k = data.draw(st.integers(0, K))
        assert weighted_catalan(p, k, mode, m).value == ref[k]

    @pytest.mark.parametrize("mode", [MODE_CAPPED, MODE_FLATTENED])
    def test_either_side_of_the_exact_identity(self, mode):
        # m = K - 1 is the least cutoff equal to exact up to K; at m = K - 2 C_K differs
        p = ModelParams(2, F(3, 2), F(2, 3))
        for K in range(3, 12):
            exact = weighted_catalan_sequence(p, K)
            for m in (K - 2, K - 1):
                seq = weighted_catalan_sequence(p, K, mode, m)
                assert seq == height_dp(p, K, mode, m)
                assert (seq == exact) == (m == K - 1)

    @pytest.mark.parametrize("rho", [F(7, 5), F(12360736211, 2**36)])
    @pytest.mark.parametrize("m", [8, 45])
    def test_common_denominator_stays_near_the_reduced_size(self, rho, m):
        # growing D by lcm(beta_0..beta_m) each step would give 4 to 18 times the reduced size here
        p = ModelParams(2, F(1), rho)
        for capped, mode in ((True, MODE_CAPPED), (False, MODE_FLATTENED)):
            d_top = _pair_terms(p, 60, capped, m).w[0]
            reduced = max(c.denominator.bit_length() for c in weighted_catalan_sequence(p, 60, mode, m))
            assert d_top.bit_length() < 1.25 * reduced

    @given(
        lam=lemma_lams,
        rho=recurrence_rhos,
        K=st.integers(0, 40),
        mode=st.sampled_from([MODE_EXACT, MODE_CAPPED, MODE_FLATTENED]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_d_free_and_within_the_pair_bound(self, lam, rho, K, mode, data):
        # u(j) and v(j) carry no d, so neither does C_k; the pair DP's integers stay within the gate's bound
        m = None if mode == MODE_EXACT else data.draw(st.integers(1, max(K - 2, 1)))  # the pair DP where K >= 3
        tables = [weighted_catalan_sequence(ModelParams(d, lam, rho), K, mode, m) for d in (2, 3, 64)]
        assert tables[0] == tables[1] == tables[2]
        if m is not None and m < K - 1:
            p = ModelParams(2, lam, rho)
            assert max(w.bit_length() for w in _pair_terms(p, K, mode == MODE_CAPPED, m).w) <= check_table_size(p, K, m)

    @pytest.mark.parametrize("mode,m", [(MODE_CAPPED, 1), (MODE_FLATTENED, 2), (MODE_FLATTENED, 700)])
    def test_pair_table_past_the_budget_raises_before_it_starts(self, monkeypatch, mode, m):
        # 801 integers of 1600 + 1600 bits(beta_0) bits pass the budget before the lcm goes on
        monkeypatch.setattr(ced.catalan, "_pair_step", None)  # never reached
        p = ModelParams(2, F(1, 10**4000), F(1))
        for call in (weighted_catalan_sequence, weighted_catalan, lambda p, K, *mode: partial_series(p, 2, K, *mode)):
            with pytest.raises(ResourceBudgetError, match=f"cut at m = {m} to K = 800 may need 4060 MiB, over the 256"):
                call(p, 800, mode, m)

    def test_huge_cutoff_is_the_exact_path(self):
        # capped(m) = flattened(m) = exact for k <= m + 1, and nothing is built per height
        p = ModelParams(2, F(1), F(1, 3))
        exact = weighted_catalan_sequence(p, 30)
        for mode in (MODE_CAPPED, MODE_FLATTENED):
            assert weighted_catalan_sequence(p, 30, mode, 10**18) == exact
