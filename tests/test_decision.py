import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ced.certcheck
import ced.contfrac
import ced.decision
import ced.params
from ced.contfrac import below_witness, forward_pass
from ced.decision import (
    BracketError,
    CriticalBracket,
    DecisionOutcome,
    KernelAbove,
    KernelBelow,
    OutsideWindowAbove,
    OutsideWindowError,
    Phase,
    Verdict,
    ZeroRhoBelow,
    classify_phase,
    critical_rho,
    decide,
    rho_c_curve,
    verify_certificate,
)
from ced.params import ModelParams, WindowPosition, growth_bounds, weight_b, window_position

from contfrac_reference import psi_bounds, reference_below_witness, reference_km_good

TOL10 = F(1, 2**10)


class TestDecide:
    def test_above_at_unit_rates(self):
        out = decide(ModelParams(2, F(1), F(1)))
        assert out.verdict is Verdict.ABOVE
        assert out.certificate == KernelAbove(m=1)

    def test_below_at_zero_rho(self):
        out = decide(ModelParams(2, F(1), F(0)))
        assert out.verdict is Verdict.BELOW
        assert isinstance(out.certificate, ZeroRhoBelow)

    def test_above_outside_window(self):
        out = decide(ModelParams(2, F(1, 10), F(1, 100)))
        assert out.verdict is Verdict.ABOVE
        assert out.certificate == OutsideWindowAbove(side="left")
        out_r = decide(ModelParams(2, F(6), F(1)))
        assert out_r.certificate == OutsideWindowAbove(side="right")

    def test_below_small_death_rate(self):
        out = decide(ModelParams(2, F(1), F(1, 1000)))
        assert out.verdict is Verdict.BELOW
        assert isinstance(out.certificate, KernelBelow)

    def test_zero_rho_outside_window_is_the_boundary(self):
        out = decide(ModelParams(2, F(1, 10), F(0)))
        assert out.verdict is Verdict.UNDECIDED

    def test_near_threshold_capped_depth_undecided(self):
        from dataclasses import replace

        p = ModelParams(2, F(1), F(1475, 8192))
        out = decide(p, m_max=2)
        assert out.verdict is Verdict.UNDECIDED
        assert out.m_reached == 2
        # an Undecided outcome verifies vacuously without a certificate, never with one
        assert verify_certificate(p, out)
        assert not verify_certificate(p, replace(out, certificate=KernelAbove(m=2)))

    def test_sweeps_evaluate_no_fraction_continued_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a decision sweep fell back to the Fraction path")

        monkeypatch.setattr(ced.params, "weight_b", refuse)
        monkeypatch.setattr(ced.decision, "weight_b", refuse)
        # the two ends of the d = 2, lambda = 1 bracket at tol 2^-100, both at m = 32
        lo = F(122508967356535403325824145659176155565, 1 << 129)
        hi = F(15313620919566925415728018207434704617, 1 << 126)
        assert decide(ModelParams(2, F(1), lo)).certificate == KernelBelow(m=32, level=0)
        assert decide(ModelParams(2, F(1), hi)).certificate == KernelAbove(m=32)

    def test_certificates_reverify(self):
        cases = [
            ModelParams(2, F(1), F(1)),
            ModelParams(2, F(1), F(0)),
            ModelParams(2, F(1, 10), F(1, 100)),
            ModelParams(2, F(1), F(1, 1000)),
        ]
        for p in cases:
            out = decide(p)
            assert verify_certificate(p, out)

    def test_above_recheck_does_not_call_the_forward_pass(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the KernelAbove re-check called the kernel that found it")

        p = ModelParams(2, F(1), F(15313620919566925415728018207434704617, 1 << 126))
        out = decide(p)
        assert out.certificate == KernelAbove(m=32)
        for module, name in ((ced.contfrac, "forward_pass"), (ced.decision, "forward_pass")):
            monkeypatch.setattr(module, name, refuse)
        assert verify_certificate(p, out)

    def test_above_certificate_whose_fraction_is_not_good_fails(self):
        # rho = 1/8 is below rho_c(2, 1) ~ 0.18, yet b_8 = 64/325 < 1/4, so the
        # re-check gets past the precondition and must reject on goodness
        p = ModelParams(2, F(1), F(1, 8))
        assert weight_b(p, 8) < F(1, 4) and forward_pass(p, [8]) != (8, False)
        out = DecisionOutcome(Verdict.ABOVE, KernelAbove(m=8), 8)
        assert not verify_certificate(p, out)

    def test_above_recheck_closes_with_psi_upper_bound(self, monkeypatch):
        # (500, 1, 20): b_0 = 125/231 and b_1 = 125/651 < 1/4, so K[b_0 psi(b_1)]
        # is good (about 0.70); with the closing bound y widened to 2, which
        # still bounds psi(b_1), b_0 y = 250/231 reaches 1
        p = ModelParams(500, F(1), F(20))
        out = DecisionOutcome(Verdict.ABOVE, KernelAbove(m=1), 1)
        assert verify_certificate(p, out)
        monkeypatch.setattr(ced.certcheck, "closing_bound", lambda num, den: (2, 1))
        assert not verify_certificate(p, out)

    def test_tampered_certificate_fails(self):
        p = ModelParams(2, F(1), F(1, 1000))
        out = decide(p)
        assert isinstance(out.certificate, KernelBelow)
        from dataclasses import replace

        bad = replace(out, certificate=KernelAbove(m=out.certificate.m))
        assert not verify_certificate(p, bad)

    @pytest.mark.parametrize(
        "lam,rho,kind",
        [
            (F(1), F(1, 1000), KernelBelow),
            (F(1), F(1), KernelAbove),
            (F(1, 10), F(1, 100), OutsideWindowAbove),
            (F(1), F(0), ZeroRhoBelow),
        ],
        ids=["KernelBelow", "KernelAbove", "OutsideWindowAbove", "ZeroRhoBelow"],
    )
    def test_certificate_under_the_other_verdict_fails(self, lam, rho, kind):
        from dataclasses import replace

        p = ModelParams(2, lam, rho)
        out = decide(p)
        assert isinstance(out.certificate, kind) and verify_certificate(p, out)
        other = Verdict.ABOVE if out.verdict is Verdict.BELOW else Verdict.BELOW
        assert not verify_certificate(p, replace(out, verdict=other))

    @pytest.mark.parametrize(
        "lam,rho,verdict,cert",
        [
            (F(6), F(1), Verdict.ABOVE, OutsideWindowAbove("left")),  # lambda = 6 lies right of the window
            (F(6), F(0), Verdict.ABOVE, OutsideWindowAbove("right")),  # the right side, but rho = 0
            (F(1), F(1, 3), Verdict.BELOW, ZeroRhoBelow()),
            (F(6), F(0), Verdict.BELOW, ZeroRhoBelow()),  # rho = 0, but lambda outside the window
            (F(1), F(1), Verdict.UNDECIDED, KernelAbove(1)),
            (F(1), F(1, 1000), Verdict.BELOW, None),
            (F(1), F(1), Verdict.ABOVE, None),
        ],
        ids=["wrong-side", "outside-at-zero-rho", "zero-rho-at-positive-rho", "zero-rho-outside",
             "certificate-under-undecided", "below-without-certificate", "above-without-certificate"],
    )
    def test_certificate_that_does_not_hold_fails(self, lam, rho, verdict, cert):
        assert not verify_certificate(ModelParams(2, lam, rho), DecisionOutcome(verdict, cert, 0))

    def test_kernels_mutually_exclusive_at_certificate_depth(self):
        grid = [
            ModelParams(2, F(1), F(1)),
            ModelParams(2, F(1), F(1, 1000)),
            ModelParams(2, F(3, 2), F(1, 4)),
            ModelParams(3, F(1), F(1, 2)),
        ]
        for p in grid:
            out = decide(p)
            if not isinstance(out.certificate, (KernelBelow, KernelAbove)):
                continue
            m = out.certificate.m
            below = below_witness(p, m) is not None
            above = weight_b(p, m) < F(1, 4) and forward_pass(p, [m]) == (m, False)
            assert not (below and above)

    def test_monotone_consistency_quick(self):
        rng = random.Random(7)
        for _ in range(25):
            r1 = F(rng.randint(1, 400), 512)
            r2 = F(rng.randint(1, 400), 512)
            if r1 == r2:
                continue
            r1, r2 = sorted([r1, r2])
            v1 = decide(ModelParams(2, F(1), r1), m_max=64).verdict
            v2 = decide(ModelParams(2, F(1), r2), m_max=64).verdict
            assert not (v1 is Verdict.ABOVE and v2 is Verdict.BELOW)


def reference_decide(p, m_max):
    """`decide` for rho > 0 inside the window from the Fraction references, depth by depth over the schedule."""
    for m in ced.decision._m_schedule(m_max):
        level = reference_below_witness(p, m)
        if level is not None:
            return DecisionOutcome(Verdict.BELOW, KernelBelow(m, level), m)
        if reference_km_good(p, m):
            return DecisionOutcome(Verdict.ABOVE, KernelAbove(m), m)
    return DecisionOutcome(Verdict.UNDECIDED, None, m_max)


@st.composite
def decide_cases(draw):
    """ModelParams: rho in the growth bounds or at a bracket of rho_c, lambda interior or near a window edge."""
    d = draw(st.sampled_from([2, 3, 5, 17, 64, 1000]))
    root = math.sqrt(d * d - d)
    lower, upper = 2 * d - 1 - 2 * root, 2 * d - 1 + 2 * root
    eps = draw(st.floats(0.01, 0.5))
    where = draw(st.sampled_from(["lower", "interior", "upper"]))
    x = {"lower": lower * (1 + eps), "interior": lower + (upper - lower) * eps, "upper": upper * (1 - eps)}[where]
    lam = F(x).limit_denominator(10**6)
    assume(window_position(d, lam) is WindowPosition.INSIDE)
    if draw(st.booleans()):
        lo, hi = growth_bounds(d, lam)
        rho = lo + (hi - lo) * F(draw(st.integers(1, 1023)), 1024)
    else:
        bracket = critical_rho(d, lam, F(1, 2 ** draw(st.integers(2, 40))))
        rho = draw(st.sampled_from([bracket.lo, bracket.hi, (bracket.lo + bracket.hi) / 2]))
    assume(rho > 0)
    return ModelParams(d, lam, rho)


class TestReferenceDecide:
    """`decide` gives the Fraction references' first verdict over the schedule, with its certificate and depth."""

    @pytest.mark.parametrize("scale", [None, 1, 16])  # the real scale, then scales that force the exact rerun
    def test_forward_pass_against_the_references(self, scale):
        run, reran = ced.contfrac._pass, []

        @given(decide_cases(), st.sampled_from([1, 2, 3, 5, 100]))
        @example(ModelParams(20, F(1), F(1)), 1)  # b_1 = 1: a pole at level 0
        @example(ModelParams(6, F(2), F(1)), 1)  # t_0 = 1 exactly: no witness
        @example(ModelParams(26, F(4, 5), F(3)), 1)  # b_0 psi(b_1) = 1 exactly: not good
        @example(ModelParams(2, F(1), F(1, 3)), 1)  # b_1 = 1/4 exactly: no closing at depth 1
        @settings(max_examples=60, derandomize=True, deadline=None, database=None)
        def check(p, m_max):
            expected = reference_decide(p, m_max)
            with pytest.MonkeyPatch.context() as mp:
                if scale:
                    mp.setattr(ced.contfrac, "_scale", lambda p: scale)
                mp.setattr(ced.contfrac, "_pass", lambda *args: reran.append(not args[-1]) or run(*args))
                assert decide(p, m_max) == expected

        check()
        if scale:
            assert any(reran)


class TestFastPath:
    """The bound runs settle these brackets without an exact run or climb."""

    @pytest.mark.parametrize(
        "d,lam,tol",
        [(2, F(1), F(1, 2**100)), (3, F(197, 20), F(1, 2**200)), (2**16, F(130939929, 500), F(1, 2**200))],
    )
    def test_no_exact_fallback(self, monkeypatch, d, lam, tol):
        calls, run, climb = [], ced.contfrac._pass, ced.certcheck._climb

        def climbed(alpha, step, g, n, den, levels, sign=0):
            if not sign:  # an exact climb; a bound run has sign 1 or -1
                calls.append("_climb")
            return climb(alpha, step, g, n, den, levels, sign)

        monkeypatch.setattr(ced.certcheck, "_climb", climbed)

        def recorded(*args):  # the last argument is the scale, and scale 0 an exact run of either kernel
            return run(*args) if args[-1] else calls.append("_pass") or run(*args)

        monkeypatch.setattr(ced.contfrac, "_pass", recorded)
        bracket = critical_rho(d, lam, tol)
        assert bracket.unresolved_midpoint is None and bracket.hi - bracket.lo <= tol
        assert calls == []

    def test_one_loop_serves_both_kernels(self, monkeypatch):
        # a Below runs the loop up the schedule, then once backward for its level; an Above only up
        bracket, run, steps = critical_rho(2, F(1), F(1, 2**60)), ced.contfrac._pass, []
        monkeypatch.setattr(ced.contfrac, "_pass", lambda *args: steps.append(args[1]) or run(*args))
        for rho, verdict in ((bracket.lo, Verdict.BELOW), (bracket.hi, Verdict.ABOVE)):
            steps.clear()
            assert decide(ModelParams(2, F(1), rho)).verdict is verdict
            assert any(step > 0 for step in steps)
            assert sum(step < 0 for step in steps) == (verdict is Verdict.BELOW)


class TestCriticalRho:
    def test_unit_rates_bracket(self):
        b = critical_rho(2, F(1), TOL10)
        assert 0 <= b.lo < b.hi
        assert b.hi - b.lo <= TOL10
        assert b.unresolved_midpoint is None
        assert b.lo_outcome.verdict is Verdict.BELOW
        assert b.hi_outcome.verdict is Verdict.ABOVE
        # frozen regression values: the algorithm is deterministic
        assert b.lo == F(12360736211, 68719476736)
        assert b.hi == F(99187371059, 549755813888)

    def test_endpoints_redecide_and_reverify(self):
        b = critical_rho(2, F(1), F(1, 128))
        lo_out = decide(ModelParams(2, F(1), b.lo))
        hi_out = decide(ModelParams(2, F(1), b.hi))
        assert lo_out.verdict is Verdict.BELOW
        assert hi_out.verdict is Verdict.ABOVE
        assert verify_certificate(ModelParams(2, F(1), b.lo), b.lo_outcome)
        assert verify_certificate(ModelParams(2, F(1), b.hi), b.hi_outcome)

    def test_agrees_with_growth_bounds(self):
        b = critical_rho(2, F(1), TOL10)
        bound_lo, bound_hi = growth_bounds(2, F(1))
        assert bound_lo <= b.lo and b.hi <= bound_hi

    def test_positive_lower_bound_floor_respected(self):
        b = critical_rho(5, F(1), F(1, 64))
        bound_lo, _ = growth_bounds(5, F(1))
        assert bound_lo > 0
        assert b.lo >= bound_lo

    @pytest.mark.parametrize(
        "p,m,exact",
        [
            (ModelParams(26, F(4, 5), F(3)), 1, True),  # 1 - 4 b_1 = (2 b_0 - 1)^2 = (1/9)^2
            (ModelParams(2, F(1), F(1)), 1, False),  # 1 - 4 b_1 = 3/5
            (ModelParams(2, F(1), F(2)), 2, False),  # 1 - 4 b_2 = 9/10
            (ModelParams(2, F(1), F(1, 2)), 3, False),  # 1 - 4 b_3 = 5/9
        ],
    )
    def test_exact_closing_agrees_with_psi_bounds(self, p, m, exact):
        bound = psi_bounds(weight_b(p, m))
        outcome = DecisionOutcome(Verdict.ABOVE, KernelAbove(m), m)
        assert ced.decision._exact_closing(p, outcome) is exact is (bound.lower == bound.upper)

    def test_pinch_near_upper_window_edge(self):
        b = critical_rho(2, F(291, 50), F(1, 256))
        assert b.hi <= F(1, 10)

    def test_endpoint_certificate_failing_its_recheck_raises(self, monkeypatch):
        monkeypatch.setattr(ced.decision, "verify_certificate", lambda p, out: False)
        with pytest.raises(BracketError, match="re-check"):
            critical_rho(2, F(1), TOL10)

    @pytest.mark.parametrize("settled", ["lo", "hi"])
    def test_an_end_left_undecided_raises(self, monkeypatch, settled):
        # bisection runs on forward passes, and decide answers Undecided everywhere
        # but at one growth bound, so the ends that bisection returns stay Undecided
        keep = growth_bounds(2, F(1))[settled == "hi"]
        real = ced.decision.decide

        def undecided(p, m_max=ced.decision.DEFAULT_M_MAX):
            return real(p, m_max) if p.rho == keep else DecisionOutcome(Verdict.UNDECIDED, None, m_max)

        monkeypatch.setattr(ced.decision, "decide", undecided)
        monkeypatch.setattr(ced.decision, "_estimate_rho_c", lambda *args: None)  # bisection decides every end
        with pytest.raises(BracketError, match="re-check: undecided, None"):
            critical_rho(2, F(1), TOL10)

    def test_outside_window_raises(self):
        with pytest.raises(OutsideWindowError):
            critical_rho(2, F(6), TOL10)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            critical_rho(2, F(1), F(0))

    def test_depth_cap_validation(self):
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            decide(ModelParams(2, F(1), F(1)), 0)

    @pytest.mark.parametrize("m_max", range(1, 8))
    def test_shallow_cap_bisects_without_an_estimate(self, monkeypatch, m_max):
        # the estimate needs m_max >= 8; below that, bisection alone brackets rho_c, more coarsely
        tol = F(1, 2**20)
        deep, estimate, estimates = critical_rho(2, F(1), tol), ced.decision._estimate_rho_c, []
        monkeypatch.setattr(ced.decision, "_estimate_rho_c", lambda *args: estimates.append(estimate(*args)))
        bracket = critical_rho(2, F(1), tol, m_max)
        assert estimates == [None]
        for rho, out in ((bracket.lo, bracket.lo_outcome), (bracket.hi, bracket.hi_outcome)):
            assert verify_certificate(ModelParams(2, F(1), rho), out)
        # both brackets are dyadic cells of one grid, so the coarser one holds the deeper one
        assert bracket.lo <= deep.lo and deep.hi <= bracket.hi


@st.composite
def inside_window(draw):
    """(d, lambda) inside the window: within 10^-100 of either edge, or p/q with q up to 10^40."""
    d = draw(st.integers(2, 2**32))

    def half(n):  # floor of n times half the window's width
        return math.isqrt(4 * (d * d - d) * n * n)

    where = draw(st.sampled_from(["lower", "upper", "interior"]))
    if where == "interior":
        q = draw(st.integers(1, 10**40))
        lam = F(draw(st.integers((2 * d - 1) * q - half(q), (2 * d - 1) * q + half(q))), q)
    else:
        n = draw(st.integers(10**100, 10**101))
        lam = F((2 * d - 1) * n + (half(n) if where == "upper" else -half(n)), n)
    assert window_position(d, lam) is WindowPosition.INSIDE
    return d, lam


class TestGrowthBoundsSettleAtDepthOne:
    """growth_bounds are the b_0 = 1 and b_0 = 1/4 points, which decide settles at m = 1."""

    @given(inside_window())
    @example((12, F(1)))  # lo = 1 with b_0(lo) = 1 exactly
    @example((3, F(1)))  # hi = 1 with b_0(hi) = 1/4 exactly
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_both_ends_at_depth_one(self, case):
        d, lam = case
        lo, hi = growth_bounds(d, lam)
        assert weight_b(ModelParams(d, lam, hi), 0) <= F(1, 4) and hi > 0
        if lo > 0:
            assert weight_b(ModelParams(d, lam, lo), 0) >= 1
        lo_out = decide(ModelParams(d, lam, lo), m_max=1)
        hi_out = decide(ModelParams(d, lam, hi), m_max=1)
        assert lo_out.verdict is Verdict.BELOW and lo_out.m_reached <= 1
        assert hi_out.verdict is Verdict.ABOVE and hi_out.m_reached == 1

    def test_exact_examples(self):
        assert growth_bounds(12, F(1))[0] == 1 and weight_b(ModelParams(12, F(1), F(1)), 0) == 1
        assert growth_bounds(3, F(1))[1] == 1 and weight_b(ModelParams(3, F(1), F(1)), 0) == F(1, 4)


def _counting_decide(monkeypatch) -> list:
    """Route critical_rho's decides through a wrapper; returns the list of their rhos."""
    calls = []

    def counting(p, m_max=ced.decision.DEFAULT_M_MAX):
        calls.append(p.rho)
        return decide(p, m_max)

    monkeypatch.setattr(ced.decision, "decide", counting)
    return calls


def _counting_passes(monkeypatch) -> list:
    """Route `ced.decision`'s forward passes, `decide`'s and bisection's, through a wrapper; returns their rhos."""
    calls, real = [], ced.decision.forward_pass

    def counting(p, depths):
        calls.append(p.rho)
        return real(p, depths)

    monkeypatch.setattr(ced.decision, "forward_pass", counting)
    return calls


def bisection(d, lam, tol, m_max=ced.decision.DEFAULT_M_MAX) -> CriticalBracket:
    """Plain bisection on Fractions from the growth bounds, with `decide` at both of them and at every midpoint."""
    lam = F(lam)
    lo, hi = growth_bounds(d, lam)
    lo_out, hi_out = decide(ModelParams(d, lam, lo), m_max), decide(ModelParams(d, lam, hi), m_max)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        out = decide(ModelParams(d, lam, mid), m_max)
        if out.verdict is Verdict.UNDECIDED:
            return CriticalBracket(lam, lo, hi, lo_out, hi_out, mid)
        if out.verdict is Verdict.BELOW:
            lo, lo_out = mid, out
        else:
            hi, hi_out = mid, out
    return CriticalBracket(lam, lo, hi, lo_out, hi_out)


def _cell_width(d, lam, tol):
    """w: bisection's cells from the growth bounds (lo, hi) to width tol are [lo + i w, lo + (i + 1) w]."""
    lo, hi = growth_bounds(d, lam)
    return (hi - lo) / 2 ** (math.ceil((hi - lo) / tol) - 1).bit_length()


def _shifted(by):
    """`_estimate_rho_c`, its guess moved by `by` cells."""
    estimate = ced.decision._estimate_rho_c

    def guess(d, lam, lo, hi, tol, m_max):
        found = estimate(d, lam, lo, hi, tol, m_max)
        return None if found is None else found + by * _cell_width(d, lam, tol)

    return guess


@st.composite
def bracket_cases(draw):
    """(d, lambda, tol, m_max): lambda inside the window, interior or near either edge.

    The small depth caps let bisection stop on an Undecided midpoint while
    the estimate still runs (it needs m_max >= 8).
    """
    d = draw(st.sampled_from([2, 3, 4, 8, 64]))
    root = math.sqrt(d * d - d)
    lower, upper = 2 * d - 1 - 2 * root, 2 * d - 1 + 2 * root
    eps = draw(st.floats(0.03, 0.5))
    where = draw(st.sampled_from(["lower", "interior", "upper"]))
    x = {"lower": lower * (1 + eps), "interior": lower + (upper - lower) * eps, "upper": upper * (1 - eps)}[where]
    lam = F(x).limit_denominator(1000)
    m_max = draw(st.sampled_from([ced.decision.DEFAULT_M_MAX, 32, 64, 128]))
    return d, lam, F(1, 2 ** draw(st.integers(8, 100))), m_max


class TestCellPath:
    """The estimated cell must give the very bracket that plain bisection gives."""

    def test_cell_bracket_equals_bisection(self):
        estimate = ced.decision._estimate_rho_c
        cap = ced.decision.DEFAULT_M_MAX
        runs = []

        def uncapped(d, lam, lo, hi, tol, m_max):
            # under a small depth cap the estimate stops at the cap; this one
            # picks its cell at full depth, whose ends may then need the whole cap
            return estimate(d, lam, lo, hi, tol, cap)

        @given(bracket_cases())
        @example((3, F(197, 20), F(1, 2**40), cap))  # next to the window edge: depth 256
        @example((65536, F(130939929, 500), F(1, 2**200), cap))  # an ill-conditioned estimate: depth 2701
        @settings(max_examples=40, derandomize=True, deadline=None, database=None)
        def check(case):
            assert window_position(case[0], case[1]) is WindowPosition.INSIDE
            reference = bisection(*case)
            for guess in (estimate, uncapped, _shifted(3), _shifted(-3)):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ced.decision, "_estimate_rho_c", guess)
                    calls = _counting_decide(mp)
                    assert critical_rho(*case) == reference
                # a missed cell adds decides
                cell = sorted(calls) == [reference.lo, reference.hi] and reference.unresolved_midpoint is None
                ends = (reference.lo_outcome.m_reached, reference.hi_outcome.m_reached)
                runs.append((guess, case[3], cell, case[3] in ends))

        check()
        full = [cell for guess, m_max, cell, _ in runs if guess is estimate and m_max == cap]
        assert sum(full) >= 0.8 * len(full), runs
        # under a depth cap, the cell path fires also where an end needs the whole cap
        assert any(cell and at_cap for _, m_max, cell, at_cap in runs if m_max < cap), runs

    @pytest.mark.parametrize("d,lam", [(2, F(1)), (8, F(1, 21))])
    def test_decide_only_at_the_ends_on_the_cell_path(self, monkeypatch, d, lam):
        # each end of the cell takes one decide: one forward pass, and one
        # below_witness at the Below end; bisection makes about 100 decides
        # at this tolerance
        kernels = []
        for name in ("below_witness", "forward_pass"):
            real = getattr(ced.decision, name)

            def counted(p, m, real=real, name=name):
                return kernels.append((name, p.rho)) or real(p, m)

            monkeypatch.setattr(ced.decision, name, counted)
        calls = _counting_decide(monkeypatch)
        bracket = critical_rho(d, lam, F(1, 2**100))
        assert calls == [bracket.lo, bracket.hi] and bracket.unresolved_midpoint is None
        ends = [("below_witness", bracket.lo), ("forward_pass", bracket.lo), ("forward_pass", bracket.hi)]
        assert sorted(kernels) == ends

    @pytest.mark.parametrize(
        "d,lam",
        [(2**64, F(97 * (4 * 2**64 - 2) // 100)), (10**30, F(1)), (2**100, F(1)), (10**200, F(1)), (10**300, F(1))],
        ids=["2^64-near-edge", "10^30", "2^100", "10^200", "10^300"],
    )
    def test_decide_only_at_the_ends_at_a_huge_rho_c(self, monkeypatch, d, lam):
        # hi has 50-498 integer bits here (the first lambda is 0.97 of the upper
        # window edge): both Newton stages run on rho / 2^(those bits), since in
        # absolute units the float stop tests sink below a float's resolution
        # and the fixed-point slope loses those bits
        calls = _counting_decide(monkeypatch)
        bracket = critical_rho(d, lam, F(1, 2**200))
        assert calls == [bracket.lo, bracket.hi] and bracket.unresolved_midpoint is None

    def test_decide_only_at_the_ends_when_the_float_roots_never_agree(self, monkeypatch):
        # next to the upper window edge the float roots still differ at M = m_max;
        # the last two of them pick the cell, polished at depth m_max, where
        # bisection took 40 decides
        d, lam, tol = 1000, F(2467749743, 617319), F(1, 2**40)
        m_max = ced.decision.DEFAULT_M_MAX
        assert ced.decision._estimate_rho_c(d, lam, *growth_bounds(d, lam), tol, m_max) is not None
        calls = _counting_decide(monkeypatch)
        bracket = critical_rho(d, lam, tol)
        assert repr(bracket) == repr(bisection(d, lam, tol)) and calls == [bracket.lo, bracket.hi]

    def test_decide_only_at_the_ends_after_a_pole_in_the_polish(self, monkeypatch):
        # a pole sends the polish halfway to the right end of its bracket, and
        # Newton steps back from there to the same cell
        expected = critical_rho(2, F(1), F(1, 2**100))
        sweep, poles = ced.decision._estimate_sweep, [1]

        def pole_first(r, m, one, g, dl):
            j, t, dt = sweep(r, m, one, g, dl)
            return (poles.pop() if poles and isinstance(one, int) else j), t, dt  # the first fixed-point sweep

        monkeypatch.setattr(ced.decision, "_estimate_sweep", pole_first)
        calls = _counting_decide(monkeypatch)
        assert critical_rho(2, F(1), F(1, 2**100)) == expected and poles == []
        assert calls == [expected.lo, expected.hi]

    def test_estimate_cost_on_the_baseline_brackets(self, monkeypatch):
        # the one sweep's levels, float and fixed point: 3039 at this writing (2042 float,
        # 997 in the polish; 2786 with a 64-bit doubling stage), against 7468 for
        # an estimator that closed the tail with 0, started at M = 16 and ran Newton on K
        levels, sweep = [], ced.decision._estimate_sweep

        def counting(r, m, *args):
            out = sweep(r, m, *args)
            levels.append(m + 1 - out[0])  # the sweep stopped at level j
            return out

        monkeypatch.setattr(ced.decision, "_estimate_sweep", counting)
        calls = _counting_decide(monkeypatch)
        for bits in (40, 100):
            for d, lam in [(2, F(1)), (3, F(1, 2)), (4, F(37, 4)), (8, F(1, 21)), (64, F(1)), (2, F(1, 5)), (8, F(3))]:
                calls.clear()
                bracket = critical_rho(d, lam, F(1, 2**bits))
                assert bracket.unresolved_midpoint is None
                assert calls == [bracket.lo, bracket.hi], (d, lam, bits, len(calls))
        assert sum(levels) <= 3480, sum(levels)

    @pytest.mark.parametrize("nan", [(0, math.nan, 1.0), (0, 0.5, math.nan)])
    def test_non_finite_floats_give_no_estimate(self, monkeypatch, nan):
        lo, hi = growth_bounds(12, F(1))  # lo = 1: Newton safeguards alone would settle there
        huge = 10**400  # d lambda overflows a float
        assert ced.decision._estimate_rho_c(huge, F(1), *growth_bounds(huge, F(1)), F(1, 2**40), 4096) is None
        sweep = ced.decision._estimate_sweep

        def float_nan(r, m, one, g, dl):
            return nan if isinstance(one, float) else sweep(r, m, one, g, dl)

        monkeypatch.setattr(ced.decision, "_estimate_sweep", float_nan)
        assert lo == 1 and ced.decision._estimate_rho_c(12, F(1), lo, hi, F(1, 2**40), 4096) is None

    def test_exact_closing_at_the_upper_end_falls_back(self, monkeypatch):
        # psi's upper bound is monotone only off the rational squares, so an
        # Above end with an exact closing settles nothing: bisection runs above
        # the certified lower end
        expected = critical_rho(2, F(1), F(1, 2**40))
        monkeypatch.setattr(ced.decision, "_exact_closing", lambda p, outcome: True)
        calls, passes = _counting_decide(monkeypatch), _counting_passes(monkeypatch)
        assert critical_rho(2, F(1), F(1, 2**40)) == expected
        # the cell's ends first, then bisection's midpoints, above the lower end;
        # it returns the cell's ends, which are decided only once
        assert calls == [expected.lo, expected.hi]
        assert passes[:2] == [expected.lo, expected.hi] and len(passes) > 2 and min(passes[2:]) > expected.lo

    @pytest.mark.parametrize(
        "d,lam,bits,m_max,by",
        [(2, F(1, 3), 16, 8, 3), (2, F(1), 16, 8, -3), (3, F(5, 2), 48, 16, -3)],
    )
    def test_bisection_stays_in_the_gap_the_seeds_leave(self, monkeypatch, d, lam, bits, m_max, by):
        # the cell is shifted off rho_c, and under the depth cap one of its ends
        # is Undecided; the end that certifies still settles its side of the grid
        tol = F(1, 2**bits)
        lo, hi = growth_bounds(d, lam)
        guess = _shifted(by)
        estimate = guess(d, lam, lo, hi, tol, m_max)
        w = _cell_width(d, lam, tol)
        k = math.floor((estimate - lo) / w)
        seeds = {rho: decide(ModelParams(d, lam, rho), m_max).verdict for rho in (lo + k * w, lo + (k + 1) * w)}
        assert Verdict.UNDECIDED in seeds.values() and len(set(seeds.values())) == 2
        gap_lo = max([rho for rho, verdict in seeds.items() if verdict is Verdict.BELOW], default=lo)
        gap_hi = min([rho for rho, verdict in seeds.items() if verdict is Verdict.ABOVE], default=hi)
        expected = bisection(d, lam, tol, m_max)
        monkeypatch.setattr(ced.decision, "_estimate_rho_c", guess)
        calls, passes = _counting_decide(monkeypatch), _counting_passes(monkeypatch)
        bracket = critical_rho(d, lam, tol, m_max)
        assert bracket == expected and bracket.unresolved_midpoint is not None
        # the cell's ends first, then bisection's midpoints, then the returned ends;
        # an end of the Undecided midpoint's cell may lie past a seed inside that cell
        assert calls[:2] == list(seeds) and set(calls[2:]) <= {bracket.lo, bracket.hi}
        assert passes[:2] == list(seeds)
        assert all(gap_lo < rho < gap_hi or rho in (bracket.lo, bracket.hi) for rho in passes[2:])
        assert {lo, hi} & set(calls + passes) <= {bracket.lo, bracket.hi}

    @pytest.mark.parametrize("d,lam,m_max", [(2, F(1), 4096), (5, F(1), 4096), (8, F(1, 21), 16)])
    def test_bisection_decides_only_the_ends_it_returns(self, monkeypatch, d, lam, m_max):
        # with no estimate every step is a midpoint, which takes one forward pass
        # and no certificate; the two returned ends are then decided, so the Below
        # end runs below_witness once
        tol = F(1, 2**30)
        expected, (lo, hi) = bisection(d, lam, tol, m_max), growth_bounds(d, lam)
        witnesses, real = [], ced.decision.below_witness
        monkeypatch.setattr(ced.decision, "below_witness", lambda p, m: witnesses.append(p.rho) or real(p, m))
        monkeypatch.setattr(ced.decision, "_estimate_rho_c", lambda *args: None)
        calls, passes = _counting_decide(monkeypatch), _counting_passes(monkeypatch)
        bracket = critical_rho(d, lam, tol, m_max)
        assert bracket == expected and calls == [bracket.lo, bracket.hi] and witnesses == [bracket.lo]
        # each midpoint once, then the returned ends once more; all n steps unless one is Undecided
        midpoints, steps = passes[:-2], ((hi - lo) / _cell_width(d, lam, tol)).numerator.bit_length() - 1
        assert passes[-2:] == [bracket.lo, bracket.hi] and len(set(midpoints)) == len(midpoints)
        assert len(midpoints) <= steps and (bracket.unresolved_midpoint is not None) is (len(midpoints) < steps)

    # Recorded with plain bisection before the estimate: a midpoint comes back
    # Undecided at these depth caps, and the bracket stops there.
    @pytest.mark.parametrize(
        "d,lam,m_max,lo,hi,lo_cert,hi_cert,unresolved",
        [
            (2, F(1), 8, F(12360736211, 68719476736), F(198073260747, 1099511627776),
             KernelBelow(m=8, level=0), KernelAbove(m=8), F(395845040123, 2199023255552)),
            (8, F(1, 21), 16, F(16306662135911, 562949953421312), F(32613459136823, 1125899906842624),
             KernelBelow(m=16, level=0), KernelAbove(m=16), F(65226783408645, 2251799813685248)),
        ],
    )
    def test_undecided_midpoint_pinned(self, d, lam, m_max, lo, hi, lo_cert, hi_cert, unresolved):
        bracket = critical_rho(d, lam, F(1, 2**40), m_max=m_max)
        assert bracket == CriticalBracket(
            lam, lo, hi,
            DecisionOutcome(Verdict.BELOW, lo_cert, m_max),
            DecisionOutcome(Verdict.ABOVE, hi_cert, m_max),
            unresolved,
        )


@st.composite
def sweep_cases(draw):
    """(d, lambda, e, x, m): lambda interior, x = rho / 2^e inside the growth bounds, e the integer bits of hi."""
    d = draw(st.sampled_from([2, 3, 4, 8, 64, 2**16, 2**32]))
    root = math.sqrt(d * d - d)
    lower, upper = 2 * d - 1 - 2 * root, 2 * d - 1 + 2 * root
    lam = F(lower + (upper - lower) * draw(st.floats(0.03, 0.97))).limit_denominator(1000)
    assume(window_position(d, lam) is WindowPosition.INSIDE)
    lo, hi = growth_bounds(d, lam)
    e = int(hi).bit_length()
    x = float((lo + (hi - lo) * F(draw(st.integers(1, 2**20 - 1)), 2**20)) / 2**e)
    return d, lam, e, x, draw(st.integers(1, 600))


class TestEstimateSweep:
    """`_estimate_sweep` runs one recurrence on floats and on fixed-point integers."""

    @given(sweep_cases())
    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    def test_one_sweep_at_two_precisions(self, case):
        d, lam, e, x, m = case
        a, b, bits = lam.numerator, lam.denominator, 200
        one, sweep = 1 << bits, ced.decision._estimate_sweep
        g, dl = ((a + b) << bits) // (b << e), (d * a << 4 * bits) // (b << 2 * e)
        r = int(F(x) * one)  # x exactly
        j, t, dt = sweep(x, m, 1.0, (a + b) / b / 2**e, d * a / b / 4**e)
        jx, tx, dtx = sweep(r, m, one, g, dl)
        assert j == jx
        if j == 0 and t < 0.99:
            assert math.isclose(t, tx / one, rel_tol=2**-30) and math.isclose(dt, dtx / one, rel_tol=2**-20)
        # the slope is t's own but for the tail's, which the closure sets to 0:
        # negligible from m = 64 on, up to whole percents below that
        h = r >> 60
        (jp, tp, _), (jm, tm, _) = sweep(r + h, m, one, g, dl), sweep(r - h, m, one, g, dl)
        if m >= 64 and not (jx or jp or jm):
            assert abs((tp - tm) * one - 2 * h * dtx) <= abs(2 * h * dtx) >> 16


class TestClassifyPhase:
    @pytest.mark.parametrize(
        "d,lam,rho,expected",
        [
            (2, F(1), F(2), Phase.EXTINCTION),       # rho >= lam (d-1)
            (2, F(1), F(0), Phase.COEXISTENCE),      # no deaths, inside window
            (2, F(1, 10), F(1, 2), Phase.EXTINCTION),  # rho >= extinction rate 1/10
            (2, F(1, 10), F(1, 100), Phase.ESCAPE),  # outside window, small rho
            (2, F(1), F(1, 2), Phase.ESCAPE),        # above threshold, below extinction
            (2, F(1), F(1, 100), Phase.COEXISTENCE),  # far below threshold
            (2, F(10), F(0), Phase.COEXISTENCE),     # no deaths, beyond upper edge
            (2, F(1, 10), F(0), Phase.ESCAPE),       # no deaths, below lower edge
        ],
    )
    def test_labels(self, d, lam, rho, expected):
        assert classify_phase(ModelParams(d, lam, rho)) is expected


class TestCurve:
    def test_small_grid(self):
        grid = [F(1, 10), F(1, 2), F(1), F(3), F(6)]
        rows = rho_c_curve(2, grid, F(1, 64))
        assert rows[0] is None and rows[-1] is None  # outside the window: threshold 0
        assert [r.lam for r in rows[1:4]] == grid[1:4]
        for r in rows[1:4]:
            assert isinstance(r, CriticalBracket) and r.unresolved_midpoint is None
            assert r.hi - r.lo <= F(1, 64)
            assert r.hi > 0

    def test_parallel_matches_serial(self):
        grid = [F(1, 2), F(1), F(2)]
        serial = rho_c_curve(2, grid, F(1, 32))
        parallel = rho_c_curve(2, grid, F(1, 32), threads=2)
        assert parallel == serial

    def test_chunked_pool_matches_serial(self):
        grid = [F(1, 4) + F(i, 10) for i in range(40)]  # inside d = 2's window (0.17, 5.83)
        assert rho_c_curve(2, grid, F(1, 2**40), threads=2) == rho_c_curve(2, grid, F(1, 2**40))


class TestWindowGate:
    def test_position_consistency_with_decide(self):
        # certified-outside lambdas always produce window certificates
        for lam in (F(1, 100), F(1, 10), F(7), F(100)):
            assert window_position(2, lam).is_outside
            out = decide(ModelParams(2, lam, F(1)))
            assert isinstance(out.certificate, OutsideWindowAbove)
