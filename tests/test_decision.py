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
from ced.contfrac import below_witness, km_good
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

from contfrac_reference import psi_bounds

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

    def test_above_recheck_does_not_call_km_good(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the KernelAbove re-check called the kernel that found it")

        p = ModelParams(2, F(1), F(15313620919566925415728018207434704617, 1 << 126))
        out = decide(p)
        assert out.certificate == KernelAbove(m=32)
        monkeypatch.setattr(ced.contfrac, "km_good", refuse)
        monkeypatch.setattr(ced.decision, "km_good", refuse)
        assert verify_certificate(p, out)

    def test_above_certificate_whose_fraction_is_not_good_fails(self):
        # rho = 1/8 is below rho_c(2, 1) ~ 0.18, yet b_8 = 64/325 < 1/4, so the
        # re-check gets past the precondition and must reject on goodness
        p = ModelParams(2, F(1), F(1, 8))
        assert weight_b(p, 8) < F(1, 4) and not km_good(p, 8)
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
            above = weight_b(p, m) < F(1, 4) and km_good(p, m)
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


def _settled(first: int, calls: list):
    """A test that passes from depth `first` on; it records each depth it is asked at."""

    def test(p, m):
        calls.append(m)
        return DecisionOutcome(Verdict.BELOW, KernelBelow(m, 0), m) if m >= first else None

    return test


class TestSettle:
    """An end settled near a depth gets decide's outcome, or None."""

    @given(
        st.sampled_from([2, 3, 4, 8, 64]),
        st.fractions(min_value=F(1, 10), max_value=20, max_denominator=100),
        st.integers(8, 80),
        st.sampled_from([1, 2, 3, 5, 8, 64, 100]),
    )
    @example(2, F(1), 80, 100)
    @example(3, F(197, 20), 40, 5)
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    def test_settle_returns_decide_or_none(self, d, lam, bits, m_max):
        assume(window_position(d, lam) is WindowPosition.INSIDE)
        bracket = critical_rho(d, lam, F(1, 2**bits))
        below, above = ced.decision._below, ced.decision._above
        for rho, right, wrong in ((bracket.lo, below, above), (bracket.hi, above, below)):
            p = ModelParams(d, lam, rho)
            if rho == 0:
                continue  # decide's short circuit, never settled
            expected = decide(p, m_max)
            for near in range(1, 2 * m_max + 1):
                assert ced.decision._settle(p, right, m_max, near) in (expected, None)
                assert ced.decision._settle(p, wrong, m_max, near) is None

    @pytest.mark.parametrize(
        "first,m_max,near,depths,settled",
        [
            (4, 64, 7, [8, 4, 2], 4),  # 7 is nearer 8 than 4 in log2; walk down to the last pass
            (4, 64, 5, [4, 2], 4),
            (16, 64, 6, [8, 16], 16),  # a fail tries one deeper depth
            (32, 64, 6, [8, 16], None),  # ... and only one
            (1, 64, 1, [1], 1),
            (5, 5, 9, [5, 4], 5),  # the cap ends the schedule
            (5, 5, 4, [4, 5], 5),
            (6, 5, 200, [5], None),  # no deeper depth to try
        ],
    )
    def test_depths_tried(self, first, m_max, near, depths, settled):
        calls = []
        out = ced.decision._settle(ModelParams(2, F(1), F(1)), _settled(first, calls), m_max, near)
        assert calls == depths
        assert (out and out.m_reached) == settled


class TestFastPath:
    """The bound sweeps and bound runs settle these brackets without an exact sweep or climb."""

    @pytest.mark.parametrize(
        "d,lam,tol",
        [(2, F(1), F(1, 2**100)), (3, F(197, 20), F(1, 2**200)), (2**16, F(130939929, 500), F(1, 2**200))],
    )
    def test_no_exact_fallback(self, monkeypatch, d, lam, tol):
        calls = []
        for module, name in ((ced.contfrac, "_sweep"), (ced.certcheck, "_climb")):
            exact = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, exact=exact, name=name: calls.append(name) or exact(*args))
        bracket = critical_rho(d, lam, tol)
        assert bracket.unresolved_midpoint is None and bracket.hi - bracket.lo <= tol
        assert calls == []


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
        # bisection runs, and decide answers Undecided everywhere but at one
        # growth bound, so the other end of the bracket keeps an Undecided outcome
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


@st.composite
def bracket_cases(draw):
    """(d, lambda, tol, m_max): lambda inside the window, interior or near either edge.

    The small depth caps let bisection stop on an Undecided midpoint while
    the estimate still runs (it needs M = 8 and 16 to agree).
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

        def shifted(by):
            def guess(d, lam, lo, hi, tol, m_max):
                found = estimate(d, lam, lo, hi, tol, m_max)
                n = (math.ceil((hi - lo) / tol) - 1).bit_length()
                return None if found is None else (found[0] + by * (hi - lo) / 2**n, found[1])

            return guess

        def uncapped(d, lam, lo, hi, tol, m_max):
            # under a small depth cap the estimate mostly gives up; this one
            # still picks a cell, whose ends may then need the whole cap
            return estimate(d, lam, lo, hi, tol, cap)

        @given(bracket_cases())
        @example((3, F(197, 20), F(1, 2**40), cap))  # next to the window edge: depth 256
        @settings(max_examples=40, derandomize=True, deadline=None, database=None)
        def check(case):
            assert window_position(case[0], case[1]) is WindowPosition.INSIDE
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ced.decision, "_estimate_rho_c", lambda *args: None)
                bisection = critical_rho(*case)
            for guess in (estimate, uncapped, shifted(3), shifted(-3)):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ced.decision, "_estimate_rho_c", guess)
                    calls = _counting_decide(mp)
                    assert critical_rho(*case) == bisection
                cell = len(calls) <= 2 and bisection.unresolved_midpoint is None  # bisection adds 2 + n
                ends = (bisection.lo_outcome.m_reached, bisection.hi_outcome.m_reached)
                runs.append((guess, case[3], cell, case[3] in ends))

        check()
        full = [cell for guess, m_max, cell, _ in runs if guess is estimate and m_max == cap]
        assert sum(full) >= 0.8 * len(full), runs
        # under a depth cap, the cell path fires also where an end needs the whole cap
        assert any(cell and at_cap for _, m_max, cell, at_cap in runs if m_max < cap), runs

    @pytest.mark.parametrize("d,lam", [(2, F(1)), (8, F(1, 21))])
    def test_no_decide_on_the_cell_path(self, monkeypatch, d, lam):
        # each end of the cell is settled in at most 3 kernel calls; bisection
        # makes about 100 decides at this tolerance
        kernels = []
        for name in ("below_witness", "km_good"):
            real = getattr(ced.decision, name)
            monkeypatch.setattr(ced.decision, name, lambda p, m, real=real: kernels.append(p.rho) or real(p, m))
        calls = _counting_decide(monkeypatch)
        bracket = critical_rho(d, lam, F(1, 2**100))
        assert calls == [] and bracket.unresolved_midpoint is None
        assert sorted(set(kernels)) == [bracket.lo, bracket.hi]
        assert kernels.count(bracket.lo) <= 3 and kernels.count(bracket.hi) <= 3

    def test_estimate_cost_on_the_baseline_brackets(self, monkeypatch):
        # 2786 levels in all at this writing, against 7468 for an estimator that
        # closed the tail with 0, started at M = 16 and ran Newton on K
        sweep = ced.decision._estimate_sweep
        levels = []

        def counting(r, m, bits, g, dl):
            j, t, dt = sweep(r, m, bits, g, dl)
            levels.append(m + 1 - j)  # the sweep stopped at level j
            return j, t, dt

        monkeypatch.setattr(ced.decision, "_estimate_sweep", counting)
        calls = _counting_decide(monkeypatch)
        for bits in (40, 100):
            for d, lam in [(2, F(1)), (3, F(1, 2)), (4, F(37, 4)), (8, F(1, 21)), (64, F(1)), (2, F(1, 5)), (8, F(3))]:
                calls.clear()
                assert critical_rho(d, lam, F(1, 2**bits)).unresolved_midpoint is None
                assert calls == [], (d, lam, bits, len(calls))
        assert sum(levels) <= 3480, sum(levels)

    def test_exact_closing_at_the_upper_end_falls_back(self, monkeypatch):
        # psi's upper bound is monotone only off the rational squares
        expected = critical_rho(2, F(1), F(1, 2**40))
        monkeypatch.setattr(ced.decision, "_exact_closing", lambda p, outcome: True)
        calls = _counting_decide(monkeypatch)
        assert critical_rho(2, F(1), F(1, 2**40)) == expected and len(calls) > 40

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


class TestWindowGate:
    def test_position_consistency_with_decide(self):
        # certified-outside lambdas always produce window certificates
        for lam in (F(1, 100), F(1, 10), F(7), F(100)):
            assert window_position(2, lam).is_outside
            out = decide(ModelParams(2, lam, F(1)))
            assert isinstance(out.certificate, OutsideWindowAbove)
