import ast
import inspect
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ced.certcheck
import ced.contfrac
import ced.decision
import ced.params
from ced.certcheck import bounds_psi, check_above, check_below, closing_bound
from ced.decision import (
    DecisionOutcome,
    KernelAbove,
    KernelBelow,
    Verdict,
    critical_rho,
    decide,
    verify_certificate,
)
from ced.params import ModelParams, weight_b

import contfrac_reference
from contfrac_reference import eval_finite, is_good, psi_bounds


def oracle_below(p, m, level):
    """KernelBelow(m, level) judged on Fractions from weight_b."""
    if not 0 <= level <= m:
        return False
    ev = eval_finite([weight_b(p, j) for j in range(level, m + 1)])
    return ev.is_pole or ev.value > 1


def oracle_above(p, m):
    """KernelAbove(m) judged on Fractions from weight_b, closed by psi_bounds' upper end."""
    if m < 1:
        return False
    b = [weight_b(p, j) for j in range(m + 1)]
    if not b[-1] < F(1, 4):
        return False
    return is_good(b[:-2] + [b[-2] * psi_bounds(b[-1]).upper]).good


def mutants(cert):
    """The certificate, its level +/- 1, m halved, doubled and 1, and the other kind at its m."""
    m = cert.m
    if isinstance(cert, KernelBelow):
        lv = cert.level
        return [cert, KernelBelow(m, lv + 1), KernelBelow(m, lv - 1), KernelBelow(m // 2, lv),
                KernelBelow(2 * m, lv), KernelBelow(1, lv), KernelAbove(m)]
    return [cert, KernelAbove(m // 2), KernelAbove(2 * m), KernelAbove(1), KernelAbove(m - 1),
            KernelAbove(m + 1), KernelBelow(m, 0), KernelBelow(m, m)]


@st.composite
def points_around_rho_c(draw):
    """(p_below, p_above): rho on either side of rho_c, lambda interior or near a window edge."""
    d = draw(st.sampled_from([2, 3, 4, 8, 64]))
    root = math.sqrt(d * d - d)
    lower, upper = 2 * d - 1 - 2 * root, 2 * d - 1 + 2 * root
    eps = draw(st.floats(0.03, 0.5))
    where = draw(st.sampled_from(["lower", "interior", "upper"]))
    x = {"lower": lower * (1 + eps), "interior": lower + (upper - lower) * eps, "upper": upper * (1 - eps)}[where]
    lam = F(x).limit_denominator(1000)
    bracket = critical_rho(d, lam, F(1, 2 ** draw(st.integers(8, 60))))
    out = F(draw(st.integers(0, 64)), 256)  # 0 keeps the bracket's own ends
    return ModelParams(d, lam, bracket.lo * (1 - out)), ModelParams(d, lam, bracket.hi * (1 + out))


class TestAgainstFractionOracle:
    @given(points_around_rho_c())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_every_mutant_judged_as_the_oracle_judges_it(self, points):
        for p, verdict in zip(points, (Verdict.BELOW, Verdict.ABOVE)):
            out = decide(p)
            assert out.verdict is verdict
            if not isinstance(out.certificate, (KernelBelow, KernelAbove)):
                continue  # rho = 0 at the lower end: a short circuit, not a kernel certificate
            for cert in mutants(out.certificate):
                if isinstance(cert, KernelBelow):
                    expected, got = oracle_below(p, cert.m, cert.level), check_below(p, cert.m, cert.level)
                    kind = Verdict.BELOW
                else:
                    expected, got = oracle_above(p, cert.m), check_above(p, cert.m)
                    kind = Verdict.ABOVE
                assert got == expected, cert
                assert verify_certificate(p, DecisionOutcome(kind, cert, 0)) == expected, cert
            assert verify_certificate(p, out)

    @pytest.mark.parametrize(
        "p,cert,accepted",
        [
            # (20, 1, 1): b_1 = 1, so the level-0 denominator 1 - b_1 is 0: a pole
            (ModelParams(20, F(1), F(1)), KernelBelow(1, 0), True),
            # (6, 2, 1): t_0 = 1 exactly, which does not exceed 1
            (ModelParams(6, F(2), F(1)), KernelBelow(1, 0), False),
            # (26, 4/5, 3): psi(b_1) exact and b_0 psi(b_1) = 1, which is not good
            (ModelParams(26, F(4, 5), F(3)), KernelAbove(1), False),
            # (2, 1, 1/3): b_1 = 1/4 exactly fails b_m < 1/4
            (ModelParams(2, F(1), F(1, 3)), KernelAbove(1), False),
            (ModelParams(2, F(1), F(1)), KernelAbove(1), True),
            # out of range, though b_1 = 25/3 > 1 and b_0 = 1/6 < 1/4
            (ModelParams(100, F(1), F(1)), KernelBelow(1, 2), False),
            (ModelParams(2, F(1), F(1)), KernelAbove(0), False),
        ],
    )
    def test_exact_ties_and_out_of_range(self, p, cert, accepted):
        if isinstance(cert, KernelBelow):
            assert check_below(p, cert.m, cert.level) is oracle_below(p, cert.m, cert.level) is accepted
        else:
            assert check_above(p, cert.m) is oracle_above(p, cert.m) is accepted


def undivided_climb(alpha, step, g, n, d, levels):
    """`_climb` without its exact division: D gains G_j G_{j+1} a level."""
    for _ in range(levels):
        if d <= n:
            return None
        g -= step
        n, d = alpha * d, g * (g + step) * (d - n)
    return n, d


class TestClimb:
    @pytest.mark.parametrize("d,lam", [(2, F(1)), (3, F(197, 20))])
    @pytest.mark.parametrize("levels", [64, 256])
    def test_divided_pairs_have_about_half_the_bits(self, d, lam, levels):
        # Each level divides out one G, so D_L^2 < D_0 D_L(undivided): with every
        # tail below 1, D_L = D_0 prod G_j (1 - t_{j+1}) and the undivided D_L is
        # that times prod G_{j+1}.
        bracket = critical_rho(d, lam, F(1, 2**100))
        for rho in (bracket.lo, bracket.hi):
            alpha, g0, step = ced.certcheck._integers(ModelParams(d, lam, rho))
            g = g0 + (levels + 1) * step
            start = alpha, g * (g + step)  # t_levels = b_levels
            top = ced.certcheck._climb(alpha, step, g, *start, levels)
            undivided = undivided_climb(alpha, step, g, *start, levels)
            assert F(*top) == F(*undivided)
            assert top[1] ** 2 < start[1] * undivided[1]


class TestClosingBound:
    @given(st.fractions(min_value=F(1, 10**6), max_value=F(1, 4), max_denominator=10**6))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_proves_an_upper_bound_and_refuses_a_lower_one(self, x):
        y, z = closing_bound(x.numerator, x.denominator)
        bound = psi_bounds(x)
        assert F(y, z) == bound.upper
        assert bounds_psi(x.numerator, x.denominator, y, z)
        # psi(x) > 1 for x > 0, and a non-exact lower end lies strictly below psi(x)
        assert not bounds_psi(x.numerator, x.denominator, 1, 1)
        if bound.lower < bound.upper:
            low = bound.lower
            assert not bounds_psi(x.numerator, x.denominator, low.numerator, low.denominator)

    def test_exact_root_and_its_neighbours(self):
        # x = 2/9: 1 - 4x = 1/9, so psi(x) = 3/2 and x y^2 - y + 1 = 0 there
        assert closing_bound(2, 9) == (18, 12)
        assert bounds_psi(2, 9, 3, 2)
        assert not bounds_psi(2, 9, 3 * 10**30 - 1, 2 * 10**30)
        assert bounds_psi(2, 9, 3 * 10**30 + 1, 2 * 10**30)

    def test_a_closing_bound_below_psi_is_refused(self, monkeypatch):
        # (500, 1, 20): b_0 = 125/231, so b_0 y < 1 for any y < 231/125; y = 1
        # would pass the good test, but it lies below psi(b_1) and is not proven
        p = ModelParams(500, F(1), F(20))
        assert check_above(p, 1)
        monkeypatch.setattr(ced.certcheck, "closing_bound", lambda num, den: (1, 1))
        assert not check_above(p, 1)


def _imports(tree):
    """(module, names) for every import statement of a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module, {alias.name for alias in node.names}


class TestIndependence:
    def test_imports_nothing_from_the_kernels(self):
        imports = list(_imports(ast.parse(inspect.getsource(ced.certcheck))))
        assert imports  # the walk saw the module's imports
        for module, names in imports:
            assert module not in ("ced.contfrac", "ced.decision", "ced.catalan", "ced")
            if module == "ced.params":
                assert names == {"ModelParams"}
            else:
                assert not module.startswith("ced.")

    def test_recheck_runs_with_the_kernels_and_the_fraction_path_broken(self, monkeypatch):
        bracket = critical_rho(2, F(1), F(1, 2**100))
        ends = ((bracket.lo, bracket.lo_outcome), (bracket.hi, bracket.hi_outcome))
        assert [type(out.certificate) for _, out in ends] == [KernelBelow, KernelAbove]

        def refuse(*args, **kwargs):
            raise AssertionError("the re-check called code that the kernels or the Fraction path use")

        homes = {
            ced.contfrac: ("below_witness", "forward_pass", "_pass", "_scale", "_psi_upper"),
            contfrac_reference: ("eval_finite", "is_good", "psi_bounds"),
            ced.params: ("weight_b",),
        }
        originals = [getattr(home, name) for home, names in homes.items() for name in names]
        modules = [m for n, m in sys.modules.items() if n.startswith("ced.")] + [contfrac_reference]
        for module in modules:
            for key, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, key, refuse)
        for kernel, depth in ((ced.decision.below_witness, 1), (ced.decision.forward_pass, [1])):  # decision's kernels
            with pytest.raises(AssertionError):
                kernel(ModelParams(2, F(1), F(1)), depth)
        for rho, out in ends:
            assert verify_certificate(ModelParams(2, F(1), rho), out)


def exact_only(check, *args):
    """A check's verdict from the exact climb alone: bound runs that settle nothing."""
    climb = ced.certcheck._climb

    def unsettled(alpha, step, g, n, d, levels, sign=0):  # a bound run ends at 2^W = d, settling neither check
        return (d, d) if sign else climb(alpha, step, g, n, d, levels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ced.certcheck, "_climb", unsettled)
        return check(*args)


class TestBoundRuns:
    """The bound runs with the exact fallback give the exact climb's verdicts."""

    @given(points_around_rho_c(), st.sampled_from([None, 1, 16]))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_every_mutant_judged_as_the_exact_climb_judges_it(self, points, scale):
        # scale None keeps 2^W; 1 and 16 make nearly every run fall back
        for p in points:
            out = decide(p)
            if not isinstance(out.certificate, (KernelBelow, KernelAbove)):
                continue
            for cert in mutants(out.certificate):
                if isinstance(cert, KernelBelow):
                    check, args, oracle = check_below, (p, cert.m, cert.level), oracle_below
                else:
                    check, args, oracle = check_above, (p, cert.m), oracle_above
                with pytest.MonkeyPatch.context() as mp:
                    if scale is not None:
                        mp.setattr(ced.certcheck, "_scale", lambda p: scale)
                    got = check(*args)
                assert got == exact_only(check, *args) == oracle(*args), cert

    @given(points_around_rho_c())
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_bound_climbs_bracket_the_exact_climb(self, points):
        climb = ced.certcheck._climb
        for p in points:
            alpha, g0, step = ced.certcheck._integers(p)
            one = ced.certcheck._scale(p)
            for levels in (1, 16, 256):
                g = g0 + (levels + 1) * step  # G_{m+1} for m = levels
                n, d = alpha, g * (g + step)  # t_m = b_m
                exact = climb(alpha, step, g, n, d, levels)
                low, high = (climb(alpha, step, g, sign * (sign * n * one // d), one, levels, sign) for sign in (1, -1))
                if low is None:  # a floor run stops only at a tail >= 1
                    assert exact is None
                if exact is None:  # and an exact climb only where the ceil run stops too
                    assert high is None
                if None not in (low, exact, high):
                    assert low[1] == high[1] == one
                    assert low[0] * exact[1] <= one * exact[0] <= high[0] * exact[1]
