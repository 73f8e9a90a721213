"""Deciding a death rate against the critical one, with certificates.

For a spread rate certified inside the coexistence window and rho not
exactly critical, a finite amount of exact arithmetic settles which side
of the threshold rho is on:

* Below: some partial continued fraction K[b_i, ..., b_m] exceeds 1 (or
  blows up).  Certificate: the pair (m, i); re-verifiable by one slice
  evaluation.
* Above: b_m < 1/4 and the flattened kernel at depth m is good.
  Certificate: that m; re-verifiable by one good sweep.

Truncation depths follow a doubling schedule (1, 2, 4, ...) up to m_max:
the below witness tends to need large depth near the threshold while the
above test usually fires early, and doubling balances both without
quadratic total work.  Witnesses and goodness both persist as m grows, so
the schedule misses nothing reachable by m_max.  Undecided is a
first-class outcome: rho exactly at the threshold can never terminate,
and bisection callers stop gracefully instead of looping.

Every decision is one run of the kernel loop `contfrac._pass` up that
schedule (`contfrac.forward_pass`), which returns the first depth where
either test passes; a Below there runs the same loop once backward
(`below_witness`) for its level.

`critical_rho` bisects on the grid rho = lo + i w, w = (hi - lo) / 2^n,
between the closed-form growth bounds, rounded outward onto the grid 2^-30
so denominators stay small, and settled by `decide` at depth 1.
`_estimate_rho_c` picks the cell [k, k + 1] that bisection would end on, by
one safeguarded Newton loop over one sweep of the tails, on floats and then
in fixed point, on rho in units of 2^(the integer bits of hi).  Both final
certificates are re-checked by `verify_certificate` on the integers of
`ced.certcheck`, which shares no code with the kernels.

Persistence: each end of the cell that certifies settles its side of the
grid.  Below at depth m persists as rho falls: every b_j grows, and so
does every tail of the witness.  Above at depth m persists as rho rises:
every entry of the flattened fraction shrinks, a good fraction stays good
as its entries shrink, and psi's upper bound is monotone in b_m unless
1 - 4 b_m is a rational square (`_exact_closing`: that Above settles
nothing).  So each midpoint bisection would visit beyond a settled index
decides that index's side, and none is Undecided: skipping them leaves
bisection's other midpoints, its last cell and, as `decide` is
deterministic, that cell's outcomes.  A midpoint needs only its verdict:
its rho > 0, so its `forward_pass` gives `decide`'s.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional, Sequence, Union

from ced.certcheck import check_above, check_below
from ced.contfrac import below_witness, forward_pass
from ced.params import (
    ModelParams,
    WindowPosition,
    growth_bounds,
    rho_extinction,
    weight_b,
    window_position,
)

#: Default depth cap of `decide`, and the largest `--max-m`: near the
#: threshold, m = 4096 takes 0.1 s at rho = 10^-300 and 12 s at a
#: 4200-digit denominator (2-core Xeon).
DEFAULT_M_MAX = 4096


class Verdict(enum.Enum):
    BELOW = "below"
    ABOVE = "above"
    UNDECIDED = "undecided"


class Phase(enum.Enum):
    COEXISTENCE = "coexistence"
    ESCAPE = "escape"
    EXTINCTION = "extinction"
    BOUNDARY_UNRESOLVED = "boundary-unresolved"


@dataclass(frozen=True)
class KernelBelow:
    """K[b_level, ..., b_m] exceeds 1 or blows up."""

    kind: ClassVar[str] = "kernel-below"
    verdict: ClassVar[Verdict] = Verdict.BELOW
    m: int
    level: int

    def holds(self, p: ModelParams) -> bool:
        return check_below(p, self.m, self.level)


@dataclass(frozen=True)
class KernelAbove:
    """b_m < 1/4 and the flattened kernel at depth m is good."""

    kind: ClassVar[str] = "kernel-above"
    verdict: ClassVar[Verdict] = Verdict.ABOVE
    m: int

    def holds(self, p: ModelParams) -> bool:
        return check_above(p, self.m)


@dataclass(frozen=True)
class OutsideWindowAbove:
    """lambda certified outside the coexistence window (zero threshold), rho > 0."""

    kind: ClassVar[str] = "outside-window"
    verdict: ClassVar[Verdict] = Verdict.ABOVE
    side: str  # "left" | "right"

    def holds(self, p: ModelParams) -> bool:
        expected = WindowPosition.OUTSIDE_LEFT if self.side == "left" else WindowPosition.OUTSIDE_RIGHT
        return p.rho > 0 and window_position(p.d, p.lam) is expected


@dataclass(frozen=True)
class ZeroRhoBelow:
    """rho = 0 with lambda certified inside the window (positive threshold)."""

    kind: ClassVar[str] = "zero-rho"
    verdict: ClassVar[Verdict] = Verdict.BELOW

    def holds(self, p: ModelParams) -> bool:
        return p.rho == 0 and window_position(p.d, p.lam) is WindowPosition.INSIDE


Certificate = Union[KernelBelow, KernelAbove, OutsideWindowAbove, ZeroRhoBelow]


@dataclass(frozen=True)
class DecisionOutcome:
    verdict: Verdict
    certificate: Optional[Certificate]
    m_reached: int  # deepest truncation examined; 0 for short-circuits


class OutsideWindowError(ValueError):
    """Raised when an operation requires lambda inside the coexistence window."""


class BracketError(RuntimeError):
    """Raised when an end of a critical-rate bracket lacks its side's verdict or fails its re-check."""


def _m_schedule(m_max: int) -> list[int]:
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return [1 << i for i in range((m_max - 1).bit_length())] + [m_max]  # 1, 2, 4, ... below m_max


def decide(p: ModelParams, m_max: int = DEFAULT_M_MAX) -> DecisionOutcome:
    """Is rho below or above the critical death rate?  Certified either way.

    Short circuits: lambda certified outside the window with rho > 0 is
    Above (the threshold is zero there); rho = 0 inside the window is
    Below (the threshold is positive there).  rho = 0 outside the window
    sits exactly at the zero threshold and is reported Undecided, as is
    anything the kernels cannot separate by depth m_max.  Otherwise one
    forward pass finds the first depth of the schedule where a test passes.
    """
    pos = window_position(p.d, p.lam)
    if pos.is_outside:
        if p.rho > 0:
            side = "left" if pos is WindowPosition.OUTSIDE_LEFT else "right"
            return DecisionOutcome(Verdict.ABOVE, OutsideWindowAbove(side), 0)
        return DecisionOutcome(Verdict.UNDECIDED, None, 0)  # rho == 0 == threshold
    if p.rho == 0:
        return DecisionOutcome(Verdict.BELOW, ZeroRhoBelow(), 0)
    hit = forward_pass(p, _m_schedule(m_max))
    if hit is None:
        return DecisionOutcome(Verdict.UNDECIDED, None, m_max)
    m, below = hit
    if below:
        return DecisionOutcome(Verdict.BELOW, KernelBelow(m, below_witness(p, m)), m)
    return DecisionOutcome(Verdict.ABOVE, KernelAbove(m), m)


def verify_certificate(p: ModelParams, outcome: DecisionOutcome) -> bool:
    """Independently re-check the certificate attached to an outcome.

    With no certificate, only an Undecided outcome verifies.  Otherwise the
    certificate must be of its verdict's kind, and the `holds` of its class
    re-checks it: `KernelBelow` re-evaluates its tail slice, `KernelAbove` the
    b_m < 1/4 check and the good test of the flattened fraction; the two
    short-circuit kinds re-derive the window position and the sign of rho.

    Both kernel re-checks run in `ced.certcheck`, on unreduced integer
    pairs of tail values.  It shares no code with `contfrac._pass`, the one
    kernel loop that produced the certificates (run forward by
    `forward_pass`, backward by `below_witness`), and it proves its
    closing bound on psi(b_m) instead of trusting it.
    """
    cert = outcome.certificate
    if cert is None:
        return outcome.verdict is Verdict.UNDECIDED
    return cert.verdict is outcome.verdict and cert.holds(p)


@dataclass(frozen=True)
class CriticalBracket:
    """Interval [lo, hi] proven to contain the critical death rate.

    decide(lo) certified Below and decide(hi) certified Above; both
    outcomes are attached.  `unresolved_midpoint` is set when a bisection
    midpoint came back Undecided; lo and hi are the cell it splits.
    """

    lam: Fraction
    lo: Fraction
    hi: Fraction
    lo_outcome: DecisionOutcome
    hi_outcome: DecisionOutcome
    unresolved_midpoint: Optional[Fraction] = None


def _estimate_sweep(r, m, one, g, dl):
    """(j, t_j, its slope in x) for the tails of K[b_0, ..., b_m, b_{m+1}, b_{m+1}, ...]; j >= 1: a pole t_j >= 1.

    Floats if one = 1.0, else integers in units of 1/one, divided with floor,
    as in `_newton`: r = x one, g = (1 + lambda) 2^-e one and dl = d lambda
    4^-e one^4, so b_j = dl / (x1 x2) with x1 = g + (j + 1) r and x2 = x1 + r.
    Two divisions a level, from t = t_{j+1} and its slope t': q = x1 x2 (1 - t),
    t_j = dl / q and t_j' = t_j (t' x1 x2 - ((j + 1)(x1 + x2) + x1)(1 - t)) / q.
    The tail closes as the above kernel closes it, with slope 0.
    """
    div, root = (operator.truediv, math.sqrt) if isinstance(one, float) else (operator.floordiv, math.isqrt)
    x2 = g + (m + 2) * r
    v = one * one - div(4 * dl, x2 * (x2 + r))  # 1 - 4 b_{m+1}
    t, dt = div(one - root(v), 2) if v > 0 else 0 * one, 0 * one  # t = b_{m+1} / (1 - t), or 0 once b_{m+1} >= 1/4
    for j in range(m, -1, -1):
        x1 = g + (j + 1) * r  # afresh, lest floats drift
        x12, rest = x1 * x2, one - t
        q = x12 * rest
        t = div(dl, q)
        dt = div(t * (dt * x12 - ((j + 1) * (x1 + x2) + x1) * one * rest), q)
        if t >= one and j:
            break
        x2 = x1
    return j, t, dt


def _newton(r, left, right, one, m, g, dl):
    """Safeguarded Newton on 1/K from r to K = 1 in (left, right); (j, K, K') = _estimate_sweep(r, m, one, g, dl).

    Floats if one = 1.0, else integers in units of 1/one, divided with floor.
    A pole (j >= 1) sends r halfway to right.  A step s = (1 - K) K / K' with
    |s| < 2^-24 r and s^2 < 2^23 r in units of the last bit (2^-64 for floats)
    is the last; one that does not halve the one before stops at r, and one
    that leaves the bracket goes to its midpoint.  64 sweeps at most.
    """
    div, fine = (operator.truediv, 2**-41) if isinstance(one, float) else (operator.floordiv, 1 << 23)
    last = None
    for _ in range(64):
        j, t, dt = _estimate_sweep(r, m, one, g, dl)
        if j:
            left, r = r, div(r + right, 2)
            continue
        left, right = (r, right) if t > one else (left, r)
        step = div((one - t) * t, dt)
        if not (abs(step) * 2**24 >= r or step * step >= r * fine):  # a NaN step stops too
            return r + step
        if last and 2 * abs(step) >= last:  # at the rounding floor, or no root in reach
            return r
        last = abs(step)
        r = r + step if left < r + step < right else div(left + right, 2)
    return r


def _estimate_rho_c(
    d: int, lam: Fraction, lo: Fraction, hi: Fraction, tol: Fraction, m_max: int
) -> Optional[Fraction]:
    """A guess at the root of K(rho) = 1 in [lo, hi], or None; K is `_estimate_sweep`'s.

    One loop, `_newton`, on one sweep, `_estimate_sweep`, runs both stages on
    x = rho / 2^e, e the integer bits of hi, so x < 1 and every stop test and
    slope is relative.  On floats for M = 8, 16, ... until the roots at M/2
    and M agree on k >= 24 bits or M reaches m_max (1 <= k <= 40; None if
    m_max < 8).  As b_j falls with j, depth D errs by about x 2^(-2kD/M): D
    is the least depth >= M that puts this 2^10 below tol / 2^e, capped at
    m_max.  At depth D the loop polishes the float root, within 2^(1-k) of
    it, on bits(tol / 2^e) + 41 fixed-point bits.
    """
    a, b, e = lam.numerator, lam.denominator, int(hi).bit_length()
    try:
        g, dl, lo_f, hi_f = (a + b) / b / 2**e, d * a / b / 4**e, float(lo) / 2**e, float(hi) / 2**e
        r, prev, m = (lo_f + hi_f) / 2, None, 8
        while m <= m_max and (prev is None or abs(r - prev) > r * 2**-24):
            prev, r, m = r, _newton(r, lo_f, hi_f, 1.0, m, g, dl), 2 * m
        if prev is None:  # m_max < 8: no root
            return None
        deep, shallow = int(r * 2**64), int(prev * 2**64)
        bits = max(tol.denominator.bit_length() + e - tol.numerator.bit_length(), 0) + 41  # bits(tol / 2^e) + 41
        k = max(min(deep.bit_length() - abs(deep - shallow).bit_length(), 40), 1)  # depths M/2 and M = m/2 agree
        # D: 2kD/M >= bits(tol) + 10 + log2(rho), at least M = m/2 and at most m_max
        m = min(max(m // 2, -(-(bits - 95 + deep.bit_length()) * m // (4 * k))), m_max)
        g, dl = ((a + b) << bits) // (b << e), (d * a << 4 * bits) // (b << 2 * e)
        left, r, right = (((deep + i * (deep >> (k - 1))) << bits) >> 64 for i in (-1, 0, 1))
        return Fraction(_newton(r, left, right, 1 << bits, m, g, dl) << e, 1 << bits)
    except (ZeroDivisionError, OverflowError, ValueError):  # a flat slope, a NaN or a float past range
        return None


def _exact_closing(p: ModelParams, outcome: DecisionOutcome) -> bool:
    """Did outcome's KernelAbove sweep close with psi exact: is 1 - 4 b_m a rational square?"""
    r = 1 - 4 * weight_b(p, outcome.certificate.m)
    return all(math.isqrt(n) ** 2 == n for n in (r.numerator, r.denominator))


def critical_rho(
    d: int,
    lam: Fraction | int,
    tol: Fraction,
    m_max: int = DEFAULT_M_MAX,
) -> CriticalBracket:
    """Bracket the critical death rate to width <= tol, certified at both ends.

    One bisection over rho = lo + i w, w <= tol, 0 <= i <= 2^n, between the
    growth bounds (lo, hi), which `decide` settles at depth 1:
    * lo = 0 by the rho = 0 short circuit.  For lo > 0, b_0 >= 1, so b_1 >= 1
      (a pole) or K[b_0, b_1] = b_0 / (1 - b_1) > 1: `below_witness` fires.
    * hi > 0, as b_0(0) = d lambda / (1 + lambda)^2 > 1/4 in the window.  As
      b_1 < b_0 <= 1/4 there, b_0 / (1 - b_1) < 1/3 is no witness, and the
      closing test at depth 1 passes: psi's closing bound is at most 2, so
      b_0 times it is at most 1/2.
    `decide` runs at each end of the estimated cell not yet settled (module
    docstring); each midpoint of the least bisection cell holding the
    settled indices takes only its verdict, from `forward_pass`.  An
    Undecided one stops the loop, is flagged, and its cell is returned.
    The returned ends are decided once, so they run `below_witness` once;
    each needs its side's verdict and a certificate that
    `verify_certificate` re-checks on integers, sharing no code with the
    kernels; else BracketError is raised instead of an unproven bracket.
    """
    lam = Fraction(lam)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if window_position(d, lam).is_outside:
        raise OutsideWindowError(
            f"lambda = {lam} lies outside the coexistence window for d = {d}; "
            "the critical death rate is 0 there"
        )

    lo, hi = growth_bounds(d, lam)
    n = (math.ceil((hi - lo) / tol) - 1).bit_length()  # bisection's steps, to cells w wide
    w = (hi - lo) / (1 << n)
    known = {}  # grid index i -> (ModelParams at lo + i w, its outcome): each rho is decided once

    def settle(i):
        if i not in known:
            p = ModelParams(d, lam, lo + i * w)
            known[i] = p, decide(p, m_max)
        return known[i]

    below, above = 0, 1 << n  # the largest index known Below, the least known Above
    estimate = _estimate_rho_c(d, lam, lo, hi, tol, m_max) if n else None
    if estimate is not None:  # settle the ends of the cell the estimate falls in (module docstring)
        k = min(max(math.floor((estimate - lo) / w), 0), (1 << n) - 1)
        for i in (k, k + 1):
            if below < i < above:
                p, out = settle(i)
                if out.verdict is Verdict.BELOW:
                    below = i
                elif out.verdict is Verdict.ABOVE and not _exact_closing(p, out):
                    above = i
    unresolved = None
    while above - below > 1:
        h = (below ^ (above - 1)).bit_length() - 1  # the least bisection cell holding both is 2^(h+1) wide
        mid = (below >> h | 1) << h
        hit = forward_pass(ModelParams(d, lam, lo + mid * w), _m_schedule(m_max))  # (m, Below?) or None
        if hit is None:
            unresolved, below, above = lo + mid * w, mid - (1 << h), mid + (1 << h)
            break
        below, above = (mid, above) if hit[1] else (below, mid)
    (p_lo, lo_out), (p_hi, hi_out) = settle(below), settle(above)
    for p, out, side in ((p_lo, lo_out, Verdict.BELOW), (p_hi, hi_out, Verdict.ABOVE)):
        if out.verdict is not side or not verify_certificate(p, out):
            raise BracketError(
                f"endpoint {p.rho} did not certify {side.value} with a certificate that passes "
                f"its re-check: {out.verdict.value}, {out.certificate}"
            )
    return CriticalBracket(lam, p_lo.rho, p_hi.rho, lo_out, hi_out, unresolved)


def classify_phase(p: ModelParams, m_max: int = DEFAULT_M_MAX) -> Phase:
    """Coexistence, escape, or extinction for one parameter triple.

    Extinction whenever rho >= lambda (d-1): red alone is not supercritical.
    With rho = 0 nothing dies, and blue coexists exactly when lambda clears
    the lower window edge (the upper edge only matters for rho > 0, where
    a large gap behind a mortal front kills coexistence).  Otherwise the
    decision kernel settles which side of the threshold rho is on.  The
    window test is exact, so only rho too close to the threshold for the
    stated depth comes back BOUNDARY_UNRESOLVED; it is reported, not guessed.
    """
    if p.rho >= rho_extinction(p.d, p.lam):
        return Phase.EXTINCTION
    out = decide(p, m_max)
    if out.verdict is Verdict.BELOW:
        return Phase.COEXISTENCE
    if out.verdict is Verdict.ABOVE:
        return Phase.ESCAPE
    pos = window_position(p.d, p.lam)
    if p.rho == 0 and pos.is_outside:  # rho sits on the zero threshold
        return Phase.COEXISTENCE if pos is WindowPosition.OUTSIDE_RIGHT else Phase.ESCAPE
    return Phase.BOUNDARY_UNRESOLVED


def _curve_point(args: tuple[int, Fraction, Fraction, int]) -> Optional[CriticalBracket]:
    d, lam, tol, m_max = args
    return None if window_position(d, lam).is_outside else critical_rho(d, lam, tol, m_max)


def rho_c_curve(
    d: int,
    lambdas: Sequence[Fraction | int],
    tol: Fraction,
    m_max: int = DEFAULT_M_MAX,
    threads: int = 1,
) -> list[Optional[CriticalBracket]]:
    """The certified bracket of the critical death rate at each lambda of a grid.

    None stands for a lambda outside the window, where the threshold is
    exactly 0.  Results come back in grid order and are deterministic
    given the inputs; grid points are independent, so threads > 1 fans
    them out across processes, at most one per grid point and per CPU (a fork
    pool starts them all up front) in chunks of a quarter of a worker's
    share; one worker skips `concurrent.futures` (8 ms).
    """
    jobs = [(d, Fraction(lam), Fraction(tol), m_max) for lam in lambdas]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_curve_point(job) for job in jobs]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_curve_point, jobs, chunksize=-(-len(jobs) // (4 * workers))))
