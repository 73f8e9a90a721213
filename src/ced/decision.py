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

Bisection starts from the closed-form growth bounds, snapped outward to a
dyadic grid so midpoint denominators stay small, and certifies both
endpoints of the final bracket, whose certificates are then re-checked on
Fractions by `verify_certificate`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from ced._workers import map_jobs
from ced.contfrac import below_witness, eval_finite, is_good, km_good, psi_bounds
from ced.params import (
    ModelParams,
    WindowPosition,
    growth_bounds,
    rho_extinction,
    weight_b,
    window_position,
)

DEFAULT_M_MAX = 4096

#: Bisection endpoints are snapped outward to multiples of 1/_DYADIC_GRID;
#: plain midpoint averaging then keeps rho's denominator e a power of two no
#: larger than the tolerance needs.  That bounds the integers G_i and alpha
#: of the continuant sweeps, so each level stays one big-by-small product.
_DYADIC_GRID = 1 << 30

_ZERO = Fraction(0)
_QUARTER = Fraction(1, 4)


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

    m: int
    level: int


@dataclass(frozen=True)
class KernelAbove:
    """b_m < 1/4 and the flattened kernel at depth m is good."""

    m: int


@dataclass(frozen=True)
class OutsideWindowAbove:
    """lambda certified outside the coexistence window (zero threshold), rho > 0."""

    side: str  # "left" | "right"


@dataclass(frozen=True)
class ZeroRhoBelow:
    """rho = 0 with lambda certified inside the window (positive threshold)."""


Certificate = Union[KernelBelow, KernelAbove, OutsideWindowAbove, ZeroRhoBelow]


@dataclass(frozen=True)
class DecisionOutcome:
    verdict: Verdict
    certificate: Optional[Certificate]
    m_reached: int  # deepest truncation examined; 0 for short-circuits


class OutsideWindowError(ValueError):
    """Raised when an operation requires lambda inside the coexistence window."""


class BracketError(RuntimeError):
    """Raised when bisection cannot certify its initial endpoints or re-check its final ones."""


def _m_schedule(m_max: int) -> list[int]:
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    out = []
    m = 1
    while m < m_max:
        out.append(m)
        m *= 2
    out.append(m_max)
    return out


def decide(p: ModelParams, m_max: int = DEFAULT_M_MAX) -> DecisionOutcome:
    """Is rho below or above the critical death rate?  Certified either way.

    Short circuits: lambda certified outside the window with rho > 0 is
    Above (the threshold is zero there); rho = 0 inside the window is
    Below (the threshold is positive there).  rho = 0 outside the window
    sits exactly at the zero threshold and is reported Undecided, as is
    anything the kernels cannot separate by depth m_max.
    """
    pos = window_position(p.d, p.lam)
    if pos.is_outside:
        if p.rho > 0:
            side = "left" if pos is WindowPosition.OUTSIDE_LEFT else "right"
            return DecisionOutcome(Verdict.ABOVE, OutsideWindowAbove(side), 0)
        return DecisionOutcome(Verdict.UNDECIDED, None, 0)  # rho == 0 == threshold
    if p.rho == 0:
        return DecisionOutcome(Verdict.BELOW, ZeroRhoBelow(), 0)

    for m in _m_schedule(m_max):
        witness = below_witness(p, m)
        if witness is not None:
            return DecisionOutcome(Verdict.BELOW, KernelBelow(m, witness), m)
        if km_good(p, m):  # False whenever b_m >= 1/4
            return DecisionOutcome(Verdict.ABOVE, KernelAbove(m), m)
    return DecisionOutcome(Verdict.UNDECIDED, None, m_max)


def verify_certificate(p: ModelParams, outcome: DecisionOutcome) -> bool:
    """Independently re-check the certificate attached to an outcome.

    Below witnesses are re-evaluated on the tail slice they name; above
    certificates re-run the b_m < 1/4 check and the good test of the
    flattened fraction; short-circuit certificates re-derive the window
    position.  Undecided outcomes carry no certificate and verify
    vacuously; a certificate of the other side's kind never verifies.

    Both kernel re-checks run on Fractions from `weight_b`: `eval_finite`
    on the witness slice, and `psi_bounds` plus `is_good` on
    K[b_0, ..., b_{m-2}, b_{m-1} psi(b_m)].  Neither shares code with the
    integer continuant sweeps of `below_witness` and `km_good` that
    produced the certificates.
    """
    cert = outcome.certificate
    if outcome.verdict is Verdict.UNDECIDED:
        return cert is None
    if isinstance(cert, (KernelBelow, ZeroRhoBelow)) != (outcome.verdict is Verdict.BELOW):
        return False
    if isinstance(cert, KernelBelow):
        if not (0 <= cert.level <= cert.m):
            return False
        ev = eval_finite([weight_b(p, j) for j in range(cert.level, cert.m + 1)])
        return ev.is_pole or (ev.value is not None and ev.value > 1)
    if isinstance(cert, KernelAbove):
        if cert.m < 1:
            return False
        b = [weight_b(p, j) for j in range(cert.m + 1)]
        if not b[-1] < _QUARTER:
            return False
        return is_good(b[:-2] + [b[-2] * psi_bounds(b[-1]).upper]).good
    if isinstance(cert, OutsideWindowAbove):
        pos = window_position(p.d, p.lam)
        expected = (
            WindowPosition.OUTSIDE_LEFT if cert.side == "left" else WindowPosition.OUTSIDE_RIGHT
        )
        return pos is expected and p.rho > 0
    if isinstance(cert, ZeroRhoBelow):
        return p.rho == 0 and window_position(p.d, p.lam) is WindowPosition.INSIDE
    return False


@dataclass(frozen=True)
class CriticalBracket:
    """Interval [lo, hi] proven to contain the critical death rate.

    decide(lo) certified Below and decide(hi) certified Above; both
    outcomes are attached.  `unresolved_midpoint` is set when a bisection
    midpoint came back Undecided and the bracket is the best achieved.
    """

    lam: Fraction
    lo: Fraction
    hi: Fraction
    lo_outcome: DecisionOutcome
    hi_outcome: DecisionOutcome
    unresolved_midpoint: Optional[Fraction] = None

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _snap_down(x: Fraction) -> Fraction:
    return Fraction(math.floor(x * _DYADIC_GRID), _DYADIC_GRID)


def _snap_up(x: Fraction) -> Fraction:
    return Fraction(math.ceil(x * _DYADIC_GRID), _DYADIC_GRID)


def critical_rho(
    d: int,
    lam: Fraction | int,
    tol: Fraction,
    m_max: int = DEFAULT_M_MAX,
) -> CriticalBracket:
    """Bracket the critical death rate to width <= tol by certified bisection.

    The initial bracket comes from the closed-form growth bounds: the
    clamped lower bound rounded down to the dyadic grid (still at or below
    the threshold) and the upper bound's enclosure rounded up (still
    strictly above).  Every midpoint is resolved by `decide`; an Undecided
    midpoint stops the loop and is flagged on the returned bracket.  Both
    endpoint certificates of the result are re-checked by
    `verify_certificate`, whose Fraction path shares no code with the
    integer kernels that found them; a failed re-check raises BracketError
    instead of returning an unproven bracket.
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

    bound_lo, bound_hi = growth_bounds(d, lam)
    lo = max(_ZERO, _snap_down(bound_lo.lo))
    hi = _snap_up(bound_hi.hi)

    lo_out = decide(ModelParams(d, lam, lo), m_max)
    if lo_out.verdict is Verdict.UNDECIDED and lo > 0:
        # The closed-form lower bound can hug the threshold; rho = 0 cannot.
        lo = _ZERO
        lo_out = decide(ModelParams(d, lam, lo), m_max)
    if lo_out.verdict is not Verdict.BELOW:
        raise BracketError(f"lower endpoint {lo} did not certify Below: {lo_out.verdict}")

    hi_out = decide(ModelParams(d, lam, hi), m_max)
    if hi_out.verdict is not Verdict.ABOVE:
        raise BracketError(
            f"upper endpoint {hi} did not certify Above: {hi_out.verdict}; "
            "increase m_max or widen the tolerance"
        )

    unresolved = None
    while hi - lo > tol:
        mid = (lo + hi) / 2
        out = decide(ModelParams(d, lam, mid), m_max)
        if out.verdict is Verdict.BELOW:
            lo, lo_out = mid, out
        elif out.verdict is Verdict.ABOVE:
            hi, hi_out = mid, out
        else:
            unresolved = mid
            break
    for rho, out in ((lo, lo_out), (hi, hi_out)):
        if not verify_certificate(ModelParams(d, lam, rho), out):
            raise BracketError(f"the certificate of endpoint {rho} failed its re-check: {out.certificate}")
    return CriticalBracket(lam, lo, hi, lo_out, hi_out, unresolved)


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


@dataclass(frozen=True)
class CurvePoint:
    """One row of the critical-rate curve: lambda and its certified bracket.

    status is "bracket" for a full-width-certified row, "outside" for
    lambda outside the window (threshold exactly 0), and "unresolved"
    when bisection stopped early on an Undecided midpoint.
    """

    lam: Fraction
    lo: Fraction
    hi: Fraction
    status: str
    bracket: Optional[CriticalBracket] = None


def _curve_point(args: tuple[int, Fraction, Fraction, int]) -> CurvePoint:
    d, lam, tol, m_max = args
    if window_position(d, lam).is_outside:
        return CurvePoint(lam, _ZERO, _ZERO, "outside")
    bracket = critical_rho(d, lam, tol, m_max)
    status = "unresolved" if bracket.unresolved_midpoint is not None else "bracket"
    return CurvePoint(lam, bracket.lo, bracket.hi, status, bracket)


def rho_c_curve(
    d: int,
    lambdas: Sequence[Fraction | int],
    tol: Fraction,
    m_max: int = DEFAULT_M_MAX,
    threads: int = 1,
) -> list[CurvePoint]:
    """Certified bracket rows of the critical death rate over a lambda grid.

    Grid points outside the window produce (lambda, 0, 0) rows.  Rows come
    back in grid order and are deterministic given the inputs; grid points
    are independent, so threads > 1 fans them out across processes, at
    most one per grid point and per CPU.
    """
    jobs = [(d, Fraction(lam), Fraction(tol), m_max) for lam in lambdas]
    return map_jobs(_curve_point, jobs, threads)
