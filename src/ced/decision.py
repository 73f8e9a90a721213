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

At the two ends of the cell that `critical_rho` estimates, each end runs
only the test its side expects (`_settle`): first at the schedule depth
nearest, in log2, to the depth the estimate converged at; then, while it
passes, at each shallower depth until one fails; or, if it fails, once at
the next deeper depth.  The first passing depth is decide's: a passing
test is sound, so the other side's test fails at every depth, and a test
that passes at m passes at every later depth.  So the outcome equals
`decide`'s, certificate and m_reached included; an end that settles
neither way goes to `decide`.

`critical_rho` starts from the closed-form growth bounds, which
`growth_bounds` rounds outward onto the grid 2^-30 so midpoint
denominators stay small; `decide` settles them at depth 1 (see
`critical_rho`).  Bisection to width tol would end on a cell [lo + k w,
lo + (k+1) w], w = (hi - lo) / 2^n, of that grid.  The integer Newton
estimate `_estimate_rho_c` picks k; if the cell's ends certify Below and
Above, bisection takes no step and the growth bounds are never decided,
else it runs from [lo, hi].  Both final certificates are re-checked by
`verify_certificate` on the integers of `ced.certcheck`, which shares no
code with the kernels.

Lemma: the cell is bisection's bracket.  Each midpoint bisection would
visit is a grid point no nearer rho_c than the cell end on its side.
Below at depth m persists as rho falls: every b_j grows, and so does
every tail of the witness.  Above at depth m persists as rho rises: every
entry of the flattened fraction shrinks, a good fraction stays good as
its entries shrink, and psi's upper bound is monotone in b_m unless
1 - 4 b_m is a rational square (`_exact_closing` sends that case back to
bisection).  No midpoint certifies the other side at a smaller depth,
which would be false, so none is Undecided; and `decide` is
deterministic, and `_settle` returns its outcome, so endpoints,
certificates and m_reached are bisection's.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from ced.certcheck import check_above, check_below
from ced.contfrac import below_witness, km_good
from ced.params import (
    ModelParams,
    WindowPosition,
    growth_bounds,
    rho_extinction,
    weight_b,
    window_position,
)

#: Default depth cap of `decide`, and the largest `--max-m`: near the
#: threshold, m = 4096 takes 0.2 s at rho = 10^-300 and 23 s at a
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
    """Raised when an end of a critical-rate bracket lacks its side's verdict or fails its re-check."""


def _m_schedule(m_max: int) -> list[int]:
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return [1 << i for i in range((m_max - 1).bit_length())] + [m_max]  # 1, 2, 4, ... below m_max


def _below(p: ModelParams, m: int) -> Optional[DecisionOutcome]:
    witness = below_witness(p, m)
    return None if witness is None else DecisionOutcome(Verdict.BELOW, KernelBelow(m, witness), m)


def _above(p: ModelParams, m: int) -> Optional[DecisionOutcome]:
    return DecisionOutcome(Verdict.ABOVE, KernelAbove(m), m) if km_good(p, m) else None  # False whenever b_m >= 1/4


def decide(p: ModelParams, m_max: int = DEFAULT_M_MAX) -> DecisionOutcome:
    """Is rho below or above the critical death rate?  Certified either way.

    Short circuits: lambda certified outside the window with rho > 0 is
    Above (the threshold is zero there); rho = 0 inside the window is
    Below (the threshold is positive there).  rho = 0 outside the window
    sits exactly at the zero threshold and is reported Undecided, as is
    anything the kernels cannot separate by depth m_max.  Otherwise each
    depth of the schedule runs the below test, then the above test.
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
        out = _below(p, m) or _above(p, m)
        if out:
            return out
    return DecisionOutcome(Verdict.UNDECIDED, None, m_max)


def _settle(
    p: ModelParams, test: Callable[[ModelParams, int], Optional[DecisionOutcome]], m_max: int, near: int
) -> Optional[DecisionOutcome]:
    """`decide(p, m_max)` if `test` passes near depth `near`, else None (module docstring).

    rho > 0 with lambda inside the window.  `test` runs at the schedule depth
    nearest near in log2, then shallower while it passes, or once deeper.
    """
    schedule = _m_schedule(m_max)
    i = sum(near * near > a * b for a, b in zip(schedule, schedule[1:]))  # near is nearer b than a
    out = test(p, schedule[i])
    if out is None:
        return test(p, schedule[i + 1]) if i + 1 < len(schedule) else None
    while i and (shallower := test(p, schedule[i - 1])):
        out, i = shallower, i - 1
    return out


def verify_certificate(p: ModelParams, outcome: DecisionOutcome) -> bool:
    """Independently re-check the certificate attached to an outcome.

    Below witnesses are re-evaluated on the tail slice they name; above
    certificates re-run the b_m < 1/4 check and the good test of the
    flattened fraction; short-circuit certificates re-derive the window
    position.  Undecided outcomes carry no certificate and verify
    vacuously; a certificate of the other side's kind never verifies.

    Both kernel re-checks run in `ced.certcheck`, on unreduced integer
    pairs of tail values.  It shares no code with the continuant sweeps of
    `below_witness` and `km_good` that produced the certificates, and it
    proves its closing bound on psi(b_m) instead of trusting it.
    """
    cert = outcome.certificate
    if outcome.verdict is Verdict.UNDECIDED:
        return cert is None
    if isinstance(cert, (KernelBelow, ZeroRhoBelow)) != (outcome.verdict is Verdict.BELOW):
        return False
    if isinstance(cert, KernelBelow):
        return check_below(p, cert.m, cert.level)
    if isinstance(cert, KernelAbove):
        return check_above(p, cert.m)
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


def _estimate_sweep(r: int, m: int, bits: int, g: int, dl: int) -> tuple[int, int, int]:
    """(j, t_j, its slope in rho) for the tails of K[b_0, ..., b_m, b_{m+1}, b_{m+1}, ...].

    rho = r / 2^bits, g = (1 + lambda) 2^bits, dl = d lambda 2^(3 bits); j >= 1 is a pole t_j >= 1.
    """
    one, x2 = 1 << bits, g + (m + 2) * r  # x2 = 1 + lambda + (j + 2) rho
    s = math.isqrt(max(one - 4 * (dl // (x2 * (x2 + r))), 0) << bits)  # sqrt(1 - 4 b_{m+1})
    t, dt = (one - s) // 2 if s else 0, 0  # t = b_{m+1} / (1 - t), or 0 once b_{m+1} >= 1/4
    for j in range(m, -1, -1):
        x1 = x2 - r
        x12, den = x1 * x2, one - t
        bj = dl // x12
        dbj = -(bj * ((j + 1) * x2 + (j + 2) * x1) << bits) // x12  # b_j's slope
        t = (bj << bits) // den
        dt = ((dbj << bits) + t * dt) // den
        if t >= one and j:
            break
        x2 = x1
    return j, t, dt


def _estimate_rho_c(
    d: int, lam: Fraction, lo: Fraction, hi: Fraction, tol: Fraction, m_max: int
) -> Optional[tuple[Fraction, int]]:
    """(A guess at the root of K(rho) = 1 in [lo, hi], its depth D), or None; K is `_estimate_sweep`'s.

    Safeguarded fixed-point Newton on 1/K, smooth through K's first pole and
    quadratic: a step s < 2^-24 rho with s^2 < 2^23 rho (units 2^-bits) is the
    last.  At 64 bits for M = 8, 16, ... until the roots at M/2 and M agree on
    k >= 24 bits (k <= 40, what a 64-bit root holds; None past m_max).  As b_j
    falls with j, depth D errs by about rho 2^(-2kD/M): the last root, at
    bits(tol) + 41 bits, takes the least D >= M that puts this 2^10 below tol.
    The kernels mostly settle the ends of the root's cell at about depth D.
    """
    a, b = lam.numerator, lam.denominator

    def root(r: int, bits: int, m: int) -> int:  # r and the result are rho * 2^bits
        one, g, dl = 1 << bits, ((a + b) << bits) // b, (d * a << 3 * bits) // b
        left, right, last = (lo.numerator << bits) // lo.denominator, (hi.numerator << bits) // hi.denominator, None
        for _ in range(64):
            j, t, dt = _estimate_sweep(r, m, bits, g, dl)
            if j:  # a pole: K > 1 there, so the root lies to the right
                left, r = r, (r + right) // 2
                continue
            left, right = (r, right) if t > one else (left, r)
            step = (one - t) * t // dt
            if abs(step) << 24 < r and step * step < r << 23:
                return r + step
            if last and 2 * abs(step) >= last:  # at the rounding floor, or no root in reach
                return r
            last = abs(step)
            r = r + step if left < r + step < right else (left + right) // 2
        return r

    try:
        r, prev, m = math.floor((lo + hi) * 2**63), None, 8
        while prev is None or abs(r - prev) > r >> 24:
            if m > m_max:
                return None
            prev, r, m = r, root(r, 64, m), 2 * m
        bits = max(tol.denominator.bit_length() - tol.numerator.bit_length(), 0) + 41
        k = min(r.bit_length() - abs(r - prev).bit_length(), 40)  # depths M/2 and M = m/2 agree
        m = max(m // 2, -(-(bits - 95 + r.bit_length()) * m // (4 * k)))  # 2kD/M >= bits(tol) + 10 + log2(rho)
        return Fraction(root((r << bits) >> 64, bits, m), 1 << bits), m
    except ZeroDivisionError:  # a flat slope: no usable estimate
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

    `decide` settles the initial bracket `growth_bounds` (lo, hi) at depth 1:
    * lo = 0 by the rho = 0 short circuit.  For lo > 0, b_0 >= 1, so b_1 >= 1
      (a pole) or K[b_0, b_1] = b_0 / (1 - b_1) > 1: `below_witness` fires.
    * hi > 0, as b_0(0) = d lambda / (1 + lambda)^2 > 1/4 in the window.  As
      b_1 < b_0 <= 1/4 there, b_0 / (1 - b_1) < 1/3 is no witness, and
      `km_good` is good: psi's closing bound is at most 2, so b_0 times it
      is at most 1/2.
    The estimated cell is tried first, its ends settled near the estimate's
    depth (module docstring).  The growth bounds are decided only when
    bisection runs: then every midpoint is resolved by `decide`, and an
    Undecided midpoint stops the loop and is flagged on the returned
    bracket.  Each end of the result needs its side's verdict and a
    certificate that `verify_certificate` re-checks on integers, sharing no
    code with the kernels; else BracketError is raised instead of an
    unproven bracket.
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
    found = _estimate_rho_c(d, lam, lo, hi, tol, m_max) if n else None
    lo_out = hi_out = None
    if found is not None:  # certify the cell the estimate falls in (module docstring)
        estimate, near = found
        k = min(max(math.floor((estimate - lo) / w), 0), (1 << n) - 1)
        p_lo, p_hi = ModelParams(d, lam, lo + k * w), ModelParams(d, lam, lo + (k + 1) * w)
        cell_lo = (_settle(p_lo, _below, m_max, near) if p_lo.rho else None) or decide(p_lo, m_max)
        if cell_lo.verdict is Verdict.BELOW:
            cell_hi = _settle(p_hi, _above, m_max, near) or decide(p_hi, m_max)
            if cell_hi.verdict is Verdict.ABOVE and not _exact_closing(p_hi, cell_hi):
                lo, lo_out, hi, hi_out = p_lo.rho, cell_lo, p_hi.rho, cell_hi
    if lo_out is None:  # bisection from the growth bounds
        lo_out, hi_out = decide(ModelParams(d, lam, lo), m_max), decide(ModelParams(d, lam, hi), m_max)

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
    for rho, out, side in ((lo, lo_out, Verdict.BELOW), (hi, hi_out, Verdict.ABOVE)):
        if out.verdict is not side or not verify_certificate(ModelParams(d, lam, rho), out):
            raise BracketError(
                f"endpoint {rho} did not certify {side.value} with a certificate that passes "
                f"its re-check: {out.verdict.value}, {out.certificate}"
            )
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
    pool starts them all up front); one worker skips `concurrent.futures` (8 ms).
    """
    jobs = [(d, Fraction(lam), Fraction(tol), m_max) for lam in lambdas]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_curve_point(job) for job in jobs]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_curve_point, jobs))
