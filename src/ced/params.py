"""Model parameters, exact rational weights, and closed-form critical quantities.

The model lives on the rooted d-ary tree: red spreads to white children at
rate lambda, blue overtakes red at rate 1, red dies at rate rho.  Everything
downstream consumes the height-indexed step weights defined here:

    u(j) = lambda / (1 + lambda + (j+1) rho)      rise from height j
    v(j) = 1 / (1 + lambda + (j+2) rho)           fall ending at height j
    a(j) = u(j) v(j)                              per-excursion weight
    b(j) = d a(j)                                 tree-weighted variant

All certified computation happens in exact rational arithmetic
(`fractions.Fraction`: lowest terms, positive denominator, exact ops,
division by zero raises).  The endpoints of the coexistence window

    lambda_c^-/+ = 2d - 1 -/+ 2 sqrt(d^2 - d)

are irrational, yet no rational lambda needs them: one integer sign test
places it (`window_position`).  Other irrational quantities, such as the
closed-form growth bounds, are returned as directed enclosures: intervals
with rational endpoints, outward rounded, so strict inequality tests
against them stay sound without symbolic algebra.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

#: Default width of directed enclosures for irrational quantities.
DEFAULT_ENCLOSURE_WIDTH = Fraction(1, 10**30)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Enclosure:
    """Directed interval [lo, hi] with rational endpoints.

    The enclosed real value r satisfies lo <= r <= hi.  When the value is
    known to be irrational the bounds are strict, so `hi < x` certifies
    r < x and `lo > x` certifies r > x.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def sqrt_enclosure(x: Fraction | int, width: Fraction = DEFAULT_ENCLOSURE_WIDTH) -> Enclosure:
    """Enclose sqrt(x) in a rational interval no wider than `width`.

    Uses the integer square root (monotone Newton refinement under the
    hood) on a scaled radicand: with x = p/q and N = ceil(1 / (width q)),

        s = isqrt(p q N^2)  gives  s <= N sqrt(pq) < s + 1,

    so sqrt(x) = sqrt(pq)/q lies in [s/(Nq), (s+1)/(Nq)], an interval of
    width 1/(Nq) <= width.  Exact when x is a perfect rational square.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if width <= 0:
        raise ValueError("enclosure width must be positive")
    if x == 0:
        return Enclosure(_ZERO, _ZERO)
    p, q = x.numerator, x.denominator
    n = p * q
    scale = max(1, -(-width.denominator // (width.numerator * q)))  # ceil(1 / (width q))
    s = math.isqrt(n * scale * scale)
    if s * s == n * scale * scale:
        root = Fraction(s, scale * q)
        return Enclosure(root, root)
    return Enclosure(Fraction(s, scale * q), Fraction(s + 1, scale * q))


def _validated(d: int, lam: Fraction | int) -> Fraction:
    """Check d and lambda > 0; return lambda as a Fraction."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValueError(f"branching factor d must be an integer >= 2, got {d!r}")
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError(f"spread rate lambda must be positive, got {lam}")
    return lam


@dataclass(frozen=True)
class ModelParams:
    """The triple (d, lambda, rho): branching factor, spread rate, death rate.

    d >= 2 children per vertex, lambda > 0 exact rational, rho >= 0 exact
    rational.  rho = 0 is allowed (the classic chase-escape limit).
    """

    d: int
    lam: Fraction
    rho: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _validated(self.d, self.lam))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.rho < 0:
            raise ValueError(f"death rate rho must be nonnegative, got {self.rho}")


class WindowPosition(enum.Enum):
    """Exact location of a rational spread rate relative to the open window.

    Both window endpoints are irrational, so no rational lies on one: every
    lambda is strictly inside or strictly to one side.
    """

    INSIDE = "inside"
    OUTSIDE_LEFT = "outside-left"
    OUTSIDE_RIGHT = "outside-right"

    @property
    def is_outside(self) -> bool:
        return self in (WindowPosition.OUTSIDE_LEFT, WindowPosition.OUTSIDE_RIGHT)


def window_position(d: int, lam: Fraction | int) -> WindowPosition:
    """Place lam inside, left of, or right of the coexistence window, exactly.

    The window endpoints are the roots 2d - 1 -/+ 2 sqrt(d^2 - d) of
    x^2 - (4d-2)x + 1.  Since (d-1)^2 < d^2 - d < d^2, they are irrational,
    so for lam = a/b the integer a^2 - (4d-2)ab + b^2, which is b^2 times
    the quadratic at lam, is never zero.  Its sign alone decides: negative
    strictly inside the window, positive outside, where comparing lam with
    the roots' midpoint 2d - 1 tells left from right.
    """
    lam = _validated(d, lam)
    a, b = lam.numerator, lam.denominator
    if a * a - (4 * d - 2) * a * b + b * b < 0:
        return WindowPosition.INSIDE
    return WindowPosition.OUTSIDE_LEFT if a < (2 * d - 1) * b else WindowPosition.OUTSIDE_RIGHT


def rho_extinction(d: int, lam: Fraction | int) -> Fraction:
    """Death rate at which red itself dies out: lambda (d - 1), exactly."""
    return _validated(d, lam) * (d - 1)


def growth_bounds(d: int, lam: Fraction | int) -> tuple[Enclosure, Enclosure]:
    """Enclose the closed-form bounds that bracket the critical death rate.

    Both bounds have the shape ( sqrt(c lambda + lambda^2 + 1) - 3 lambda - 3 ) / 4
    with c = 8d + 2 for the lower and c = 32d + 2 for the upper.  For lam
    inside the coexistence window they bracket the critical rate from
    below and strictly above.  The lower bound is clamped at zero (a
    negative bound says nothing for rho >= 0); the upper is left
    unclamped so a certified-negative value signals lam outside the
    window.  Each enclosure is DEFAULT_ENCLOSURE_WIDTH wide at most.
    """
    lam = _validated(d, lam)

    def radical_bound(coeff: int) -> Enclosure:
        radicand = coeff * lam + lam * lam + 1
        root = sqrt_enclosure(radicand, 4 * DEFAULT_ENCLOSURE_WIDTH)
        return Enclosure((root.lo - 3 * lam - 3) / 4, (root.hi - 3 * lam - 3) / 4)

    lower = radical_bound(8 * d + 2)
    upper = radical_bound(32 * d + 2)
    clamped = Enclosure(max(_ZERO, lower.lo), max(_ZERO, lower.hi))
    return clamped, upper


def _progression_origin(p: ModelParams) -> tuple[int, int]:
    """G_0 = be + ae and the step bc of the progression G_i = G_0 + i bc."""
    a, b = p.lam.numerator, p.lam.denominator
    c, e = p.rho.numerator, p.rho.denominator
    return b * e + a * e, b * c


def weight_u(p: ModelParams, j: int) -> Fraction:
    """Rise weight at height j."""
    if j < 0:
        raise ValueError("height index must be nonnegative")
    return p.lam / (1 + p.lam + (j + 1) * p.rho)


def weight_v(p: ModelParams, j: int) -> Fraction:
    """Fall weight ending at height j."""
    if j < 0:
        raise ValueError("height index must be nonnegative")
    return _ONE / (1 + p.lam + (j + 2) * p.rho)


def weight_a(p: ModelParams, j: int) -> Fraction:
    """Excursion weight a_j = u(j) v(j) = a b e^2 / (G_{j+1} G_{j+2}) (see `progression`).

    Strictly decreasing in j when rho > 0.
    """
    if j < 0:
        raise ValueError("height index must be nonnegative")
    g0, step = _progression_origin(p)
    g = g0 + (j + 1) * step
    return Fraction(p.lam.numerator * p.lam.denominator * p.rho.denominator**2, g * (g + step))


def weight_b(p: ModelParams, j: int) -> Fraction:
    """Tree-weighted excursion weight b_j = d a_j."""
    return p.d * weight_a(p, j)


def progression(p: ModelParams, n: int) -> list[int]:
    """G_0, ..., G_n with G_i = be + ae + i bc, where lambda = a/b and rho = c/e.

    1 + lambda + i rho = G_i / (be), so the weights in integers are

        u(j) = ae / G_{j+1},   v(j) = be / G_{j+2},
        b_j = alpha / (G_{j+1} G_{j+2}),   alpha = d a b e^2.

    The exact Catalan recurrence and the continued-fraction kernels both
    run on these integers instead of on Fractions.
    """
    g0, step = _progression_origin(p)
    return [g0 + i * step for i in range(n + 1)]
