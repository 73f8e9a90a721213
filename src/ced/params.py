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
places it (`window_position`).  The closed-form growth bounds are
irrational too; `growth_bounds` rounds them outward onto a dyadic grid
with the integer square root, so no Fraction root is ever formed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

_ONE = Fraction(1)


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


def growth_bounds(d: int, lam: Fraction | int) -> tuple[Fraction, Fraction]:
    """(lo, hi): the closed-form bounds on the critical death rate, rounded outward to multiples of 2^-30.

    b_0 = d lambda / ((1 + lambda + rho)(1 + lambda + 2 rho)) falls as rho
    grows; the bounds are where it is 1 and 1/4, ( sqrt(c lambda + lambda^2
    + 1) - 3 lambda - 3 ) / 4 with c = 8d + 2 and c = 32d + 2.  Rounded, lo
    has b_0 >= 1 unless lo = 0 and hi has b_0 <= 1/4, so for lam inside the
    window `decide` settles them Below and Above at depth 1
    (`decision.critical_rho`).  lo is clamped at zero (a negative bound says
    nothing for rho >= 0); hi is not, so a negative hi signals lam outside
    the window.  From ends on this grid, bisection's midpoints keep rho's
    denominator a power of two no larger than the tolerance needs.

    With lam = a/b and N_c = c ab + a^2 + b^2, 2^30 times a bound is
    (sqrt(N_c 2^56) - 3(a + b) 2^28) / b.  Its floor and ceiling are those
    of the same quotient with the root rounded down, isqrt(n), or up,
    isqrt(n - 1) + 1.
    """
    lam = _validated(d, lam)
    a, b = lam.numerator, lam.denominator
    offset = 3 * (a + b) << 28
    lower = (a * a + (8 * d + 2) * a * b + b * b) << 56
    upper = (a * a + (32 * d + 2) * a * b + b * b) << 56
    lo = max(0, (math.isqrt(lower) - offset) // b)
    hi = -((offset - math.isqrt(upper - 1) - 1) // b)
    return Fraction(lo, 1 << 30), Fraction(hi, 1 << 30)


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
