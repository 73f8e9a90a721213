"""Rational enclosures of square roots: the tests' reference for irrational constants.

`sqrt_enclosure` brackets sqrt(x) between two rationals at most a given
width apart.  The tests build the window ends, the closed-form growth
bounds and a few constants from it, on an arbitrary width of their own
and not on the grid 2^-30 that `ced.params.growth_bounds` rounds onto.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

#: Default width of the enclosures.
DEFAULT_WIDTH = Fraction(1, 10**30)


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


def sqrt_enclosure(x: Fraction | int, width: Fraction = DEFAULT_WIDTH) -> Enclosure:
    """Enclose sqrt(x) in a rational interval no wider than `width`.

    With x = p/q and N = ceil(1 / (width q)),

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
        return Enclosure(Fraction(0), Fraction(0))
    p, q = x.numerator, x.denominator
    n = p * q
    scale = max(1, -(-width.denominator // (width.numerator * q)))  # ceil(1 / (width q))
    s = math.isqrt(n * scale * scale)
    if s * s == n * scale * scale:
        root = Fraction(s, scale * q)
        return Enclosure(root, root)
    return Enclosure(Fraction(s, scale * q), Fraction(s + 1, scale * q))
