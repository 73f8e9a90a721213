"""An integer-only re-check of the two kernel certificates of `ced.decision`.

It shares no code with the kernels of `ced.contfrac` and takes only
`ModelParams` from the package.  With lambda = a/b, rho = c/e, G_i = be +
ae + i bc and alpha = d a b e^2, b_j = alpha / (G_{j+1} G_{j+2}).  Each
tail t_j = K[c_j, ..., c_n] of c_0 / (1 - c_1 / (1 - ... / (1 - c_n))) is
an unreduced pair N/D, D > 0, and t_{j+1} >= 1 is a pole.  If G_{j+2}
divides D, t_j = b_j / (1 - N/D) = alpha (D / G_{j+2}) / (G_{j+1} (D - N)),
whose D is a multiple of the next G; the starting pairs' D hold G_{m+1} and
G_m.  So each division is exact, no gcd is taken, and D gains one G a level.

KernelBelow(m, level) holds when K[b_level, ..., b_m] exceeds 1 or meets a
pole.  KernelAbove(m) holds when b_m < 1/4 and every tail of K[b_0, ...,
b_{m-2}, b_{m-1} y] is below 1, for y >= psi(b_m) = (1 - sqrt(1 - 4 b_m)) /
(2 b_m): goodness survives shrinking an entry.  y is built as the kernel
builds it, then proven: for 0 < x <= 1/4, x y^2 - y + 1 <= 0 holds exactly
between the quadratic's roots, psi(x) and a root of at least 2, and every
y built here lies in [1, 2].

Bound runs.  D gains the bits of one G a level, so an exact climb of m
levels costs about m^2 word operations.  One loop, `_climb`, climbs
either the exact pairs (sign 0) or floor (sign 1) or ceil (sign -1)
bounds on 2^W t_j, with D fixed at the scale 2^W, W = 64 + the bits of
rho's denominator.  For t_{j+1} < 1, t_j = b_j / (1 - t_{j+1}) rises with
t_{j+1}, so a lower bound lo on 2^W t_{j+1} gives floor(alpha 2^(2W) /
(G_{j+1} G_{j+2} (2^W - lo))) <= 2^W t_j, and an upper bound hi < 2^W
gives the ceil of the same quotient as an upper bound.  Each check climbs
its bounds first: check_below accepts when its floor run reaches 2^W on
the way up (a tail >= 1 there, or one lower down) or ends above 2^W, and
check_above when its ceil run stays below 2^W at every level.  Any other
case climbs exactly, and so does every rejection.
"""

from __future__ import annotations

import math
from typing import Optional

from ced.params import ModelParams

#: The closing bound puts the lower end of sqrt(1 - 4x) on the grid 2^-_GRID_BITS.
_GRID_BITS = 70

#: Guard bits of the bound runs' scale over rho's grid step (`_scale`).
_GUARD_BITS = 64


def closing_bound(num: int, den: int) -> tuple[int, int]:
    """(Y, Z) with Y/Z >= psi(num/den), exact when 1 - 4x is a rational square."""
    v = (den - 4 * num) * den
    r = math.isqrt(v)
    if r * r == v:  # 1 - 4x = (r / den)^2
        return 2 * den, den + r
    return 2 << _GRID_BITS, (1 << _GRID_BITS) + math.isqrt(((den - 4 * num) << 2 * _GRID_BITS) // den)


def bounds_psi(num: int, den: int, y: int, z: int) -> bool:
    """Does x y^2 - y + 1 <= 0 prove y/z >= psi(x), x = num/den in (0, 1/4]?"""
    return num * y * y - den * y * z + den * z * z <= 0


def _integers(p: ModelParams) -> tuple[int, int, int]:
    """alpha = d a b e^2, G_0 = be + ae and the step bc."""
    a, b, c, e = p.lam.numerator, p.lam.denominator, p.rho.numerator, p.rho.denominator
    return p.d * a * b * e * e, b * e + a * e, b * c


def _scale(p: ModelParams) -> int:
    """2^W, W = _GUARD_BITS + the bits of rho's denominator: the bound runs' scale."""
    return 1 << (_GUARD_BITS + p.rho.denominator.bit_length())


def _climb(alpha: int, step: int, g: int, n: int, d: int, levels: int, sign: int = 0) -> Optional[tuple[int, int]]:
    """The pair of t_{j-levels} from t_j = n/d, g = G_{j+1}; None at a tail >= 1 on the way.

    sign = 0 climbs exactly, g dividing d; sign = 1 climbs floor and
    sign = -1 ceil bounds n on d t_j, d fixed at the scale.
    """
    top = sign * alpha * d * d
    for _ in range(levels):
        if d <= n:
            return None
        if sign:
            n = sign * (top // ((g - step) * g * (d - n)))
        else:
            n, d = alpha * (d // g), (g - step) * (d - n)
        g -= step
    return n, d


def check_below(p: ModelParams, m: int, level: int) -> bool:
    """Does K[b_level, ..., b_m] exceed 1 or meet a pole?"""
    if not 0 <= level <= m:
        return False
    alpha, g0, step = _integers(p)
    g = g0 + (m + 1) * step
    one = _scale(p)
    for sign, n, d in ((1, alpha * one // (g * (g + step)), one), (0, alpha, g * (g + step))):
        top = _climb(alpha, step, g, n, d, m - level, sign)
        if top is None or top[0] > top[1]:
            return True
    return False


def check_above(p: ModelParams, m: int) -> bool:
    """Is b_m < 1/4, and K[b_0, ..., b_{m-1} y] good for a proven y >= psi(b_m)?"""
    if m < 1:
        return False
    alpha, g0, step = _integers(p)
    g = g0 + m * step
    x_den = (g + step) * (g + 2 * step)  # b_m = alpha / x_den
    if not 4 * alpha < x_den:
        return False
    y, z = closing_bound(alpha, x_den)
    if not bounds_psi(alpha, x_den, y, z):
        return False
    one = _scale(p)
    for sign, n, d in ((-1, -(-alpha * y * one // (g * (g + step) * z)), one), (0, alpha * y, g * (g + step) * z)):
        top = _climb(alpha, step, g, n, d, m - 1, sign)
        if top is not None and top[0] < top[1]:
            return True
    return False
