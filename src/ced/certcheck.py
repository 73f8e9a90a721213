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
"""

from __future__ import annotations

import math
from typing import Optional

from ced.params import ModelParams

#: The closing bound puts the lower end of sqrt(1 - 4x) on the grid 2^-_GRID_BITS.
_GRID_BITS = 70


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


def _climb(alpha: int, step: int, g: int, n: int, d: int, levels: int) -> Optional[tuple[int, int]]:
    """The pair of t_{j-levels} from t_j = n/d, g = G_{j+1} dividing d; None at a tail >= 1 on the way."""
    for _ in range(levels):
        if d <= n:
            return None
        n, d = alpha * (d // g), (g - step) * (d - n)
        g -= step
    return n, d


def check_below(p: ModelParams, m: int, level: int) -> bool:
    """Does K[b_level, ..., b_m] exceed 1 or meet a pole?"""
    if not 0 <= level <= m:
        return False
    alpha, g0, step = _integers(p)
    g = g0 + (m + 1) * step
    top = _climb(alpha, step, g, alpha, g * (g + step), m - level)
    return top is None or top[0] > top[1]


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
    top = _climb(alpha, step, g, alpha * y, g * (g + step) * z, m - 1)
    return top is not None and top[0] < top[1]
