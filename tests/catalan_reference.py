"""Fraction references for the integer paths of ced.catalan.

`height_dp` sums step-weight products over Dyck paths one (step, height)
cell at a time, with every rise and fall weighted by its own `Fraction`.
It shares no arithmetic with the exact recurrence
or with the integer pair-weight DP, and covers all three weight modes.

`quadratic_recurrence` runs the recurrence whose exponent count proves the
exact recurrence's common denominator, C_n G_1 G_{n+1} = ab e^2 sum C_i C_{n-1-i},
in Fractions from lambda and rho alone.
"""

from __future__ import annotations

from fractions import Fraction

from ced.catalan import MODE_EXACT, step_weights
from ced.params import ModelParams


def height_dp(p: ModelParams, k_max: int, mode: str = MODE_EXACT, m: int | None = None) -> list[Fraction]:
    """C_0, ..., C_{k_max} under `mode` in one sweep over (step, height).

    A path of half-length k never exceeds height k, so weights up to
    height k_max cover everything and no truncation error exists.
    """
    u, v = step_weights(p, k_max, mode, m)
    state = [Fraction(1)]  # state[h] = total weight of length-t prefixes ending at height h
    out = [Fraction(1)]
    for t in range(1, 2 * k_max + 1):
        cap = min(t, 2 * k_max - t)  # higher prefixes cannot return to zero in time
        new = [Fraction(0)] * min(len(state) + 1, cap + 1)
        top = len(new)
        for h, w in enumerate(state):
            if not w:
                continue
            if h + 1 < top:
                new[h + 1] += w * u[h]
            if 0 <= h - 1 < top:
                new[h - 1] += w * v[h - 1]
        state = new
        if t % 2 == 0:
            out.append(state[0])
    return out


def quadratic_recurrence(p: ModelParams, k_max: int) -> list[Fraction]:
    """Exact C_0, ..., C_{k_max}: C_0 = 1 and C_n = ab e^2 / (G_1 G_{n+1}) sum_{i+j=n-1} C_i C_j.

    lambda = a/b and rho = c/e in lowest terms, G_i = be + ae + i bc.
    """
    a, b = p.lam.numerator, p.lam.denominator
    c, e = p.rho.numerator, p.rho.denominator

    def g(i: int) -> int:
        return b * e + a * e + i * b * c

    out = [Fraction(1)]
    for n in range(1, k_max + 1):
        total = sum(out[i] * out[n - 1 - i] for i in range(n))
        out.append(Fraction(a * b * e * e, g(1) * g(n + 1)) * total)
    return out
