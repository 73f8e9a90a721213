"""Fraction reference for the integer paths of ced.catalan.

`height_dp` sums step-weight products over Dyck paths one (step, height)
cell at a time, with every rise and fall weighted by its own `Fraction`.
It shares no arithmetic with the exact recurrence
or with the integer pair-weight DP, and covers all three weight modes.
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
