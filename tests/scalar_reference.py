"""Scalar, trial-by-trial references for the vectorized engines in ced.simulate.

Each reference draws its words from numpy's own Philox bit generator, one
trial or one vertex at a time, and so shares no arithmetic with the
engines' Philox kernel.  Exponential delays use numpy's log, as the tree
engine does: math.log may differ from it in the last bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ced.params import ModelParams
from ced.simulate import ABSORB_CAUGHT, ABSORB_DEATH, ABSORB_TRUNCATED

_MASK64 = (1 << 64) - 1


def _key(seed: int, index: int) -> int:
    return ((seed & _MASK64) << 64) | (index & _MASK64)


class LineTrialRecord(NamedTuple):
    renewals_hit: tuple[int, ...]  # positions k with a renewal; always starts with 0
    y_value: int                   # furthest blue position reached
    absorption: str                # death | caught | truncated


class TreeTrialRecord(NamedTuple):
    blue_reached_depth: int        # deepest level any tree vertex turned blue; -1 if none
    red_reached_depth: int         # deepest level any vertex turned red
    renewal_vertices_per_level: tuple[int, ...]
    blue_parent_vertices_per_level: tuple[int, ...]  # vertices whose parent turns blue (the root's is the seed)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one line trial: Philox keyed by (seed, trial)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def jump_probabilities(p: ModelParams, j: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (advance, retreat, die) probabilities of the gap chain at state j."""
    if j < 1:
        raise ValueError("gap state must be >= 1")
    total = 1 + p.lam + j * p.rho
    return p.lam / total, Fraction(1) / total, j * p.rho / total


def line_trial(p: ModelParams, k_max: int, rng: np.random.Generator) -> LineTrialRecord:
    """One embedded-jump-chain trial from gap 1, blue at 0.

    The initial state is already a renewal at position 0.  Stops at death
    absorption, at blue consuming the last red, or at blue position k_max.
    """
    lam = float(p.lam)
    rho = float(p.rho)
    adv: list[float] = [0.0]       # adv[j] = P(advance from j)
    adv_ret: list[float] = [0.0]   # adv[j] + P(retreat from j)
    j = 1
    b = 0
    renewals = [0]
    while True:
        while j >= len(adv):
            total = 1.0 + lam + len(adv) * rho
            adv.append(lam / total)
            adv_ret.append((lam + 1.0) / total)
        x = rng.random()
        if x < adv[j]:
            j += 1
        elif x < adv_ret[j]:
            b += 1
            j -= 1
            if j == 0:
                return LineTrialRecord(tuple(renewals), b, ABSORB_CAUGHT)
            if j == 1:
                renewals.append(b)
            if b >= k_max:
                return LineTrialRecord(tuple(renewals), b, ABSORB_TRUNCATED)
        else:
            return LineTrialRecord(tuple(renewals), b, ABSORB_DEATH)


def tree_trial(p: ModelParams, depth_cap: int, seed: int, index: int) -> TreeTrialRecord:
    """One depth-capped tree trial, vertex by vertex, by the rules of the ced.simulate docstring.

    The i-th vertex of level l (children numbered by parent, then by slot)
    reads the words of Philox(key=(seed, index)) at the counters
    (l + 1, i, b, 0): death, overtake, then one spread delay per slot.
    """
    d, lam, rho = p.d, float(p.lam), float(p.rho)
    key = _key(seed, index)
    renewals = [0] * (depth_cap + 1)
    blue_parents = [0] * (depth_cap + 1)
    blue_max = -1
    red_max = 0
    level = [(0.0, 0.0)]  # (red time, parent's blue time); the seed is blue at 0
    for depth in range(depth_cap + 1):
        children = []
        blue_parents[depth] = sum(1 for _, parent_blue in level if parent_blue < np.inf)
        for i, (red, parent_blue) in enumerate(level):
            # Philox(counter=c) emits the block of counter c + 1 first.
            words = np.concatenate([
                np.random.Philox(key=key, counter=depth | i << 64 | b << 128).random_raw(4)
                for b in range(-(-(d + 2) // 4))
            ])
            delays = -np.log(1.0 - (words >> np.uint64(11)) * 2.0**-53)
            death = red + delays[0] / rho if rho > 0.0 else np.inf
            blue = parent_blue + delays[1] / 1.0
            red_at_blue = parent_blue < death
            if not (red_at_blue and blue < death):
                blue = np.inf
            else:
                blue_max = depth
            red_max = depth
            spreads = [red + delays[2 + s] / lam for s in range(d)]
            if red_at_blue and (depth == depth_cap or spreads[0] > parent_blue):
                renewals[depth] += 1
            if depth < depth_cap:
                children += [(r, blue) for r in spreads if r < min(death, blue)]
        level = children
        if not level:
            break
    return TreeTrialRecord(blue_max, red_max, tuple(renewals), tuple(blue_parents))
