"""Scalar, trial-by-trial references for the vectorized engines in ced.simulate.

Each reference draws its words from numpy's own Philox bit generator, one
block of one trial or one vertex at a time, at the counters the
`ced.simulate` docstring lays out, and so shares no counter arithmetic with
the engines.  Exponential delays use numpy's log, as the tree engine does:
math.log may differ from it in the last bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ced.params import ModelParams
from ced.simulate import ABSORB_CAUGHT, ABSORB_DEATH, ABSORB_TRUNCATED


def philox_block(seed: int, counter: tuple[int, int, int, int]) -> list[int]:
    """The four words of the Philox4x64-10 block at counter (low word first) under the key seed."""
    value = sum(c << 64 * i for i, c in enumerate(counter))
    return np.random.Philox(key=seed, counter=value - 1).random_raw(4).tolist()  # it emits counter + 1 first


class LineTrialRecord(NamedTuple):
    renewals_hit: tuple[int, ...]  # positions k with a renewal; always starts with 0
    y_value: int                   # furthest blue position reached
    absorption: str                # death | caught | truncated
    steps: int                     # jump-chain steps taken, the stopping one included


class TreeTrialRecord(NamedTuple):
    blue_reached_depth: int        # deepest level any tree vertex turned blue; -1 if none
    red_reached_depth: int         # deepest level any vertex turned red
    renewal_vertices_per_level: tuple[int, ...]
    blue_parent_vertices_per_level: tuple[int, ...]  # vertices whose parent turns blue (the root's is the seed)
    vertices_per_level: tuple[int, ...]              # vertices red at each level, each numbered in its level


def jump_probabilities(p: ModelParams, j: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (advance, retreat, die) probabilities of the gap chain at state j."""
    if j < 1:
        raise ValueError("gap state must be >= 1")
    total = 1 + p.lam + j * p.rho
    return p.lam / total, Fraction(1) / total, j * p.rho / total


def line_trials(p: ModelParams, k_max: int, n_trials: int, seed: int) -> list[LineTrialRecord]:
    """The records of line trials 0 .. n_trials - 1 under seed: embedded-jump-chain trials from gap 1, blue at 0.

    The trials run one at a time.  Each step block n (steps 4n .. 4n + 3) numbers the trials that
    reach it on from the trials before, and live trial i takes step 4n + w from word w of the block at
    the counter (i + 1, n + 1, 0, 0).  The initial state is already a renewal at position 0.  A trial
    stops at death absorption, at blue consuming the last red, or at blue position k_max.
    """
    lam = float(p.lam)
    rho = float(p.rho)
    adv: list[float] = [0.0]       # adv[j] = P(advance from j)
    adv_ret: list[float] = [0.0]   # adv[j] + P(retreat from j)
    numbered: dict[int, int] = {}  # trials per step block in the trials so far
    records = []
    for _ in range(n_trials):
        j = 1
        b = 0
        renewals = [0]
        absorption = None
        step = 0
        while absorption is None:
            while j >= len(adv):
                total = 1.0 + lam + len(adv) * rho
                adv.append(lam / total)
                adv_ret.append((lam + 1.0) / total)
            if step % 4 == 0:
                serial = numbered.get(step // 4, 0)
                numbered[step // 4] = serial + 1
                words = philox_block(seed, (serial + 1, step // 4 + 1, 0, 0))
            x = (words[step % 4] >> 11) * 2.0**-53
            step += 1
            if x < adv[j]:
                j += 1
            elif x < adv_ret[j]:
                b += 1
                j -= 1
                if j == 0:
                    absorption = ABSORB_CAUGHT
                elif j == 1:
                    renewals.append(b)
                if absorption is None and b >= k_max:
                    absorption = ABSORB_TRUNCATED
            else:
                absorption = ABSORB_DEATH
        records.append(LineTrialRecord(tuple(renewals), b, absorption, step))
    return records


def tree_trials(p: ModelParams, depth_cap: int, n_trials: int, seed: int) -> list[TreeTrialRecord]:
    """The records of tree trials 0 .. n_trials - 1 under seed, by the rules of the ced.simulate docstring.

    The trials run one at a time, vertex by vertex.  Each level numbers its vertices on from the
    trials before (children by parent, then by slot), and vertex s of level l reads the blocks at
    the counters (s + 1, l + 1, b, 0): death, overtake, then one spread delay per slot.
    """
    d, lam, rho = p.d, float(p.lam), float(p.rho)
    numbered = [0] * (depth_cap + 1)  # vertices per level in the trials so far
    records = []
    for _ in range(n_trials):
        before = list(numbered)
        renewals = [0] * (depth_cap + 1)
        blue_parents = [0] * (depth_cap + 1)
        blue_max = -1
        red_max = 0
        level = [(0.0, 0.0)]  # (red time, parent's blue time); the seed is blue at 0
        for depth in range(depth_cap + 1):
            children = []
            blue_parents[depth] = sum(1 for _, parent_blue in level if parent_blue < np.inf)
            for red, parent_blue in level:
                serial = numbered[depth]
                numbered[depth] += 1
                blocks = range(-(-(d + 2) // 4))
                words = [w for b in blocks for w in philox_block(seed, (serial + 1, depth + 1, b, 0))]
                delays = -np.log(1.0 - (np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53)
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
        vertices = tuple(numbered[depth] - before[depth] for depth in range(depth_cap + 1))
        records.append(TreeTrialRecord(blue_max, red_max, tuple(renewals), tuple(blue_parents), vertices))
    return records
