"""Monte Carlo engines for the line process and the depth-capped tree.

Line: the gap between the front red and front blue is a birth-death chain
with death absorption.  From gap j > 0 the embedded jump chain moves

    j -> j+1   with probability lambda / (1 + lambda + j rho)
    j -> j-1   with probability      1 / (1 + lambda + j rho)
    j -> 0     with probability  j rho / (1 + lambda + j rho)

and the renewal events (gap back to 1, everything beyond the front red
white) are jump-chain measurable, so simulating the discrete chain
reproduces their law with no discretization error.  A renewal with blue
at position k has probability exactly the weighted Catalan number C_k,
which is what `compare_renewals` checks.

Tree: continuous time, one level at a time.  The root is red at time 0
and is chased by a blue seed that is blue at time 0.  A vertex's red,
death and blue times R, D, B (B infinite if it never turns blue) follow
from its parent's alone, so no event queue is needed: the
branching-random-walk view of Kortchemski (J. Theor. Probab. 2016) and
Bordenave (EJP 2014).  With spread delays X ~ Exp(lambda), one per slot,
and overtake delays Y ~ Exp(1), the child c of v in slot s

    exists        iff  R_c = R_v + X_{v,s} < min(D_v, B_v) and v is above the cap,
    dies at            D_c = R_c + Exp(rho),
    turns blue at      B_c = B_v + Y_c   iff  B_v < D_c and B_v + Y_c < D_c,
    renews        iff  B_v < D_c, and c sits at the cap or R_c + X_{c,0} > B_v,

which by memorylessness is the law of the process with one exponential
clock per spread, death and overtake.  Slot 0 is the tracked descent
line: along it the process is the line process, so the chance that a
level-k vertex renews (red when its parent turns blue, tracked child
still white) is C_k.  Requiring all d children white would race the wait
against rate d*lambda and break that identity.  The root renews by
construction; cap vertices never spread, so the cap level's renewal
counts are biased up, and only the levels below it are exact.

Reproducibility: every draw is a word of Philox4x64-10 keyed by (trial,
seed) (Salmon et al., SC'11), computed in numpy for a slab of trials at
once.  Line step s takes word s mod 4 of the counter (s // 4 + 1, 0, 0, 0),
the stream of np.random.Philox(key=(seed, trial)).  The vertex with index
i in its trial's level l (children numbered by parent, then slot) takes
the counters (l + 1, i, b, 0), b = 0, 1, ..., whose words are its death,
overtake and slot 0 .. d-1 spread delays.  So a trial's result depends on
(seed, trial) alone, never on its slab, and equal seeds give equal
summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from ced.catalan import weighted_catalan_sequence
from ced.params import ModelParams

_MASK64 = (1 << 64) - 1

#: Vertices one tree trial may materialize.  A hostile depth cap would
#: otherwise exhaust memory and time; the trial stops with an error first.
#: Read at call time.
DEFAULT_MAX_VERTICES = 2_000_000

#: Trials stepped together by either engine.  A fixed constant, not a knob:
#: it bounds the engines' arrays and has no effect on the result.
_SLAB = 4096

#: Live vertices a tree slab of several trials may carry to its next level.
#: A slab that would pass it is split in two and each half re-run, which
#: bounds memory and has no effect on the result.
_LIVE_VERTICES = 1 << 13

ABSORB_DEATH = "death"
ABSORB_CAUGHT = "caught"
ABSORB_TRUNCATED = "truncated"
_ABSORPTIONS = tuple(sorted((ABSORB_DEATH, ABSORB_CAUGHT, ABSORB_TRUNCATED)))  # tally order


class ResourceBudgetError(RuntimeError):
    """A tree trial materialized more than DEFAULT_MAX_VERTICES vertices."""


@dataclass(frozen=True)
class SimSummary:
    """Aggregated tallies from one simulation run.

    Only integer tallies are stored; frequencies and standard errors are
    derived on demand.  Equal summaries compare equal field-for-field,
    which is the reproducibility contract for a fixed seed.
    """

    kind: str                      # "line" | "tree"
    d: int
    lam: Fraction
    rho: Fraction
    n_trials: int
    seed: int
    k_max: Optional[int] = None
    depth_cap: Optional[int] = None
    renewal_counts: Optional[tuple[int, ...]] = None      # line: trials renewing at k
    y_counts: Optional[tuple[int, ...]] = None            # line: histogram of Y
    absorption_counts: Optional[tuple[tuple[str, int], ...]] = None
    level_renewal_sum: Optional[tuple[int, ...]] = None   # tree: sum of per-level counts
    level_renewal_sumsq: Optional[tuple[int, ...]] = None
    blue_depth_counts: Optional[tuple[int, ...]] = None   # tree: histogram over -1..cap
    red_depth_counts: Optional[tuple[int, ...]] = None    # tree: histogram over 0..cap

    def y_at_least(self, k: int) -> int:
        """Number of trials whose furthest blue position reached k."""
        assert self.y_counts is not None
        return sum(self.y_counts[k:])

    def level_renewal_mean(self, level: int) -> float:
        assert self.level_renewal_sum is not None
        return self.level_renewal_sum[level] / self.n_trials

    def level_renewal_stderr(self, level: int) -> float:
        assert self.level_renewal_sum is not None and self.level_renewal_sumsq is not None
        n = self.n_trials
        mean = self.level_renewal_sum[level] / n
        var = self.level_renewal_sumsq[level] / n - mean * mean
        return math.sqrt(max(var, 0.0) / n)

    def blue_reach_cap_frequency(self) -> float:
        assert self.blue_depth_counts is not None and self.depth_cap is not None
        return self.blue_depth_counts[self.depth_cap + 1] / self.n_trials

    def red_reach_cap_frequency(self) -> float:
        assert self.red_depth_counts is not None and self.depth_cap is not None
        return self.red_depth_counts[self.depth_cap] / self.n_trials


# Philox4x64-10 over uint64 arrays.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key bumps (Weyl constants)
_LO32 = np.uint64(0xFFFFFFFF)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * m, from 32-bit limbs."""
    a_lo, a_hi = a & _LO32, a >> 32
    m_lo, m_hi = m & _LO32, m >> np.uint64(32)
    lh = a_lo * m_hi
    hl = a_hi * m_lo
    mid = ((a_lo * m_lo) >> 32) + (lh & _LO32) + (hl & _LO32)
    return a_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), a * m


def _philox_block(counter: tuple, trials: np.ndarray, seed: int) -> np.ndarray:
    """Philox4x64-10 of the counter under the key (t, seed) for each t in trials.

    `counter` holds the four counter words, low word first, each a
    nonnegative int or a uint64 array aligned with `trials`; the key is
    taken mod 2^64.  Block n of np.random.Philox(key=(seed << 64) | t) is
    the counter (n+1, 0, 0, 0).  Returns a (4, len(trials)) array.
    """
    c0, c1, c2, c3 = (np.broadcast_to(np.asarray(c, np.uint64), trials.shape) for c in counter)
    for r in range(10):
        k0 = trials + np.uint64(r * _PHILOX_W[0] & _MASK64)
        k1 = np.uint64((seed + r * _PHILOX_W[1]) & _MASK64)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms (w >> 11) 2^-53 in [0, 1) of raw words, the doubles numpy's Generator.random makes."""
    return (words >> 11) * 2.0**-53


def _gap_tables(lam: float, rho: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The advance and advance-or-retreat probabilities for gaps 0 .. size-1."""
    total = 1.0 + lam + np.arange(size, dtype=np.float64) * rho
    return lam / total, (lam + 1.0) / total


def _accumulate(tallies: tuple[list[int], ...], part) -> None:
    """Add each sequence of a slab's `part` into the tally list in its place, entry by entry."""
    for total, values in zip(tallies, part):
        for i, value in enumerate(values):
            total[i] += value


def _line_slab(lam: float, rho: float, k_max: int, seed: int, start: int, stop: int):
    """Step line trials [start, stop) in lockstep until every one has stopped.

    Step s of every live trial compares the uniform of word s of its
    Philox stream against the gap tables.  Returns the histograms of the
    blue positions of the renewals after the start and of the final blue
    positions, and the number of trials per absorption in _ABSORPTIONS order.
    """
    trials = np.arange(start, stop, dtype=np.uint64)
    j = np.ones(trials.size, np.int64)
    b = np.zeros(trials.size, np.int64)
    adv, adv_ret = _gap_tables(lam, rho, 64)
    renewals, ends = [], []
    absorb = dict.fromkeys(_ABSORPTIONS, 0)
    step = 0
    while trials.size:
        if step % 4 == 0:
            words = _philox_block((step // 4 + 1, 0, 0, 0), trials, seed)
            if adv.size < step + 6:  # the gap is at most step + 1 before step `step`
                adv, adv_ret = _gap_tables(lam, rho, 2 * (step + 6))
        x = _uniforms(words[step % 4])
        advance = x < adv[j]
        moved = x < adv_ret[j]
        retreat = moved & ~advance
        j += advance
        j -= retreat
        b += retreat
        renewals.append(b[retreat & (j == 1)])
        is_caught = retreat & (j == 0)
        is_truncated = retreat & (j > 0) & (b >= k_max)
        stopped = ~moved | is_caught | is_truncated
        step += 1
        if not stopped.any():
            continue
        absorb[ABSORB_DEATH] += int(np.count_nonzero(~moved))
        absorb[ABSORB_CAUGHT] += int(np.count_nonzero(is_caught))
        absorb[ABSORB_TRUNCATED] += int(np.count_nonzero(is_truncated))
        ends.append(b[stopped])
        live = ~stopped
        trials, j, b, words = trials[live], j[live], b[live], words[:, live]
    return (np.bincount(np.concatenate(renewals)).tolist(), np.bincount(np.concatenate(ends)).tolist(),
            list(absorb.values()))


def simulate_line(p: ModelParams, n_trials: int, k_max: int, seed: int) -> SimSummary:
    """Estimate renewal probabilities on the line by n_trials jump chains.

    The branching factor of `p` is irrelevant here and ignored.
    Deterministic given (seed, n_trials, k_max); the trials are stepped
    together in numpy, in one process.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    # The output tallies come first, so an impossible k_max fails at once.
    tallies = ([0] * (k_max + 1), [0] * (k_max + 1), [0] * len(_ABSORPTIONS))
    for start in range(0, n_trials, _SLAB):
        _accumulate(tallies, _line_slab(float(p.lam), float(p.rho), k_max, seed, start, min(start + _SLAB, n_trials)))
    renewal_counts, y_counts, absorb = tallies
    renewal_counts[0] = n_trials  # every trial starts with a renewal at 0
    return SimSummary(
        "line", p.d, p.lam, p.rho, n_trials, seed, k_max=k_max, renewal_counts=tuple(renewal_counts),
        y_counts=tuple(y_counts), absorption_counts=tuple(zip(_ABSORPTIONS, absorb)),
    )


def _exp_delays(words: np.ndarray, rate: float) -> np.ndarray:
    """Exp(rate) delays -log(1 - u) / rate, with the line engine's uniforms u."""
    return -np.log(1.0 - _uniforms(words)) / rate


def _tree_slab(d: int, lam: float, rho: float, cap: int, seed: int, start: int, stop: int):
    """Tally tree trials [start, stop) level by level, by the rules in the module docstring.

    Returns the per-level renewal sums and sums of squares over the trials,
    and the histograms of the deepest blue level plus one and of the deepest
    red level, each up to the last level reached; or None when the slab has
    several trials and its next level would hold more than _LIVE_VERTICES
    vertices.
    """
    n = stop - start
    blocks = -(-(d + 2) // 4)
    # The live level: each vertex's slab-local trial, index in its trial's
    # level, red time, and its parent's blue time (the seed's is 0).
    trial = np.arange(n)
    index = np.zeros(n, np.uint64)
    red = np.zeros(n)
    parent_blue = np.zeros(n)
    vertices = np.ones(n, np.int64)
    ren_sum, ren_sumsq = [], []
    blue_depth = np.full(n, -1)
    red_depth = np.zeros(n, np.int64)
    for level in range(cap + 1):
        keys = trial.astype(np.uint64) + np.uint64(start)
        words = np.concatenate([_philox_block((level + 1, index, b, 0), keys, seed) for b in range(blocks)])
        death = red + _exp_delays(words[0], rho) if rho > 0.0 else np.full(red.size, np.inf)
        overtake = parent_blue + _exp_delays(words[1], 1.0)
        red_at_blue = parent_blue < death  # still red when its parent turns blue
        blue = np.where(red_at_blue & (overtake < death), overtake, np.inf)
        spread = red + _exp_delays(words[2 : d + 2], lam)  # (slot, vertex)
        renews = red_at_blue if level == cap else red_at_blue & (spread[0] > parent_blue)
        per_trial = np.bincount(trial[renews], minlength=n)
        ren_sum.append(int(per_trial.sum()))
        ren_sumsq.append(int(per_trial @ per_trial))
        red_depth[trial] = level
        blue_depth[trial[blue < np.inf]] = level
        if level == cap:
            break
        parent, slot = np.nonzero((spread < np.minimum(death, blue)).T)  # by parent, then slot
        born = np.bincount(trial[parent], minlength=n)
        vertices += born
        if vertices.max() > DEFAULT_MAX_VERTICES:
            raise ResourceBudgetError(
                f"tree trial {start + int(np.argmax(vertices))} materialized more than "
                f"{DEFAULT_MAX_VERTICES} vertices; lower the depth cap (--depth)"
            )
        if not parent.size:
            break
        if n > 1 and parent.size > _LIVE_VERTICES:
            return None
        trial = trial[parent]
        index = (np.arange(parent.size) - (np.cumsum(born) - born)[trial]).astype(np.uint64)
        red = spread[slot, parent]
        parent_blue = blue[parent]
    return ren_sum, ren_sumsq, np.bincount(blue_depth + 1).tolist(), np.bincount(red_depth).tolist()


def simulate_tree(p: ModelParams, depth_cap: int, n_trials: int, seed: int) -> SimSummary:
    """Aggregate n_trials depth-capped tree trials.

    Deterministic given (seed, n_trials, depth_cap).  Raises
    ResourceBudgetError if a trial materializes more than
    DEFAULT_MAX_VERTICES vertices.  Blue reaching the cap is a truncated
    proxy for blue escaping; it is reported as a frequency at the cap,
    never as an infinite-tree estimate.
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    # The output tallies come first, so an impossible depth_cap fails at once.
    tallies = ([0] * (depth_cap + 1), [0] * (depth_cap + 1), [0] * (depth_cap + 2), [0] * (depth_cap + 1))
    for first in range(0, n_trials, _SLAB):
        slabs = [(first, min(first + _SLAB, n_trials))]
        while slabs:
            start, stop = slabs.pop()
            part = _tree_slab(p.d, float(p.lam), float(p.rho), depth_cap, seed, start, stop)
            if part is None:  # too wide: re-run each half
                mid = (start + stop) // 2
                slabs += [(start, mid), (mid, stop)]
                continue
            _accumulate(tallies, part)
    ren_sum, ren_sumsq, blue_depth, red_depth = map(tuple, tallies)
    return SimSummary(
        "tree", p.d, p.lam, p.rho, n_trials, seed, depth_cap=depth_cap, level_renewal_sum=ren_sum,
        level_renewal_sumsq=ren_sumsq, blue_depth_counts=blue_depth, red_depth_counts=red_depth,
    )


class RenewalZ(NamedTuple):
    k: int
    observed: float
    expected: float
    stderr: float
    z: Optional[float]  # None for the k = 0 row, which matches exactly


def compare_renewals(p: ModelParams, summary: SimSummary, k_max: Optional[int] = None) -> list[RenewalZ]:
    """Per-k z-scores of observed renewal frequencies against exact values.

    z_k = (phat_k - C_k) / sqrt(phat_k (1 - phat_k) / n).  The k = 0 row is
    a renewal by construction and is reported as an exact match.
    """
    if summary.kind != "line" or summary.renewal_counts is None or summary.k_max is None:
        raise ValueError("summary must come from simulate_line")
    if (summary.lam, summary.rho) != (p.lam, p.rho):
        raise ValueError(
            f"parameter mismatch: summary has (lambda, rho) = ({summary.lam}, {summary.rho}), "
            f"got ({p.lam}, {p.rho})"
        )
    if k_max is None:
        k_max = summary.k_max
    if k_max > summary.k_max:
        raise ValueError(f"summary only tracked renewals up to k = {summary.k_max}")

    exact = weighted_catalan_sequence(p, k_max)
    n = summary.n_trials
    rows: list[RenewalZ] = []
    for k in range(k_max + 1):
        phat = summary.renewal_counts[k] / n
        expected = float(exact[k])
        if k == 0:
            rows.append(RenewalZ(0, phat, expected, 0.0, None))
            continue
        se = math.sqrt(phat * (1.0 - phat) / n)
        if se == 0.0:
            z = 0.0 if phat == expected else math.inf
        else:
            z = (phat - expected) / se
        rows.append(RenewalZ(k, phat, expected, se, z))
    return rows


def max_abs_z(rows: list[RenewalZ]) -> float:
    return max((abs(r.z) for r in rows if r.z is not None), default=0.0)
