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
(seed, trial) alone, never on its slab or on how a slab's live level is
split, and equal seeds give equal summaries: a `LineSummary` from the
line, a `TreeSummary` from the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from ced.catalan import weighted_catalan_sequence
from ced.params import ModelParams

# numpy is imported by the functions that compute with it, not by this
# module: the command line imports this module for every subcommand, and
# only `simulate` needs numpy.
if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1

#: Vertices one tree trial may materialize.  A hostile depth cap would
#: otherwise exhaust memory and time; the trial stops with an error first.
#: Read at call time.
DEFAULT_MAX_VERTICES = 2_000_000

#: Trials stepped together by either engine; it bounds their arrays and has no effect on
#: the result.  Each slab ends in a tail of steps on a few live trials, paid in numpy call
#: overhead: a 20 000-trial line took 19 ms in five slabs of 4096, 12.5 ms in one of 2^15 (Xeon).
_SLAB = 1 << 15

#: Live vertices a tree level of several trials may hold.  A wider level is
#: split by trial range and each half continues from it, which bounds memory
#: and has no effect on the result.
_LIVE_VERTICES = 1 << 13

ABSORB_DEATH = "death"
ABSORB_CAUGHT = "caught"
ABSORB_TRUNCATED = "truncated"
_ABSORPTIONS = tuple(sorted((ABSORB_DEATH, ABSORB_CAUGHT, ABSORB_TRUNCATED)))  # tally order


class ResourceBudgetError(RuntimeError):
    """A tree trial materialized more than DEFAULT_MAX_VERTICES vertices."""


# Each summary stores integer tallies only; frequencies and standard errors
# are derived on demand.  Equal runs give summaries equal field for field,
# which is the reproducibility contract for a fixed seed.


@dataclass(frozen=True)
class LineSummary:
    """Tallies of `simulate_line`."""

    params: ModelParams
    n_trials: int
    seed: int
    renewal_counts: tuple[int, ...]                 # trials renewing with blue at k, k = 0 .. k_max
    absorption_counts: tuple[tuple[str, int], ...]  # trials per absorption, in _ABSORPTIONS order


@dataclass(frozen=True)
class TreeSummary:
    """Tallies of `simulate_tree`, for levels 0 .. depth_cap."""

    params: ModelParams
    n_trials: int
    seed: int
    level_renewal_sum: tuple[int, ...]    # per level, the sum over trials of its renewals
    level_renewal_sumsq: tuple[int, ...]  # ... and of their squares
    blue_depth_counts: tuple[int, ...]    # trials by deepest blue level + 1 (0: no blue vertex)
    red_depth_counts: tuple[int, ...]     # trials by deepest red level

    def level_renewal_mean(self, level: int) -> float:
        return self.level_renewal_sum[level] / self.n_trials

    def level_renewal_stderr(self, level: int) -> float:
        n = self.n_trials
        mean = self.level_renewal_sum[level] / n
        var = self.level_renewal_sumsq[level] / n - mean * mean
        return math.sqrt(max(var, 0.0) / n)

    def blue_reach_cap_frequency(self) -> float:
        return self.blue_depth_counts[-1] / self.n_trials

    def red_reach_cap_frequency(self) -> float:
        return self.red_depth_counts[-1] / self.n_trials


# Philox4x64-10 over uint64 arrays.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key bumps (Weyl constants)


def _mulhi(a: np.ndarray, m: int, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """High words of the products a * m by `_philox_block`'s limb chain, in a new array; x, y, z are scratch."""
    import numpy as np
    lo32, m_lo, m_hi = np.uint64(0xFFFFFFFF), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    hi = np.bitwise_and(a, lo32, out=x) * m_lo
    hi >>= 32  # p
    x *= m_hi
    np.multiply(np.right_shift(a, 32, out=z), m_lo, out=y)  # z = a_hi
    y += hi  # u
    x += np.bitwise_and(y, lo32, out=hi)  # v
    y >>= 32
    y += np.right_shift(x, 32, out=x)
    np.multiply(z, m_hi, out=hi)
    hi += y
    return hi


def _xor(a, b):
    """a ^ b of words that are each an int or a uint64 array: an int if both are; writes only into a."""
    import numpy as np
    if isinstance(a, np.ndarray):
        return np.bitwise_xor(a, b if isinstance(b, np.ndarray) else np.uint64(b), out=a)
    return np.bitwise_xor(b, np.uint64(a)) if isinstance(b, np.ndarray) else a ^ b


def _philox_block(counter: tuple, trials: np.ndarray, seed: int) -> np.ndarray:
    """Philox4x64-10 of the counter under the key (t, seed) for each t in trials.

    `counter` holds the four counter words, low word first, each a
    nonnegative int or a uint64 array aligned with `trials`; the key is
    taken mod 2^64.  Block n of np.random.Philox(key=(seed << 64) | t) is
    the counter (n+1, 0, 0, 0).  Returns a new (4, len(trials)) array and
    writes only into arrays it made.  A word that is the same for every
    lane stays a Python int with exact products, high word (c m) >> 64 and
    low word c m mod 2^64, until a per-lane word (the key's trial word or
    an array counter word) is xored into it.  Both engines pass counter
    words 0, 2 and 3 as ints, so a block makes 17 `_mulhi` calls instead of
    20; int and uint64 arithmetic agree mod 2^64, so no word changes.
    `_mulhi` forms the high words of array products from 32-bit limbs:
    p = (a_lo m_lo) >> 32, u = a_hi m_lo + p, v = a_lo m_hi + (u mod 2^32),
    high word a_hi m_hi + (u >> 32) + (v >> 32).
    """
    import numpy as np
    c0, c1, c2, c3 = (c if isinstance(c, np.ndarray) else int(c) for c in counter)
    k0 = trials.astype(np.uint64)  # a copy: the key's low word, bumped in place each round
    scratch = np.empty_like(k0), np.empty_like(k0), np.empty_like(k0)
    for r in range(10):  # from round 1 on every array word was made here: its low product overwrites it
        (hi0, lo0), (hi1, lo1) = (
            divmod(c * m, 1 << 64) if isinstance(c, int)
            else (_mulhi(c, m, *scratch), np.multiply(c, np.uint64(m), out=c if r else None))
            for c, m in ((c0, _PHILOX_M[0]), (c2, _PHILOX_M[1]))
        )
        k1 = (seed + r * _PHILOX_W[1]) & _MASK64
        c0, c1, c2, c3 = _xor(_xor(hi1, c1), k0), lo1, _xor(_xor(hi0, c3), k1), lo0
        k0 += np.uint64(_PHILOX_W[0])
    del k0, scratch  # freed before the output is allocated
    return np.stack((c0, c1, c2, c3))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms (w >> 11) 2^-53 in [0, 1) of raw words, the doubles numpy's Generator.random makes."""
    return (words >> 11) * 2.0**-53


def _gap_tables(lam: float, rho: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The advance and advance-or-retreat probabilities for gaps 0 .. size-1."""
    import numpy as np
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
    Philox stream against the gap tables.  Returns the histogram of the
    blue positions of the renewals after the start and the number of
    trials per absorption in _ABSORPTIONS order.
    """
    import numpy as np
    trials = np.arange(start, stop, dtype=np.uint64)
    j = np.ones(trials.size, np.int64)
    b = np.zeros(trials.size, np.int64)
    adv, adv_ret = _gap_tables(lam, rho, 64)
    renewals = []
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
        live = ~stopped
        trials, j, b, words = trials[live], j[live], b[live], words[:, live]
    return np.bincount(np.concatenate(renewals)).tolist(), list(absorb.values())


def simulate_line(p: ModelParams, n_trials: int, k_max: int, seed: int) -> LineSummary:
    """Estimate renewal probabilities on the line by n_trials jump chains.

    The branching factor of `p` is irrelevant here and ignored.
    Deterministic given (seed, n_trials, k_max); the trials are stepped
    together in numpy, in one process.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    # The output tallies come first, so an impossible k_max fails at once.
    tallies = ([0] * (k_max + 1), [0] * len(_ABSORPTIONS))
    for start in range(0, n_trials, _SLAB):
        _accumulate(tallies, _line_slab(float(p.lam), float(p.rho), k_max, seed, start, min(start + _SLAB, n_trials)))
    renewal_counts, absorb = tallies
    renewal_counts[0] = n_trials  # every trial starts with a renewal at 0
    return LineSummary(p, n_trials, seed, tuple(renewal_counts), tuple(zip(_ABSORPTIONS, absorb)))


def _exp_delays(words: np.ndarray, rate: float) -> np.ndarray:
    """Exp(rate) delays -log(1 - u) / rate, with the line engine's uniforms u."""
    import numpy as np
    return -np.log(1.0 - _uniforms(words)) / rate


def _tree_slab(d: int, lam: float, rho: float, cap: int, seed: int, start: int, stop: int):
    """Tally tree trials [start, stop) level by level, by the rules in the module docstring.

    Returns the per-level renewal sums and sums of squares over the trials,
    and the histograms of the deepest blue level plus one and of the deepest
    red level, each up to the last level reached.
    """
    import numpy as np
    n = stop - start
    vertices = np.ones(n, np.int64)
    blue_depth = np.full(n, -1)
    red_depth = np.zeros(n, np.int64)
    ren_sum, ren_sumsq = [], []
    # Pending levels, deepest last: a level and, for each of its live
    # vertices in trial order, the slab-local trial, index in its trial's
    # level, red time and parent's blue time (the seed's is 0).
    pending = [(0, (np.arange(n), np.zeros(n, np.uint64), np.zeros(n), np.zeros(n)))]
    while pending:
        level, (trial, index, red, parent_blue) = pending.pop()
        keys = trial.astype(np.uint64) + np.uint64(start)
        words = _philox_block((level + 1, index, 0, 0), keys, seed)
        death = red + _exp_delays(words[0], rho) if rho > 0.0 else np.full(red.size, np.inf)
        overtake = parent_blue + _exp_delays(words[1], 1.0)
        red_at_blue = parent_blue < death  # still red when its parent turns blue
        blue = np.where(red_at_blue & (overtake < death), overtake, np.inf)
        red_depth[trial] = level
        blue_depth[trial[blue < np.inf]] = level
        renews = red_at_blue
        lives_until = np.minimum(death, blue)  # no spread from a dead or blue vertex
        parents, reds = [], []  # each slot's children, one slot at a time
        for slot in range(d if level < cap else 0):  # cap vertices never spread
            if slot % 4 == 2:
                words = _philox_block((level + 1, index, (slot + 2) // 4, 0), keys, seed)
            spread = red + _exp_delays(words[(slot + 2) % 4], lam)
            if slot == 0:
                renews = red_at_blue & (spread > parent_blue)
            born = np.flatnonzero(spread < lives_until)
            vertices += np.bincount(trial[born], minlength=n)
            if vertices.max() > DEFAULT_MAX_VERTICES:
                raise ResourceBudgetError(
                    f"tree trial {start + int(np.argmax(vertices))} materialized more than "
                    f"{DEFAULT_MAX_VERTICES} vertices; lower the depth cap (--depth)"
                )
            parents.append(born)
            reds.append(spread[born])
        if level == len(ren_sum):  # first reached: every shallower level was
            ren_sum.append(0)
            ren_sumsq.append(0)
        per_trial = np.bincount(trial[renews])
        ren_sum[level] += int(per_trial.sum())
        ren_sumsq[level] += int(per_trial @ per_trial)
        parent = np.concatenate(parents) if parents else np.zeros(0, np.int64)
        if not parent.size:
            continue
        order = np.argsort(parent, kind="stable")  # by parent, then slot
        parent = parent[order]
        trial = trial[parent]
        index = np.arange(trial.size, dtype=np.uint64)  # minus the start of its trial's run, in O(n)
        run_start = index.copy()
        run_start[1:][trial[1:] == trial[:-1]] = 0
        index -= np.maximum.accumulate(run_start, out=run_start)
        live = (trial, index, np.concatenate(reds)[order], blue[parent])
        if trial[0] != trial[-1] and trial.size > _LIVE_VERTICES:
            # Too wide for several trials: split by trial range; both halves continue.
            cut = np.searchsorted(trial, (trial[0] + trial[-1] + 1) // 2)
            pending.append((level + 1, tuple(a[cut:] for a in live)))
            live = tuple(a[:cut] for a in live)
        pending.append((level + 1, live))
    return ren_sum, ren_sumsq, np.bincount(blue_depth + 1).tolist(), np.bincount(red_depth).tolist()


def simulate_tree(p: ModelParams, depth_cap: int, n_trials: int, seed: int) -> TreeSummary:
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
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    # The output tallies come first, so an impossible depth_cap fails at once.
    tallies = ([0] * (depth_cap + 1), [0] * (depth_cap + 1), [0] * (depth_cap + 2), [0] * (depth_cap + 1))
    for start in range(0, n_trials, _SLAB):
        part = _tree_slab(p.d, float(p.lam), float(p.rho), depth_cap, seed, start, min(start + _SLAB, n_trials))
        _accumulate(tallies, part)
    return TreeSummary(p, n_trials, seed, *map(tuple, tallies))


class RenewalZ(NamedTuple):
    k: int
    observed: float
    expected: float
    stderr: float
    z: Optional[float]  # None for the k = 0 row, which matches exactly


def compare_renewals(summary: LineSummary) -> list[RenewalZ]:
    """Per-k z-scores of observed renewal frequencies against exact values.

    z_k = (phat_k - C_k) / sqrt(phat_k (1 - phat_k) / n).  The k = 0 row is
    a renewal by construction and is reported as an exact match.
    """
    exact = weighted_catalan_sequence(summary.params, len(summary.renewal_counts) - 1)
    n = summary.n_trials
    rows: list[RenewalZ] = []
    for k, count in enumerate(summary.renewal_counts):
        phat = count / n
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
