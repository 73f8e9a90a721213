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

Tree: event-driven continuous time.  Each red vertex carries an
exponential death clock (rate rho) and one exponential spread clock per
child (rate lambda); each blue vertex arms an exponential overtake clock
(rate 1) per red child.  Clocks are scheduled once, when their
enabling pair forms, and checked for staleness when popped; by
memorylessness this reproduces the continuous-time law exactly.  Vertices
materialize lazily, so memory tracks activity rather than d^depth.

Reproducibility: every trial owns a counter-based Philox4x64-10 stream
keyed by (seed, trial index), `trial_rng`.  The tree engine draws from it
one trial at a time and may spread trials over processes; the line engine
computes the same stream in numpy for thousands of trials at once
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so
every line trial takes exactly the draws `line_trial` would take.  Neither
result depends on scheduling: aggregates are exact integer tallies, and
identical seeds give bit-identical summaries.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from ced._workers import map_jobs, pool_size
from ced.catalan import weighted_catalan_sequence
from ced.params import ModelParams

_MASK64 = (1 << 64) - 1

#: Lazy materialization keeps the explored frontier small, but a hostile
#: depth cap could still exhaust memory; trials stop with an error first.
DEFAULT_MAX_VERTICES = 2_000_000

ABSORB_DEATH = "death"
ABSORB_CAUGHT = "caught"
ABSORB_TRUNCATED = "truncated"
_ABSORPTIONS = tuple(sorted((ABSORB_DEATH, ABSORB_CAUGHT, ABSORB_TRUNCATED)))  # tally order

_WHITE, _RED, _BLUE, _DEAD = 0, 1, 2, 3


class ResourceBudgetError(RuntimeError):
    """A tree trial materialized more vertices than the configured budget."""


class LineTrialRecord(NamedTuple):
    renewals_hit: tuple[int, ...]  # positions k with a renewal; always starts with 0
    y_value: int                   # furthest blue position reached
    absorption: str                # death | caught | truncated


class TreeTrialRecord(NamedTuple):
    blue_reached_depth: int        # deepest level any tree vertex turned blue; -1 if none
    red_reached_depth: int         # deepest level any vertex turned red
    renewal_vertices_per_level: tuple[int, ...]
    blue_count: int                # tree vertices ever blue (the seed blue is not a tree vertex)


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
    blue_count_sum: Optional[int] = None

    def renewal_frequency(self, k: int) -> float:
        assert self.renewal_counts is not None
        return self.renewal_counts[k] / self.n_trials

    def renewal_stderr(self, k: int) -> float:
        phat = self.renewal_frequency(k)
        return math.sqrt(phat * (1.0 - phat) / self.n_trials)

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


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one trial: Philox keyed by (seed, trial)."""
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


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


# Philox4x64-10, the bit generator behind `trial_rng`, over uint64 arrays.
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


def _philox_block(block: int, trials: np.ndarray, seed: int) -> np.ndarray:
    """Raw words 4*block .. 4*block+3 of trial_rng(seed, t) for each t in trials.

    Block n is Philox4x64-10 of the counter (n+1, 0, 0, 0) under the key
    (trial, seed), both taken mod 2^64.  Returns a (4, len(trials)) array.
    """
    zeros = np.zeros(trials.size, np.uint64)
    c0, c1, c2, c3 = np.full(trials.size, block + 1, np.uint64), zeros, zeros, zeros
    for r in range(10):
        k0 = trials + np.uint64(r * _PHILOX_W[0] & _MASK64)
        k1 = np.uint64((seed + r * _PHILOX_W[1]) & _MASK64)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3))


#: Line trials stepped together.  A fixed constant, not a knob: it bounds
#: the engine's arrays and has no effect on the result.
_LINE_SLAB = 4096


def _gap_tables(lam: float, rho: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """`line_trial`'s adv and adv_ret for gaps 0 .. size-1, by the same float expressions."""
    total = 1.0 + lam + np.arange(size, dtype=np.float64) * rho
    return lam / total, (lam + 1.0) / total


def _add_counts(total: np.ndarray, values: np.ndarray) -> np.ndarray:
    counts = np.bincount(values, minlength=total.size)
    counts[: total.size] += total
    return counts


def _line_slab(lam: float, rho: float, k_max: int, seed: int, start: int, stop: int):
    """Step line trials [start, stop) in lockstep until every one has stopped.

    Step s of every live trial uses word s of its Philox stream, exactly as
    `line_trial` would.  Returns the blue positions of all renewals after
    the start, the final blue position of every trial, and the number of
    trials per absorption.
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
            words = _philox_block(step // 4, trials, seed)
            if adv.size < step + 6:  # the gap is at most step + 1 before step `step`
                adv, adv_ret = _gap_tables(lam, rho, 2 * (step + 6))
        x = (words[step % 4] >> 11) * 2.0**-53
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
    return np.concatenate(renewals), np.concatenate(ends), absorb


def simulate_line(
    p: ModelParams,
    n_trials: int,
    k_max: int,
    seed: int,
) -> SimSummary:
    """Estimate renewal probabilities on the line by n_trials jump chains.

    The branching factor of `p` is irrelevant here and ignored.
    Deterministic given (seed, n_trials, k_max).  The summary equals the one
    reduced from `line_trial(p, k_max, trial_rng(seed, i))` over i < n_trials,
    but the trials are stepped together in numpy, in one process.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    # The output tallies come first, so an impossible k_max fails at once.
    renewal_counts = [0] * (k_max + 1)
    y_counts = [0] * (k_max + 1)
    renewals = ends = np.zeros(1, np.int64)
    absorb = dict.fromkeys(_ABSORPTIONS, 0)
    for start in range(0, n_trials, _LINE_SLAB):
        stop = min(start + _LINE_SLAB, n_trials)
        slab_renewals, slab_ends, slab_absorb = _line_slab(
            float(p.lam), float(p.rho), k_max, seed, start, stop
        )
        renewals = _add_counts(renewals, slab_renewals)
        ends = _add_counts(ends, slab_ends)
        for a, count in slab_absorb.items():
            absorb[a] += count
    renewals[0] = n_trials  # every trial starts with a renewal at 0
    renewal_counts[: renewals.size] = renewals.tolist()
    y_counts[: ends.size] = ends.tolist()
    return SimSummary(
        kind="line",
        d=p.d,
        lam=p.lam,
        rho=p.rho,
        n_trials=n_trials,
        seed=seed,
        k_max=k_max,
        renewal_counts=tuple(renewal_counts),
        y_counts=tuple(y_counts),
        absorption_counts=tuple(absorb.items()),
    )


def _exp_delay(rng: np.random.Generator, rate: float) -> float:
    # inverse CDF on an open-interval uniform
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -math.log(u) / rate


def tree_trial(
    p: ModelParams,
    depth_cap: int,
    rng: np.random.Generator,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> TreeTrialRecord:
    """One continuous-time trial on the depth-capped d-ary tree.

    Starts with the root red and a blue seed attached above it.

    Renewal convention: every vertex designates one child slot as its
    tracked descent line.  A vertex is counted as a renewal vertex if, at
    the instant its parent turns blue, it is still red and its tracked
    continuation is still white.  Restricted to the branch through the
    tracked slots, the process is exactly the line process, so the
    per-vertex renewal probability at level k equals the weighted Catalan
    number C_k.  (Demanding that *all* d continuations be unspread would
    deflate the probability: the final wait then races against spread
    rate d*lambda instead of lambda, and the line identity breaks.)
    The root renews by construction.  Cap-level vertices never spread, so
    renewal counts at the cap itself are biased up by truncation; levels
    strictly below are exact.
    """
    d = p.d
    lam = float(p.lam)
    rho = float(p.rho)

    state = [_RED]
    depth = [0]
    children: list[list[int]] = [[]]
    tracked_fired = [False]  # tracked-slot spread has happened

    renewals = [0] * (depth_cap + 1)
    renewals[0] = 1  # root: red, parent blue, everything below white at time zero
    red_max = 0
    blue_max = -1
    blue_n = 0

    heap: list[tuple[float, int, int, int, bool]] = []
    seq = 0

    def push(time: float, kind: int, vertex: int, tracked: bool = False) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, vertex, tracked))
        seq += 1

    SPREAD, DEATH, OVERTAKE = 0, 1, 2

    def arm_red(vertex: int, now: float) -> None:
        if rho > 0.0:
            push(now + _exp_delay(rng, rho), DEATH, vertex)
        if depth[vertex] < depth_cap:
            for slot in range(d):
                push(now + _exp_delay(rng, lam), SPREAD, vertex, tracked=(slot == 0))

    arm_red(0, 0.0)
    push(_exp_delay(rng, 1.0), OVERTAKE, 0)  # blue seed chases the root

    while heap:
        now, _, kind, vertex, tracked = heapq.heappop(heap)
        if state[vertex] != _RED:
            continue  # stale clock
        if kind == SPREAD:
            child = len(state)
            if child >= max_vertices:
                raise ResourceBudgetError(
                    f"tree trial exceeded the vertex budget ({max_vertices}); "
                    "lower depth_cap or raise max_vertices"
                )
            state.append(_RED)
            depth.append(depth[vertex] + 1)
            children.append([])
            tracked_fired.append(False)
            children[vertex].append(child)
            if tracked:
                tracked_fired[vertex] = True
            if depth[child] > red_max:
                red_max = depth[child]
            arm_red(child, now)
        elif kind == DEATH:
            state[vertex] = _DEAD
        else:  # OVERTAKE: parent is blue and this vertex is still red
            state[vertex] = _BLUE
            blue_n += 1
            if depth[vertex] > blue_max:
                blue_max = depth[vertex]
            for child in children[vertex]:
                if state[child] == _RED:
                    if not tracked_fired[child]:
                        renewals[depth[child]] += 1
                    push(now + _exp_delay(rng, 1.0), OVERTAKE, child)

    return TreeTrialRecord(blue_max, red_max, tuple(renewals), blue_n)


def _tree_chunk(job: tuple) -> tuple[list[int], ...]:
    """Integer tallies of tree trials [start, stop), the last two fields of job."""
    p, depth_cap, seed, max_vertices, start, stop = job
    levels = depth_cap + 1
    ren_sum = [0] * levels
    ren_sumsq = [0] * levels
    blue_depth = [0] * (depth_cap + 2)  # index depth+1, so -1 lands at 0
    red_depth = [0] * levels
    blue_total = 0
    for idx in range(start, stop):
        rec = tree_trial(p, depth_cap, trial_rng(seed, idx), max_vertices)
        for lvl, c in enumerate(rec.renewal_vertices_per_level):
            ren_sum[lvl] += c
            ren_sumsq[lvl] += c * c
        blue_depth[rec.blue_reached_depth + 1] += 1
        red_depth[rec.red_reached_depth] += 1
        blue_total += rec.blue_count
    return ren_sum, ren_sumsq, blue_depth, red_depth, [blue_total]


def simulate_tree(
    p: ModelParams,
    depth_cap: int,
    n_trials: int,
    seed: int,
    threads: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> SimSummary:
    """Aggregate n_trials depth-capped tree trials.

    Deterministic given (seed, n_trials, depth_cap), regardless of threads.
    Blue reaching the cap is a truncated proxy for blue escaping; it is
    reported as a frequency at the cap, never as an infinite-tree estimate.
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    # A few chunks per worker smooths stragglers.  Every trial owns its
    # stream and the tallies are exact sums, so the split changes nothing.
    per = math.ceil(n_trials / (4 * pool_size(threads, n_trials)))
    jobs = [(p, depth_cap, seed, max_vertices, i, min(i + per, n_trials)) for i in range(0, n_trials, per)]
    parts = map_jobs(_tree_chunk, jobs, threads)
    ren_sum, ren_sumsq, blue_depth, red_depth, (blue_total,) = (
        [sum(column) for column in zip(*tallies)] for tallies in zip(*parts)
    )
    return SimSummary(
        kind="tree",
        d=p.d,
        lam=p.lam,
        rho=p.rho,
        n_trials=n_trials,
        seed=seed,
        depth_cap=depth_cap,
        level_renewal_sum=tuple(ren_sum),
        level_renewal_sumsq=tuple(ren_sumsq),
        blue_depth_counts=tuple(blue_depth),
        red_depth_counts=tuple(red_depth),
        blue_count_sum=blue_total,
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
