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
counts are biased up, and only the levels below it are exact.  A cap
vertex whose parent never turns blue can neither turn blue nor renew:
it counts for the deepest red level and nothing else.

Reproducibility: every draw is a word of Philox4x64-10 under the key seed
(Salmon et al., SC'11), whose blocks at distinct counters are independent, so
the counters are laid out for one numpy generator a run to step through, a
draw's block at a time, in runs of consecutive counters.  Line step block n
(steps 4n .. 4n + 3) numbers the trials live at its start 0, 1, ... in trial
order over the whole run, and live trial i takes step 4n + w from word w of the
counter (i + 1, n + 1, 0, 0); every trial is live at block 0, so trial t reads
(t + 1, 1, 0, 0) there.  Each tree level numbers its vertices 0, 1, ... in
(trial, index) order over the whole run (children by parent, then slot), the
root of trial t being vertex t of level 0, and vertex i of level l takes the
counters (i + 1, l + 1, b, 0), b = 0, 1, ..., whose words are its death,
overtake and slot 0 .. d-1 spread delays.  A cap vertex whose parent never
turns blue draws nothing, yet still takes its number, so no other vertex's
counters move: the cap is the only level whose draws skip counters, a gap of
at most _GAP counters drawn and left unread, a longer one stepped over.  So
equal (seed, n_trials) give equal summaries, a `LineSummary` from the line and
a `TreeSummary` from the tree; a run of n trials is the prefix of any longer
run with the same seed; and neither the slabs nor the pieces a level is drawn
in change a result.  A trial's draws depend on the seed and on how many trials
before it are live at each line step block, or put vertices in each tree level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from ced.catalan import ResourceBudgetError
from ced.params import ModelParams

# numpy is imported by the functions that compute with it, not by this
# module: the command line imports this module for every subcommand, and
# only `simulate` needs numpy.
if TYPE_CHECKING:
    import numpy as np

#: Vertices one tree trial may materialize.  A hostile depth cap would
#: otherwise exhaust memory and time; the trial stops with an error first.
#: Read at call time.
DEFAULT_MAX_VERTICES = 2_000_000

#: Trials either engine steps together: it bounds their arrays, never the result.  Each slab ends in a tail on a
#: few live trials, paid in numpy calls: 20 000 line trials took 2.8-4.8 ms in 5 slabs of 4096, 2.0-3.3 ms in 1 of
#: 2^15 (Xeon).
_SLAB = 1 << 15

#: Philox blocks one piece of a tree level draws, in one `_draw` call: it bounds the engine's arrays, never the
#: result.  A vertex takes ceil((d + 2) / 4) blocks, one at the cap.  Each piece pays numpy's per-call costs once:
#: 10 000 trials at (d, lambda, rho) = (2, 2, 1/2), cap 8, took 96 / 65 / 68 ms in pieces of 2^11 / 2^13 / 2^15
#: blocks (Xeon).
_LIVE_VERTICES = 1 << 13

#: Counters a draw steps over rather than draws: serials further apart than this start a new run, so a draw makes at
#: most _GAP blocks a serial.  A run costs about as much as 100 blocks (Xeon).
_GAP = 64

ABSORB_DEATH = "death"
ABSORB_CAUGHT = "caught"
ABSORB_TRUNCATED = "truncated"
_ABSORPTIONS = tuple(sorted((ABSORB_DEATH, ABSORB_CAUGHT, ABSORB_TRUNCATED)))  # tally order


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


def _draw(word1: int, serial: np.ndarray, blocks: int, philox: np.random.Philox) -> np.ndarray:
    """The Philox4x64-10 blocks at the counters (s + 1, word1, b, 0), b < blocks, under philox's key, s in serial.

    `serial` is an ascending int64 array.  Returns a (4 blocks, serial.size) array whose row 4b + w holds word w of
    block b.  `philox` is set to each run of each block in turn, whatever its state before, and draws the run whole
    with one call: serials at most _GAP apart share a run, and a run with gaps gathers the columns of its serials.
    """
    import numpy as np
    cut = np.r_[0, np.flatnonzero(np.diff(serial) > _GAP) + 1, serial.size]  # where each run starts, and the end
    starts, ends = serial[cut[:-1]], serial[cut[1:] - 1] + 1
    state = philox.state
    state["buffer_pos"] = 4  # no buffered words: the next word starts a block
    runs = []
    for b in range(blocks):
        for start, end in zip(starts.tolist(), ends.tolist()):
            state["state"]["counter"] = [start, word1, b, 0]  # it emits counter + 1 first
            philox.state = state
            runs.append(philox.random_raw(4 * (end - start)))
    words = (runs[0] if len(runs) == 1 else np.concatenate(runs)).reshape(blocks, -1, 4)
    words = words.transpose(0, 2, 1).reshape(4 * blocks, -1)
    if words.shape[1] == serial.size:
        return words
    offsets = np.cumsum(ends - starts) - (ends - starts)  # each run's first column
    return words[:, serial - np.repeat(starts - offsets, np.diff(cut))]


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms (w >> 11) 2^-53 in [0, 1) of raw words, the doubles numpy's Generator.random makes."""
    return (words >> 11).astype(float) * 2.0**-53


def _run_slabs(slab, args: tuple, n_trials: int, seed: int, sizes: tuple[int, ...]) -> tuple[list[int], ...]:
    """Tallies of these sizes, each the entrywise sum of its sequence from slab(*args, philox, start, stop).

    The slabs step the trials [0, n_trials) _SLAB at a time, every draw from one Philox keyed by the seed.  The
    arguments are checked first and the tallies made next, so an impossible size fails at once.
    """
    import numpy as np
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    tallies = tuple([0] * size for size in sizes)
    philox = np.random.Philox(key=seed)
    for start in range(0, n_trials, _SLAB):
        for total, values in zip(tallies, slab(*args, philox, start, min(start + _SLAB, n_trials))):
            for i, value in enumerate(values):
                total[i] += value
    return tallies


def _line_slab(lam: float, rho: float, k_max: int, queued: dict, philox: np.random.Philox, start: int, stop: int):
    """Step line trials [start, stop) in lockstep until every one has stopped.

    `queued` maps each step block to the live trials the run has numbered in it so far, and this slab adds its own.
    Step s of a live trial at gap j compares the uniform of its step s word
    with lambda / t and (lambda + 1) / t, t = 1 + lambda + j rho.
    Returns the histogram of the blue positions of the renewals after the
    start and the number of trials per absorption in _ABSORPTIONS order.
    """
    import numpy as np
    j = np.ones(stop - start, np.int64)
    b = np.zeros(j.size, np.int64)
    renewals = []
    absorb = dict.fromkeys(_ABSORPTIONS, 0)
    step = 0
    while j.size:
        if step % 4 == 0:
            number = queued.get(step // 4, 0)  # the live trials' numbers follow the block's earlier ones
            queued[step // 4] = number + j.size
            words = _draw(step // 4 + 1, np.arange(number, queued[step // 4]), 1, philox)
        x = _uniforms(words[0])
        words = words[1:]  # the rows of the block's later steps
        total = 1.0 + lam + j * rho
        advance = x < lam / total
        moved = x < (lam + 1.0) / total
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
        live = np.flatnonzero(~stopped)
        j, b, words = j[live], b[live], words[:, live]
    return np.bincount(np.concatenate(renewals)).tolist(), list(absorb.values())


def simulate_line(p: ModelParams, n_trials: int, k_max: int, seed: int) -> LineSummary:
    """Estimate renewal probabilities on the line by n_trials jump chains.

    The branching factor of `p` is irrelevant here and ignored.
    Deterministic given (seed, n_trials, k_max); the trials are stepped
    together in numpy, in one process.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    args = (float(p.lam), float(p.rho), k_max, {})  # the run's live trial count per step block, filled as reached
    renewal_counts, absorb = _run_slabs(_line_slab, args, n_trials, seed, (k_max + 1, len(_ABSORPTIONS)))
    renewal_counts[0] = n_trials  # every trial starts with a renewal at 0
    return LineSummary(p, n_trials, seed, tuple(renewal_counts), tuple(zip(_ABSORPTIONS, absorb)))


def _exp_delays(words: np.ndarray, rate: float) -> np.ndarray:
    """Exp(rate) delays -log(1 - u) / rate, with the line engine's uniforms u."""
    import numpy as np
    return -np.log(1.0 - _uniforms(words)) / rate


def _tree_slab(d: int, lam: float, rho: float, cap: int, queued: dict, philox: np.random.Philox, start: int, stop: int):
    """Tally tree trials [start, stop) level by level, by the rules in the module docstring.

    `queued` maps each level below the root to the vertices the run has numbered in it so far, and this slab adds its
    own.  Returns the renewal sums and sums of squares over the trials at each level 0 .. cap, and the histograms of
    the deepest blue level plus one and of the deepest red level, each up to the last level reached.
    """
    import numpy as np
    n = stop - start
    vertices = np.ones(n, np.int64)
    blue_depth = np.full(n, -1)
    red_depth = np.zeros(n, np.int64)
    ren_sum, ren_sumsq = [0] * (cap + 1), [0] * (cap + 1)
    run = [(-1, 0)] * (cap + 1)  # per level: its last drawn trial and that trial's renewals so far
    full = [max(1, _LIVE_VERTICES // ((d + 5) // 4))] * cap + [_LIVE_VERTICES]  # vertices in a full piece, per level
    # Waiting vertices per level, in (trial, index) order: the slab-local trial, the vertex's number in its level, red
    # time and parent's blue time (the seed's is 0).  The deepest level that holds a full piece draws one; when none
    # does, the shallowest level that holds any vertex draws all it holds.  Its shallower levels are empty then, so no
    # more vertices reach it: each level ends in one short piece.  A level takes children only while it holds less
    # than a full piece, so it waits as at most that and one piece's children.
    waiting = [(np.arange(n), np.arange(start, stop), np.zeros(n), np.zeros(n))] + [()] * cap
    while any(held := [w[0].size if w else 0 for w in waiting]):
        ready = [level for level in range(cap + 1) if held[level] >= full[level]]
        level = ready[-1] if ready else min(level for level in range(cap + 1) if held[level])
        trial, serial, red, parent_blue = (a[:full[level]] for a in waiting[level])
        waiting[level] = tuple(a[full[level]:] for a in waiting[level]) if held[level] > full[level] else ()
        # Cap vertices never spread: death and overtake only.  words[w] is every vertex's word w.
        words = _draw(level + 1, serial, (d + 5) // 4 if level < cap else 1, philox)
        death = red + _exp_delays(words[0], rho) if rho > 0.0 else np.full(red.size, np.inf)
        overtake = parent_blue + _exp_delays(words[1], 1.0)
        red_at_blue = parent_blue < death  # still red when its parent turns blue
        blue = np.where(red_at_blue & (overtake < death), overtake, np.inf)
        spread = red + _exp_delays(words[2:d + 2 if level < cap else 2], lam)  # a row per slot
        renews = red_at_blue & (spread[0] > parent_blue) if level < cap else red_at_blue
        spread = spread.T  # a row per vertex, so children come by parent, then slot
        born = np.flatnonzero(spread < np.minimum(death, blue)[:, None])  # no spread from a dead or blue vertex
        parent = born // d
        turned = trial[blue < np.inf]
        blue_depth[turned] = np.maximum(blue_depth[turned], level)  # a run-on trial's deeper levels may be drawn
        first = int(trial[0])
        local = trial - first  # a piece's trials come sorted: ren counts trials first .. trial[-1]
        ren = np.bincount(local[renews], minlength=local[-1] + 1)
        counts = vertices[first:first + ren.size]
        counts += np.bincount(local[parent], minlength=ren.size)
        if counts.max() > DEFAULT_MAX_VERTICES:
            raise ResourceBudgetError(
                f"tree trial {start + first + int(np.argmax(counts))} materialized more than "
                f"{DEFAULT_MAX_VERTICES} vertices; lower the depth cap (--depth)"
            )
        ren_before = run[level][1] if run[level][0] == first else 0
        ren[0] += ren_before
        ren_sum[level] += int(ren.sum()) - ren_before
        ren_sumsq[level] += int(ren @ ren) - ren_before * ren_before
        run[level] = (first + ren.size - 1, int(ren[-1]))
        if level == cap:
            continue
        number = queued.get(level + 1, 0)  # the children's numbers follow the level's earlier vertices
        queued[level + 1] = number + parent.size
        live = (trial[parent], np.arange(number, queued[level + 1]), spread.ravel()[born], blue[parent])
        red_depth[live[0]] = np.maximum(red_depth[live[0]], level + 1)
        kept = live[3] < np.inf if level + 1 == cap else slice(None)  # only cap vertices with a blue parent draw
        live, queue = tuple(a[kept] for a in live), waiting[level + 1]
        waiting[level + 1] = tuple(map(np.concatenate, zip(queue, live))) if queue else live
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
    args = (p.d, float(p.lam), float(p.rho), depth_cap, {})  # the run's vertex count per level, filled as reached
    sizes = (depth_cap + 1, depth_cap + 1, depth_cap + 2, depth_cap + 1)
    return TreeSummary(p, n_trials, seed, *map(tuple, _run_slabs(_tree_slab, args, n_trials, seed, sizes)))


class RenewalZ(NamedTuple):
    k: int
    observed: float
    expected: float
    stderr: float
    z: Optional[float]  # None for the k = 0 row, which matches exactly


def compare_renewals(summary: LineSummary, exact: list[float]) -> list[RenewalZ]:
    """Per-k z-scores of observed renewal frequencies against exact[k] = C_k, one per count.

    The command line takes `exact` from `ced.catalan.weighted_catalan_floats` before any trial.
    z_k = (phat_k - C_k) / sqrt(phat_k (1 - phat_k) / n).  The k = 0 row is
    a renewal by construction and is reported as an exact match.  A row
    with stderr 0 (frequency 0 or 1) gets z = 0 if phat_k = C_k and else
    an infinity with the sign of phat_k - C_k.
    """
    if len(exact) != len(summary.renewal_counts):
        raise ValueError(f"{len(exact)} exact values for {len(summary.renewal_counts)} renewal counts")
    n = summary.n_trials
    rows: list[RenewalZ] = []
    for k, (count, expected) in enumerate(zip(summary.renewal_counts, exact)):
        phat = count / n
        if k == 0:
            rows.append(RenewalZ(0, phat, expected, 0.0, None))
            continue
        se = math.sqrt(phat * (1.0 - phat) / n)
        if se == 0.0:
            z = 0.0 if phat == expected else math.copysign(math.inf, phat - expected)
        else:
            z = (phat - expected) / se
        rows.append(RenewalZ(k, phat, expected, se, z))
    return rows


def max_abs_z(rows: list[RenewalZ]) -> float:
    return max((abs(r.z) for r in rows if r.z is not None), default=0.0)
