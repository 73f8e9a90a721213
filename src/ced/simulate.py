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

Reproducibility: every draw is a word of Philox4x64-10 keyed by (trial,
seed) (Salmon et al., SC'11), computed in numpy for a slab of trials at
once.  Line step s takes word s mod 4 of the counter (s // 4 + 1, 0, 0, 0),
the stream of np.random.Philox(key=(seed, trial)).  The vertex with index
i in its trial's level l (children numbered by parent, then slot) takes
the counters (l + 1, i, b, 0), b = 0, 1, ..., whose words are its death,
overtake and slot 0 .. d-1 spread delays.  A cap vertex whose parent
never turns blue draws nothing, yet still takes its index, so no other
vertex's counters move.  So a trial's result depends on
(seed, trial) alone, never on its slab or on the pieces its levels are
drawn in, and equal seeds give equal summaries: a `LineSummary` from the
line, a `TreeSummary` from the tree.
"""

from __future__ import annotations

import functools
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
#: few live trials, paid in numpy calls: 20 000 line trials took 5.6 ms in 5 slabs of 4096, 3.5 ms in 1 of 2^15 (Xeon).
_SLAB = 1 << 15

#: Philox blocks one piece of a tree level draws, in one `_philox_block` call: it bounds the engine's arrays, never
#: the result.  A vertex takes ceil((d + 2) / 4) blocks, one at the cap.  Near 2^13 lanes a call's fixed cost is paid
#: off, and above it the page faults on its fresh arrays grow (Xeon).
_LIVE_VERTICES = 1 << 13

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


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64-10 round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key bumps (Weyl constants)


@functools.cache
def _u64() -> tuple:
    """0-d uint64 arrays made on first use: 11, the key's low-word bump, and the multipliers' `_mulhi` operands.

    numpy takes a 0-d array operand 0.25-0.45 us a call faster than an np.uint64 scalar, and promotes both alike.
    """
    import numpy as np
    u64 = functools.partial(np.array, dtype=np.uint64)
    chains = (tuple(map(u64, (m, m & 0xFFFFFFFF, m >> 32, 0xFFFFFFFF, 32))) for m in _PHILOX_M)
    return (u64(11), u64(_PHILOX_W[0]), *chains)


def _mulhi(a: np.ndarray, m, m_lo, m_hi, mask, shift, hi: np.ndarray, lo: np.ndarray, x, y, z) -> np.ndarray:
    """Writes the high and low words of a * m into hi and lo (lo may be a) and returns lo; x, y, z are scratch.

    Its 15 ufuncs meet a with uint64 arrays only: the scratch and `_u64`'s 0-d m, m_lo, m_hi, mask and shift.
    """
    import numpy as np
    np.multiply(np.bitwise_and(a, mask, out=x), m_lo, out=hi)
    hi >>= shift  # p
    x *= m_hi
    np.multiply(np.right_shift(a, shift, out=z), m_lo, out=y)  # z = a_hi
    np.multiply(a, m, out=lo)  # the last read of a
    y += hi  # u
    x += np.bitwise_and(y, mask, out=hi)  # v
    y >>= shift
    y += np.right_shift(x, shift, out=x)
    np.multiply(z, m_hi, out=hi)
    hi += y
    return lo


def _philox_block(counter: tuple, trials: np.ndarray, seed: int) -> np.ndarray:
    """Philox4x64-10 of the counter under the key (t, seed) for each t in trials.

    `counter` holds the four counter words, low word first, each a nonnegative int or a
    uint64 array aligned with `trials`; the key is taken mod 2^64.  Block n of
    np.random.Philox(key=(seed << 64) | t) is the counter (n+1, 0, 0, 0).  Returns a new
    (4, len(trials)) array and writes into no argument: each round's array words live in
    its rows, a new word in the row of the word it replaces.  A word that is the same
    for every lane stays a Python int with exact products until a per-lane word (the
    key's trial word or an array counter word) is xored into it as a 0-d uint64 array, so
    numpy 1.x and 2.x promote alike and no ufunc here takes a numpy scalar, which costs
    more per call than a 0-d array; the engines' int words 0, 2 and 3 save 3 of the 20
    `_mulhi` calls, which form high words from 32-bit limbs: p = (a_lo m_lo) >> 32,
    u = a_hi m_lo + p, v = a_lo m_hi + (u mod 2^32), high a_hi m_hi + (u >> 32) + (v >> 32).
    """
    import numpy as np
    bump, m0, m1 = _u64()[1:]
    u64 = functools.partial(np.array, dtype=np.uint64)
    c0, c1, c2, c3 = [c if isinstance(c, np.ndarray) else int(c) for c in counter]
    k0 = trials.astype(np.uint64)  # a copy: the key's low word, bumped in place each round
    hi, x, y, z = (np.empty_like(k0) for _ in range(4))
    r2, r3, r0, r1 = block = np.empty_like(k0, shape=(4, k0.size))  # word i's row: (i + r + 2) % 4
    for r in range(10):
        k1 = (seed + r * _PHILOX_W[1]) % 2**64
        # new words 2 and 3 are hi0 ^ c3 ^ k1 and lo0, 0 and 1 are hi1 ^ c1 ^ k0 and lo1
        h, c0 = divmod(c0 * _PHILOX_M[0], 1 << 64) if type(c0) is int else (hi, _mulhi(c0, *m0, hi, r0, x, y, z))
        if type(c3) is int:
            c3 = c3 ^ k1 ^ h if h is not hi else np.bitwise_xor(hi, u64(c3 ^ k1), out=r3)
        else:
            c3 = np.bitwise_xor(c3, u64(k1), out=r3)
            c3 ^= hi if h is hi else u64(h)
        h, c2 = divmod(c2 * _PHILOX_M[1], 1 << 64) if type(c2) is int else (hi, _mulhi(c2, *m1, hi, r2, x, y, z))
        c1 = np.bitwise_xor(k0, u64(c1) if type(c1) is int else c1, out=r1)
        c1 ^= hi if h is hi else u64(h)
        c0, c1, c2, c3, r0, r1, r2, r3 = c1, c2, c3, c0, r1, r2, r3, r0
        k0 += bump
    return block


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms (w >> 11) 2^-53 in [0, 1) of raw words, the doubles numpy's Generator.random makes."""
    return (words >> _u64()[0]).astype(float) * 2.0**-53


def _run_slabs(slab, args: tuple, n_trials: int, seed: int, sizes: tuple[int, ...]) -> tuple[list[int], ...]:
    """Tallies of these sizes, each the entrywise sum of its sequence from slab(*args, seed, start, stop).

    The slabs step the trials [0, n_trials) _SLAB at a time.  The arguments are
    checked first and the tallies made next, so an impossible size fails at once.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    tallies = tuple([0] * size for size in sizes)
    for start in range(0, n_trials, _SLAB):
        for total, values in zip(tallies, slab(*args, seed, start, min(start + _SLAB, n_trials))):
            for i, value in enumerate(values):
                total[i] += value
    return tallies


def _line_slab(lam: float, rho: float, k_max: int, seed: int, start: int, stop: int):
    """Step line trials [start, stop) in lockstep until every one has stopped.

    Step s of a live trial at gap j compares the uniform of word s of its
    Philox stream with lambda / t and (lambda + 1) / t, t = 1 + lambda + j rho.
    Returns the histogram of the blue positions of the renewals after the
    start and the number of trials per absorption in _ABSORPTIONS order.
    """
    import numpy as np
    trials = np.arange(start, stop, dtype=np.uint64)
    j = np.ones(trials.size, np.int64)
    b = np.zeros(trials.size, np.int64)
    renewals = []
    absorb = dict.fromkeys(_ABSORPTIONS, 0)
    step = 0
    while trials.size:
        if step % 4 == 0:
            words = _philox_block((step // 4 + 1, 0, 0, 0), trials, seed)
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
        trials, j, b, words = trials[live], j[live], b[live], words[:, live]
    return np.bincount(np.concatenate(renewals)).tolist(), list(absorb.values())


def simulate_line(p: ModelParams, n_trials: int, k_max: int, seed: int) -> LineSummary:
    """Estimate renewal probabilities on the line by n_trials jump chains.

    The branching factor of `p` is irrelevant here and ignored.
    Deterministic given (seed, n_trials, k_max); the trials are stepped
    together in numpy, in one process.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    args = (float(p.lam), float(p.rho), k_max)
    renewal_counts, absorb = _run_slabs(_line_slab, args, n_trials, seed, (k_max + 1, len(_ABSORPTIONS)))
    renewal_counts[0] = n_trials  # every trial starts with a renewal at 0
    return LineSummary(p, n_trials, seed, tuple(renewal_counts), tuple(zip(_ABSORPTIONS, absorb)))


def _exp_delays(words: np.ndarray, rate: float) -> np.ndarray:
    """Exp(rate) delays -log(1 - u) / rate, with the line engine's uniforms u."""
    import numpy as np
    return -np.log(1.0 - _uniforms(words)) / rate


def _tree_slab(d: int, lam: float, rho: float, cap: int, seed: int, start: int, stop: int):
    """Tally tree trials [start, stop) level by level, by the rules in the module docstring.

    Returns the renewal sums and sums of squares over the trials at each
    level 0 .. cap, and the histograms of the deepest blue level plus one and
    of the deepest red level, each up to the last level reached.
    """
    import numpy as np
    n = stop - start
    vertices = np.ones(n, np.int64)
    blue_depth = np.full(n, -1)
    red_depth = np.zeros(n, np.int64)
    ren_sum, ren_sumsq = [0] * (cap + 1), [0] * (cap + 1)
    run = [(-1, 0, 0)] * (cap + 1)  # per level: its last drawn trial, that trial's renewals and children so far
    full = [max(1, _LIVE_VERTICES // ((d + 5) // 4))] * cap + [_LIVE_VERTICES]  # vertices in a full piece, per level
    # Waiting vertices per level, in (trial, index) order: the slab-local trial, index in its trial's level, red time
    # and parent's blue time (the seed's is 0).  The deepest level that holds a full piece draws one; when none does,
    # the shallowest level that holds any vertex draws all it holds.  Its shallower levels are empty then, so no more
    # vertices reach it: each level ends in one short piece.  A level takes children only while it holds less than a
    # full piece, so it waits as at most that and one piece's children.
    waiting = [(np.arange(n), np.zeros(n, np.uint64), np.zeros(n), np.zeros(n))] + [()] * cap
    while any(held := [w[0].size if w else 0 for w in waiting]):
        ready = [level for level in range(cap + 1) if held[level] >= full[level]]
        level = ready[-1] if ready else min(level for level in range(cap + 1) if held[level])
        trial, index, red, parent_blue = (a[:full[level]] for a in waiting[level])
        waiting[level] = tuple(a[full[level]:] for a in waiting[level]) if held[level] > full[level] else ()
        blocks = (d + 5) // 4 if level < cap else 1  # cap vertices never spread: death and overtake only
        # One call draws the piece's (block, vertex) grid; words[w] is then every vertex's word w.
        keys = np.concatenate((trial.astype(np.uint64) + np.uint64(start),) * blocks)
        block = np.arange(blocks, dtype=np.uint64).repeat(trial.size) if blocks > 1 else 0
        words = _philox_block((level + 1, np.concatenate((index,) * blocks), block, 0), keys, seed)
        words = words.reshape(4, blocks, -1).swapaxes(0, 1).reshape(4 * blocks, -1)
        death = red + _exp_delays(words[0], rho) if rho > 0.0 else np.full(red.size, np.inf)
        overtake = parent_blue + _exp_delays(words[1], 1.0)
        red_at_blue = parent_blue < death  # still red when its parent turns blue
        blue = np.where(red_at_blue & (overtake < death), overtake, np.inf)
        spread = red + _exp_delays(words[2:d + 2 if level < cap else 2], lam)  # a row per slot
        renews = red_at_blue & (spread[0] > parent_blue) if level < cap else red_at_blue
        spread = spread.T.copy()  # a row per vertex, so children come by parent, then slot
        born = np.flatnonzero(spread < np.minimum(death, blue)[:, None])  # no spread from a dead or blue vertex
        parent = born // d
        turned = trial[blue < np.inf]
        blue_depth[turned] = np.maximum(blue_depth[turned], level)  # a run-on trial's deeper levels may be drawn
        first = int(trial[0])
        local = trial - first  # a piece's trials come sorted: ren and kids count trials first .. trial[-1]
        ren = np.bincount(local[renews], minlength=local[-1] + 1)
        kids = np.bincount(local[parent], minlength=ren.size)
        counts = vertices[first:first + ren.size]
        counts += kids
        if counts.max() > DEFAULT_MAX_VERTICES:
            raise ResourceBudgetError(
                f"tree trial {start + first + int(np.argmax(counts))} materialized more than "
                f"{DEFAULT_MAX_VERTICES} vertices; lower the depth cap (--depth)"
            )
        _, ren_before, kids_before = run[level] if run[level][0] == first else (None, 0, 0)
        ren[0] += ren_before
        kids[0] += kids_before
        ren_sum[level] += int(ren.sum()) - ren_before
        ren_sumsq[level] += int(ren @ ren) - ren_before * ren_before
        run[level] = (first + ren.size - 1, int(ren[-1]), int(kids[-1]))
        base = np.cumsum(kids) - kids - kids_before  # each trial's first child, less its earlier ones
        live = (trial[parent], (np.arange(parent.size) - base[local[parent]]).view(np.uint64),
                spread.ravel()[born], blue[parent])
        red_depth[live[0]] = np.maximum(red_depth[live[0]], level + 1)
        if level < cap:
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
    args = (p.d, float(p.lam), float(p.rho), depth_cap)
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
