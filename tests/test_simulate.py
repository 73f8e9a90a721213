import collections
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ced.simulate
from ced.catalan import weighted_catalan_floats, weighted_catalan_sequence
from ced.decision import Verdict, critical_rho, decide
from ced.params import ModelParams
from ced.simulate import (
    LineSummary,
    ResourceBudgetError,
    TreeSummary,
    compare_renewals,
    max_abs_z,
    simulate_line,
    simulate_tree,
)
from scalar_reference import jump_probabilities, line_trials, philox_block, tree_trials

P211 = ModelParams(2, F(1), F(1))


def line_summary_of(p, records, k_max, seed):
    """The line summary reduced trial by trial from scalar line records."""
    renewals = [0] * (k_max + 1)
    absorb = {"caught": 0, "death": 0, "truncated": 0}
    for rec in records:
        for k in rec.renewals_hit:
            renewals[k] += 1
        absorb[rec.absorption] += 1
    return LineSummary(p, len(records), seed, tuple(renewals), tuple(absorb.items()))


def scalar_line_summary(p, n_trials, k_max, seed):
    """The line summary reduced trial by trial from the scalar line_trials."""
    return line_summary_of(p, line_trials(p, k_max, n_trials, seed), k_max, seed)


def scalar_tree_summary(p, depth_cap, n_trials, seed):
    """The tree summary reduced trial by trial from the scalar tree_trial."""
    ren_sum = [0] * (depth_cap + 1)
    ren_sumsq = [0] * (depth_cap + 1)
    blue = [0] * (depth_cap + 2)
    red = [0] * (depth_cap + 1)
    for rec in tree_trials(p, depth_cap, n_trials, seed):
        for level, c in enumerate(rec.renewal_vertices_per_level):
            ren_sum[level] += c
            ren_sumsq[level] += c * c
        blue[rec.blue_reached_depth + 1] += 1
        red[rec.red_reached_depth] += 1
    return TreeSummary(p, n_trials, seed, tuple(ren_sum), tuple(ren_sumsq), tuple(blue), tuple(red))


def half_binomial_tail(n, x, upper):
    """P(X >= x) if upper, else P(X <= x), for X ~ Binomial(n, 1/2), exactly."""
    ks = range(x, n + 1) if upper else range(x + 1)
    return F(sum(math.comb(n, k) for k in ks), 2**n)


class TestJumpChain:
    @given(
        lam=st.fractions(min_value=F(1, 20), max_value=20, max_denominator=30),
        rho=st.fractions(min_value=0, max_value=20, max_denominator=30),
        j=st.integers(1, 50),
    )
    @settings(max_examples=60)
    def test_probabilities_sum_to_one(self, lam, rho, j):
        adv, ret, die = jump_probabilities(ModelParams(2, lam, rho), j)
        assert adv + ret + die == 1
        assert adv > 0 and ret > 0 and die >= 0

    def test_first_jump_split_at_unit_rates(self):
        assert jump_probabilities(P211, 1) == (F(1, 3), F(1, 3), F(1, 3))

    def test_state_validation(self):
        with pytest.raises(ValueError):
            jump_probabilities(P211, 0)


class TestLineTrials:
    def test_record_structure(self):
        for rec in line_trials(P211, 5, 50, 11):
            assert rec.renewals_hit[0] == 0
            assert rec.absorption in ("death", "caught", "truncated")
            assert rec.y_value >= max(rec.renewals_hit)
            assert all(k <= 5 for k in rec.renewals_hit)

    def test_stream_repeatability(self):
        a = line_trials(P211, 5, 4, 11)
        b = line_trials(P211, 5, 4, 11)
        assert a == b


def counting_philox(monkeypatch):
    """Patch numpy's Philox to record each generator's keyword arguments and each random_raw size: two lists."""
    built, raw_sizes, philox = [], [], np.random.Philox

    class CountingPhilox:
        def __init__(self, **kwargs):
            built.append(kwargs)
            self._philox = philox(**kwargs)

        @property
        def state(self):
            return self._philox.state

        @state.setter
        def state(self, value):
            self._philox.state = value

        def random_raw(self, size):
            raw_sizes.append(size)
            return self._philox.random_raw(size)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    return built, raw_sizes


def per_lane_words(word1, serial, blocks, seed):
    """The (4 blocks, len(serial)) words of _draw, from one numpy Philox a block and a serial."""
    return [[philox_block(seed, (s + 1, word1, b, 0))[w] for s in serial] for b in range(blocks) for w in range(4)]


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize(
    "serial", [[0, 1, 2, 3], [0, 2, 3, 7, 8, 9, 15, 80, 145], [6], [0, 5, 2**40]], ids=["run", "gaps", "one", "far"]
)
def test_draw_matches_numpy_philox_per_lane(blocks, serial):
    # row 4b + w, column i: word w of the block at counter (serial[i] + 1, word1, b, 0) under the key seed;
    # a gap over _GAP (80 - 15, 2^40 - 5) is stepped over, never drawn
    seed, word1 = 2**64 - 1, 7
    words = ced.simulate._draw(word1, np.array(serial), blocks, np.random.Philox(key=seed))
    assert words.dtype == np.uint64 and words.tolist() == per_lane_words(word1, serial, blocks, seed)


def ascending_serials(rng, lanes, max_gap, first=0):
    """lanes ascending serials from first, each gap drawn from [1, max_gap]."""
    return first + np.cumsum(rng.integers(1, max_gap, lanes, endpoint=True)) - 1


SERIAL_PATTERNS = {
    "run": [0, 1, 2, 3],
    "gaps": [0, 2, 3, 7, 8, 9, 15, 80, 145],
    "one": [6],
    "far": [0, 5, 2**40],
    "gap_at_limit": [3, 3 + ced.simulate._GAP],
    "gap_past_limit": [3, 4 + ced.simulate._GAP],
}


class TestDraw:
    @pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 2**32 - 2, 2**63 - 5])  # 2^32 - 1 .. 2^32 + 2 cross a 32-bit limb
    def test_matches_numpy_philox_at_limb_edges(self, seed, first):
        serial = np.arange(first, first + 4)
        for blocks in (1, 2, 3):
            words = ced.simulate._draw(1, serial, blocks, np.random.Philox(key=seed))
            assert words.tolist() == per_lane_words(1, serial.tolist(), blocks, seed)

    @pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
    @pytest.mark.parametrize("word1", [0, 1, 2**32 + 7, 2**64 - 1])
    def test_counter_word1_matches_numpy_philox(self, seed, word1):
        serial = [0, 1, 2**32 - 1, 2**32, 2**32 + 90]
        words = ced.simulate._draw(word1, np.array(serial), 2, np.random.Philox(key=seed))
        assert words.tolist() == per_lane_words(word1, serial, 2, seed)

    @pytest.mark.parametrize("max_gap", [1, ced.simulate._GAP, ced.simulate._GAP + 1, 5_000])
    @pytest.mark.parametrize("lanes", [1, 2, 300])
    def test_random_serials_match_numpy_philox(self, max_gap, lanes):
        rng = np.random.default_rng([max_gap, lanes])
        serial = ascending_serials(rng, lanes, max_gap, first=int(rng.integers(0, 2**40)))
        words = ced.simulate._draw(5, serial, 2, np.random.Philox(key=2**63 + 5))
        assert words.shape == (8, lanes) and words.tolist() == per_lane_words(5, serial.tolist(), 2, 2**63 + 5)

    @pytest.mark.parametrize("keep", ["all", "evens", "first", "last", "half", "sparse"])
    def test_columns_do_not_depend_on_the_other_serials(self, keep):
        # a serial's words are the same whichever runs and gathers the other serials put it in
        serial = ascending_serials(np.random.default_rng(3), 400, 2 * ced.simulate._GAP)
        chosen = {
            "all": np.arange(400),
            "evens": np.arange(0, 400, 2),
            "first": np.array([0]),
            "last": np.array([399]),
            "half": np.sort(np.random.default_rng(4).choice(400, 200, replace=False)),
            "sparse": np.arange(0, 400, 37),
        }[keep]
        whole = ced.simulate._draw(2, serial, 3, np.random.Philox(key=9))
        assert np.array_equal(ced.simulate._draw(2, serial[chosen], 3, np.random.Philox(key=9)), whole[:, chosen])

    @pytest.mark.parametrize("blocks", [2, 3, 5, 17])
    def test_more_blocks_extend_the_fewer(self, blocks):
        # block b sits in counter word 2, so a vertex that draws fewer blocks (a cap vertex) shares its first ones
        serial = np.array([0, 1, 4, 90, 91, 400])
        words = ced.simulate._draw(3, serial, blocks, np.random.Philox(key=11))
        for fewer in range(1, blocks):
            assert np.array_equal(ced.simulate._draw(3, serial, fewer, np.random.Philox(key=11)), words[: 4 * fewer])

    @pytest.mark.parametrize("lanes", [1, 2, 300])
    def test_returns_a_fresh_array_and_writes_no_argument(self, lanes):
        backing = ascending_serials(np.random.default_rng(lanes), 2 * lanes, 100)
        for serial in (backing[:lanes], backing[::2]):  # contiguous and strided
            kept = serial.copy()
            for blocks in (1, 3):
                words = ced.simulate._draw(4, serial, blocks, np.random.Philox(key=6))
                assert words.shape == (4 * blocks, lanes) and words.dtype == np.uint64
                assert words.flags.writeable and not np.shares_memory(words, serial) and np.array_equal(serial, kept)
                words[:] = 0
                assert words.tolist() != ced.simulate._draw(4, serial, blocks, np.random.Philox(key=6)).tolist()

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("pattern", list(SERIAL_PATTERNS))
    def test_one_generator_and_one_raw_call_a_run_and_block(self, monkeypatch, pattern, blocks):
        # serials at most _GAP apart share a run; each run of each block is drawn whole by one call, never twice
        serial = np.array(SERIAL_PATTERNS[pattern])
        spans = np.split(serial, np.flatnonzero(np.diff(serial) > ced.simulate._GAP) + 1)
        built, raw_sizes = counting_philox(monkeypatch)
        words = ced.simulate._draw(8, serial, blocks, np.random.Philox(key=21))
        assert len(built) == 1
        assert raw_sizes == [4 * int(s[-1] - s[0] + 1) for _ in range(blocks) for s in spans]
        assert words.tolist() == per_lane_words(8, serial.tolist(), blocks, 21)

    @pytest.mark.parametrize("before", ["mid_buffer", "higher_counter", "gapped_draw"])
    @pytest.mark.parametrize("pattern", list(SERIAL_PATTERNS))
    def test_words_do_not_depend_on_the_generator_state(self, pattern, before):
        # one generator serves every draw of a run: a draw sets its counters, whatever the earlier draws left
        serial = np.array(SERIAL_PATTERNS[pattern])
        philox = np.random.Philox(key=2**63 + 5)
        if before == "mid_buffer":
            philox.random_raw(1)
        elif before == "higher_counter":
            ced.simulate._draw(9, np.arange(2**40, 2**40 + 3), 3, philox)
        else:
            ced.simulate._draw(2, np.array([5, 6, 300, 2**33]), 2, philox)
            philox.random_raw(3)
        for blocks in (1, 3):
            words = ced.simulate._draw(4, serial, blocks, philox)
            assert words.tolist() == per_lane_words(4, serial.tolist(), blocks, 2**63 + 5)

    @pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
    def test_uniforms_are_generator_random(self, seed):
        raw = np.random.Philox(key=seed).random_raw(1000)
        expected = np.random.Generator(np.random.Philox(key=seed)).random(1000)
        assert np.array_equal(ced.simulate._uniforms(raw), expected)


class TestSimulateLine:
    @pytest.mark.parametrize(
        "lam,rho,k_max,n_trials,seed",
        [
            (F(1), F(0), 6, 600, 4),              # no deaths: only caught or truncated
            (F(1), F(10), 4, 600, 4),             # deaths dominate
            (F(1), F(1), 1, 64 * 64 + 37, 1),     # k_max = 1; at _SLAB = 64, 64 slabs and a remainder
            (F(3, 2), F(1, 10), 8, 1000, 2**63 + 5),
            (F(3), F(0), 20, 300, 2**64 - 1),     # drifts to truncation
        ],
    )
    def test_equals_scalar_reference(self, monkeypatch, lam, rho, k_max, n_trials, seed):
        if n_trials == 64 * 64 + 37:
            monkeypatch.setattr(ced.simulate, "_SLAB", 64)
        p = ModelParams(2, lam, rho)
        assert simulate_line(p, n_trials, k_max, seed) == scalar_line_summary(p, n_trials, k_max, seed)

    def test_builds_no_per_trial_generator(self, monkeypatch):
        # one Philox a simulate_* call, whatever its slabs, which each draw sets to its counters; never a Generator
        read, draw = [], ced.simulate._draw  # blocks each _draw call reads

        def refuse(*args, **kwargs):
            raise AssertionError("an engine built a numpy Generator")

        def counting_draw(word1, serial, blocks, philox):
            read.append(serial.size * blocks)
            return draw(word1, serial, blocks, philox)

        monkeypatch.setattr(np.random, "Generator", refuse)
        built, raw_sizes = counting_philox(monkeypatch)
        monkeypatch.setattr(ced.simulate, "_draw", counting_draw)
        # perfbench's line op: each draw is one run, so the line draws exactly the blocks it reads
        assert simulate_line(P211, 20_000, 6, seed=9).n_trials == 20_000
        assert built == [{"key": 9}]
        assert len(raw_sizes) == len(read) < 20 and sum(raw_sizes) == 4 * sum(read)
        monkeypatch.setattr(ced.simulate, "_SLAB", 1_000)
        assert simulate_line(P211, 5_000, 5, seed=9).n_trials == 5_000
        assert simulate_tree(P211, 5, 5_000, seed=9).n_trials == 5_000
        assert built == [{"key": 9}] * 3

    def test_step_blocks_number_their_live_trials(self, monkeypatch):
        # Block n numbers the trials live at its start 0 .. live - 1 over the whole run, whatever the slabs: each
        # draw is one run of consecutive counters, and a trial's counters depend only on the trials before it.
        p, k_max, seed = ModelParams(2, F(3, 2), F(1, 10)), 8, 2
        records = line_trials(p, k_max, 300, seed)
        draws = []  # (block, serials) of each _draw call
        draw = ced.simulate._draw

        def recording(word1, serial, blocks, philox):
            draws.append((word1 - 1, serial.tolist()))
            return draw(word1, serial, blocks, philox)

        monkeypatch.setattr(ced.simulate, "_draw", recording)
        monkeypatch.setattr(ced.simulate, "_SLAB", 64)
        assert simulate_line(p, 300, k_max, seed) == line_summary_of(p, records, k_max, seed)
        blocks = max(-(-r.steps // 4) for r in records)
        assert blocks > 3 and {block for block, _ in draws} == set(range(blocks))
        for n in range(blocks):
            live = sum(r.steps > 4 * n for r in records)
            assert sum((serial for block, serial in draws if block == n), []) == list(range(live))
        assert all(serial == list(range(serial[0], serial[-1] + 1)) for _, serial in draws)
        # a run of n trials is the prefix of the longer one, at any slab size
        for slab in (64, 16, 5):
            monkeypatch.setattr(ced.simulate, "_SLAB", slab)
            for n_trials in (1, 37, 64, 200):
                assert simulate_line(p, n_trials, k_max, seed) == line_summary_of(p, records[:n_trials], k_max, seed)

    def test_summary_determinism_and_thread_invariance(self):
        s1 = simulate_line(P211, 30_000, 5, seed=9)
        s2 = simulate_line(P211, 30_000, 5, seed=9)
        assert s1 == s2
        assert s1 != simulate_line(P211, 30_000, 5, seed=10)

    def test_tallies_consistent(self):
        s = simulate_line(P211, 20_000, 5, seed=3)
        assert s.renewal_counts[0] == s.n_trials  # the start is a renewal
        assert sum(dict(s.absorption_counts).values()) == s.n_trials

    def test_frequencies_match_exact_values(self):
        s = simulate_line(P211, 200_000, 4, seed=1)
        rows = compare_renewals(s, weighted_catalan_floats(P211, 4))
        assert max_abs_z(rows) <= 4.0

    def test_no_death_reduction_to_classic_values(self):
        p = ModelParams(2, F(1), F(0))
        s = simulate_line(p, 200_000, 4, seed=1)
        rows = compare_renewals(s, weighted_catalan_floats(p, 4))
        # exact values collapse to C_k / 4^k here
        assert [r.expected for r in rows] == [1.0, 0.25, 0.125, 5 / 64, 14 / 256]
        assert max_abs_z(rows) <= 4.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_line(P211, 0, 5, seed=1)
        with pytest.raises(ValueError):
            simulate_line(P211, 10, 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the seed is the low word of the Philox key, whose high word is always 0
        with pytest.raises(ValueError, match="seed"):
            simulate_line(P211, 10, 3, seed)
        with pytest.raises(ValueError, match="seed"):
            simulate_tree(P211, 3, 10, seed)

    def test_bad_seed_rejected_before_tallies(self):
        # tallies of 2^61 entries would exhaust memory: the seed check must come first
        with pytest.raises(ValueError, match="seed"):
            simulate_tree(P211, 2**61, 1, -1)
        with pytest.raises(ValueError, match="seed"):
            simulate_line(P211, 1, 2**61, -1)


class TestCompareRenewals:
    def test_k0_exact_row(self):
        s = simulate_line(P211, 5_000, 3, seed=2)
        rows = compare_renewals(s, weighted_catalan_floats(P211, 3))
        assert rows[0].z is None and rows[0].observed == 1.0

    def test_miswired_rates_detected(self):
        # compare a rho=1 run with the rho=1/2 column: the z-scores blow up
        s = simulate_line(P211, 200_000, 3, seed=1)
        rows = compare_renewals(s, weighted_catalan_floats(ModelParams(2, F(1), F(1, 2)), 3))
        assert max_abs_z(rows) > 6.0

    def test_a_column_of_another_length_is_refused(self):
        # zip would drop the rows past the shorter one
        s = simulate_line(P211, 100, 3, seed=2)
        with pytest.raises(ValueError, match="3 exact values for 4 renewal counts"):
            compare_renewals(s, weighted_catalan_floats(P211, 2))

    def test_zero_stderr_z_takes_the_sign_of_the_miss(self):
        # se = 0 at frequency 0 or 1: an unseen k lies below C_k, a certain one above it
        absorb = (("caught", 0), ("death", 10), ("truncated", 0))
        exact = weighted_catalan_floats(P211, 2)
        z = [r.z for r in compare_renewals(LineSummary(P211, 10, 1, (10, 0, 0), absorb), exact)]
        assert z == [None, -math.inf, -math.inf]
        z = [r.z for r in compare_renewals(LineSummary(P211, 10, 1, (10, 10), absorb), exact[:2])]
        assert z == [None, math.inf]


class TestTreeTrials:
    def test_blue_needs_red_first(self):
        for rec in tree_trials(P211, 4, 60, 21):
            assert rec.blue_reached_depth <= rec.red_reached_depth
            assert rec.renewal_vertices_per_level[0] == 1
            assert all(c >= 0 for c in rec.renewal_vertices_per_level)

    def test_budget_error(self, monkeypatch):
        # no deaths and a hot spread rate overrun a tiny vertex budget
        monkeypatch.setattr(ced.simulate, "DEFAULT_MAX_VERTICES", 50)
        with pytest.raises(ResourceBudgetError, match="--depth"):
            simulate_tree(ModelParams(2, F(5), F(0)), 12, 1, seed=1)
        with pytest.raises(ResourceBudgetError):  # one trial of a slab is enough
            simulate_tree(ModelParams(2, F(5), F(0)), 12, 100, seed=1)

    def test_budget_stop_holds_pieces_not_levels(self):
        # One trial near the budget: the waiting pieces, not whole levels, bound the memory.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError):
                simulate_tree(ModelParams(2, F(1), F(0)), 30, 1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


class TestSimulateTree:
    @pytest.mark.parametrize(
        "p,depth_cap,n_trials,seed",
        [
            (P211, 5, 300, 7),
            (ModelParams(3, F(1), F(1, 2)), 4, 200, 2),   # d + 2 = 5 words: a second Philox block
            (ModelParams(2, F(1), F(0)), 5, 200, 5),      # no deaths
            (ModelParams(2, F(2), F(1, 2)), 5, 100, 2**64 - 1),  # supercritical: red survives to the cap
            (P211, 1, 500, 2**63 + 5),                    # cap 1
            (P211, 2, 64 * 64 + 37, 11),                  # at _SLAB = 64, 64 slabs and a remainder
        ],
    )
    def test_equals_scalar_reference(self, monkeypatch, p, depth_cap, n_trials, seed):
        if n_trials == 64 * 64 + 37:
            monkeypatch.setattr(ced.simulate, "_SLAB", 64)
        assert simulate_tree(p, depth_cap, n_trials, seed) == scalar_tree_summary(p, depth_cap, n_trials, seed)

    def test_split_and_continue_changes_nothing(self, monkeypatch):
        p = ModelParams(2, F(2), F(1, 2))
        whole = simulate_tree(p, 5, 100, seed=4)
        draws = []  # (level, serials) of each _draw call
        draw = ced.simulate._draw

        def recording(word1, serial, blocks, philox):
            draws.append((word1 - 1, serial.tolist()))
            return draw(word1, serial, blocks, philox)

        monkeypatch.setattr(ced.simulate, "_draw", recording)
        monkeypatch.setattr(ced.simulate, "_SLAB", 32)
        monkeypatch.setattr(ced.simulate, "_LIVE_VERTICES", 5)
        assert simulate_tree(p, 5, 100, seed=4) == whole
        # No re-run: each vertex below the cap is drawn exactly once, in order, its number running on across slabs;
        # the roots' numbers are their trials.
        records = tree_trials(p, 5, 100, 4)
        for l in range(5):
            drawn = sum((serial for level, serial in draws if level == l), [])
            assert drawn == list(range(sum(r.vertices_per_level[l] for r in records)))
        assert sum((serial for level, serial in draws if level == 0), []) == list(range(100))
        # Pieces: some level of the four slabs was drawn in more than four calls.
        assert max(sum(level == l for level, _ in draws) for l in range(1, 6)) > 4

    @given(
        d=st.integers(2, 5),
        lam=st.fractions(min_value=F(1, 4), max_value=3, max_denominator=8),
        rho=st.fractions(min_value=0, max_value=3, max_denominator=8),
        cap=st.integers(1, 4),
        n_trials=st.integers(1, 20),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(d=5, lam=F(3), rho=F(0), cap=4, n_trials=20, seed=2**64 - 1)  # every vertex spreads; two Philox blocks
    @example(d=2, lam=F(1), rho=F(1), cap=1, n_trials=20, seed=0)  # the cap filter runs at level 0
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_equals_scalar_reference_everywhere(self, d, lam, rho, cap, n_trials, seed):
        p = ModelParams(d, lam, rho)
        assert simulate_tree(p, cap, n_trials, seed) == scalar_tree_summary(p, cap, n_trials, seed)

    @given(
        d=st.integers(2, 5),
        lam=st.fractions(min_value=F(1, 4), max_value=3, max_denominator=8),
        rho=st.fractions(min_value=0, max_value=3, max_denominator=8),
        cap=st.integers(1, 4),
        n_trials=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
        live_vertices=st.integers(1, 6),
    )
    # one vertex a piece, and a cut inside a trial at every level below the root
    @example(d=3, lam=F(3), rho=F(0), cap=4, n_trials=3, seed=1, live_vertices=1)  # two blocks a vertex
    @example(d=2, lam=F(3), rho=F(0), cap=4, n_trials=4, seed=2, live_vertices=1)
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_pieces_inside_trials_equal_scalar_reference(self, d, lam, rho, cap, n_trials, seed, live_vertices):
        # Pieces of a few blocks cut trials at every level: the run-on trial's renewals and indices carry over.
        p = ModelParams(d, lam, rho)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ced.simulate, "_LIVE_VERTICES", live_vertices)
            summary = simulate_tree(p, cap, n_trials, seed)
        assert summary == scalar_tree_summary(p, cap, n_trials, seed)

    @pytest.mark.parametrize("live_vertices", [ced.simulate._LIVE_VERTICES, 5])
    def test_cap_draws_only_for_blue_parents(self, monkeypatch, live_vertices):
        # A cap vertex whose parent never turns blue never renews or turns blue: it draws no lane.
        p, cap, n_trials, seed = ModelParams(2, F(2), F(1, 2)), 5, 100, 4  # d + 2 = 4 words: one block a vertex
        calls = []  # (level, trials) of each _draw call
        draw = ced.simulate._draw
        records = tree_trials(p, cap, n_trials, seed)
        # the trial of each numbered vertex, per level
        owner = [np.repeat(np.arange(n_trials), [r.vertices_per_level[l] for r in records]) for l in range(cap + 1)]

        def recording(word1, serial, blocks, philox):
            calls.append((word1 - 1, owner[word1 - 1][serial].tolist()))
            return draw(word1, serial, blocks, philox)

        monkeypatch.setattr(ced.simulate, "_draw", recording)
        monkeypatch.setattr(ced.simulate, "_LIVE_VERTICES", live_vertices)
        summary = simulate_tree(p, cap, n_trials, seed)
        cap_lanes = sum(len(trials) for level, trials in calls if level == cap)
        assert cap_lanes == sum(r.blue_parent_vertices_per_level[cap] for r in records) > 0
        assert summary.red_depth_counts[cap] == sum(r.red_reached_depth == cap for r in records)
        if live_vertices == 5:
            # Some piece of level cap - 1 has children at the cap, none of which draws: none of them waits.
            assert any(
                any(records[t].red_reached_depth == cap for t in trials)
                and not any(records[t].blue_parent_vertices_per_level[cap] for t in trials)
                for level, trials in calls if level == cap - 1
            )

    @pytest.mark.parametrize(
        "p,cap,n_trials,seed,live_vertices,slab,lanes",
        [
            (ModelParams(3, F(1), F(1, 2)), 6, 2000, 1, ced.simulate._LIVE_VERTICES, ced.simulate._SLAB, 126_332),
            (ModelParams(3, F(2), F(1, 2)), 5, 40, 6, 5, 16, 2695),  # test_split_path_equals_scalar_reference's point
        ],
    )
    def test_each_level_ends_in_one_short_piece(self, monkeypatch, p, cap, n_trials, seed, live_vertices, slab, lanes):
        # A level draws a short piece only once no level holds a full one, and then never receives another vertex.
        calls = []  # (slab, level, vertices, blocks) of each _draw call
        starts = []  # the first trial of each slab, in order
        draw, tree_slab = ced.simulate._draw, ced.simulate._tree_slab

        def recording(word1, serial, blocks, philox):
            calls.append((starts[-1] // slab, word1 - 1, serial.size, blocks))
            return draw(word1, serial, blocks, philox)

        def slab_start(*args):
            starts.append(args[-2])
            return tree_slab(*args)

        monkeypatch.setattr(ced.simulate, "_draw", recording)
        monkeypatch.setattr(ced.simulate, "_tree_slab", slab_start)
        monkeypatch.setattr(ced.simulate, "_LIVE_VERTICES", live_vertices)
        monkeypatch.setattr(ced.simulate, "_SLAB", slab)
        simulate_tree(p, cap, n_trials, seed)
        short = collections.Counter()
        for s, level, size, blocks in calls:
            assert blocks == ((p.d + 5) // 4 if level < cap else 1)
            short[s, level] += size < max(1, live_vertices // blocks)
        assert max(short.values()) <= 1
        assert {s for s, _, _, _ in calls} == set(range(-(-n_trials // slab)))
        assert sum(size * blocks for _, _, size, blocks in calls) == lanes  # set by the vertices drawn, not their order

    def test_split_path_equals_scalar_reference(self, monkeypatch):
        p = ModelParams(3, F(2), F(1, 2))  # supercritical: red survives to the cap
        monkeypatch.setattr(ced.simulate, "_SLAB", 16)
        monkeypatch.setattr(ced.simulate, "_LIVE_VERTICES", 5)
        assert simulate_tree(p, 5, 40, seed=6) == scalar_tree_summary(p, 5, 40, seed=6)
        assert simulate_line(p, 40, 5, seed=6) == scalar_line_summary(p, 40, 5, seed=6)

    def test_determinism_and_thread_invariance(self):
        s1 = simulate_tree(P211, 5, 4_000, seed=9)
        s2 = simulate_tree(P211, 5, 4_000, seed=9)
        assert s1 == s2
        assert s1 != simulate_tree(P211, 5, 4_000, seed=10)

    def test_level_means_match_weighted_catalan(self):
        s = simulate_tree(P211, 6, 40_000, seed=2)
        exact = weighted_catalan_sequence(P211, 3)
        for k in (1, 2, 3):
            target = float(2**k * exact[k])
            assert abs(s.level_renewal_mean(k) - target) <= 3 * s.level_renewal_stderr(k)

    def test_extinction_regime_red_dies_out(self):
        p = ModelParams(2, F(1), F(2))  # rho >= extinction rate 1
        s = simulate_tree(p, 8, 5_000, seed=5)
        assert s.red_reach_cap_frequency() < 0.05

    def test_no_death_blue_reaches_cap(self):
        p = ModelParams(2, F(1), F(0))
        s = simulate_tree(p, 6, 3_000, seed=5)
        assert s.blue_reach_cap_frequency() > 0.3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_tree(P211, 0, 10, seed=1)
        with pytest.raises(ValueError):
            simulate_tree(P211, 3, 0, seed=1)


@pytest.mark.parametrize("engine", ["line", "tree"])
def test_slab_size_changes_nothing(monkeypatch, engine):
    n = ced.simulate._SLAB + 37  # a full slab and a remainder
    run = {"line": lambda: simulate_line(P211, n, 6, seed=3), "tree": lambda: simulate_tree(P211, 4, n, seed=3)}[engine]
    whole = run()
    monkeypatch.setattr(ced.simulate, "_SLAB", 64)
    assert run() == whole


@pytest.mark.parametrize("d,cap,n_trials", [(2, 10, 3_000), (3, 6, 2_000)])
def test_decide_verdict_by_simulation(d, cap, n_trials):
    """Blue reach at the depth cap plateaus below rho_c and decays above it.

    The cap frequency is a truncated proxy, never an estimate of the
    infinite tree's survival probability.  Runs at caps cap/2 and cap with
    one seed are coupled: levels up to cap/2 take the same draws, so the
    trials whose blue reaches cap are among those whose blue reaches
    cap/2.  Below rho_c more than half of those go on to reach cap; above
    it fewer than half do, each by an exact binomial test at level 1e-6.
    """
    bracket = critical_rho(d, F(1), F(1, 1024))
    below, above = ModelParams(d, F(1), bracket.lo / 2), ModelParams(d, F(1), 2 * bracket.hi)
    assert decide(below).verdict is Verdict.BELOW
    assert decide(above).verdict is Verdict.ABOVE
    for p, plateau in ((below, True), (above, False)):
        half = simulate_tree(p, cap // 2, n_trials, seed=1)  # seed pinned once
        full = simulate_tree(p, cap, n_trials, seed=1)
        reach_half = half.blue_depth_counts[cap // 2 + 1]
        assert reach_half == sum(full.blue_depth_counts[cap // 2 + 1:])
        reach_full = full.blue_depth_counts[cap + 1]
        assert half_binomial_tail(reach_half, reach_full, upper=plateau) < F(1, 10**6), (reach_half, reach_full)
