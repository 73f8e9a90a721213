import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ced.simulate
from ced.catalan import weighted_catalan_sequence
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
from scalar_reference import jump_probabilities, line_trial, tree_trial, trial_rng

P211 = ModelParams(2, F(1), F(1))


def scalar_line_summary(p, n_trials, k_max, seed):
    """The line summary reduced trial by trial from line_trial and trial_rng."""
    renewals = [0] * (k_max + 1)
    absorb = {"caught": 0, "death": 0, "truncated": 0}
    for i in range(n_trials):
        rec = line_trial(p, k_max, trial_rng(seed, i))
        for k in rec.renewals_hit:
            renewals[k] += 1
        absorb[rec.absorption] += 1
    return LineSummary(p, n_trials, seed, tuple(renewals), tuple(absorb.items()))


def scalar_tree_summary(p, depth_cap, n_trials, seed):
    """The tree summary reduced trial by trial from the scalar tree_trial."""
    ren_sum = [0] * (depth_cap + 1)
    ren_sumsq = [0] * (depth_cap + 1)
    blue = [0] * (depth_cap + 2)
    red = [0] * (depth_cap + 1)
    for i in range(n_trials):
        rec = tree_trial(p, depth_cap, seed, i)
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
        for idx in range(50):
            rec = line_trial(P211, 5, trial_rng(11, idx))
            assert rec.renewals_hit[0] == 0
            assert rec.absorption in ("death", "caught", "truncated")
            assert rec.y_value >= max(rec.renewals_hit)
            assert all(k <= 5 for k in rec.renewals_hit)

    def test_stream_repeatability(self):
        a = line_trial(P211, 5, trial_rng(11, 3))
        b = line_trial(P211, 5, trial_rng(11, 3))
        assert a == b


def counter_shapes(n):
    """Every counter shape on n lanes: each of the four words an int or a uint64 array."""
    rng = np.random.default_rng(n)
    ints = (7, 2**64 - 1, 0, 2**63)
    for mask in range(16):
        yield tuple(
            rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False) if mask >> i & 1 else c
            for i, c in enumerate(ints)
        )


def numpy_philox_words(counter, trials, seed):
    """The (4, n) block of np.random.Philox at each lane's counter and key, one generator per lane."""
    columns = []
    for col, t in enumerate(trials.tolist()):
        value = sum(int(c[col] if isinstance(c, np.ndarray) else c) << 64 * i for i, c in enumerate(counter))
        key = (seed & (2**64 - 1)) << 64 | t
        columns.append(np.random.Philox(key=key, counter=(value - 1) % 2**256).random_raw(4))  # emits counter + 1 first
    return np.array(columns, dtype=np.uint64).reshape(-1, 4).T


# A lane-invariant word is multiplied as a Python int; one that slipped into a numpy
# scalar would overflow with a RuntimeWarning, which fails the suite (filterwarnings
# in pyproject.toml).
class TestPhiloxKernel:
    @pytest.mark.parametrize("seed", [0, -1, 2**63 + 5])
    @pytest.mark.parametrize("first", [0, 2**32 - 2])  # 2^32 - 2 .. 2^32 + 1 cross a 32-bit limb
    def test_matches_numpy_philox(self, seed, first):
        trials = np.arange(first, first + 4, dtype=np.uint64)
        for block in range(3):
            words = ced.simulate._philox_block((block + 1, 0, 0, 0), trials, seed)
            for col, t in enumerate(trials.tolist()):
                raw = np.random.Philox(key=((seed & (2**64 - 1)) << 64) | t).random_raw(4 * block + 4)
                assert words[:, col].tolist() == raw[4 * block:].tolist()

    def test_counter_words_match_numpy_philox(self):
        trials = np.array([0, 1, 2**32 - 1, 2**64 - 1], dtype=np.uint64)
        index = np.array([0, 5, 2**33 + 7, 2**64 - 1], dtype=np.uint64)
        words = ced.simulate._philox_block((9, index, 3, 2**63), trials, 17)
        for col in range(trials.size):
            counter = 8 | int(index[col]) << 64 | 3 << 128 | 2**63 << 192  # Philox emits counter + 1 first
            raw = np.random.Philox(key=17 << 64 | int(trials[col]), counter=counter).random_raw(4)
            assert words[:, col].tolist() == raw.tolist()

    @pytest.mark.parametrize("seed", [0, -1, 2**63 + 5])
    @pytest.mark.parametrize("position", range(4))
    def test_array_counter_word_matches_numpy_philox(self, seed, position):
        rng = np.random.default_rng([seed & (2**64 - 1), position])
        trials = rng.integers(0, 2**64, 300, dtype=np.uint64, endpoint=False)
        counter = [7, 2**64 - 1, 0, 2**63]
        counter[position] = rng.integers(0, 2**64, 300, dtype=np.uint64, endpoint=False)
        words = ced.simulate._philox_block(tuple(counter), trials, seed)
        for col, t in enumerate(trials.tolist()):
            value = sum(int(c[col] if isinstance(c, np.ndarray) else c) << 64 * i for i, c in enumerate(counter))
            key = (seed & (2**64 - 1)) << 64 | t
            raw = np.random.Philox(key=key, counter=(value - 1) % 2**256).random_raw(4)  # emits counter + 1 first
            assert words[:, col].tolist() == raw.tolist()

    def test_writes_to_no_argument_and_allows_aliasing(self):
        # The tree engine passes its index array as a counter word and reuses it for later blocks.
        trials = np.arange(2**32 - 150, 2**32 + 150, dtype=np.uint64)
        index = trials[::-1].copy()
        kept = trials.copy(), index.copy()
        shapes = [[3, index, 1, 0], [index, 2, index, 5], [index, index, index, index], [1, 2, 3, 4]]
        for shape in shapes:
            for position in range(4):
                counter = list(shape)
                counter[position] = trials
                unaliased = tuple(c.copy() if isinstance(c, np.ndarray) else c for c in counter)
                expected = ced.simulate._philox_block(unaliased, trials.copy(), 5)
                assert np.array_equal(ced.simulate._philox_block(tuple(counter), trials, 5), expected)
                assert np.array_equal(trials, kept[0]) and np.array_equal(index, kept[1])

    @pytest.mark.parametrize("seed", [-1, 2**63 + 5])
    @pytest.mark.parametrize("lanes", [0, 1, 300])
    @pytest.mark.parametrize("position", range(4))
    def test_int_counter_words_match_numpy_philox(self, seed, lanes, position):
        trials = np.random.default_rng(lanes).integers(0, 2**64, lanes, dtype=np.uint64, endpoint=False)
        counter = [9, 0, 2**32 + 1, 3]
        counter[position] = 2**64 - 1
        words = ced.simulate._philox_block(tuple(counter), trials, seed)
        assert words.shape == (4, lanes)
        assert np.array_equal(words, numpy_philox_words(counter, trials, seed))
        assert np.array_equal(ced.simulate._philox_block(tuple(map(np.uint64, counter)), trials, seed), words)

    @pytest.mark.parametrize("lanes", [0, 1, 300])
    def test_every_counter_shape_gives_a_fresh_array(self, lanes):
        trials = np.arange(lanes, dtype=np.uint64)
        for counter in counter_shapes(lanes):
            words = ced.simulate._philox_block(counter, trials, 11)
            assert words.shape == (4, lanes) and words.dtype == np.uint64
            assert words.flags.c_contiguous and words.flags.writeable and words.flags.owndata
            assert not any(np.shares_memory(words, c) for c in (trials, *counter) if isinstance(c, np.ndarray))
            if lanes == 300:
                assert np.array_equal(words, numpy_philox_words(counter, trials, 11))

    @pytest.mark.parametrize(
        "arrays,calls",
        [((), 17), ((1,), 17), ((2,), 18), ((3,), 18), ((0,), 19), ((0, 2), 20), ((0, 1, 2, 3), 20)],
    )
    def test_array_limb_chains_per_block(self, monkeypatch, arrays, calls):
        # Rounds 0 and 1 multiply only the counter words that are arrays; rounds 2-9 multiply two arrays.
        seen, mulhi = [], ced.simulate._mulhi

        def counting(a, *args):
            seen.append(a.size)
            return mulhi(a, *args)

        monkeypatch.setattr(ced.simulate, "_mulhi", counting)
        trials = np.arange(64, dtype=np.uint64)
        counter = tuple(trials + np.uint64(i) if i in arrays else i for i in range(4))
        ced.simulate._philox_block(counter, trials, 3)
        assert len(seen) == calls and set(seen) == {64}


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
        def refuse(*args, **kwargs):
            raise AssertionError("an engine built a numpy bit generator")

        monkeypatch.setattr(np.random, "Generator", refuse)
        monkeypatch.setattr(np.random, "Philox", refuse)
        assert simulate_line(P211, 5_000, 5, seed=9).n_trials == 5_000
        assert simulate_tree(P211, 5, 5_000, seed=9).n_trials == 5_000

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
        rows = compare_renewals(s)
        assert max_abs_z(rows) <= 4.0

    def test_no_death_reduction_to_classic_values(self):
        p = ModelParams(2, F(1), F(0))
        s = simulate_line(p, 200_000, 4, seed=1)
        rows = compare_renewals(s)
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
        # the key takes the seed mod 2^64, so such a seed would alias one inside the range
        with pytest.raises(ValueError, match="seed"):
            simulate_line(P211, 10, 3, seed)
        with pytest.raises(ValueError, match="seed"):
            simulate_tree(P211, 3, 10, seed)


class TestCompareRenewals:
    def test_k0_exact_row(self):
        s = simulate_line(P211, 5_000, 3, seed=2)
        rows = compare_renewals(s)
        assert rows[0].z is None and rows[0].observed == 1.0

    def test_miswired_rates_detected(self):
        # pretend a rho=1 run came from rho=1/2: the z-scores blow up
        s = simulate_line(P211, 200_000, 3, seed=1)
        forged = replace(s, params=ModelParams(2, F(1), F(1, 2)))
        rows = compare_renewals(forged)
        assert max_abs_z(rows) > 6.0


class TestTreeTrials:
    def test_blue_needs_red_first(self):
        for idx in range(60):
            rec = tree_trial(P211, 4, 21, idx)
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
        draws = []  # (level, trials) of each Philox call
        philox_block = ced.simulate._philox_block

        def recording(counter, trials, seed):
            draws.append((counter[0] - 1, trials.tolist()))
            return philox_block(counter, trials, seed)

        monkeypatch.setattr(ced.simulate, "_philox_block", recording)
        monkeypatch.setattr(ced.simulate, "_SLAB", 32)
        monkeypatch.setattr(ced.simulate, "_LIVE_VERTICES", 5)
        assert simulate_tree(p, 5, 100, seed=4) == whole
        # No re-run: each trial draws its level-0 counter once, in one call per slab.
        level0 = [trials for level, trials in draws if level == 0]
        assert len(level0) == 4 and sorted(sum(level0, [])) == list(range(100))
        # A split: some level of the four slabs was drawn in more than four calls.
        assert max(sum(level == l for level, _ in draws) for l in range(1, 6)) > 4

    def test_split_path_equals_scalar_reference(self, monkeypatch):
        p = ModelParams(3, F(2), F(1, 2))  # supercritical: red survives to the cap
        monkeypatch.setattr(ced.simulate, "_SLAB", 16)
        monkeypatch.setattr(ced.simulate, "_LIVE_VERTICES", 5)
        assert simulate_tree(p, 5, 40, seed=6) == scalar_tree_summary(p, 5, 40, seed=6)

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
