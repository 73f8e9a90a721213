from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ced.simulate
from ced.catalan import weighted_catalan_sequence
from ced.params import ModelParams
from ced.simulate import (
    ResourceBudgetError,
    SimSummary,
    compare_renewals,
    jump_probabilities,
    line_trial,
    max_abs_z,
    simulate_line,
    simulate_tree,
    tree_trial,
    trial_rng,
)

P211 = ModelParams(2, F(1), F(1))


def scalar_line_summary(p, n_trials, k_max, seed):
    """The line summary reduced trial by trial from line_trial and trial_rng."""
    renewals = [0] * (k_max + 1)
    ys = [0] * (k_max + 1)
    absorb = {"caught": 0, "death": 0, "truncated": 0}
    for i in range(n_trials):
        rec = line_trial(p, k_max, trial_rng(seed, i))
        for k in rec.renewals_hit:
            renewals[k] += 1
        ys[rec.y_value] += 1
        absorb[rec.absorption] += 1
    return SimSummary(
        kind="line", d=p.d, lam=p.lam, rho=p.rho, n_trials=n_trials, seed=seed, k_max=k_max,
        renewal_counts=tuple(renewals), y_counts=tuple(ys), absorption_counts=tuple(absorb.items()),
    )


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


class TestPhiloxKernel:
    @pytest.mark.parametrize("seed", [0, -1, 2**63 + 5])
    @pytest.mark.parametrize("first", [0, 2**32 - 2])  # 2^32 - 2 .. 2^32 + 1 cross a 32-bit limb
    def test_matches_numpy_philox(self, seed, first):
        trials = np.arange(first, first + 4, dtype=np.uint64)
        for block in range(3):
            words = ced.simulate._philox_block(block, trials, seed)
            for col, t in enumerate(trials.tolist()):
                raw = np.random.Philox(key=((seed & (2**64 - 1)) << 64) | t).random_raw(4 * block + 4)
                assert words[:, col].tolist() == raw[4 * block:].tolist()


class TestSimulateLine:
    @pytest.mark.parametrize(
        "lam,rho,k_max,n_trials,seed",
        [
            (F(1), F(0), 6, 600, 4),              # no deaths: only caught or truncated
            (F(1), F(10), 4, 600, 4),             # deaths dominate
            (F(1), F(1), 1, 4096 + 37, 1),        # k_max = 1; a slab and a remainder
            (F(3, 2), F(1, 10), 8, 1000, 2**63 + 5),
            (F(3), F(0), 20, 300, -1),            # drifts to truncation
        ],
    )
    def test_equals_scalar_reference(self, lam, rho, k_max, n_trials, seed):
        p = ModelParams(2, lam, rho)
        assert simulate_line(p, n_trials, k_max, seed) == scalar_line_summary(p, n_trials, k_max, seed)

    def test_builds_no_per_trial_generator(self, monkeypatch):
        def refuse(seed, index):
            raise AssertionError("simulate_line built a per-trial Generator")

        monkeypatch.setattr(ced.simulate, "trial_rng", refuse)
        assert simulate_line(P211, 5_000, 5, seed=9).n_trials == 5_000

    def test_summary_determinism_and_thread_invariance(self):
        s1 = simulate_line(P211, 30_000, 5, seed=9)
        s2 = simulate_line(P211, 30_000, 5, seed=9)
        assert s1 == s2
        assert s1 != simulate_line(P211, 30_000, 5, seed=10)

    def test_tallies_consistent(self):
        s = simulate_line(P211, 20_000, 5, seed=3)
        assert s.renewal_counts[0] == s.n_trials  # the start is a renewal
        assert sum(s.y_counts) == s.n_trials
        assert sum(dict(s.absorption_counts).values()) == s.n_trials

    def test_renewal_implies_y_reached(self):
        s = simulate_line(P211, 20_000, 5, seed=3)
        for k in range(6):
            assert s.y_at_least(k) >= s.renewal_counts[k]

    def test_frequencies_match_exact_values(self):
        s = simulate_line(P211, 200_000, 4, seed=1)
        rows = compare_renewals(P211, s)
        assert max_abs_z(rows) <= 4.0

    def test_no_death_reduction_to_classic_values(self):
        p = ModelParams(2, F(1), F(0))
        s = simulate_line(p, 200_000, 4, seed=1)
        rows = compare_renewals(p, s)
        # exact values collapse to C_k / 4^k here
        assert [r.expected for r in rows] == [1.0, 0.25, 0.125, 5 / 64, 14 / 256]
        assert max_abs_z(rows) <= 4.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_line(P211, 0, 5, seed=1)
        with pytest.raises(ValueError):
            simulate_line(P211, 10, 0, seed=1)


class TestCompareRenewals:
    def test_k0_exact_row(self):
        s = simulate_line(P211, 5_000, 3, seed=2)
        rows = compare_renewals(P211, s)
        assert rows[0].z is None and rows[0].observed == 1.0

    def test_parameter_mismatch_rejected(self):
        s = simulate_line(P211, 5_000, 3, seed=2)
        with pytest.raises(ValueError):
            compare_renewals(ModelParams(2, F(1), F(1, 2)), s)
        with pytest.raises(ValueError):
            compare_renewals(P211, s, k_max=10)

    def test_miswired_rates_detected(self):
        # pretend a rho=1 run came from rho=1/2: the z-scores blow up
        s = simulate_line(P211, 200_000, 3, seed=1)
        forged = replace(s, rho=F(1, 2))
        rows = compare_renewals(ModelParams(2, F(1), F(1, 2)), forged)
        assert max_abs_z(rows) > 6.0


class TestTreeTrials:
    def test_blue_needs_red_first(self):
        for idx in range(60):
            rec = tree_trial(P211, 4, trial_rng(21, idx))
            assert rec.blue_reached_depth <= rec.red_reached_depth
            assert rec.renewal_vertices_per_level[0] == 1
            assert all(c >= 0 for c in rec.renewal_vertices_per_level)

    def test_budget_error(self):
        # no deaths and a hot spread rate overrun a tiny vertex budget
        p = ModelParams(2, F(5), F(0))
        with pytest.raises(ResourceBudgetError):
            tree_trial(p, 12, trial_rng(1, 0), max_vertices=50)


class TestSimulateTree:
    def test_determinism_and_thread_invariance(self):
        s1 = simulate_tree(P211, 5, 4_000, seed=9)
        s2 = simulate_tree(P211, 5, 4_000, seed=9)
        s4 = simulate_tree(P211, 5, 4_000, seed=9, threads=3)
        assert s1 == s2 == s4

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
