import argparse
import csv
import hashlib
import io
import json
import math
import os
import string
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ced.cli
from ced.catalan import weighted_catalan_floats, weighted_catalan_sequence
from ced.cli import main, parse_rational, UsageError
from ced.decision import BracketError, OutsideWindowError
from ced.params import ModelParams
from ced.simulate import ResourceBudgetError

from cli_goldens import GOLDEN, SLOW
from replay_interpreters import NUMPY_PROBE, verdict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3/7") == F(3, 7)
        assert parse_rational("-2") == F(-2)
        assert parse_rational("0.25", allow_decimal=True) == F(1, 4)

    @pytest.mark.parametrize("bad", ["1/0", "abc", "1.5", "1/2/3", ""])
    def test_rejected(self, bad):
        with pytest.raises(UsageError):
            parse_rational(bad, "--rho")

    def test_error_names_flag(self):
        with pytest.raises(UsageError, match="--rho"):
            parse_rational("1/0", "--rho")

    def test_past_digit_limit_is_usage_error(self):
        with pytest.raises(UsageError, match="--rho"):
            parse_rational("7" * 5000, "--rho")


class TestDecideCommand:
    def test_exit_codes(self, capsys):
        code, out, _ = run(capsys, "decide", "--d", "2", "--lambda", "1", "--rho", "1")
        assert code == 1 and "verdict: above" in out
        code, out, _ = run(capsys, "decide", "--d", "2", "--lambda", "1", "--rho", "0")
        assert code == 0 and "verdict: below" in out
        code, out, _ = run(
            capsys, "decide", "--d", "2", "--lambda", "1/10", "--rho", "1/100"
        )
        assert code == 1

    def test_undecided_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--d", "2", "--lambda", "1", "--rho", "1475/8192",
            "--max-m", "2",
        )
        assert code == 2 and "undecided" in out

    def test_near_threshold_long_denominators_reach_the_cap_quickly(self, capsys):
        # lambda within 10^-100 of the lower window end and rho = 10^-300: every
        # depth up to 4096 is swept, which took about 100 s with exact sweeps alone
        lam = F(3 * 10**100 - math.isqrt(8 * 10**200), 10**100)
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "decide", "--d", "2", "--lambda", str(lam), "--rho", f"1/{10**300}", "--max-m", "4096", "--json"
        )
        assert time.perf_counter() - start < 10
        assert code == 2 and json.loads(out)["m_reached"] == 4096

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--d", "2", "--lambda", "1", "--rho", "1", "--json"
        )
        payload = json.loads(out)
        assert payload["verdict"] == "above"
        assert payload["certificate"] == {"type": "kernel-above", "m": 1}
        assert payload["manifest"]["params"]["rho"] == "1"

    def test_malformed_rational_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decide", "--d", "2", "--lambda", "1", "--rho", "1/0")
        assert code == 64 and err.count("--rho") == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decide", "--d", "2", "--lambda", "1", "--nope", "1")
        assert code == 64

    def test_replay_is_byte_identical(self, capsys):
        args = ("decide", "--d", "2", "--lambda", "1", "--rho", "1", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_timing_goes_to_stderr_not_stdout(self, capsys):
        _, out, err = run(capsys, "decide", "--d", "2", "--lambda", "1", "--rho", "1")
        assert "s" in err and "0.0" not in out


class TestRhoCCommand:
    def test_single_lambda_csv(self, capsys):
        code, out, _ = run(
            capsys, "rho-c", "--d", "2", "--lambda", "1", "--tol", "1/64"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "lambda,lo,hi,status"
        lam, lo, hi, status = lines[1].split(",")
        assert lam == "1" and status == "bracket"
        assert F(hi) - F(lo) <= F(1, 64)
        # a one-point grid gives the same row
        _, grid_out, _ = run(capsys, "rho-c", "--d", "2", "--lambda-grid", "1:1:1", "--tol", "1/64")
        assert [l for l in grid_out.splitlines() if not l.startswith("#")] == lines

    def test_outside_window_is_error(self, capsys):
        code, _, err = run(capsys, "rho-c", "--d", "2", "--lambda", "6", "--tol", "1/64")
        assert code == 64
        assert "coexistence window" in err

    def test_window_near_edge_lambda_is_bracketed(self, capsys):
        # within 10^-200 and 10^-2000 of 3 - 2 sqrt(2), inside: the window test is
        # exact, and the threshold is below one grid step of the initial bracket
        for digits in (200, 2000):
            n = 10**digits
            lam = F(3 * n - math.isqrt(8 * n * n), n)
            start = time.monotonic()
            code, out, _ = run(
                capsys, "rho-c", "--d", "2", "--lambda", str(lam), "--tol", "1/64",
                "--certs", "--format", "json",
            )
            assert time.monotonic() - start < 5
            assert code == 0
            assert json.loads(out)["rows"] == [{
                "lambda": str(lam), "lo": "0", "hi": "1/1073741824", "status": "bracket",
                "lo_certificate": {"type": "zero-rho"},
                "hi_certificate": {"type": "kernel-above", "m": 1},
            }]

    def test_grid_rows_monotone_and_outside_zero(self, capsys):
        code, out, _ = run(
            capsys, "rho-c", "--d", "2", "--lambda-grid", "1/10:6:5", "--tol", "1/32"
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        lams = [F(r[0]) for r in rows]
        assert lams == sorted(lams) and len(rows) == 5
        assert rows[0][3] == "outside" and rows[0][1] == rows[0][2] == "0"
        assert rows[-1][3] == "outside"

    def test_oversized_grid_fails_fast(self, capsys):
        start = time.monotonic()
        code, _, err = run(
            capsys, "rho-c", "--d", "2", "--lambda-grid", "1:2:100000000", "--tol", "1/4"
        )
        assert code == 64 and "--lambda-grid" in err
        assert time.monotonic() - start < 1.0

    def test_certs_embedded(self, capsys):
        code, out, _ = run(
            capsys, "rho-c", "--d", "2", "--lambda", "1", "--tol", "1/32",
            "--certs", "--format", "json",
        )
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["lo_certificate"]["type"] in ("kernel-below", "zero-rho")
        assert row["hi_certificate"]["type"] == "kernel-above"

    def test_requires_exactly_one_lambda_mode(self, capsys):
        code, _, err = run(capsys, "rho-c", "--d", "2", "--tol", "1/64")
        assert code == 64


#: The refusal of a rate whose delays would overflow the float range.
NEAR_ZERO = "so close to 0 that a delay would overflow the float range"


class TestArgumentRanges:
    # values the library rejects with ValueError, which the CLI refuses
    # first, and --threads, which simulate does not take
    @pytest.mark.parametrize(
        "argv,flag",
        [
            ("rho-c --d 2 --lambda 1 --tol 0", "--tol"),
            ("catalan --lambda 1 --rho 1 --k-max -1", "--k-max"),
            # every exact table shares simulate line's K bound: K = 800 takes about 3 s
            ("catalan --lambda 1 --rho 1/3 --k-max 801", "--k-max: must be <= 800"),
            ("catalan --lambda 1 --rho 1/3 --k 801", "--k: must be <= 800"),
            ("catalan --lambda 1 --rho 1 --k 2 --m 3", "--m:"),
            ("catalan --lambda 1 --rho 1 --k 2 --z -1", "--z"),
            ("decide --d 2 --lambda 1 --rho 1 --max-m -1", "--max-m"),
            # the exact sweeps are quadratic in m: near the threshold m = 4096 takes about 100 s
            ("decide --d 2 --lambda 1 --rho 1 --max-m 4097", "--max-m: must be <= 4096"),
            ("phase --d 2 --lambda 1 --rho 1 --max-m 4097", "--max-m: must be <= 4096"),
            ("rho-c --d 2 --lambda 1 --tol 1/64 --max-m 4097", "--max-m: must be <= 4096"),
            # bisection's cost grows about 4x per 100 bits of tol, and more near the edges
            (f"rho-c --d 2 --lambda 1 --tol 1/{2**201}", "--tol: must be >= 2^-200"),
            # the kernels' integers carry d: rho-c at d = 10^300 took 11 s
            ("decide --d 4294967297 --lambda 1 --rho 1", "--d: must be <= 4294967296"),
            ("phase --d 4294967297 --lambda 1 --rho 1", "--d: must be <= 4294967296"),
            (f"rho-c --d 1{'0' * 300} --lambda 1 --tol 1/64", "--d: must be <= 4294967296"),
            # a spread rate must be positive and a death rate nonnegative
            ("decide --d 2 --lambda 0 --rho 1", "--lambda: must be positive"),
            ("decide --d 2 --lambda 1 --rho -1", "--rho: must be nonnegative"),
            ("phase --d 2 --lambda -1 --rho 1", "--lambda: must be positive"),
            ("phase --d 2 --lambda 1 --rho=-1/3", "--rho: must be nonnegative"),
            ("catalan --lambda 0 --rho 1 --k 2", "--lambda: must be positive"),
            ("catalan --lambda 1 --rho -1 --k 2", "--rho: must be nonnegative"),
            ("rho-c --d 2 --lambda 0 --tol 1/8", "--lambda: must be positive"),
            ("rho-c --d 2 --lambda-grid 0:1:3 --tol 1/8", "--lambda-grid: LO must be positive"),
            ("rho-c --d 2 --lambda-grid=-1:1:3 --tol 1/8", "--lambda-grid: LO must be positive"),
            ("rho-c --d 2 --lambda-grid 1:2 --tol 1/8", "--lambda-grid: expected LO:HI:N"),
            ("rho-c --d 2 --lambda-grid 1:2:x --tol 1/8", "--lambda-grid: N must be an integer"),
            # exactly one flag of each exclusive pair is required, and the message names both
            ("catalan --lambda 1 --rho 1 --z 1", "one of the arguments --k --k-max is required"),
            ("catalan --lambda 1 --rho 1", "one of the arguments --k --k-max is required"),
            ("catalan --lambda 1 --rho 1 --k 1 --k-max 2", "--k-max: not allowed with argument --k"),
            ("rho-c --d 2 --tol 1/8", "one of the arguments --lambda --lambda-grid is required"),
            ("rho-c --d 2 --lambda 1 --lambda-grid 1:2:2 --tol 1/8", "--lambda-grid: not allowed with argument --lambda"),
            ("simulate line --lambda 0 --rho 1 --trials 1 --seed 1", "--lambda: must be positive"),
            ("simulate tree --lambda 1 --rho -1 --trials 1 --seed 1", "--rho: must be nonnegative"),
            ("rho-c --d 2 --lambda-grid 1:2:2 --tol 1/4 --threads 0", "--threads"),
            ("rho-c --d 2 --lambda-grid 1:2:2 --tol 1/4 --threads -5", "--threads"),
            ("simulate tree --lambda 1 --rho 1 --trials 1 --seed 1 --threads 2", "--threads"),
            ("simulate line --lambda 1 --rho 1 --trials 1 --seed 1 --threads 2", "--threads"),
            # the exact C_k column would run for minutes and the tallies take 1.6 GB
            ("simulate line --lambda 1 --rho 0 --k-max 100000000 --trials 1 --seed 1", "--k-max: must be <= 800"),
            # the exact column is the `catalan --k-max` table of that depth; the trials
            # ran 21 s before this was refused after them
            ("simulate tree --lambda 1 --rho 1 --depth 801 --trials 200000 --seed 1", "--depth: must be <= 800"),
            (f"simulate tree --lambda 1 --rho 1 --depth {2**61} --trials 1 --seed 1", "--depth: must be <= 800"),
            # a cap kept as a spec decision: uncapped, this stops on the vertex budget after about 1 s at 45 MB
            ("simulate tree --d 100000 --lambda 1 --rho 0 --depth 2 --trials 1 --seed 1", "--d: must be <= 1024"),
            # the line engine's time is linear in the trials: 10^7 at lambda = rho = 1 take 2.3 s
            ("simulate line --lambda 1 --rho 1 --trials 10000001 --seed 1", "--trials: must be <= 10000000"),
            # Philox keys on the seed mod 2^64: a seed outside [0, 2^64) would alias one inside
            ("simulate line --lambda 1 --rho 1 --trials 1 --seed -1", "--seed: must be >= 0, got -1"),
            (f"simulate tree --lambda 1 --rho 1 --trials 1 --seed {2**64}", f"--seed: must be <= {2**64 - 1}"),
            # each engine takes only its own flags: the line is d-free and has no depth, the tree no k_max
            ("simulate line --lambda 1 --rho 1 --trials 1 --seed 1 --depth 5", "unrecognized arguments: --depth 5"),
            ("simulate line --d 3 --lambda 1 --rho 1 --trials 1 --seed 1", "unrecognized arguments: --d 3"),
            ("simulate tree --lambda 1 --rho 1 --trials 1 --seed 1 --k-max 5", "unrecognized arguments: --k-max 5"),
            # after the bare --, a negative word is left to argparse
            ("decide --d 2 --lambda 1 --rho 1 -- -1", "unrecognized arguments:"),
            # the engines draw their delays in floats, and these rates lie past the float range
            (f"simulate line --lambda 1 --rho 1{'0' * 400} --trials 10 --seed 1", "--rho: past the float range"),
            (f"simulate tree --lambda 1{'0' * 400} --rho 1 --trials 10 --seed 1", "--lambda: past the float range"),
            # ... or so close to 0 that a delay would overflow: 1/10^400 is 0.0 as a float,
            # and 3/10^308, above the smallest normal float, still overflowed in numpy
            (f"simulate tree --lambda 1/1{'0' * 400} --rho 1 --trials 10 --seed 1", f"--lambda: {NEAR_ZERO}"),
            (f"simulate tree --lambda 1 --rho 3/1{'0' * 308} --trials 10 --seed 1", f"--rho: {NEAR_ZERO}"),
            (f"simulate line --lambda 3/1{'0' * 308} --rho 1 --trials 10 --seed 1", f"--lambda: {NEAR_ZERO}"),
            (f"simulate line --lambda 1 --rho 1/1{'0' * 400} --trials 10 --seed 1", f"--rho: {NEAR_ZERO}"),
        ],
    )
    def test_out_of_range_is_usage_error(self, capsys, argv, flag):
        start = time.monotonic()
        code, out, err = run(capsys, *argv.split())
        assert time.monotonic() - start < 1
        assert code == 64 and flag in err and out == ""

    # argparse takes a separate word like -1/3 for an option unless the CLI attaches it to its flag
    @pytest.mark.parametrize(
        "argv,flag,value,message",
        [
            ("phase --d 2 --lambda 1", "--rho", "-1/3", "--rho: must be nonnegative, got -1/3"),
            ("decide --d 2 --rho 1", "--lambda", "-1/2", "--lambda: must be positive, got -1/2"),
            ("decide --d 2 --rho 1", "--lambda", "-.5", "--lambda: expected an exact rational"),
            ("catalan --lambda 1 --rho 1 --k 2", "--z", "-1/3", "--z: must be nonnegative, got -1/3"),
            ("rho-c --d 2 --lambda 1", "--tol", "-1/8", "--tol: must be >= 2^-200, got -1/8"),
            ("rho-c --d 2 --tol 1/1024", "--lambda-grid", "-1:1:3", "--lambda-grid: LO must be positive, got -1"),
            ("simulate tree --lambda 1 --trials 1 --seed 1", "--rho", "-1/3", "--rho: must be nonnegative"),
            ("simulate line --rho 1 --trials 1 --seed 1", "--lambda", "-1/2", "--lambda: must be positive"),
            # abbreviated flags and integer flags take the word too
            ("decide --d 2 --rho 1", "--lam", "-1/3", "--lambda: must be positive, got -1/3"),
            ("phase --d 2 --lambda 1", "--rh", "-1/3", "--rho: must be nonnegative, got -1/3"),
            ("catalan --lambda 1 --rho 1", "--k", "-1/2", "argument --k: expected an integer, got '-1/2'"),
            ("simulate line --lambda 1 --rho 1 --trials 1", "--seed", "-1/2", "argument --seed: expected an integer, got '-1/2'"),
        ],
    )
    def test_negative_value_as_separate_word(self, capsys, argv, flag, value, message):
        code, out, separate = run(capsys, *argv.split(), flag, value)
        assert (code, out) == (64, "") and message in separate
        assert run(capsys, *argv.split(), f"{flag}={value}") == (64, "", separate)

    # a flag before the engine or subcommand is named, where argparse took its value for the name
    @pytest.mark.parametrize(
        "argv,err",
        [
            ("simulate --format json line --lambda 1 --rho 1 --trials 1 --seed 1", "--format must follow the engine (line, tree)"),
            ("simulate --trials 5 line --lambda 1 --rho 1 --seed 1", "--trials must follow the engine (line, tree)"),
            ("simulate --format=json tree --lambda 1 --rho 1 --trials 1 --seed 1", "--format must follow the engine (line, tree)"),
            ("simulate --allow-decimal line --lambda 1 --rho 1 --trials 1 --seed 1",
             "--allow-decimal must follow the engine (line, tree)"),
            ("--d 2 decide --lambda 1 --rho 1", "--d must follow the subcommand (decide, rho-c, catalan, simulate, phase)"),
            # a missing engine reads as before
            ("simulate", "the following arguments are required: engine"),
        ],
    )
    def test_flag_before_the_engine_is_named(self, capsys, argv, err):
        assert run(capsys, *argv.split()) == (64, "", f"ced: usage error: {err}\n")

    def test_an_invalid_engine_reads_as_before(self, capsys):
        code, out, err = run(capsys, "simulate", "json", "--lambda", "1")
        assert (code, out) == (64, "") and err.startswith("ced: usage error: argument engine: invalid choice: 'json'")

    def test_option_after_rational_flag_is_still_missing_value(self, capsys):
        code, _, err = run(capsys, *"decide --d 2 --lambda 1 --rho --json".split())
        assert code == 64 and "argument --rho: expected one argument" in err

    # only simulate takes --allow-decimal; given to another subcommand, it changes nothing
    @pytest.mark.parametrize(
        "argv,flag",
        [
            ("decide --d 2 --lambda 0.5 --rho 1", "--lambda"),
            ("decide --d 2 --lambda 1 --rho 0.5", "--rho"),
            ("phase --d 2 --lambda 0.5 --rho 1", "--lambda"),
            ("phase --d 2 --lambda 1 --rho 0.5", "--rho"),
            ("catalan --lambda 0.5 --rho 1 --k 2", "--lambda"),
            ("catalan --lambda 1 --rho 0.5 --k 2", "--rho"),
            ("catalan --lambda 1 --rho 1 --k 2 --z 0.5", "--z"),
            ("rho-c --d 2 --lambda 0.5 --tol 1/8", "--lambda"),
            ("rho-c --d 2 --lambda 1 --tol 0.5", "--tol"),
            ("rho-c --d 2 --lambda-grid 0.5:1:3 --tol 1/8", "--lambda-grid"),
        ],
    )
    def test_decimal_hint_names_simulate(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (64, "")
        assert err == f"ced: usage error: {flag}: expected an exact rational like 3/7, got '0.5' " \
                      "(decimals only with simulate --allow-decimal)\n"
        # --lambda-grid is parsed after argparse, which refuses the unknown flag first
        if flag == "--lambda-grid":
            err = "ced: usage error: unrecognized arguments: --allow-decimal\n"
        assert run(capsys, *argv.split(), "--allow-decimal") == (64, "", err)

    def test_largest_accepted_values_run(self, capsys):
        code, out, _ = run(capsys, *f"rho-c --d 2 --lambda 1 --tol 1/{2**200} --max-m 4096".split())
        assert code == 0 and out.splitlines()[-1].endswith(",bracket")
        code, out, _ = run(capsys, *f"rho-c --d {2**32} --lambda 1 --tol 1/{2**200}".split())
        assert code == 0 and out.splitlines()[-1].endswith(",bracket")
        assert run(capsys, *f"decide --d {2**32} --lambda 1 --rho 1".split())[0] == 0  # below


class TestCatalanCommand:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "catalan", "--lambda", "1", "--rho", "1", "--k", "2")
        assert code == 0
        assert out.splitlines()[-1] == "1/90"

    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "catalan", "--lambda", "1", "--rho", "0", "--k-max", "3"
        )
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert [r[1] for r in rows] == ["1", "1/4", "1/8", "5/64"]

    def test_partial_series_value(self, capsys):
        code, out, _ = run(
            capsys, "catalan", "--lambda", "1", "--rho", "1", "--k", "2", "--z", "2"
        )
        # 1 + (1/12) 2 + (1/90) 4 = 1 + 1/6 + 2/45
        assert out.splitlines()[-1] == str(F(1) + F(1, 6) + F(2, 45))

    def test_capped_mode_needs_m(self, capsys):
        code, _, err = run(
            capsys, "catalan", "--lambda", "1", "--rho", "1", "--k", "2",
            "--mode", "capped",
        )
        assert code == 64 and "--m" in err

    def test_k_with_k_max_is_usage_error(self, capsys):
        code, out, err = run(capsys, "catalan", "--lambda", "1", "--rho", "1", "--k", "2", "--k-max", "4")
        assert code == 64 and "--k-max" in err and out == ""

    @pytest.mark.parametrize(
        "argv,advice",
        [
            (f"catalan --lambda 1/1{'0' * 4299} --rho 1 --k-max 800",
             "lambda's denominator and rho's denominator (14281 and 1 bits)"),
            (f"simulate line --lambda 1 --rho 1{'0' * 4298}1/1{'0' * 4299} --k-max 800 --trials 1 --seed 1",
             "lambda's denominator and rho's numerator (1 and 14281 bits)"),
            (f"simulate tree --lambda 1 --rho 1{'0' * 4298}1/1{'0' * 4299} --depth 800 --trials 1 --seed 1",
             "lambda's denominator and rho's numerator (1 and 14281 bits)"),
            (f"catalan --lambda 1{'0' * 4299} --rho 1 --k-max 800",
             "lambda's numerator and rho's denominator (14281 and 1 bits)"),
            # the rho = 0 closed form: each C_k within 800 bits(ab) + 1600 bits(a+b), about 4.3 GiB for 801
            (f"catalan --lambda 1{'0' * 4298}1/1{'0' * 4299} --rho 0 --k 800",
             "lambda's numerator and rho's denominator (14281 and 1 bits)"),
            (f"simulate line --lambda 1{'0' * 4298}1/1{'0' * 4299} --rho 0 --k-max 800 --trials 1 --seed 1",
             "lambda's numerator and rho's denominator (14281 and 1 bits)"),
        ],
        ids=["catalan", "simulate-line", "simulate-tree", "catalan-long-numerator", "catalan-rho-0", "simulate-line-rho-0"],
    )
    def test_table_past_the_memory_budget_exits_70_quickly(self, capsys, monkeypatch, argv, advice):
        # rho > 0: by the lemma's bound, 801 integers of 78 386 431 bits, about 7.5 GiB; simulate refuses before any trial
        monkeypatch.setattr(ced.cli, "simulate_line", None)
        monkeypatch.setattr(ced.cli, "simulate_tree", None)
        start = time.monotonic()
        code, out, err = run(capsys, *argv.split())
        assert time.monotonic() - start < 1
        assert code == 70 and out == "" and "K = 800" in err and f"lower K, or shorten {advice}" in err

    def test_flattened_table_is_quick(self, capsys):
        # in process on a 2-core Xeon: 1.9-2.3 s with the Fraction height DP, 0.13-0.15 s on integers
        start = time.monotonic()
        code, out, _ = run(
            capsys, "catalan", "--lambda", "1", "--rho", "1/3", "--k-max", "400",
            "--mode", "flattened", "--m", "8",
        )
        assert code == 0 and len(out.splitlines()) == 404  # manifest, header and k = 0..400
        assert time.monotonic() - start < 1.5


class TestExactOutputLength:
    def test_value_past_4300_digits_prints_in_full(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(
            capsys, "catalan", "--lambda", "3/2", "--rho", "300000001/1073741824",
            "--z", "2", "--k-max", "110", "--format", "json",
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            value = F(json.loads(out)["partial_series"])
        finally:
            sys.set_int_max_str_digits(limit)
        # the table's terms, summed here, do not pass through partial_series's merge
        seq = weighted_catalan_sequence(ModelParams(2, F(3, 2), F(300000001, 1073741824)), 110)
        assert value == sum(c * 2**k for k, c in enumerate(seq))
        assert value.denominator > 10**4300  # past the default int-to-str limit


def _csv_body(capsys, header, rows):
    """What _emit writes for a CSV table after its two manifest lines."""
    ced.cli._emit("catalan", {}, "csv", header, rows)
    return capsys.readouterr().out.split("\n", 2)[2]


#: Cell text drawn from what the CLI prints (digits, signs, p/q, JSON
#: certificates) and the characters that need quoting, CR aside.
_cells = st.text(alphabet=string.digits + string.ascii_letters + '-/,"\n {}:', max_size=12)


class TestCsvEmitter:
    @given(rows=st.lists(st.lists(_cells, min_size=2, max_size=6), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_csv_writer(self, capsys, rows):
        # every CSV row of the CLI has at least 2 fields: csv writes a lone empty field as ""
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert _csv_body(capsys, rows[0], rows[1:]).encode() == expected.getvalue().encode()

    def test_carriage_return_is_quoted(self, capsys):
        # RFC 4180; the csv module leaves a\rb unquoted before Python 3.13 and quotes it from 3.13 on
        assert _csv_body(capsys, ["a\rb", 'say "hi"'], [["1,2", ""]]) == '"a\rb","say ""hi"""\n"1,2",\n'


class TestSimulateCommand:
    def test_overlong_rate_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "line", "--lambda", "7" * 5000, "--rho", "1",
            "--trials", "1", "--seed", "1",
        )
        assert code == 64 and "--lambda" in err

    # every size flag is capped at parse time (see TestArgumentRanges), so an
    # engine stands in for a run past memory
    def test_tally_too_large_for_memory_is_runtime_error(self, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(ced.cli, "simulate_tree", out_of_memory)
        code, out, err = run(capsys, "simulate", "tree", "--lambda", "1", "--rho", "1", "--trials", "1", "--seed", "1")
        assert code == 70 and "out of memory" in err and out == ""

    def test_depth_past_the_exact_column_cap_is_usage_error(self, capsys):
        # the exact column is the `catalan --k-max` table of that depth, which stops at 800
        code, out, err = run(
            capsys, "simulate", "tree", "--lambda", "1", "--rho", "3",
            "--depth", "801", "--trials", "1", "--seed", "1",
        )
        assert code == 64 and "--depth" in err and out == ""

    def test_vertex_budget_stops_deep_tree_quickly(self, capsys):
        for wide in (("--depth", "30", "--seed", "1"), ("--d", "64", "--depth", "300", "--seed", "11")):
            start = time.monotonic()
            code, out, err = run(capsys, "simulate", "tree", "--lambda", "1", "--rho", "0", "--trials", "1", *wide)
            assert time.monotonic() - start < 10, wide
            assert code == 70 and "vertices" in err and "--depth" in err and out == ""

    def test_vertex_budget_stops_wide_trials_quickly(self, capsys):
        # 100 trials near the budget at the largest d, drawn a piece at a time, not a level
        start = time.monotonic()
        code, out, err = run(
            capsys, "simulate", "tree", "--d", "1024", "--lambda", "1", "--rho", "1",
            "--depth", "6", "--trials", "100", "--seed", "1",
        )
        assert time.monotonic() - start < 5
        assert code == 70 and "vertices" in err and out == ""

    def test_smallest_accepted_rates_run_without_warnings(self, capsys):
        # 2.1e-307 lies just above 53 ln 2 / max float: the largest delay stays finite
        tiny = f"21/1{'0' * 308}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam, rho in ((tiny, "1"), ("1", tiny)):
                code, out, _ = run(capsys, "simulate", "tree", "--lambda", lam, "--rho", rho,
                                   "--depth", "2", "--trials", "2000", "--seed", "1")
                assert code == 0 and out

    def test_exact_column_past_float_range_is_inf(self, capsys):
        args = ("simulate", "tree", "--d", "64", "--lambda", "1/4", "--rho", "0", "--depth", "400",
                "--trials", "1", "--seed", "28")
        code, out, _ = run(capsys, *args)
        assert code == 0 and out.splitlines()[-3] == "400,0.0,0.0,inf"
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0 and json.loads(out)["rows"][-1]["exact"] == math.inf

    @pytest.mark.parametrize(
        "argv,column",
        [
            ("simulate line --lambda 1 --rho 1 --k-max 5 --trials 10 --seed 1", (5, 1)),
            ("simulate tree --d 3 --lambda 1 --rho 1 --depth 4 --trials 10 --seed 1", (4, 3)),
        ],
        ids=["line", "tree"],
    )
    def test_one_exact_column_before_any_trial(self, capsys, monkeypatch, argv, column):
        # (K, scale) of each weighted_catalan_floats call: a table over budget must stop the run before its trials
        columns = []

        def recorder(p, k_max, scale=1):
            columns.append((k_max, scale))
            return weighted_catalan_floats(p, k_max, scale)

        def after_the_column(engine):
            def run_engine(*args):
                assert columns, "an engine ran before the exact column"
                return engine(*args)
            return run_engine

        monkeypatch.setattr(ced.cli, "weighted_catalan_floats", recorder)
        for name in ("simulate_line", "simulate_tree"):
            monkeypatch.setattr(ced.cli, name, after_the_column(getattr(ced.cli, name)))
        assert run(capsys, *argv.split())[0] == 0
        assert columns == [column]

    def test_line_table_and_replay(self, capsys):
        args = (
            "simulate", "line", "--lambda", "1", "--rho", "1",
            "--k-max", "3", "--trials", "5000", "--seed", "7",
        )
        code, out1, _ = run(capsys, *args)
        assert code == 0
        header = [l for l in out1.splitlines() if not l.startswith("#")][0]
        assert header == "k,count,frequency,stderr,exact,z"
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_seed_required(self, capsys):
        code, _, err = run(
            capsys, "simulate", "line", "--lambda", "1", "--rho", "1",
            "--k-max", "3", "--trials", "100",
        )
        assert code == 64 and "--seed" in err

    def test_decimal_needs_flag(self, capsys):
        code, _, err = run(
            capsys, "simulate", "line", "--lambda", "0.5", "--rho", "1",
            "--k-max", "3", "--trials", "100", "--seed", "1",
        )
        assert code == 64 and "--allow-decimal" in err
        code, out, _ = run(
            capsys, "simulate", "line", "--lambda", "0.5", "--rho", "1",
            "--k-max", "3", "--trials", "100", "--seed", "1", "--allow-decimal",
        )
        assert code == 0
        assert "lambda=1/2" in out  # parsed exactly

    def test_tree_json(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "tree", "--d", "2", "--lambda", "1", "--rho", "1",
            "--depth", "4", "--trials", "2000", "--seed", "3", "--format", "json",
        )
        payload = json.loads(out)
        assert len(payload["rows"]) == 5
        assert 0 <= payload["blue_reach_cap_frequency"] <= 1
        assert payload["manifest"]["seed"] == 3


class TestPhaseCommand:
    def test_extinction(self, capsys):
        code, out, _ = run(capsys, "phase", "--d", "2", "--lambda", "1", "--rho", "2")
        assert code == 0
        assert out.splitlines()[-1] == "extinction"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "phase", "--d", "2", "--lambda", "1", "--rho", "0", "--json"
        )
        assert json.loads(out)["phase"] == "coexistence"

    def test_undecided_near_the_threshold_is_reported(self, capsys):
        code, out, _ = run(capsys, *"phase --d 2 --lambda 1 --rho 1475/8192 --max-m 2".split())
        assert (code, out.splitlines()[-1]) == (0, "boundary-unresolved")


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_replay(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


_OUT = b"verdict: above\n"
_ROW = ("decide --d 2 --lambda 1 --rho 1", 1, hashlib.sha256(_OUT).hexdigest())
_SIMULATE_ROW = ("simulate line --lambda 1 --rho 1 --trials 9 --seed 1", 0, hashlib.sha256(_OUT).hexdigest())
_SLOW_ROW = (*_ROW, 30)
_NO_NUMPY = (1, b"", b"Traceback (most recent call last):\nModuleNotFoundError: No module named 'numpy'\n")


@pytest.mark.parametrize(
    "row,results,expected",
    [
        (_ROW, {_ROW[0]: (1, _OUT, b"ced decide: 0.001s\n")}, "equal"),
        (_ROW, {_ROW[0]: (0, _OUT, b"")}, "different (exit 0, recorded 1)"),
        (_ROW, {_ROW[0]: (1, _OUT + b"\n", b"")}, "different (stdout digest)"),
        # a pyenv shim for a version that is not active
        (_ROW, {"--help": (127, b"", b"pyenv: python3.10: command not found\n")}, "failed to run"),
        (_SIMULATE_ROW, {NUMPY_PROBE: _NO_NUMPY}, "skipped (no numpy)"),
        (_SIMULATE_ROW, {_SIMULATE_ROW[0]: (0, _OUT, b"")}, "equal"),
        (_ROW, {NUMPY_PROBE: _NO_NUMPY, _ROW[0]: (1, _OUT, b"")}, "equal"),
        # a SLOW row: the exit code is None when the run passed the row's limit
        (_SLOW_ROW, {(_ROW[0], 30): (None, b"", b"")}, "timed out"),
        (_SLOW_ROW, {(_ROW[0], 30): (1, _OUT, b"")}, "equal"),
    ],
    ids=["equal", "exit-differs", "digest-differs", "help-fails", "no-numpy", "simulate-with-numpy",
         "numpy-free-without-numpy", "slow-timed-out", "slow-equal"],
)
def test_replay_verdict(row, results, expected):
    # canned (exit code, stdout, stderr) for each argv, or (argv, limit); any other exits 0 with a usage text
    def run(argv, *limit):
        return results.get((argv, *limit) if limit else argv, (0, b"usage: ced\n", b""))
    assert verdict(row, run) == expected


def test_slow_rows_are_replayable():
    """Every SLOW argv parses, none is also a GOLDEN row, and rows that differ only in --threads agree."""
    parser = ced.cli.build_parser()
    for argv, *_ in SLOW:
        parser.parse_args(ced.cli._attach_negative_values(argv.split()))
    assert not {row[0] for row in SLOW} & {row[0] for row in GOLDEN}
    by_threads = {}
    for argv, code, digest, _ in SLOW:
        words = argv.split()
        if "--threads" in words:
            at = words.index("--threads")
            by_threads.setdefault(" ".join(words[:at] + words[at + 2:]), set()).add((code, digest))
    assert len(by_threads) == 3 and all(len(results) == 1 for results in by_threads.values())


#: Every option string each subcommand accepts: a flag shared through a parent
#: parser must reach exactly the subcommands listed here.
OPTIONS = {
    "decide": {"-h", "--help", "--d", "--lambda", "--rho", "--max-m", "--json"},
    "rho-c": {"-h", "--help", "--d", "--lambda", "--lambda-grid", "--tol", "--max-m", "--certs", "--format",
              "--threads"},
    "catalan": {"-h", "--help", "--d", "--lambda", "--rho", "--k", "--k-max", "--z", "--mode", "--m", "--format"},
    "simulate": {"-h", "--help"},
    "simulate line": {"-h", "--help", "--lambda", "--rho", "--trials", "--seed", "--k-max", "--allow-decimal",
                      "--format"},
    "simulate tree": {"-h", "--help", "--d", "--lambda", "--rho", "--trials", "--seed", "--depth",
                      "--allow-decimal", "--format"},
    "phase": {"-h", "--help", "--d", "--lambda", "--rho", "--max-m", "--json"},
}


def _options(parser, prefix=""):
    """Every (sub)command under parser, `simulate line` included, with the option strings it takes."""
    taken = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                taken[prefix + name] = {s for a in sub._actions for s in a.option_strings}
                taken.update(_options(sub, prefix + name + " "))
    return taken


def test_each_subcommand_takes_exactly_its_options():
    assert _options(ced.cli.build_parser()) == OPTIONS


@pytest.mark.parametrize("subcommand", ["", *OPTIONS])
def test_help_exits_0(capsys, subcommand):
    with pytest.raises(SystemExit) as stop:
        main([*subcommand.split(), "--help"])
    assert stop.value.code == 0 and capsys.readouterr().out.startswith(f"usage: ced {subcommand}".rstrip())


@pytest.mark.parametrize(
    "callee,exc,argv",
    [
        ("critical_rho", BracketError("endpoint failed"), "rho-c --d 2 --lambda 1 --tol 1/64"),
        ("simulate_line", ResourceBudgetError("too many vertices"), "simulate line --lambda 1 --rho 1 --trials 1 --seed 1"),
        ("decide", OutsideWindowError("outside"), "decide --d 2 --lambda 1 --rho 1"),
    ],
    ids=["BracketError", "ResourceBudgetError", "OutsideWindowError"],
)
def test_library_errors_exit_70(capsys, monkeypatch, callee, exc, argv):
    def raiser(*args, **kwargs):
        raise exc

    monkeypatch.setattr(ced.cli, callee, raiser)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (70, "") and str(exc) in err


@pytest.mark.parametrize(
    "argv",
    ["decide --d 2 --lambda 1 --rho 1", "catalan --lambda 1 --rho 1/3 --k-max 300"],
    ids=["flushed-at-the-end", "written-in-emit"],
)
def test_closed_stdout_exits_70(argv):
    # the pipe's read end is closed before the spawn, so the first write fails
    # without a race; decide's exit 1 would read as Above
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "ced.cli", *argv.split()], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 70 and proc.stderr == "ced: error: stdout closed before the output was written\n"


#: Runs each argv through `ced.cli.main` in a fresh interpreter, then names
#: the lazily imported modules that got imported.
_IMPORT_PROBE = """
import sys
from ced.cli import main
for argv in sys.argv[1:]:
    main(argv.split())
print("loaded:", *(name for name in ("numpy", "concurrent.futures") if name in sys.modules), file=sys.stderr)
"""


def _src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(ced.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _loaded_by(*argvs):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argvs], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split()[1:])


def test_only_simulate_imports_numpy():
    # nor concurrent.futures, which only a grid run on two or more workers needs
    exact = _loaded_by(
        "decide --d 2 --lambda 1 --rho 1",
        "phase --d 2 --lambda 1 --rho 1/2",
        "catalan --lambda 1 --rho 1 --k-max 4",
        "rho-c --d 2 --lambda 1 --tol 1/16",
        "rho-c --d 2 --lambda-grid 1/2:2:3 --tol 1/16 --threads 1",
    )
    assert exact == set()
    assert "numpy" in _loaded_by("simulate line --lambda 1 --rho 1 --trials 10 --seed 1")
