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
from ced.catalan import weighted_catalan_sequence
from ced.cli import main, parse_rational, UsageError
from ced.decision import BracketError, OutsideWindowError
from ced.params import ModelParams
from ced.simulate import ResourceBudgetError


#: Within 10^-200 of the lower window end 3 - 2 sqrt(2) for d = 2, on the inside.
NEAR_EDGE_LAMBDA = F(3 * 10**200 - math.isqrt(8 * 10**400), 10**200)


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
            # after the bare --, a negative word is left to argparse
            ("decide --d 2 --lambda 1 --rho 1 -- -1", "unrecognized arguments:"),
            # the engines draw their delays in floats, and these rates lie past the float range
            (f"simulate line --lambda 1 --rho 1{'0' * 400} --trials 10 --seed 1", "--rho"),
            (f"simulate tree --lambda 1{'0' * 400} --rho 1 --trials 10 --seed 1", "--lambda"),
            # ... or so close to 0 that a delay would overflow: 1/10^400 is 0.0 as a float,
            # and 3/10^308, above the smallest normal float, still overflowed in numpy
            (f"simulate tree --lambda 1/1{'0' * 400} --rho 1 --trials 10 --seed 1", "--lambda"),
            (f"simulate tree --lambda 1 --rho 3/1{'0' * 308} --trials 10 --seed 1", "--rho"),
            (f"simulate line --lambda 3/1{'0' * 308} --rho 1 --trials 10 --seed 1", "--lambda"),
            (f"simulate line --lambda 1 --rho 1/1{'0' * 400} --trials 10 --seed 1", "--rho"),
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

    def test_option_after_rational_flag_is_still_missing_value(self, capsys):
        code, _, err = run(capsys, *"decide --d 2 --lambda 1 --rho --json".split())
        assert code == 64 and "argument --rho: expected one argument" in err

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


#: argv -> (exit code, sha256 of stdout), recorded before the output code was
#: folded into one emitter; every subcommand and output format is covered.
#: The two `simulate tree` rows were re-recorded when the tree engine moved
#: to level-synchronous Philox streams.
#: The four `simulate line` rows were re-recorded when a zero-count row's z
#: became -inf (it was +inf for a frequency below C_k); only those z cells moved.
GOLDEN = [
    ("decide --d 2 --lambda 1 --rho 1", 1, "12af5f7c46b91101036c2b4869c5a958e8d15031229d4f34a348e584cf66c66d"),
    ("decide --d 2 --lambda 1 --rho 1 --json", 1, "955b47d7b19cb9331a046db485e090022d63649486916422ac9d22b2a4043aaa"),
    ("decide --d 2 --lambda 1 --rho 0 --json", 0, "9f11a106020d760a7a30f9ecba1d12a7c35e5358a2537be88dae42edf109b564"),
    ("decide --d 2 --lambda 1 --rho 1475/8192 --max-m 2", 2, "5fb601d27b195d98b3e914fed547619f89b3e1a6fe1086e95d6bbea8ad4fc368"),
    ("decide --d 2 --lambda 1 --rho 1475/8192 --max-m 2 --json", 2, "8ebc2480fa6d0411f6ff56f46430ba0f44ed65ad40e4b51fa4974ac5688213af"),
    ("phase --d 2 --lambda 1 --rho 2", 0, "12dea9e57a4dd411aca6129c9025021b04d4b8c2a760fd78437579297657ae11"),
    ("phase --d 2 --lambda 1 --rho 0 --json", 0, "ff177459546047300b14e1924965ca523ae3aed9b97c83fa440f357ff456fc59"),
    ("rho-c --d 2 --lambda 1 --tol 1/32 --certs", 0, "0e9c9da6fe82d237dfb4ae472e1b3f73c98b78abcca841064ed64203f8f5317d"),
    ("rho-c --d 2 --lambda 1 --tol 1/32 --certs --format json", 0, "33218f2099181e39842fb42f043c279227605a30e297932b15203142b5dba42f"),
    ("rho-c --d 2 --lambda-grid 1/10:6:5 --tol 1/32 --certs", 0, "f65967f39d44891ee86be97441f5180f14409ec6875b7b2ab7962baefe14d361"),
    ("rho-c --d 2 --lambda-grid 1/10:6:5 --tol 1/32 --certs --format json", 0, "92eb0e7551fbed891adba5c8e9659c505447326cc89915befd020f8f6fcdb838"),
    ("rho-c --d 3 --lambda-grid 1/2:2:3 --tol 1/16", 0, "70d8f20b4ad52eedcbcd2adef409a5bfddec16c741726e129481e44c30edad4b"),
    ("catalan --lambda 1 --rho 1 --k 2", 0, "2d4c5b157d53b098dd1f701c1deeb4b5c67013096f1da1f83f0d8735711a684a"),
    ("catalan --lambda 1 --rho 1 --k 2 --format json", 0, "86d4c84aa143ef855325fe98532c3aaed4faceb30e28e8467492ad75b907afc4"),
    ("catalan --lambda 3/2 --rho 1/3 --k-max 6", 0, "cb8d5958b991116ed770eb19cd653e732878eab0fe01998ab2b9c47dbd0e5dd5"),
    ("catalan --lambda 3/2 --rho 1/3 --k-max 6 --format json", 0, "bf5e6c0dd28e8e052ce9ac0e26eb358670e379ec6facee68cac4df7f038d0a46"),
    ("catalan --lambda 1 --rho 1 --k 2 --z 2", 0, "aa5f627d286f1f0c2e89b2df4694c4932f8fe25d7cafbb84d354146eacfab14c"),
    ("catalan --lambda 1 --rho 1 --z 3/2 --k-max 6 --format json", 0, "7fccb20e0fc5d24297f8822af684c532ea0dc91ba329a145e23b398408bbb649"),
    ("catalan --d 3 --lambda 1 --rho 1/2 --mode capped --m 2 --k-max 5", 0, "2ca4c7cd9b5f5183c734759d4f702a1e082b085860eec9fc1affd48fb42d85dc"),
    ("catalan --lambda 1 --rho 1/2 --mode flattened --m 3 --k 4 --format json", 0, "562297ce79036ec0be4bac262c113aa7e3af4f99ce6178cd2412aec7362094a3"),
    ("catalan --lambda 1 --rho 1/2 --mode flattened --m 2 --z 2 --k-max 5", 0, "34ef882f3d3934c3dc183555e40d746534b8ce995f7ae5c4a666604a13cc0bea"),
    ("simulate line --lambda 1 --rho 10 --k-max 3 --trials 200 --seed 1", 0, "7896368a75e5f1e30280fd6f6261cbeae6bfd0a3cd49e0007dbbf0901a320576"),
    ("simulate line --lambda 1 --rho 10 --k-max 3 --trials 200 --seed 1 --format json", 0, "188d7ca8fa33c7e48ce945ba8c3c7db380753655be09b8ee59ea6d090a609dbd"),
    ("simulate line --lambda 1 --rho 1 --k-max 4 --trials 300 --seed 7", 0, "dd5b13ea7cf44aaed0a7c2af4458b57289a3cce3ae3cdf92e50e6bbd6f4cb432"),
    ("simulate line --lambda 0.5 --rho 1 --k-max 3 --trials 100 --seed 1 --allow-decimal --format json", 0, "04e1df36750560c58ff410b4f953c634b622dfb1ea3b510e8fa77fe9b6310fe7"),
    ("simulate tree --d 2 --lambda 1 --rho 1 --depth 3 --trials 200 --seed 3", 0, "2db4d6eff3df65fb2aad1a5459187018d33697636ca39eade1873b87a310f87d"),
    ("simulate tree --d 3 --lambda 2 --rho 1/2 --depth 3 --trials 100 --seed 5 --format json", 0, "1cf95ebb9d95569c5b57d607be8971b4d4c924d81e07f787734b50a439f7b614"),
    # Supercritical: almost every cap vertex has a parent that never turns blue and
    # draws nothing; recorded while every cap vertex still drew its words.
    ("simulate tree --d 2 --lambda 2 --rho 1/2 --depth 8 --trials 1000 --seed 1", 0, "aac7cd5fb8cb0d8987900a326e1892cd3d4223e36e5ed580b2976e1127a1428c"),
    # Levels cut into many pieces (22, 51 and 15 Philox calls), recorded while
    # a piece's children were still drawn before the rest of its level.
    ("simulate tree --d 3 --lambda 1 --rho 1/2 --depth 6 --trials 2000 --seed 1", 0, "6f814ab5191bacdaa4178012468225b7dd9c093f7682c540445b8272a075aa9a"),
    ("simulate tree --d 4 --lambda 2 --rho 1/2 --depth 6 --trials 500 --seed 1", 0, "bb6692e5de4eb05c9f8db5dbac6a9c4926cef322b2f950a95cb95695a84aa4e6"),
    ("simulate tree --d 2 --lambda 1 --rho 0 --depth 6 --trials 3000 --seed 1 --format json", 0, "3d5ad905b826ca2b9450dc7769eb0529f8333a5d06890deb2ddb4c81d53da1cc"),
    ("decide --d 2 --lambda 1 --rho 1/0", 64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Deep brackets (tol 2^-100, m = 32 and 64), a below witness at level 1
    # and the two exact ties b_1 = 1 and t_0 = 1, recorded with the Fraction
    # kernels before the integer continuant kernels replaced them.
    ("rho-c --d 64 --lambda 1/191 --tol 1/1267650600228229401496703205376 --certs --format json", 0, "1685550ed4a17864ecdeb535c4e51c538508e751c5ace62d7bf726a387d30820"),
    ("rho-c --d 3 --lambda 5/2 --tol 1/1267650600228229401496703205376 --certs --format json", 0, "e3462a4cef67dd05d978caee3f459e87b98ca0f851cc50ad250ab01b4d35eb88"),
    ("rho-c --d 2 --lambda 1 --tol 1/1267650600228229401496703205376 --certs", 0, "8dae6f25b279dab235d38b5c8de4069ad6ce36cb0dbd2214b7b9c3e0c79b5d76"),
    ("decide --d 2 --lambda 2 --rho 25/256 --json", 0, "cb5ff8d44b10588ed08fddd892e64afa89114b4c304dcf62b723b4c0c7897cbc"),
    ("decide --d 20 --lambda 1 --rho 1 --json", 0, "facbeea5883178097dcf4c54005da05d7e5d1718ef41bf65e777794cc53c7c8c"),
    ("decide --d 6 --lambda 2 --rho 1 --json", 0, "99dfdea74a28be09ef8b3c6634cb6be0605d0e061200d9dde12f27767c9eb71f"),
    # Two more m = 64 brackets, near the window edge and at an interior
    # lambda, recorded before the kernels moved onto one integer context.
    ("rho-c --d 8 --lambda 1/21 --tol 1/1267650600228229401496703205376 --certs --format json", 0, "4301ccff4cf4581b5f45ef06a21fce5cdea24d171455887522b64d710c6a89e1"),
    ("rho-c --d 4 --lambda 37/4 --tol 1/1267650600228229401496703205376 --certs --format json", 0, "2e137a26e2e0a0deb04af4927182ad55fa4ea4163b6deea18bb05486018f9561"),
    # A lambda too close to the window end for the earlier enclosure test,
    # which refused it; recorded once the window test became exact.
    (f"rho-c --d 2 --lambda {NEAR_EDGE_LAMBDA} --tol 1/64 --certs", 0, "1a67ca42931b95c78034a4fafcb5bb4572f535388309bdece20948635d58b80b"),
    # A midpoint comes back Undecided at --max-m 8, so the bracket stops short
    # of the tolerance; recorded with plain bisection before the estimate.
    ("rho-c --d 2 --lambda 1 --tol 1/1099511627776 --max-m 8 --certs --format json", 0, "6bca5b9344ac962e7202289fdd44e126879f789289b39159f31fa873e6d4d321"),
    # The exact recurrence at depth through each caller (tables, one C_k, partial series,
    # the tree's float column), on progressions G_i with content 1, 14, 14, 2, 2 and 1;
    # recorded while its common denominator still carried K! and an extra G_1.
    ("catalan --lambda 3/2 --rho 8/9 --k-max 180", 0, "27c76a469e7d6bd866b28d890ba7f6b1a5d108b963702002899c5ed11f184718"),
    ("catalan --lambda 5/2 --rho 300000001/1073741824 --k-max 60 --format json", 0, "e05e46e0e0c5321d4cdb98ee1083da68e477ea7f394fb63dfb62b1affb6c4475"),
    ("catalan --lambda 5/2 --rho 300000001/1073741824 --k 40 --format json", 0, "058a4753f8df01d914a8f3a6520563f066cf9dbca0a6c8cc20ce8ca49efa2b2f"),
    ("catalan --lambda 5/2 --rho 80000003/1073741824 --z 3 --k-max 120 --format json", 0, "d847db07bcd6730f363fb4328a12addcb520d026c196ed058a4a3dc9220fbe8a"),
    ("catalan --lambda 1 --rho 8/9 --z 1/2 --k-max 100", 0, "f817d53cf217a962ffbff8088e2488809d12b385dc9eaa2028d58ace18ef9ec9"),
    ("simulate tree --lambda 1 --rho 3 --depth 200 --trials 1 --seed 1", 0, "9cb6ed42958774b341ba4a17b942acae3d12bb8b2390ea588681e60ef402bd81"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_replay(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


#: Every option string each subcommand accepts: a flag shared through a parent
#: parser must reach exactly the subcommands listed here.
OPTIONS = {
    "decide": {"-h", "--help", "--d", "--lambda", "--rho", "--max-m", "--json"},
    "rho-c": {"-h", "--help", "--d", "--lambda", "--lambda-grid", "--tol", "--max-m", "--certs", "--format",
              "--threads"},
    "catalan": {"-h", "--help", "--d", "--lambda", "--rho", "--k", "--k-max", "--z", "--mode", "--m", "--format"},
    "simulate": {"-h", "--help", "--d", "--lambda", "--rho", "--trials", "--seed", "--k-max", "--depth",
                 "--allow-decimal", "--format"},
    "phase": {"-h", "--help", "--d", "--lambda", "--rho", "--max-m", "--json"},
}


def test_each_subcommand_takes_exactly_its_options():
    (subparsers,) = (a for a in ced.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {name: {s for a in sub._actions for s in a.option_strings} for name, sub in subparsers.choices.items()}
    assert taken == OPTIONS


@pytest.mark.parametrize("subcommand", ["", *OPTIONS])
def test_help_exits_0(capsys, subcommand):
    with pytest.raises(SystemExit) as stop:
        main([subcommand, "--help"] if subcommand else ["--help"])
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
