"""Command-line frontend.

Subcommands wrap the library one-to-one and emit machine-readable output:
CSV (RFC-4180 quoting, manifest as leading # comments) or JSON (one
object).  Rationals are written exactly as "p/q"; stdout carries data,
stderr carries logs (including wall-clock timing, which is kept off
stdout so replaying a manifest reproduces output byte for byte).

Each flag is defined once, and argparse alone decides which flags a
subcommand, or a `simulate` engine, takes: rho-c needs exactly one of
--lambda and --lambda-grid, catalan exactly one of --k and --k-max;
`simulate line` takes --k-max, `simulate tree` --d and --depth.  catalan
and `simulate line` take no --d, since their values are d-free; their
manifests read d=2.  --json is --format json.

Exit codes for `decide`: 0 below, 1 above, 2 undecided, 64 usage error,
70 runtime error.  Other subcommands: 0 on success.  Exit 70 covers any
RuntimeError or ValueError, among them `BracketError` and
`ResourceBudgetError` (RuntimeErrors) and `OutsideWindowError` (a
ValueError), and a stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Optional

import ced
from ced.catalan import (
    MODE_CAPPED,
    MODE_EXACT,
    MODE_FLATTENED,
    partial_series,
    weighted_catalan,
    weighted_catalan_floats,
    weighted_catalan_sequence,
)
from ced.decision import (
    DEFAULT_M_MAX,
    DecisionOutcome,
    OutsideWindowError,
    Verdict,
    classify_phase,
    critical_rho,
    decide,
    rho_c_curve,
)
from ced.params import ModelParams
from ced.simulate import compare_renewals, max_abs_z, simulate_line, simulate_tree

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)$")
_NEGATIVE_RE = re.compile(r"-[\d.]")
_FLAG_RE = re.compile(r"--[^=]+")  # a --name word with no value attached; not the bare --

EXIT_USAGE = 64
EXIT_RUNTIME = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    names = None  # the subcommand or engine argument, on a parser that has one (`build_parser`)

    def error(self, message):  # argparse would exit(2), which collides with Undecided
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        flag = (args[0] if args else "").split("=")[0]  # a flag here would lend its value to the name
        if self.names and flag.startswith("-") and flag not in ("-h", "--help"):
            raise UsageError(f"{flag} must follow the {self.names.dest} ({', '.join(self.names.choices)})")
        return super().parse_known_args(args, namespace)


def parse_rational(text: str, flag: str = "value", allow_decimal: bool = False) -> Fraction:
    """Parse an exact rational "p/q" or integer string.

    Decimal strings are rejected unless allow_decimal is set (they are
    exact when accepted: "0.1" means 1/10), because certified paths must
    not silently misrepresent inputs like 1/3.
    """
    text = text.strip()
    if _RATIONAL_RE.match(text) or (allow_decimal and _DECIMAL_RE.match(text)):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise UsageError(f"{flag}: zero denominator in {text!r}") from None
        except ValueError:  # an integer past Python's int-to-str digit limit
            raise UsageError(f"{flag}: more than {sys.get_int_max_str_digits()} digits") from None
    hint = " (decimals only with simulate --allow-decimal)" if _DECIMAL_RE.match(text) else ""
    raise UsageError(f"{flag}: expected an exact rational like 3/7, got {text!r}{hint}")


def _check_rate(flag: str, value: Fraction) -> None:
    """A spread rate (--lambda) must be positive, a death rate (--rho) and a series point (--z) nonnegative."""
    if value < 0 or (value == 0 and flag == "--lambda"):
        raise UsageError(f"{flag}: must be {'positive' if flag == '--lambda' else 'nonnegative'}, got {value}")


def _rational_arg(flag: str, min_bits: int | None = None):
    """A rational flag; with min_bits, values below 2^-min_bits are usage errors, as are bad rates."""

    def convert(text: str) -> Fraction:
        value = parse_rational(text, flag)  # its UsageError names the flag and reaches main as is
        if flag in ("--lambda", "--rho", "--z"):
            _check_rate(flag, value)
        if min_bits is not None and value < Fraction(1, 1 << min_bits):
            raise argparse.ArgumentTypeError(f"must be >= 2^-{min_bits}, got {value}")
        return value

    return convert


def _int_arg(minimum: int, maximum: int | None = None):
    """An integer flag checked at parse time, so a bad value is a usage error."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return convert


#: A missing certificate.  JSON writes it as null and CSV and text spell it
#: `null`, where a bare None cell (the `z` of the k = 0 row) prints empty.
_NO_CERTIFICATE = object()


def _json_cell(value):
    if value is _NO_CERTIFICATE:
        return None
    return str(value) if isinstance(value, Fraction) else value


def _text_cell(value) -> str:
    if value is None:
        return ""
    if value is _NO_CERTIFICATE:
        return "null"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)  # Fraction -> p/q, float -> its repr


def _csv_cell(value) -> str:
    """A cell as RFC 4180 writes it: quoted, its quotes doubled, only when it holds , " CR or LF."""
    text = _text_cell(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(
    subcommand: str, params: dict, format: str, header=(), rows=(), scalars=None, text=None, seed: Optional[int] = None
) -> None:
    """Write one result to stdout; nothing else in the CLI does.

    The manifest echoes everything needed to replay the run byte for byte:
    the tool, its version, the subcommand, the params (raw values, written
    with str()) and the seed, if any.
    json: one object with the manifest, `rows` (one object per row, keyed by
    the header) when there is a header, and the named scalars.
    csv: the manifest as # comments, the header and rows, then one
    `# name value` trailer per scalar.  Rows are written here, not by the
    csv module: fields are joined by commas and end in a newline, and a
    field is quoted, with its quotes doubled, only when it holds a comma, a
    double quote, CR or LF (RFC 4180).  Every row has at least 2 fields,
    so no row is a lone empty field, which the csv module writes as "".
    text: the manifest as # comments, then `text`, or else one
    `name: value` line per scalar.

    Cells are raw values and are rendered here alone.  Python's
    int-to-str digit limit is lifted while writing, so exact values print
    at any length; inputs are still parsed under the limit.
    """
    scalars = scalars or {}
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if format == "json":
            payload = {"manifest": {"tool": "ced", "version": ced.__version__, "subcommand": subcommand,
                                    "params": {k: str(v) for k, v in params.items()}, "seed": seed}}
            if header:
                payload["rows"] = [{h: _json_cell(v) for h, v in zip(header, row)} for row in rows]
            payload.update((name, _json_cell(v)) for name, v in scalars.items())
            print(json.dumps(payload, sort_keys=True))
            return
        print(f"# tool=ced version={ced.__version__} subcommand={subcommand}")
        print(" ".join(["# params", *(f"{k}={v}" for k, v in sorted(params.items()))]))
        if seed is not None:
            print(f"# seed {seed}")
        if format == "csv":
            write = sys.stdout.write
            for row in [header, *rows]:  # one write a row; the table is never joined into one string
                write(",".join(map(_csv_cell, row)) + "\n")
            for name, value in scalars.items():
                print(f"# {name} {_text_cell(value)}")
        elif text is not None:
            print(_text_cell(text))
        else:
            for name, value in scalars.items():
                print(f"{name}: {_text_cell(value)}")
    finally:
        sys.set_int_max_str_digits(saved)


def _certificate_json(outcome: DecisionOutcome):
    cert = outcome.certificate
    return _NO_CERTIFICATE if cert is None else {"type": cert.kind, **vars(cert)}


# ---------------------------------------------------------------------------
# subcommand handlers


def _model_params(p: ModelParams) -> dict:
    return {"d": p.d, "lambda": p.lam, "rho": p.rho}


def _cmd_decide(args) -> int:
    p = ModelParams(args.d, args.lam, args.rho)
    outcome = decide(p, args.max_m)
    _emit(
        "decide",
        {**_model_params(p), "max_m": args.max_m},
        args.format,
        scalars={
            "verdict": outcome.verdict.value,
            "certificate": _certificate_json(outcome),
            "m_reached": outcome.m_reached,
        },
    )
    return {Verdict.BELOW: 0, Verdict.ABOVE: 1, Verdict.UNDECIDED: 2}[outcome.verdict]


#: Largest N accepted by --lambda-grid; each point is a full bisection.
MAX_GRID_POINTS = 10_000

#: Largest K of any exact C_k table: `catalan --k`/`--k-max`, and the float
#: column of `simulate line --k-max` and of `simulate tree --depth`.  The
#: cost grows about as K^3: at lambda = 1, rho = 1/3, K = 800 takes 1.6-2.2 s
#: exact (4.6-5.1 s at K = 1000), 0.2 s capped and 1.1 s flattened at m = 8,
#: 3.1 s flattened at m = 400, and 0.9-1.4 s as floats (`simulate line`:
#: 1.1-1.6 s).  Long denominators of rho or lambda cost more: 103 s exact at
#: rho = 12360736211/2^36, and 128 s at K = 400 (10 s at K = 200) for
#: lambda = 1/10^48, rho = 1, whose float column at K = 150 takes 0.9 s.
#: Those tables need at most 21 MiB; one that could pass
#: `catalan.EXACT_TABLE_BYTES` (a 4300-digit denominator at K = 800 would
#: need 7.5 GiB, a 4300-digit lambda at rho = 0 4.3 GiB), in any mode, exits
#: 70 before it starts, `simulate` before any trial.
MAX_LINE_K = 800

#: Smallest `rho-c --tol` is 2^-MIN_TOL_BITS.  Bisection, the fallback when
#: the estimate misses, took 0.21 / 0.91 / 2.0 / 4.2 s at 2^-100 / -200 / -300
#: / -400 next to the window edge (d = 3, lambda = 197/20; 2-core Xeon).
MIN_TOL_BITS = 200

#: Largest `--d` of `decide`, `phase` and `rho-c`: the kernels' integers carry
#: d.  At tol 2^-200 `critical_rho` took 0.011 / 0.016 / 0.020 s at d = 2^32 / 2^64 (lambda
#: at 0.97 of the upper window edge) / 10^300 (lambda = 1; 2-core Xeon).
MAX_DECISION_D = 1 << 32

#: Largest `simulate --trials`.  The line engine's time grows linearly in it:
#: at lambda = rho = 1, k <= 6, 10^6 / 4 10^6 / 10^7 trials take 0.48 / 1.27 /
#: 2.3 s at 34 MB, so 10^12 would take days.  Trials at lambda = 5, rho = 0,
#: k <= 800 take 176 us each: about half an hour at the cap.
MAX_TRIALS = 10**7

#: Largest `simulate tree --d`, kept as a spec decision: the tree engine's memory no
#: longer grows with d.  At rho = 0, depth 2 and one trial, in process, d = 1024 takes
#: 0.3-0.4 s at 32 MB, and d = 100000 stops on the vertex budget after 1.0-1.2 s at 45 MB.
MAX_SIMULATE_D = 1024


def _parse_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--lambda-grid: expected LO:HI:N")
    lo = parse_rational(parts[0], "--lambda-grid")
    hi = parse_rational(parts[1], "--lambda-grid")
    if lo <= 0:
        raise UsageError(f"--lambda-grid: LO must be positive, got {lo}")
    try:
        n = int(parts[2])
    except ValueError:
        raise UsageError("--lambda-grid: N must be an integer") from None
    if not 1 <= n <= MAX_GRID_POINTS or hi < lo:
        raise UsageError(f"--lambda-grid: need 1 <= N <= {MAX_GRID_POINTS} and HI >= LO")
    step = (hi - lo) / max(n - 1, 1)
    return [lo + i * step for i in range(n)]


def _cmd_rho_c(args) -> int:
    if args.lam is not None:
        params, grid = {"lambda": args.lam}, [args.lam]
        try:
            brackets = [critical_rho(args.d, args.lam, args.tol, args.max_m)]
        except OutsideWindowError as exc:
            raise UsageError(f"--lambda: {exc}") from None
    else:
        params, grid = {"lambda_grid": args.lambda_grid}, _parse_grid(args.lambda_grid)
        brackets = rho_c_curve(args.d, grid, args.tol, args.max_m, threads=args.threads)
    params.update({"d": args.d, "tol": args.tol, "max_m": args.max_m})
    header = ["lambda", "lo", "hi", "status"]
    if args.certs:
        header += ["lo_certificate", "hi_certificate"]
    rows = []
    for lam, b in zip(grid, brackets):
        if b is None:  # lambda outside the window, where the threshold is 0
            row = [lam, Fraction(0), Fraction(0), "outside", _NO_CERTIFICATE, _NO_CERTIFICATE]
        else:
            status = "bracket" if b.unresolved_midpoint is None else "unresolved"
            row = [lam, b.lo, b.hi, status, _certificate_json(b.lo_outcome), _certificate_json(b.hi_outcome)]
        rows.append(row[: len(header)])
    _emit("rho-c", params, args.format, header, rows)
    return 0


def _cmd_catalan(args) -> int:
    p = ModelParams(args.d, args.lam, args.rho)
    mode = args.mode
    if mode != MODE_EXACT and args.m is None:
        raise UsageError(f"--mode {mode} needs --m")
    if mode == MODE_EXACT and args.m is not None:
        raise UsageError("--m: exact mode takes no cutoff height")
    params = {**_model_params(p), "mode": mode}
    if args.m is not None:
        params["m"] = args.m
    single = "json" if args.format == "json" else "text"  # one value is never a CSV table
    if args.z is not None:
        # partial sum of the generating function up to k_max
        k_hi = args.k if args.k_max is None else args.k_max
        params.update({"z": args.z, "K": k_hi})
        value = partial_series(p, args.z, k_hi, mode, args.m)
        _emit("catalan", params, single, scalars={"partial_series": value}, text=value)
    elif args.k_max is not None:
        params["k_max"] = args.k_max
        seq = weighted_catalan_sequence(p, args.k_max, mode, args.m)
        _emit("catalan", params, args.format, ["k", "value"], list(enumerate(seq)))
    else:
        params["k"] = args.k
        value = weighted_catalan(p, args.k, mode, args.m).value
        _emit("catalan", params, single, scalars={"k": args.k, "value": value}, text=value)
    return 0


def _cmd_simulate(args) -> int:
    lam = parse_rational(args.lam, "--lambda", allow_decimal=args.allow_decimal)
    rho = parse_rational(args.rho, "--rho", allow_decimal=args.allow_decimal)
    for flag, rate in (("--lambda", lam), ("--rho", rho)):
        _check_rate(flag, rate)
        # the engines draw their delays -log(1 - u) / rate in floats, and -log(1 - u) <= 53 ln 2
        try:
            value = float(rate)
        except OverflowError:
            raise UsageError(f"{flag}: past the float range") from None
        if rate and value * sys.float_info.max < 53 * math.log(2):
            raise UsageError(f"{flag}: so close to 0 that a delay would overflow the float range")
    p = ModelParams(args.d, lam, rho)
    k_max, scale = (args.k_max, 1) if args.engine == "line" else (args.depth, args.d)
    exact = weighted_catalan_floats(p, k_max, scale)  # first: a table over budget stops the run before any trial
    if args.engine == "line":
        size = {"k_max": k_max}
        summary = simulate_line(p, args.trials, k_max, args.seed)
        renewals = compare_renewals(summary, exact)
        header = ["k", "count", "frequency", "stderr", "exact", "z"]
        rows = [(r.k, summary.renewal_counts[r.k], r.observed, r.stderr, r.expected, r.z) for r in renewals]
        scalars = {"max_abs_z": max_abs_z(renewals), "absorption": dict(summary.absorption_counts)}
    else:
        size = {"depth": k_max}
        summary = simulate_tree(p, k_max, args.trials, args.seed)
        header = ["level", "mean", "stderr", "exact"]
        rows = [(k, summary.level_renewal_mean(k), summary.level_renewal_stderr(k), e) for k, e in enumerate(exact)]
        scalars = {
            "blue_reach_cap_frequency": summary.blue_reach_cap_frequency(),
            "red_reach_cap_frequency": summary.red_reach_cap_frequency(),
        }
    params = {**_model_params(p), **size, "trials": args.trials}
    _emit(f"simulate {args.engine}", params, args.format, header, rows, scalars, seed=args.seed)
    return 0


def _cmd_phase(args) -> int:
    p = ModelParams(args.d, args.lam, args.rho)
    label = classify_phase(p, args.max_m).value
    params = {**_model_params(p), "max_m": args.max_m}
    _emit("phase", params, args.format, scalars={"phase": label}, text=label)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ced` argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="ced", description=__doc__)
    sub = parser.names = parser.add_subparsers(dest="subcommand", required=True)

    depth = argparse.ArgumentParser(add_help=False)  # decide, phase and rho-c
    depth.add_argument("--d", type=_int_arg(2, MAX_DECISION_D), required=True, help=f"at most {MAX_DECISION_D}")
    depth.add_argument("--max-m", dest="max_m", type=_int_arg(1, DEFAULT_M_MAX), default=DEFAULT_M_MAX)
    rates = argparse.ArgumentParser(add_help=False)  # decide, phase and catalan
    rates.add_argument("--lambda", dest="lam", type=_rational_arg("--lambda"), required=True)
    rates.add_argument("--rho", type=_rational_arg("--rho"), required=True)
    table = argparse.ArgumentParser(add_help=False)  # rho-c, catalan and simulate
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    point = argparse.ArgumentParser(add_help=False, parents=[depth, rates])  # decide and phase
    point.add_argument("--json", action="store_const", dest="format", const="json", default="text")

    pd = sub.add_parser("decide", parents=[point], help="decide rho below/above the critical death rate")
    pd.set_defaults(func=_cmd_decide)

    pr = sub.add_parser("rho-c", parents=[depth, table], help="bracket the critical death rate by bisection")
    lambdas = pr.add_mutually_exclusive_group(required=True)
    lambdas.add_argument("--lambda", dest="lam", type=_rational_arg("--lambda"))
    lambdas.add_argument("--lambda-grid", dest="lambda_grid", help="LO:HI:N evenly spaced")
    pr.add_argument("--tol", type=_rational_arg("--tol", MIN_TOL_BITS), required=True,
                    help=f"at least 2^-{MIN_TOL_BITS}")
    pr.add_argument("--certs", action="store_true", help="embed endpoint certificates")
    pr.add_argument("--threads", type=_int_arg(1), default=1)
    pr.set_defaults(func=_cmd_rho_c)

    pc = sub.add_parser("catalan", parents=[rates, table], help="exact weighted Catalan numbers and partial series")
    sizes = pc.add_mutually_exclusive_group(required=True)
    sizes.add_argument("--k", type=_int_arg(0, MAX_LINE_K), help=f"at most {MAX_LINE_K}")
    sizes.add_argument("--k-max", dest="k_max", type=_int_arg(0, MAX_LINE_K), help=f"at most {MAX_LINE_K}")
    pc.add_argument("--z", type=_rational_arg("--z"), help="evaluate the partial series at z")
    pc.add_argument("--mode", choices=(MODE_EXACT, MODE_CAPPED, MODE_FLATTENED), default=MODE_EXACT)
    pc.add_argument("--m", type=_int_arg(1), help="cutoff height for capped/flattened modes")
    pc.set_defaults(func=_cmd_catalan, d=2)  # C_k is d-free; its manifest reads d=2

    ps = sub.add_parser("simulate", help="Monte Carlo engines")
    ps.set_defaults(func=_cmd_simulate)
    engines = ps.names = ps.add_subparsers(dest="engine", required=True)
    trials = argparse.ArgumentParser(add_help=False, parents=[table])  # simulate line and simulate tree
    trials.add_argument("--lambda", dest="lam", required=True)
    trials.add_argument("--rho", required=True)
    trials.add_argument("--trials", type=_int_arg(1, MAX_TRIALS), required=True, help=f"at most {MAX_TRIALS}")
    trials.add_argument("--seed", type=_int_arg(0, 2**64 - 1), required=True, help="required: no silent nondeterminism")
    trials.add_argument("--allow-decimal", action="store_true",
                        help="accept decimal rates (exact: 0.1 means 1/10); simulation only")
    pl = engines.add_parser("line", parents=[trials], help="renewals of the front gap's jump chain")
    pl.add_argument("--k-max", dest="k_max", type=_int_arg(1, MAX_LINE_K), default=8,
                    help=f"stop at this blue position (at most {MAX_LINE_K})")
    pl.set_defaults(d=2)  # the line is d-free; its manifest reads d=2
    pt = engines.add_parser("tree", parents=[trials], help="level renewals on the depth-capped d-ary tree")
    pt.add_argument("--d", type=_int_arg(2, MAX_SIMULATE_D), default=2,
                    help=f"branching factor (at most {MAX_SIMULATE_D})")
    pt.add_argument("--depth", type=_int_arg(1, MAX_LINE_K), default=6, help=f"depth cap (at most {MAX_LINE_K})")

    pp = sub.add_parser("phase", parents=[point], help="classify coexistence / escape / extinction")
    pp.set_defaults(func=_cmd_phase)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`--rho -1/3` as `--rho=-1/3`, for any flag: argparse takes -1/3 for an option, so its value parser never saw it."""
    words = []
    for word in argv:
        if words and _FLAG_RE.fullmatch(words[-1]) and _NEGATIVE_RE.match(word):
            words[-1] += "=" + word
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        start = time.monotonic()
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except UsageError as exc:
        print(f"ced: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader left; so that the flush at exit cannot fail too:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("ced: error: stdout closed before the output was written", file=sys.stderr)
        return EXIT_RUNTIME
    except (RuntimeError, ValueError) as exc:
        print(f"ced: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("ced: error: out of memory", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"ced {args.subcommand}: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
