"""Command-line frontend.

Subcommands wrap the library one-to-one and emit machine-readable output:
CSV (RFC-4180 quoting, manifest as leading # comments) or JSON (one
object).  Rationals are written exactly as "p/q"; stdout carries data,
stderr carries logs (including wall-clock timing, which is kept off
stdout so replaying a manifest reproduces output byte for byte).

Exit codes for `decide`: 0 below, 1 above, 2 undecided, 64 usage error,
70 runtime error.  Other subcommands: 0 on success.  Exit 70 covers any
RuntimeError or ValueError, among them `BracketError` and
`ResourceBudgetError` (RuntimeErrors) and `OutsideWindowError` (a
ValueError).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import ced
from ced.catalan import (
    MODE_CAPPED,
    MODE_EXACT,
    MODE_FLATTENED,
    partial_series,
    weighted_catalan,
    weighted_catalan_sequence,
)
from ced.decision import (
    DEFAULT_M_MAX,
    DecisionOutcome,
    KernelAbove,
    KernelBelow,
    OutsideWindowAbove,
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
    def error(self, message):  # argparse would exit(2), which collides with Undecided
        raise UsageError(message)


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
    hint = " (decimals need --allow-decimal)" if _DECIMAL_RE.match(text) else ""
    raise UsageError(f"{flag}: expected an exact rational like 3/7, got {text!r}{hint}")


def _check_rate(flag: str, value: Fraction) -> None:
    """A spread rate (--lambda) must be positive and a death rate (--rho) nonnegative."""
    if value < 0 or (value == 0 and flag == "--lambda"):
        raise UsageError(f"{flag}: must be {'positive' if flag == '--lambda' else 'nonnegative'}, got {value}")


def _rational_arg(flag: str, min_bits: int | None = None):
    """A rational flag; with min_bits, values below 2^-min_bits are usage errors, as are bad rates."""

    def convert(text: str) -> Fraction:
        value = parse_rational(text, flag)  # its UsageError names the flag and reaches main as is
        if flag in ("--lambda", "--rho"):
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


@dataclass
class RunManifest:
    """Echo of everything needed to replay a run byte-identically."""

    subcommand: str
    params: dict  # raw values, written with str()
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "tool": "ced",
            "version": ced.__version__,
            "subcommand": self.subcommand,
            "params": {k: str(v) for k, v in self.params.items()},
            "seed": self.seed,
        }

    def comment_lines(self) -> list[str]:
        pieces = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        lines = [f"# tool=ced version={ced.__version__} subcommand={self.subcommand}"]
        lines.append(f"# params {pieces}" if pieces else "# params")
        if self.seed is not None:
            lines.append(f"# seed {self.seed}")
        return lines


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


def _emit(manifest: RunManifest, format: str, header=(), rows=(), scalars=None, text=None) -> None:
    """Write one result to stdout; nothing else in the CLI does.

    json: one object with the manifest, `rows` (one object per row, keyed by
    the header) when there is a header, and the named scalars.
    csv: the manifest as # comments, the header and rows, then one
    `# name value` trailer per scalar.
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
            payload = {"manifest": manifest.as_dict()}
            if header:
                payload["rows"] = [{h: _json_cell(v) for h, v in zip(header, row)} for row in rows]
            payload.update((name, _json_cell(v)) for name, v in scalars.items())
            print(json.dumps(payload, sort_keys=True))
            return
        for line in manifest.comment_lines():
            print(line)
        if format == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_text_cell(v) for v in row] for row in rows)
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
    if cert is None:
        return _NO_CERTIFICATE
    if isinstance(cert, KernelBelow):
        return {"type": "kernel-below", "m": cert.m, "level": cert.level}
    if isinstance(cert, KernelAbove):
        return {"type": "kernel-above", "m": cert.m}
    if isinstance(cert, OutsideWindowAbove):
        return {"type": "outside-window", "side": cert.side}
    return {"type": "zero-rho"}  # ZeroRhoBelow, the last kind of Certificate


# ---------------------------------------------------------------------------
# subcommand handlers


def _model_params(p: ModelParams) -> dict:
    return {"d": p.d, "lambda": p.lam, "rho": p.rho}


def _cmd_decide(args) -> int:
    p = ModelParams(args.d, args.lam, args.rho)
    manifest = RunManifest("decide", {**_model_params(p), "max_m": args.max_m})
    outcome = decide(p, args.max_m)
    _emit(
        manifest,
        "json" if args.json else "text",
        scalars={
            "verdict": outcome.verdict.value,
            "certificate": _certificate_json(outcome),
            "m_reached": outcome.m_reached,
        },
    )
    return {Verdict.BELOW: 0, Verdict.ABOVE: 1, Verdict.UNDECIDED: 2}[outcome.verdict]


#: Largest N accepted by --lambda-grid; each point is a full bisection.
MAX_GRID_POINTS = 10_000

#: Largest K of any exact C_k table: `simulate line --k-max` and `catalan
#: --k`/`--k-max`.  The cost grows about as K^3: at lambda = 1, rho = 1/3,
#: K = 800 takes 2.5 s exact (7 s at K = 1000), 0.3 s capped and 1.3 s
#: flattened at m = 8, 3.7 s flattened at m = 400.  Long rho denominators
#: cost more: 93 s exact at rho = 12360736211/2^36.
MAX_LINE_K = 800

#: Smallest `rho-c --tol` is 2^-MIN_TOL_BITS.  Bisection, the fallback when
#: the estimate misses, took 0.97 / 15 / 64 / 152 s at 2^-100 / -200 / -300 /
#: -400 next to the window edge (d = 3, lambda = 197/20).
MIN_TOL_BITS = 200

#: Largest `--d` of `decide`, `phase` and `rho-c`: the kernels' integers carry
#: d.  At tol 2^-200 `rho-c` took 0.1 s at d = 2^32 and 3.9 s at d = 2^64 with
#: lambda at 0.97 of the upper window edge, and 11 s at d = 10^300, lambda = 1.
MAX_DECISION_D = 1 << 32

#: Largest `simulate --trials`.  The line engine's time grows linearly in it:
#: at lambda = rho = 1, k <= 6, 10^6 / 4 10^6 / 10^7 trials take 0.48 / 1.27 /
#: 2.3 s at 34 MB, so 10^12 would take days.  Trials at lambda = 5, rho = 0,
#: k <= 800 take 176 us each: about half an hour at the cap.
MAX_TRIALS = 10**7

#: Largest `simulate --d`.  The tree engine spends one Python iteration per
#: child slot: at rho = 0, depth 2 and one trial, d = 1024 takes 1.1 s and
#: 138 MB, and d = 100000 ran 17.7 s before the vertex budget stopped it.
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
    if (args.lam is None) == (args.lambda_grid is None):
        raise UsageError("rho-c: give exactly one of --lambda or --lambda-grid")
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
    _emit(RunManifest("rho-c", params), args.format, header, rows)
    return 0


def _cmd_catalan(args) -> int:
    p = ModelParams(args.d, args.lam, args.rho)
    mode = args.mode
    if mode != MODE_EXACT and args.m is None:
        raise UsageError(f"--mode {mode} needs --m")
    if mode == MODE_EXACT and args.m is not None:
        raise UsageError("--m: exact mode takes no cutoff height")
    if args.z is not None and args.z < 0:
        raise UsageError(f"--z: must be nonnegative, got {args.z}")
    if args.k is not None and args.k_max is not None:
        raise UsageError("catalan: give --k or --k-max, not both")
    params = {**_model_params(p), "mode": mode}
    if args.m is not None:
        params["m"] = args.m
    single = "json" if args.format == "json" else "text"  # one value is never a CSV table
    if args.z is not None:
        # partial sum of the generating function up to k_max
        k_hi = args.k_max if args.k_max is not None else args.k
        if k_hi is None:
            raise UsageError("--z needs --k or --k-max for the truncation order")
        params.update({"z": args.z, "K": k_hi})
        value = partial_series(p, args.z, k_hi, mode, args.m)
        _emit(RunManifest("catalan", params), single, scalars={"partial_series": value}, text=value)
    elif args.k_max is not None:
        params["k_max"] = args.k_max
        seq = weighted_catalan_sequence(p, args.k_max, mode, args.m)
        _emit(RunManifest("catalan", params), args.format, ["k", "value"], list(enumerate(seq)))
    elif args.k is None:
        raise UsageError("catalan: give --k or --k-max")
    else:
        params["k"] = args.k
        value = weighted_catalan(p, args.k, mode, args.m).value
        _emit(RunManifest("catalan", params), single, scalars={"k": args.k, "value": value}, text=value)
    return 0


def _float(value: Fraction) -> float:
    """A nonnegative value as a float, inf past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _cmd_simulate(args) -> int:
    lam = parse_rational(args.lam, "--lambda", allow_decimal=args.allow_decimal)
    rho = parse_rational(args.rho, "--rho", allow_decimal=args.allow_decimal)
    for flag, rate in (("--lambda", lam), ("--rho", rho)):
        _check_rate(flag, rate)
        # the engines draw their delays -log(1 - u) / rate in floats, and -log(1 - u) <= 53 ln 2
        if _float(rate) == math.inf:
            raise UsageError(f"{flag}: past the float range")
        if rate and _float(rate) * sys.float_info.max < 53 * math.log(2):
            raise UsageError(f"{flag}: so close to 0 that a delay would overflow the float range")
    p = ModelParams(args.d, lam, rho)
    size = {"k_max": args.k_max} if args.engine == "line" else {"depth": args.depth}
    manifest = RunManifest(
        f"simulate {args.engine}", {**_model_params(p), **size, "trials": args.trials}, seed=args.seed
    )
    if args.engine == "line":
        summary = simulate_line(p, args.trials, args.k_max, args.seed)
        rows = compare_renewals(summary)
        _emit(
            manifest,
            args.format,
            ["k", "count", "frequency", "stderr", "exact", "z"],
            [(r.k, summary.renewal_counts[r.k], r.observed, r.stderr, r.expected, r.z) for r in rows],
            {"max_abs_z": max_abs_z(rows), "absorption": dict(summary.absorption_counts)},
        )
        return 0

    summary = simulate_tree(p, args.depth, args.trials, args.seed)
    exact = weighted_catalan_sequence(p, args.depth)
    _emit(
        manifest,
        args.format,
        ["level", "mean", "stderr", "exact"],
        [
            (k, summary.level_renewal_mean(k), summary.level_renewal_stderr(k), _float(args.d**k * exact[k]))
            for k in range(args.depth + 1)
        ],
        {
            "blue_reach_cap_frequency": summary.blue_reach_cap_frequency(),
            "red_reach_cap_frequency": summary.red_reach_cap_frequency(),
        },
    )
    return 0


def _cmd_phase(args) -> int:
    p = ModelParams(args.d, args.lam, args.rho)
    manifest = RunManifest("phase", {**_model_params(p), "max_m": args.max_m})
    label = classify_phase(p, args.max_m).value
    _emit(manifest, "json" if args.json else "text", scalars={"phase": label}, text=label)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ced` argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="ced", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # decide and phase take the same parameter triple, depth cap and --json
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--d", type=_int_arg(2, MAX_DECISION_D), required=True, help=f"at most {MAX_DECISION_D}")
    point.add_argument("--lambda", dest="lam", type=_rational_arg("--lambda"), required=True)
    point.add_argument("--rho", type=_rational_arg("--rho"), required=True)
    point.add_argument("--max-m", dest="max_m", type=_int_arg(1, DEFAULT_M_MAX), default=DEFAULT_M_MAX)
    point.add_argument("--json", action="store_true")

    pd = sub.add_parser("decide", parents=[point], help="decide rho below/above the critical death rate")
    pd.set_defaults(func=_cmd_decide)

    pr = sub.add_parser("rho-c", help="bracket the critical death rate by bisection")
    pr.add_argument("--d", type=_int_arg(2, MAX_DECISION_D), required=True, help=f"at most {MAX_DECISION_D}")
    pr.add_argument("--lambda", dest="lam", type=_rational_arg("--lambda"))
    pr.add_argument("--lambda-grid", dest="lambda_grid", help="LO:HI:N evenly spaced")
    pr.add_argument("--tol", type=_rational_arg("--tol", MIN_TOL_BITS), required=True,
                    help=f"at least 2^-{MIN_TOL_BITS}")
    pr.add_argument("--max-m", dest="max_m", type=_int_arg(1, DEFAULT_M_MAX), default=DEFAULT_M_MAX)
    pr.add_argument("--certs", action="store_true", help="embed endpoint certificates")
    pr.add_argument("--format", choices=("csv", "json"), default="csv")
    pr.add_argument("--threads", type=_int_arg(1), default=1)
    pr.set_defaults(func=_cmd_rho_c)

    pc = sub.add_parser("catalan", help="exact weighted Catalan numbers and partial series")
    pc.add_argument("--d", type=_int_arg(2), default=2)
    pc.add_argument("--lambda", dest="lam", type=_rational_arg("--lambda"), required=True)
    pc.add_argument("--rho", type=_rational_arg("--rho"), required=True)
    pc.add_argument("--k", type=_int_arg(0, MAX_LINE_K), help=f"at most {MAX_LINE_K}")
    pc.add_argument("--k-max", dest="k_max", type=_int_arg(0, MAX_LINE_K), help=f"at most {MAX_LINE_K}")
    pc.add_argument("--z", type=_rational_arg("--z"), help="evaluate the partial series at z")
    pc.add_argument("--mode", choices=(MODE_EXACT, MODE_CAPPED, MODE_FLATTENED), default=MODE_EXACT)
    pc.add_argument("--m", type=_int_arg(1), help="cutoff height for capped/flattened modes")
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.set_defaults(func=_cmd_catalan)

    ps = sub.add_parser("simulate", help="Monte Carlo engines")
    ps.add_argument("engine", choices=("line", "tree"))
    ps.add_argument("--d", type=_int_arg(2, MAX_SIMULATE_D), default=2,
                    help=f"branching factor (at most {MAX_SIMULATE_D})")
    ps.add_argument("--lambda", dest="lam", required=True)
    ps.add_argument("--rho", required=True)
    ps.add_argument("--trials", type=_int_arg(1, MAX_TRIALS), required=True, help=f"at most {MAX_TRIALS}")
    ps.add_argument("--seed", type=_int_arg(0, 2**64 - 1), required=True, help="required: no silent nondeterminism")
    ps.add_argument("--k-max", dest="k_max", type=_int_arg(1, MAX_LINE_K), default=8,
                    help=f"line: stop at this blue position (at most {MAX_LINE_K})")
    ps.add_argument("--depth", type=_int_arg(1), default=6, help="tree: depth cap")
    ps.add_argument("--allow-decimal", action="store_true",
                    help="accept decimal rates (exact: 0.1 means 1/10); simulation only")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.set_defaults(func=_cmd_simulate)

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
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"ced: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    try:
        code = args.func(args)
    except UsageError as exc:
        print(f"ced: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ValueError) as exc:
        print(f"ced: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("ced: error: out of memory (is a size such as --k-max or --depth too large?)", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"ced {args.subcommand}: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
