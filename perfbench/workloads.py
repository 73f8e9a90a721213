"""Operation lists for the benchmark's workloads, and the checks on their outputs.

An operation is one argv for the `ced` command line.  A run is a list of
blocks of operations.  Each run is stratified: the properties that set an
operation's cost (d and the tolerance, K and the denominators) take every
value of a fixed grid once per run, and the seed decides which block and slot
gets which value, the numerators, z, the simulation seeds and the order.  So
one seed always gives the same operations, and every seed gives about the
same amount of work.  Generation uses only this file's own arithmetic, never
the program, so the program sees nothing but argv.

The checks run outside the timed region.  They return None for a correct
output and a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import random
import statistics
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

WORKLOADS = ("certify", "catalan", "montecarlo")

#: Work per block at the parent commit on a 2-core Xeon, used only to turn
#: --seconds into a fixed number of blocks.  The block count never depends on
#: a measurement, so a faster program runs the same operations in less time.
NOMINAL_BLOCK_SECONDS = {"certify": 3.3, "catalan": 5.2, "montecarlo": 2.1}

#: The tail percentile needs at least eleven operations.  Twenty-four put the
#: median and the tail of catalan, half of whose operations are cheap tables,
#: among the partial series.
MIN_OPERATIONS = 24

#: Probability with which a correct Monte Carlo engine may fail one run's checks.
MC_FALSE_ALARM = 1e-4

#: Modulus of the harness's own Catalan DP, used to check every exact value.
PRIME = (1 << 61) - 1

CERTIFY_D = (2, 3, 4, 8, 64)
#: Tolerances run from 2^-40 to 2^-100.
CERTIFY_TOL_BITS = (40, 100)
#: Bracket used to check that a bracket overlaps one at a looser tolerance.
LOOSE_TOL = Fraction(1, 1 << 20)

#: K ranges of the two catalan classes, and the rho denominators of the tables.
#: Half the operations are tables, so the median operation sits between the
#: costliest table and the cheapest series; the ranges keep a clear gap there
#: (about 0.9 s against 1.5 s at the parent) so the median does not jump
#: between classes.  A partial series at rho = p/2^30 crosses 4300 digits
#: between K = 95 and K = 105 depending on lambda, rho and z (cancellation makes
#: it erratic); from K = 110 on it is past 4600, so whether it trips the CLI's
#: int-to-str limit does not depend on the seed.
TABLE_K = (120, 180)
TABLE_RHO_DEN = (3, 5, 7, 9)
SERIES_K = (110, 125)

LINE_TRIALS = 20_000
LINE_K_MAX = 6
TREE_DEPTH = 8
#: (lambda, rho, trials) for the subcritical and the supercritical tree point;
#: a supercritical trial costs about eight subcritical ones.
TREE_POINTS = (("1", "1", 4000), ("2", "1/2", 1000))
#: Tree levels enter the z-test only with this many expected renewal vertices,
#: so the normal approximation holds far into the tail.
TREE_MIN_EXPECTED = 100


class Op(NamedTuple):
    kind: str              # bracket | table | series | line | tree
    argv: tuple[str, ...]


def ops_per_block(workload: str) -> int:
    return len(operations(workload, 0, 1)[0])


def block_count(workload: str, seconds: float) -> int:
    """Blocks in one run: about `seconds` of work at the parent, at least MIN_OPERATIONS ops."""
    floor = math.ceil(MIN_OPERATIONS / ops_per_block(workload))
    return max(floor, round(seconds / NOMINAL_BLOCK_SECONDS[workload]))


def operations(workload: str, seed: int, n_blocks: int) -> list[list[Op]]:
    """The run's blocks of operations; a function of its arguments alone."""
    run_rng = random.Random(f"{workload}/{seed}")
    builders = {"certify": _certify_block, "catalan": _catalan_block, "montecarlo": _montecarlo_block}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    # offsets[slot]: where on its grid each slot (at most ten per block)
    # starts; it advances one step per block.
    offsets = [run_rng.randrange(n_blocks) for _ in range(10)]
    return [builders[workload](random.Random(f"{workload}/{seed}/{b}"),
                               [(o + b) % n_blocks for o in offsets], n_blocks)
            for b in range(n_blocks)]


def _grid(lo: int, hi: int, n: int, j: int) -> int:
    """Point j of n evenly spaced integers from lo to hi."""
    return lo if n == 1 else round(lo + (hi - lo) * j / (n - 1))


# ---------------------------------------------------------------------------
# generation


def window_edges(d: int) -> tuple[float, float]:
    """The coexistence window 2d - 1 -/+ 2 sqrt(d^2 - d), in floats."""
    r = math.sqrt(d * d - d)
    return 2 * d - 1 - 2 * r, 2 * d - 1 + 2 * r


def inside_window(d: int, lam: Fraction) -> bool:
    """Exact: lam lies strictly between the roots of x^2 - (4d-2)x + 1."""
    return lam * lam - (4 * d - 2) * lam + 1 < 0


def _interior_lambda(rng: random.Random, d: int) -> Fraction:
    # Quarters between 0.15 and 0.3 of the upper edge: the bisection settles
    # at depth m <= 32 and a bracket takes 0.05-0.5 s.
    _, hi = window_edges(d)
    return Fraction(rng.randint(math.ceil(0.6 * hi), math.floor(1.2 * hi)), 4)


def _edge_lambda(rng: random.Random, d: int) -> Fraction:
    # 1.3-1.55 times the lower edge: rho_c is 0.02-0.04, the zero-rho lower
    # certificate starts the bisection, and the witness needs depth 64.
    edge, _ = window_edges(d)
    while True:
        p = rng.randint(1, 3)
        q = rng.randint(math.ceil(p / (1.55 * edge)), math.floor(p / (1.3 * edge)))
        lam = Fraction(p, q)
        if inside_window(d, lam):
            return lam


def _certify_block(rng: random.Random, pos: list[int], n: int) -> list[Op]:
    # Ten brackets: each d once with an interior lambda and once near the edge.
    # Each of those ten slots walks the tolerance grid, one step per block.
    ops = []
    for c, pick in enumerate((_interior_lambda, _edge_lambda)):
        for i, d in enumerate(CERTIFY_D):
            bits = _grid(*CERTIFY_TOL_BITS, n, pos[5 * c + i])
            argv = ("rho-c", "--d", str(d), "--lambda", str(pick(rng, d)),
                    "--tol", f"1/{1 << bits}", "--certs", "--format", "json")
            ops.append(Op("bracket", argv))
    rng.shuffle(ops)
    return ops


def _catalan_block(rng: random.Random, pos: list[int], n: int) -> list[Op]:
    # A table and a partial series, twice.  Table slot s walks half s of a
    # K grid of 2n points, series slot s likewise.  A table's cost swings by
    # 2x with its numerators (cancellation in the exact DP), so tables use
    # lambda = 3/2 and rho = 1 - 1/q with q tied to the K: the seed places
    # them, and varies the series.  One table per run is at rho = 0, where the
    # values have a closed form.
    ops = []
    for s in range(2):
        j = pos[s]
        q = TABLE_RHO_DEN[j % len(TABLE_RHO_DEN)]
        rho = Fraction(0) if s == 1 and j == n // 2 else 1 - Fraction(1, q)
        ops.append(Op("table", ("catalan", "--lambda", "3/2", "--rho", str(rho),
                                "--k-max", str(_grid(*TABLE_K, 2 * n, s * n + j)), "--format", "csv")))
        rho = Fraction(2 * rng.randrange(1 << 26, 1 << 29) + 1, 1 << 30)
        ops.append(Op("series", ("catalan", "--lambda", f"{rng.randrange(1, 8, 2)}/2",
                                 "--rho", str(rho), "--z", str(rng.choice((2, 3, 4))),
                                 "--k-max", str(_grid(*SERIES_K, 2 * n, s * n + pos[2 + s])),
                                 "--format", "json")))
    return ops


def _montecarlo_block(rng: random.Random, pos: list[int], n: int) -> list[Op]:
    ops = []
    for lam, rho, trials in TREE_POINTS:
        ops.append(Op("line", ("simulate", "line", "--lambda", "1", "--rho", "1",
                               "--k-max", str(LINE_K_MAX), "--trials", str(LINE_TRIALS),
                               "--seed", str(rng.randrange(1 << 31)))))
        ops.append(Op("tree", ("simulate", "tree", "--lambda", lam, "--rho", rho,
                               "--depth", str(TREE_DEPTH), "--trials", str(trials),
                               "--seed", str(rng.randrange(1 << 31)))))
    return ops


def flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's int<->str digit limit for parsing, then restore it.

    Only the checks run under this; operations run under whatever limit the
    program leaves in place, so the CLI's own handling of long integers is
    what gets measured.
    """
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def catalan_mod(lam: Fraction, rho: Fraction, k_max: int, z: int = 0) -> tuple[list[int], int]:
    """C_0..C_{k_max} and sum C_k z^k, modulo PRIME, by this file's own DP.

    With lam = a/b and rho = c/e the rise and fall weights are
    u(j) = ae / (be + ae + (j+1) bc) and v(j) = be / (be + ae + (j+2) bc).
    """
    a, b, c, e = lam.numerator, lam.denominator, rho.numerator, rho.denominator
    base = b * e + a * e
    u = [a * e * pow(base + (j + 1) * b * c, -1, PRIME) % PRIME for j in range(k_max + 1)]
    v = [b * e * pow(base + (j + 2) * b * c, -1, PRIME) % PRIME for j in range(k_max + 1)]
    state = [1]
    values = [1]
    for t in range(1, 2 * k_max + 1):
        new = [0] * (min(t, 2 * k_max - t) + 1)
        for h, w in enumerate(state):
            if w:
                if h + 1 < len(new):
                    new[h + 1] = (new[h + 1] + w * u[h]) % PRIME
                if 0 < h <= len(new):
                    new[h - 1] = (new[h - 1] + w * v[h - 1]) % PRIME
        state = new
        if t % 2 == 0:
            values.append(state[0])
    total = 0
    for k in reversed(range(k_max + 1)):
        total = (total * z + values[k]) % PRIME
    return values, total


def same_mod(x: Fraction, residue: int) -> bool:
    return (x.numerator - residue * x.denominator) % PRIME == 0


def binomial_p_value(x: int, n: int, p: float) -> float:
    """Exact two-sided p-value, 2 min(P[X <= x], P[X >= x]) for X ~ Bin(n, p)."""
    log_pmf = (math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
               + x * math.log(p) + (n - x) * math.log1p(-p))
    odds = p / (1 - p)
    start = math.exp(log_pmf)
    lower, term, i = 0.0, start, x
    while i >= 0 and term > 0.0:
        lower += term
        if term < lower * 1e-17 and i < n * p:
            break
        term *= i / ((n - i + 1) * odds)
        i -= 1
    upper, term, i = 0.0, start, x
    while i <= n and term > 0.0:
        upper += term
        if term < upper * 1e-17 and i > n * p:
            break
        term *= (n - i) / (i + 1) * odds
        i += 1
    return min(1.0, 2 * min(lower, upper))


def _rows(stdout: str) -> list[list[str]]:
    return list(csv.reader(line for line in stdout.splitlines() if not line.startswith("#")))


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Checks every operation's output; caches exact values shared by many ops."""

    def __init__(self, all_ops: list[Op]):
        self._exact: dict[tuple, list[Fraction]] = {}
        tests = sum(len(self._tree_levels(op)) for op in all_ops if op.kind == "tree")
        line_tests = sum(LINE_K_MAX for op in all_ops if op.kind == "line")
        # Bonferroni over the run.  Line counts are exactly binomial and get an
        # exact test; tree means get a z-test with a further factor ten of margin
        # for the normal approximation's tails.
        self.line_alpha = MC_FALSE_ALARM / 2 / max(1, line_tests)
        self.tree_z = statistics.NormalDist().inv_cdf(1 - MC_FALSE_ALARM / 20 / max(1, tests))

    def check(self, op: Op, stdout: str) -> Optional[str]:
        try:
            with unlimited_int_digits():
                return getattr(self, f"_check_{op.kind}")(op.argv, stdout)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return f"unreadable output: {exc!r}"

    def exact_catalan(self, lam: Fraction, rho: Fraction, k_max: int) -> list[Fraction]:
        """C_0..C_{k_max} from the brute-force path enumeration, which shares no DP code."""
        from ced.catalan import weighted_catalan_bruteforce
        from ced.params import ModelParams

        key = (lam, rho, k_max)
        if key not in self._exact:
            p = ModelParams(2, lam, rho)
            self._exact[key] = [weighted_catalan_bruteforce(p, k).value for k in range(k_max + 1)]
        return self._exact[key]

    def _check_bracket(self, argv, stdout):
        from ced.decision import (DecisionOutcome, KernelAbove, KernelBelow, Verdict,
                                  ZeroRhoBelow, critical_rho, verify_certificate)
        from ced.params import ModelParams

        d, lam, tol = int(flag(argv, "--d")), Fraction(flag(argv, "--lambda")), Fraction(flag(argv, "--tol"))
        rows = json.loads(stdout)["rows"]
        if len(rows) != 1 or rows[0]["status"] != "bracket":
            return f"expected one bracket row, got {rows!r}"[:200]
        row = rows[0]
        lo, hi = Fraction(row["lo"]), Fraction(row["hi"])
        if not 0 <= lo < hi or hi - lo > tol:
            return f"bad bracket [{lo}, {hi}] for tol {tol}"
        lo_cert, hi_cert = row["lo_certificate"], row["hi_certificate"]
        if lo_cert["type"] == "kernel-below":
            below = KernelBelow(lo_cert["m"], lo_cert["level"])
        elif lo_cert["type"] == "zero-rho" and lo == 0:
            below = ZeroRhoBelow()
        else:
            return f"lower certificate {lo_cert} does not certify below"
        if hi_cert["type"] != "kernel-above":
            return f"upper certificate {hi_cert} does not certify above"
        above = KernelAbove(hi_cert["m"])
        if not verify_certificate(ModelParams(d, lam, lo), DecisionOutcome(Verdict.BELOW, below, 0)):
            return f"lower certificate {lo_cert} fails verification"
        if not verify_certificate(ModelParams(d, lam, hi), DecisionOutcome(Verdict.ABOVE, above, 0)):
            return f"upper certificate {hi_cert} fails verification"
        loose = critical_rho(d, lam, LOOSE_TOL)
        if loose.lo > hi or lo > loose.hi:
            return f"[{lo}, {hi}] misses the bracket [{loose.lo}, {loose.hi}] at tol {LOOSE_TOL}"
        return None

    def _check_table(self, argv, stdout):
        lam, rho, k_max = Fraction(flag(argv, "--lambda")), Fraction(flag(argv, "--rho")), int(flag(argv, "--k-max"))
        rows = _rows(stdout)
        if rows[0] != ["k", "value"] or [r[0] for r in rows[1:]] != [str(k) for k in range(k_max + 1)]:
            return "table rows are not k = 0..k_max"
        values = [Fraction(r[1]) for r in rows[1:]]
        exact = self.exact_catalan(lam, rho, 10)
        for k in range(11):
            if values[k] != exact[k]:
                return f"C_{k} = {values[k]} differs from brute force"
        if rho == 0:
            for k, c in enumerate(values):
                if c != math.comb(2 * k, k) // (k + 1) * lam**k / (1 + lam) ** (2 * k):
                    return f"C_{k} differs from the rho = 0 closed form"
        residues, _ = catalan_mod(lam, rho, k_max)
        for k, (c, r) in enumerate(zip(values, residues)):
            if not same_mod(c, r):
                return f"C_{k} differs from the harness DP modulo 2^61 - 1"
        return None

    def _check_series(self, argv, stdout):
        lam, rho = Fraction(flag(argv, "--lambda")), Fraction(flag(argv, "--rho"))
        z, k_max = int(flag(argv, "--z")), int(flag(argv, "--k-max"))
        value = Fraction(json.loads(stdout)["partial_series"])
        _, residue = catalan_mod(lam, rho, k_max, z)
        if not same_mod(value, residue):
            return "partial series differs from sum C_k z^k of the harness DP modulo 2^61 - 1"
        return None

    def _check_line(self, argv, stdout):
        lam, rho = Fraction(flag(argv, "--lambda")), Fraction(flag(argv, "--rho"))
        n, k_max = int(flag(argv, "--trials")), int(flag(argv, "--k-max"))
        rows = _rows(stdout)
        if rows[0] != ["k", "count", "frequency", "stderr", "exact", "z"] or len(rows) != k_max + 2:
            return "line table has the wrong shape"
        exact = self.exact_catalan(lam, rho, k_max)
        for k, row in enumerate(rows[1:]):
            count, expected = int(row[1]), float(exact[k])
            if int(row[0]) != k or not math.isclose(float(row[4]), expected, rel_tol=1e-12):
                return f"row {k}: exact column {row[4]} is not C_{k} = {expected!r}"
            if k == 0:
                if count != n:
                    return f"{count} renewals at k = 0, expected all {n} trials"
            elif binomial_p_value(count, n, expected) < self.line_alpha:
                return f"{count} renewals at k = {k} are implausible for C_k = {expected:.6g}"
        return None

    def _tree_levels(self, op: Op) -> list[int]:
        lam, rho = Fraction(flag(op.argv, "--lambda")), Fraction(flag(op.argv, "--rho"))
        depth, n = int(flag(op.argv, "--depth")), int(flag(op.argv, "--trials"))
        exact = self.exact_catalan(lam, rho, depth)
        return [k for k in range(1, depth) if n * 2**k * exact[k] >= TREE_MIN_EXPECTED]

    def _check_tree(self, argv, stdout):
        lam, rho, depth = Fraction(flag(argv, "--lambda")), Fraction(flag(argv, "--rho")), int(flag(argv, "--depth"))
        rows = _rows(stdout)
        if rows[0] != ["level", "mean", "stderr", "exact"] or len(rows) != depth + 2:
            return "tree table has the wrong shape"
        exact = self.exact_catalan(lam, rho, depth)
        table = {int(r[0]): (float(r[1]), float(r[2]), float(r[3])) for r in rows[1:]}
        for k in range(depth + 1):
            if not math.isclose(table[k][2], float(2**k * exact[k]), rel_tol=1e-12):
                return f"level {k}: exact column is not d^k C_k"
        if table[0][0] != 1.0:
            return "the root must renew in every trial"
        for k in self._tree_levels(Op("tree", argv)):
            mean, se, expected = table[k]
            if se <= 0.0 or abs(mean - expected) > self.tree_z * se:
                return f"level {k}: mean {mean!r} vs {expected!r} (stderr {se!r}) beyond z = {self.tree_z:.2f}"
        return None
