"""Compare two revisions on perfbench, and on slow CLI rows, in alternating pairs of runs.

    python3 tests/bench_pairs.py BASE HEAD [--workload all] [--cli PREFIX ...] [--seed 1] [--record]

BASE and HEAD are git revisions of this repository.  Each is exported with
`git archive` into a temporary directory, and `perfbench/run.py --workload W
--seed S` runs from each checkout in turn, at run.py's own run length, for
SETS sets of PAIRS pairs: pair i runs BASE first when i is even and HEAD first
when it is odd, so neither side always meets the other's warm caches or the
machine's drift in the same order.  --workload all, the default, runs each
workload as its own pair.

For every workload and end-to-end metric of BENCHMARK.json it prints, per set
and over all pairs, the median and quartiles on each side, the change of the
medians, and the pairs won.  The verdict applies one rule over all pairs: HEAD
is better when it wins at least nine pairs in ten, its median beats BASE's by
more than BASE's interquartile range, and its runs failed no more operations
than BASE's; it is worse when its median is worse than BASE's by more than the
metric's bound; it is unresolved when BASE's interquartile range, relative to
its median, is wider than that bound and the two sides' runs overlap, since
then a change as large as the bound could hide in the spread.  Pairs whose
output digests differ are reported, one line for each distinct (base, head)
pair of digests, since the two revisions then did not do the same work.  Last
it prints the lines of
`src/ced/*.py` in each checkout, as `wc -l` counts them.

--cli PREFIX ... times every `SLOW` row of tests/cli_goldens.py whose argv
starts with the words of a PREFIX, such as "rho-c --d 1000": each run is a
fresh `python3 -m ced.cli` process from each checkout, in the same sets of
alternating pairs.  Its wall time gets the verdict rule with the bound of
`wall_s`, and a run whose exit code or stdout digest is not the row's counts
as a failed operation and is listed.  With --cli, perfbench runs only for a
--workload given as well.

--record writes BENCH_<date>_<rev>.json at the repository root for each side:
the machine line of run.py's report, the per-workload medians and quartiles
over the runs, the output digests, the revision, the tree hash of its `src/`,
which survives a rebase that leaves `src/` alone, and its `src/` lines.  With
--cli it adds a `cli` section: per row, the runs, their exit codes and
digests, and the wall-time quartiles.

pytest does not collect this file; tests/test_bench_pairs.py runs the
summarizer and the row selection on canned output and timings.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from cli_goldens import SLOW, shown
from replay_interpreters import run

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
WALL = next(m for m in SPEC["end_to_end"] if m["name"] == "wall_s")
#: HEAD wins a claim only in at least this share of the pairs.
WIN_SHARE = 0.9
#: Sets of pairs per workload, and pairs per set.
SETS, PAIRS = 2, 6


def parse_run(stdout: str) -> dict:
    """The machine line, output digest and end-to-end metrics of one single-workload run.py report."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next((line.split(":", 1)[1].strip() for line in lines if line.strip().startswith("machine:")), "")
    digest = next((line.split("sha256:", 1)[1].strip() for line in lines if "output digest sha256:" in line), "")
    return {
        "machine": machine,
        "digest": digest,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (the inclusive method, so one value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: list[float], head: list[float], better: str, bound: float, failed: tuple[int, int] = (0, 0)) -> dict:
    """Medians, quartiles, change and pairs won for one metric over paired runs base[i], head[i].

    `failed` is the operations failed over all of BASE's runs and over all of HEAD's.
    """
    sign = 1 if better == "lower" else -1
    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    won = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    change = (h2 - b2) / b2 if b2 else 0.0
    apart = all(sign * (b - h) > 0 for b in base for h in head)  # every HEAD run beats every BASE run
    return {
        "base": (b1, b2, b3),
        "head": (h1, h2, h3),
        "change": change,
        "won": won,
        "pairs": len(base),
        "better": won >= WIN_SHARE * len(base) and sign * (b2 - h2) > b3 - b1 and failed[1] <= failed[0],
        "worse": sign * change > bound,
        "unresolved": (b3 - b1) > bound * abs(b2) and not apart,
    }


def summarize(pairs: list[tuple[dict, dict]], spec: list[dict]) -> dict:
    """compare() for every metric of `spec` (BENCHMARK.json's end_to_end list) over (base, head) runs."""
    failed = (sum(b["failed"] for b, _ in pairs), sum(h["failed"] for _, h in pairs))
    return {
        m["name"]: compare([b["metrics"][m["name"]] for b, _ in pairs],
                           [h["metrics"][m["name"]] for _, h in pairs], m["better"], m["bound"], failed)
        for m in spec
    }


def verdict(c: dict) -> str:
    if c["better"]:
        return "better"
    if c["worse"]:
        return "WORSE beyond bound"
    return "unresolved: base spread wider than bound" if c["unresolved"] else "no claim"


def report(title: str, summary: dict) -> list[str]:
    """Readable lines for one summarize() result."""
    out = [title]
    for name, c in summary.items():
        b1, b2, b3 = c["base"]
        h1, h2, h3 = c["head"]
        out.append(f"  {name:<12} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  head {h2:.6g} [{h1:.6g}, {h3:.6g}]"
                   f"  {100 * c['change']:+.1f} %  won {c['won']}/{c['pairs']}  {verdict(c)}")
    return out


def spans(ids: list[int]) -> str:
    """"pair i", or "pairs" and the runs of consecutive ascending indices, as in "pairs 0-3, 7"."""
    runs: list[list[int]] = []
    for i in ids:
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return ("pair " if len(ids) == 1 else "pairs ") + ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def digests(pairs: list[tuple[dict, dict]]) -> list[str]:
    """A line for each distinct (base, head) pair of differing output digests, naming its pairs, and for each wrong run."""
    differ: dict[tuple[str, str], list[int]] = {}
    for i, (b, h) in enumerate(pairs):
        if b["digest"] != h["digest"]:
            differ.setdefault((b["digest"], h["digest"]), []).append(i)
    out = [f"  {spans(ids)}: output digests differ, base {b[:16]} head {h[:16]}" for (b, h), ids in differ.items()]
    for i, pair in enumerate(pairs):
        for side, r in zip(("base", "head"), pair):
            if not r["correct"] or r["failed"]:
                out.append(f"  pair {i}: {side} checked correct={r['correct']} with {r['failed']} failed")
    return out


def select(rows: list[tuple], prefixes: list[str]) -> list[tuple]:
    """The rows whose argv starts with the words of one of the prefixes."""
    return [row for row in rows if any(row[0].split()[: len(p.split())] == p.split() for p in prefixes)]


def matches(row: tuple, run: dict) -> bool:
    return (run["code"], run["digest"]) == (row[1], row[2])


def summarize_cli(row: tuple, pairs: list[tuple[dict, dict]]) -> dict:
    """compare() of wall time over (base, head) runs of one SLOW row; a run that does not match the row failed."""
    failed = tuple(sum(not matches(row, r) for r in side) for side in zip(*pairs))
    wall = ([r["wall_s"] for r in side] for side in zip(*pairs))
    return {"wall_s": compare(*wall, WALL["better"], WALL["bound"], failed)}


def mismatches(row: tuple, pairs: list[tuple[dict, dict]]) -> list[str]:
    """Lines for every run whose exit code or stdout digest is not the row's."""
    return [
        f"  pair {i}: {side} exit {r['code']}, stdout {r['digest'][:16]}; recorded exit {row[1]}, {row[2][:16]}"
        for i, pair in enumerate(pairs) for side, r in zip(("base", "head"), pair) if not matches(row, r)
    ]


def host() -> str:
    """The machine line of a point with no perfbench run."""
    return f"nproc={os.cpu_count()} cpu={platform.processor() or platform.machine()!r} python={platform.python_version()}"


def record(runs: list[dict], rev: str, src_tree: str, src_lines: int, seed: int, other: str,
           cli: dict[str, list[dict]] | None = None) -> dict:
    """The BENCH point of one side: medians and quartiles per workload and metric, and per `cli` row, over its runs."""
    point = {
        "revision": rev,
        "src_tree": src_tree,
        "src_lines": src_lines,
        "compared_with": other,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": f"python3 perfbench/run.py --workload W --seed {seed}",
        "machine": runs[0]["machine"] if runs else host(),
        "workloads": {},
    }
    if cli:
        point["cli"] = {"command": "python3 -m ced.cli ARGV", "rows": {
            argv: {
                "runs": len(mine),
                "codes": sorted({r["code"] for r in mine}, key=str),
                "digests": sorted({r["digest"] for r in mine}),
                "wall_s": dict(zip(("q1", "median", "q3"), quartiles([r["wall_s"] for r in mine]))),
            }
            for argv, mine in cli.items()
        }}
    for name in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == name]
        point["workloads"][name] = {
            "runs": len(mine),
            "digests": sorted({r["digest"] for r in mine}),
            "metrics": {
                metric: dict(zip(("q1", "median", "q3"), quartiles([r["metrics"][metric] for r in mine])))
                for metric in mine[0]["metrics"]
            },
        }
    return point


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def src_lines(checkout: Path) -> int:
    """The lines of src/ced/*.py in a checkout, as `wc -l` counts them: its newlines."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "ced").glob("*.py"))


def bench(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout.name}: {proc.stderr.strip()[-500:]}")
    return {**parse_run(proc.stdout), "workload": workload}


def run_cli(checkout: Path, row: tuple) -> dict:
    """One SLOW row as a fresh `python3 -m ced.cli` process from a checkout: its wall time, exit code and stdout digest.

    A run past the row's time limit is stopped, and its exit code is None (`replay_interpreters.run`).
    """
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    code, out, _ = run([sys.executable, "-m", "ced.cli"], row[0], row[3], checkout, env)
    return {"wall_s": time.perf_counter() - start, "code": code, "digest": "" if code is None else hashlib.sha256(out).hexdigest()}


def alternating(measure):
    """Yield SETS lists of PAIRS (base, head) results of measure(side); pair i runs BASE first when i is even."""
    for s in range(SETS):
        pairs = []
        for i in range(PAIRS):
            order = ("base", "head") if (s * PAIRS + i) % 2 == 0 else ("head", "base")
            got = {side: measure(side) for side in order}
            pairs.append((got["base"], got["head"]))
        yield pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), help="all by default, none with --cli")
    parser.add_argument("--cli", nargs="+", default=[], metavar="PREFIX", help="time the SLOW rows that start with it")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    rows = select(SLOW, args.cli)
    if args.cli and not rows:
        parser.error(f"no SLOW row starts with {' or '.join(map(repr, args.cli))}")
    chosen = args.workload or ("all" if not args.cli else None)
    names = WORKLOADS if chosen == "all" else (chosen,) if chosen else ()
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in (("base", args.base), ("head", args.head))}
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    cli: dict[str, dict[str, list[dict]]] = {"base": {}, "head": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, checkouts[side])
        lines = {side: src_lines(checkout) for side, checkout in checkouts.items()}
        for workload in names:
            everything = []
            for s, pairs in enumerate(alternating(lambda side: bench(checkouts[side], workload, args.seed))):
                print("\n".join(report(f"{workload}, set {s + 1} of {SETS}:", summarize(pairs, SPEC["end_to_end"]))), flush=True)
                everything += pairs
            print("\n".join(report(f"{workload}, all {len(everything)} pairs:", summarize(everything, SPEC["end_to_end"]))))
            print("\n".join(digests(everything) or [f"  every pair agrees on the output digest {everything[0][0]['digest'][:16]}"]))
            runs["base"] += [b for b, _ in everything]
            runs["head"] += [h for _, h in everything]
        for row in rows:
            everything = []
            for s, pairs in enumerate(alternating(lambda side: run_cli(checkouts[side], row))):
                print("\n".join(report(f"ced {shown(row[0])}, set {s + 1} of {SETS}:", summarize_cli(row, pairs))), flush=True)
                everything += pairs
            print("\n".join(report(f"ced {shown(row[0])}, all {len(everything)} pairs:", summarize_cli(row, everything))))
            print("\n".join(mismatches(row, everything) or ["  every run gave the recorded exit code and stdout digest"]))
            for side, mine in zip(("base", "head"), zip(*everything)):
                cli[side][row[0]] = list(mine)
    print(f"machine: {runs['base'][0]['machine'] if runs['base'] else host()}")
    print(f"src lines: base {lines['base']}, head {lines['head']}")
    if args.record:
        day = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
        for side, other in (("base", "head"), ("head", "base")):
            rev = revs[side]
            point = record(runs[side], rev, git("rev-parse", f"{rev}:src"), lines[side], args.seed, revs[other], cli[side])
            path = ROOT / f"BENCH_{day}_{rev[:7]}.json"
            path.write_text(json.dumps(point, indent=2) + "\n")
            print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
