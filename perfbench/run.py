"""Benchmark of the ced command line: certified brackets, exact Catalan tables, Monte Carlo.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Runs one seeded workload (or `all` of them) in fresh worker processes and
prints a readable report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones from a traced
run.  See perfbench/README.md for the workloads, the metrics and the known
CLI defect that the catalan workload records.

Exit status is 0 when the run completed, whatever the operations did, and 1
when the benchmark could not run at all (for instance when `src/ced` is
missing); no JSON line is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Seconds worker.reference_seconds() takes on the 2-core Xeon the benchmark was
#: calibrated on (median of 200).  Every time metric is scaled by this over the
#: reference time measured around it; see README.md, "Machine speed".
REFERENCE_SECONDS = 0.018
#: Extra interpreter starts timed per run, on top of the measuring worker's own.
SETUP_SAMPLES = 4
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT = 160
#: Variables that would change what the workers compute or how fast.
UNSET_ENV = ("CEL_THREADS", "CED_THREADS", "PYTHONINTMAXSTRDIGITS")
OUT_DIR = HERE / "out"


class BenchError(RuntimeError):
    pass


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it, and that percentile.

    Nearest rank: the eleventh-largest sample, which is the p-th percentile for
    p = 100 (n - 10) / n.  Needs at least eleven samples.
    """
    n = len(values)
    if n < 11:
        raise ValueError("the tail needs at least eleven samples")
    return sorted(values)[n - 11], 100 * (n - 10) / n


def corrected(seconds: float, ref: float) -> float:
    """Seconds at the calibrated machine speed: measured time scaled by REFERENCE_SECONDS / ref."""
    return seconds * REFERENCE_SECONDS / ref


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "load1": os.getloadavg()[0]}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONUNBUFFERED"] = "1"
    return env


def start_worker(args: list[str]) -> tuple[float, dict]:
    """Run worker.py to completion; return its start stamp and its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(), timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    blocks = workloads.block_count(name, seconds)
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if trace:
        # Each traced block runs twice, untraced then traced, so half as many blocks.
        blocks = math.ceil(blocks / 2)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}-{seed}.jsonl"
        _, res = start_worker(base + ["--blocks", str(blocks), "--trace", "1", "--spans", str(spans)])
    else:
        for _ in range(SETUP_SAMPLES):
            start, ready = start_worker(base + ["--blocks", str(blocks), "--setup-only"])
            setups.append(corrected(ready["ready"] - start, ready["ref"]))
        start, res = start_worker(base + ["--blocks", str(blocks)])
        setups.append(corrected(res["ready"] - start, res["ref"]))
    records = res["records"]
    times = [corrected(r["seconds"], r["ref"]) for r in records]
    failed = [r for r in records if r["error"] is not None or "wrong" in r]
    out = {
        "workload": name,
        "seed": seed,
        "blocks": blocks,
        "ops": len(records),
        "failed": len(failed),
        "correct": not any("wrong" in r for r in records),
        "failures": sorted({(r.get("wrong") or r["error"])[:160] for r in failed}),
        "digest": hashlib.sha256("".join(r["digest"] for r in records).encode()).hexdigest(),
        "setups": setups,
        "raw_wall_s": sum(r["seconds"] for r in records),
        "speed": REFERENCE_SECONDS / statistics.median(r["ref"] for r in records),
        "python": res["python"],
        "numpy": res["numpy"],
    }
    if trace:
        traced = sum(corrected(r["traced"]["seconds"], r["traced"]["ref"]) for r in records)
        res["per_layer"]["trace.overhead"] = traced / sum(times)
        out["metrics"] = {k: (res["per_layer"][k], u) for k, u in tracing.PER_LAYER.items()}
        out["spans"] = str(spans.relative_to(HERE.parent))
    else:
        tail_s, out["tail_pct"] = tail(times)
        out["metrics"] = {
            "wall_s": (sum(times), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_kib"] / 1024, "MB"),
            "ok_frac": (1 - len(failed) / len(records), "fraction"),
        }
    return out


def report(r: dict, host: dict) -> None:
    print(f"== {r['workload']}  seed={r['seed']}  blocks={r['blocks']}  operations={r['ops']}")
    print(f"   machine: nproc={host['nproc']} cpu={host['cpu']!r} python={r['python']} "
          f"numpy={r['numpy']} load1={host['load1']:.2f} speed={r['speed']:.3f} of calibration")
    notes = {
        "wall_s": f"sum of operation times, checks excluded; {r['raw_wall_s']:.4g} s uncorrected",
        "op_tail_s": f"p{r.get('tail_pct', 0):.1f} of {r['ops']} operations, 10 beyond",
        "setup_s": f"median of {len(r['setups'])} worker starts",
        "ok_frac": f"fail_frac = {r['failed'] / r['ops']:.4f} ({r['failed']} of {r['ops']} failed)",
    }
    for key, (value, unit) in r["metrics"].items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"   {key:<50} {value:>16.6g} {unit}{note}")
    print(f"   output digest sha256:{r['digest']}")
    for reason in r["failures"]:
        print(f"   failure: {reason}")
    if "spans" in r:
        print(f"   spans written to {r['spans']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    host = machine()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for r in results:
        report(r, host)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": u}
        for r in results for k, (v, u) in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
