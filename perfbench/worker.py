"""One benchmark worker: a fresh interpreter that imports ced, runs the ops, checks them.

Run by run.py, never by hand.  It imports `ced` from the `src` directory of the
checkout it sits in, builds the operation list from the seed, and stamps the
moment the first operation is ready (CLOCK_MONOTONIC, shared by all processes
on Linux, so run.py can subtract its own start stamp).  It then sends each
operation through `ced.cli.main(argv)` in-process with stdout and stderr
captured, and times only that call.  Between operations it times a fixed
reference kernel, so run.py can correct each operation for the speed the
machine had around it.  Checks run after each block, outside the timed region
and with tracing off.  The result goes to stdout as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_cli():
    sys.path.insert(0, str(SRC))
    import ced.cli

    if Path(ced.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"ced was imported from {ced.__file__}, not from {SRC}")
    return ced.cli


def reference_seconds() -> float:
    """Time a fixed piece of CPU work of the program's kind: a small exact rational DP.

    Of the kernels tried, this one's speed followed the operations' speed most
    closely while other tenants loaded the host.
    """
    start = time.perf_counter()
    state = [Fraction(1)]
    for _ in range(45):
        new = [Fraction(0)] * (len(state) + 1)
        for h, w in enumerate(state):
            new[h + 1] += w * Fraction(3, 5 + 2 * h)
            if h:
                new[h - 1] += w * Fraction(2, 7 + 3 * h)
        state = new[:31]
    return time.perf_counter() - start


def run_block(cli, ops, tracer=None) -> list[dict]:
    """Run ops in order; each record carries the reference times of its neighbourhood.

    One reference kernel runs before the first operation and after each one.
    Operation i gets the median of the three kernels before it and the three
    after (clipped to the block), which tracks the machine's speed over a
    second or two while a single slow kernel cannot skew it.
    """
    refs = [reference_seconds()]
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
            tracer.install()
        try:
            res = run_op(cli, op.argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        refs.append(reference_seconds())
        results.append(res)
    for i, res in enumerate(results):
        res["ref"] = statistics.median(refs[max(0, i - 2): i + 4])
    return results


def run_op(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # an escaped exception is a failed operation, not a crash of the run
            code = None
            error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        lines = err.getvalue().strip().splitlines()
        error = f"exit {code}: {lines[-1] if lines else ''}"
    text = out.getvalue()
    return {"seconds": seconds, "code": code, "error": error, "stdout": text,
            "digest": hashlib.sha256(text.encode()).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args(argv)

    cli = import_cli()
    import numpy

    import workloads

    blocks = workloads.operations(args.workload, args.seed, args.blocks)
    ready = time.monotonic()
    ref = statistics.median(reference_seconds() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"ready": ready, "ref": ref}))
        return 0

    checker = workloads.Checker([op for ops in blocks for op in ops])
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    records = []
    for ops in blocks:
        results = run_block(cli, ops)
        if tracer is not None:
            for res, replay in zip(results, run_block(cli, ops, tracer)):
                tracer.add("cli.stdout_bytes", len(replay["stdout"].encode()))
                res["traced"] = {"seconds": replay["seconds"], "ref": replay["ref"]}
                if replay["digest"] != res["digest"] or replay["code"] != res["code"]:
                    res["wrong"] = "traced replay printed different output"
        for op, res in zip(ops, results):
            if res["error"] is None and "wrong" not in res:
                reason = checker.check(op, res.pop("stdout"))
                if reason is not None:
                    res["wrong"] = reason
            res.pop("stdout", None)
            res["kind"] = op.kind
            res["argv"] = list(op.argv)
            records.append(res)

    result = {
        "ready": ready,
        "ref": ref,
        "records": records,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
