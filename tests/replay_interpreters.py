"""Replay the numpy-free `ced` commands under other Python interpreters and compare stdout.

    python3 tests/replay_interpreters.py PYTHON [PYTHON ...]

Each command of COMMANDS runs as `PYTHON -m ced.cli ...` with PYTHONPATH=src,
once under the interpreter running this script (the reference) and once under
each PYTHON named.  One line per command and interpreter says whether its
stdout and exit code equal the reference's.  Exits 1 if any differs or fails to
run.  pytest does not collect this file; none of these commands imports numpy,
so an interpreter without numpy replays them all.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOL_200 = f"1/{2**200}"

COMMANDS = [
    ["decide", "--d", "2", "--lambda", "1", "--rho", "1"],
    ["decide", "--d", "3", "--lambda", "7/2", "--rho", "1/10", "--json"],
    # b_1 = 1 exactly: the tie t_1 = 1 puts the pole at level 0
    ["decide", "--d", "20", "--lambda", "1", "--rho", "1", "--json"],
    # a Below at depth 4 whose backward run stops inside the fraction: t_1 > 1, level 1
    ["decide", "--d", "2", "--lambda", "2", "--rho", "25/256", "--json"],
    ["phase", "--d", "2", "--lambda", "1", "--rho", "1/3"],
    ["phase", "--d", "4", "--lambda", "1/2", "--rho", "0", "--json"],
    ["rho-c", "--d", "2", "--lambda", "1", "--tol", TOL_200, "--certs", "--format", "json"],
    ["rho-c", "--d", "3", "--lambda", "197/20", "--tol", TOL_200, "--certs", "--format", "json"],
    ["rho-c", "--d", "2", "--lambda-grid", "1/4:5:5", "--tol", TOL_200],
    # CSV cells holding , and ": the certificates' JSON, quoted by the emitter
    ["rho-c", "--d", "2", "--lambda", "1", "--tol", "1/8", "--certs"],
    ["catalan", "--lambda", "3/2", "--rho", "1/3", "--k-max", "40"],
    # the partial series' value has more than 4300 digits, Python's default int-to-str limit
    ["catalan", "--lambda", "3/2", "--rho", "300000001/1073741824", "--z", "2", "--k-max", "110", "--format", "json"],
]


def run(python: str, argv: list[str]) -> tuple[int, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([python, "-m", "ced.cli", *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def version(python: str) -> str:
    try:
        proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                              capture_output=True, text=True)
    except OSError:
        return f"at {python}"
    return proc.stdout.strip() or f"at {python}"


def main(pythons: list[str]) -> int:
    if not pythons:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    versions = {python: version(python) for python in pythons}
    print(f"reference: {sys.executable} (Python {version(sys.executable)})")
    bad = 0
    for argv in COMMANDS:
        code, out = run(sys.executable, argv)
        shown = " ".join(a if len(a) < 40 else a[:12] + "..." for a in argv)
        for python in pythons:
            try:
                other = run(python, argv)
            except OSError as exc:
                verdict, bad = f"failed to run ({exc.strerror})", bad + 1
            else:
                same = other == (code, out)
                verdict = "equal" if same else f"different (exit {other[0]} against {code})"
                bad += not same
            print(f"{verdict}  Python {versions[python]}  ced {shown}  [{len(out)} bytes]")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
