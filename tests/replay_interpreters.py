"""Replay every GOLDEN row, then every SLOW row, of tests/cli_goldens.py through one or more `ced` commands.

    python3 tests/replay_interpreters.py COMMAND [COMMAND ...]

Each COMMAND is a shell-quoted prefix such as "python3.10 -m ced.cli", or `ced`
for the installed script, run in the caller's environment: `PYTHONPATH=src`
replays this checkout's src/, its absence the installed package.  One line per
row and command reads `equal` (the recorded exit code and stdout sha256),
`different (...)`, `timed out` (a SLOW row past its time limit), `failed to
run` (`COMMAND --help` does not exit 0) or `skipped (no numpy)` (a `simulate`
row where a one-trial simulation fails on the numpy import).  A SLOW row that
ran also shows its wall time next to its limit, as in `equal (1.4 s of 30 s)`.
Exits 1 if any row is different, timed out or failed to run.  pytest does not
collect this file, and tier-1 replays GOLDEN only, in process.
"""

import functools
import hashlib
import shlex
import subprocess
import sys
import time

from cli_goldens import GOLDEN, SLOW, shown

NUMPY_PROBE = "simulate line --lambda 1 --rho 1 --trials 1 --seed 1"


def run(prefix: list[str], argv: str, limit: float | None = None) -> tuple[int | None, bytes, bytes]:
    """(exit code, stdout, stderr) of the command with argv appended; a command not found exits 127.

    The exit code is None when the command is still running after `limit` seconds, and is then killed.
    """
    try:
        proc = subprocess.run([*prefix, *argv.split()], capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return None, b"", b""
    except OSError as exc:
        return 127, b"", str(exc).encode()
    return proc.returncode, proc.stdout, proc.stderr


def verdict(row: tuple, run) -> str:
    """One GOLDEN or SLOW row's verdict for a command, where run(argv[, limit]) gives its (exit code, stdout, stderr)."""
    argv, code, digest, *limit = row
    if run("--help")[0] != 0:
        return "failed to run"
    if argv.startswith("simulate ") and b"No module named 'numpy'" in run(NUMPY_PROBE)[2]:
        return "skipped (no numpy)"
    got, out, _ = run(argv, *limit)
    if got is None:
        return "timed out"
    if got != code:
        return f"different (exit {got}, recorded {code})"
    if hashlib.sha256(out).hexdigest() != digest:
        return "different (stdout digest)"
    return "equal"


def main(commands: list[str]) -> int:
    if not commands:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bad = 0
    for command in commands:
        runner = functools.cache(functools.partial(run, shlex.split(command)))
        for row in GOLDEN + SLOW:
            start = time.monotonic()
            word = verdict(row, runner)
            bad += word.startswith(("different", "failed", "timed"))
            if len(row) > 3 and not word.startswith(("failed", "skipped")):  # a SLOW row: its margin
                word += f" ({time.monotonic() - start:.1f} s of {row[3]} s)"
            print(f"{word}  {command}  ced {shown(row[0])}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
