"""Run a command several times; print its median wall time and median peak RSS.

    python3 tools/peak_rss.py [--runs N] -- COMMAND [ARG ...]

runs ``COMMAND`` as a child process ``N`` times (default 3), one after another,
with its standard output discarded, and prints a line per run and then the
medians: the wall time around the child's whole life, in seconds, and its peak
resident set size, ``ru_maxrss`` from ``os.wait4`` (KiB on Linux), in MB of
1,024 KiB. For example::

    python3 tools/peak_rss.py --runs 3 -- python3 -m tightsample.cli sample ...

A child forked on Linux keeps its parent's RSS high-water mark across ``exec``,
so a command reads at least this script's own peak; the script imports no numpy
to keep that floor low. If a run exits nonzero, the script stops there and exits
with that run's status (1 for a run ended by a signal).
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time


def measure(command: list[str]) -> tuple[int, float, float]:
    """One run of ``command``: its exit code, wall seconds and peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    _pid, status, rusage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return proc.returncode, wall, rusage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="peak_rss.py",
                                     usage="%(prog)s [--runs N] -- COMMAND [ARG ...]")
    parser.add_argument("--runs", type=int, default=3, help="runs of the command (default 3)")
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]
    if not command:
        parser.error("give the command to run after --")
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    walls, peaks = [], []
    for run in range(1, args.runs + 1):
        try:
            code, wall, peak = measure(command)
        except OSError as exc:
            print(f"peak_rss.py: cannot run {shlex.join(command)}: {exc}", file=sys.stderr)
            return 127
        if code:
            print(f"peak_rss.py: run {run} of {shlex.join(command)} exited {code}",
                  file=sys.stderr)
            return code if code > 0 else 1
        walls.append(wall)
        peaks.append(peak)
        print(f"run {run}\twall_s {wall:.3f}\tpeak_rss_mb {peak:.1f}")
    print(f"median\twall_s {statistics.median(walls):.3f}\t"
          f"peak_rss_mb {statistics.median(peaks):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
