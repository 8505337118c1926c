"""Closed-loop command runner, operation ledger and small statistics helpers.

Every ``tightsample`` command runs in its own child process, one at a time,
against the package sources of the checkout the benchmark lives in. Wall
time is taken around the child's whole life; CPU time and peak RSS come from
``os.wait4``, which on Linux folds in every descendant the child reaped (the
sweep's worker processes included).
"""

from __future__ import annotations

import hashlib
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchmarkError(RuntimeError):
    """The run's time budget is spent."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``role`` names the metric bucket it counts toward."""

    role: str
    argv: tuple
    env: tuple = ()


@dataclass
class CommandResult:
    command: Command
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int

    @property
    def ok(self) -> bool:
        return self.returncode == 0


class Ledger:
    """Counts operations attempted and failed; failures are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Runner:
    """Runs commands in child processes, each killed if it outlives the deadline."""

    def __init__(self, log_dir: Path, deadline: float):
        self.log_dir = Path(log_dir)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.deadline = deadline
        self._count = 0

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, command: Command) -> CommandResult:
        if self.time_left() <= 0:
            raise BenchmarkError("time budget exhausted")
        self._count += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.update(dict(command.env))
        log = self.log_dir / f"{self._count:03d}-{command.role}.log"
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "tightsample.cli", *command.argv],
                stdout=fh, stderr=subprocess.STDOUT, env=env, start_new_session=True)
            status, rusage = _wait(proc, self.time_left())
            wall = time.perf_counter() - start
        _end_group(proc.pid)
        return CommandResult(command, wall, rusage.ru_utime + rusage.ru_stime,
                             rusage.ru_maxrss / 1024.0, status)


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its rusage, killing its process group at ``timeout``."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        if not ready:
            os.killpg(proc.pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _pid, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def _end_group(pgid: int, patience_s: float = 10.0) -> None:
    """Kill and outwait whatever of a child's process group outlived it.

    Each child leads its own group, so this catches the workers of a sweep
    that was killed before it could reap them.
    """
    deadline = time.monotonic() + patience_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise BenchmarkError(f"processes of group {pgid} did not end")


# ---------------------------------------------------------------------------
# output checks and statistics


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(directory: Path, names) -> dict[str, str | None]:
    """sha256 of each named file in ``directory``; None where it is missing."""
    return {name: sha256(directory / name) if (directory / name).is_file() else None
            for name in names}


@dataclass
class Series:
    """Named samples gathered over a run's iterations."""

    values: dict[str, list[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(vals) for name, vals in self.values.items()}
