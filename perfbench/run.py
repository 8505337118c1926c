"""Benchmark entry point for the tightsample CLI.

    python3 perfbench/run.py --workload tight-32k --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's commands run as child processes, one at a
time, for the number of iterations that comes nearest to ``--seconds`` (at
least one); the end-to-end metrics are medians over iterations. With
``--trace 1`` one untraced iteration is followed by one traced iteration of
the same commands inside this process, and the per-layer metrics come from
the trace. The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units are read from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # run from a checkout: benchmark the package sources next to this directory
    if not (ROOT / "src" / "tightsample" / "cli.py").is_file():
        sys.exit(f"perfbench: tightsample sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, tracing  # noqa: E402
from perfbench.workloads import SETUP_ROLES, SWEEP_WORKERS, WORKLOADS  # noqa: E402

HARD_LIMIT_S = 170.0       # every run must end within 180 s
MIN_SETUPS = 7             # setup_s is a median over at least this many set-ups
AUDIT_TOLERANCE = 1e-9     # audit deviation allowed, relative to the boundary


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def command_metrics(results) -> dict[str, float]:
    """One iteration's end-to-end figures from its command results."""
    figures = {
        "setup_s": sum(r.wall_s for r in results if r.command.role in SETUP_ROLES),
        "sample_s": sum(r.wall_s for r in results if r.command.role == "sample"),
        "total_s": sum(r.wall_s for r in results),
        "peak_rss_mb": max(r.maxrss_mb for r in results),
    }
    for r in results:
        if r.command.role not in SETUP_ROLES + ("sample",):
            key = f"{r.command.role}_s"
            figures[key] = figures.get(key, 0.0) + r.wall_s
            if r.command.role == "sweep":
                figures["sweep_cpu_s"] = r.cpu_s
    return figures


def run_iteration(runner, ledger, commands):
    results = []
    for command in commands:
        result = runner.run(command)
        ledger.record(result.ok, f"{command.role} ({command.argv[0]}): "
                                 f"exit {result.returncode}")
        results.append(result)
    return results


def measure(workload, seed, seconds, work, ledger):
    """Untraced iterations; returns the figures of every iteration and their count."""
    inputs = workload.prepare(seed, work / "inputs")
    runner = harness.Runner(work / "logs", time.monotonic() + HARD_LIMIT_S - 10)
    series = harness.Series()
    memo: dict = {}
    iteration_s: list[float] = []
    out = None
    try:
        # untimed: compiles the package's bytecode in a fresh checkout
        run_iteration(runner, ledger, [harness.Command("warm-up", ("--version",))])
        began = time.monotonic()
        while True:
            out = work / f"iter{len(iteration_s)}"
            results = run_iteration(runner, ledger, workload.commands(seed, inputs, out))
            workload.check(seed, inputs, out, memo, ledger)
            for name, value in command_metrics(results).items():
                series.add(name, value)
            iteration_s.append(time.monotonic() - began - sum(iteration_s))
            # stop at the iteration count whose expected end is nearest to --seconds
            if time.monotonic() - began + statistics.median(iteration_s) / 2 > seconds:
                break
        setup = [c for c in workload.commands(seed, inputs, out) if c.role in SETUP_ROLES]
        while len(series.values["setup_s"]) < MIN_SETUPS:
            results = run_iteration(runner, ledger, setup)
            series.add("setup_s", sum(r.wall_s for r in results))
    except harness.BenchmarkError as exc:
        ledger.record(False, str(exc))
    return series, len(iteration_s)


def run_in_process(tracer, command, log_path) -> int:
    """One CLI command through ``cli.main`` inside this process, traced."""
    from tightsample import cli
    env = dict(command.env, TIGHTSAMPLE_WORKERS="1")   # sweep cells in-process
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    gc.collect()
    try:
        with open(log_path, "w") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh), tracer.command_span(command.role):
            try:
                return cli.main(list(command.argv))
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:   # a crash is one failed operation, as in a child
                traceback.print_exc(file=fh)
                return 1
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def traced(workload, seed, work, ledger):
    """One untraced and one traced iteration; returns the per-layer metrics."""
    inputs = workload.prepare(seed, work / "inputs")
    runner = harness.Runner(work / "logs", time.monotonic() + HARD_LIMIT_S - 10)
    memo: dict = {}
    plain_dir, traced_dir = work / "plain", work / "traced"
    plain = run_iteration(runner, ledger, workload.commands(seed, inputs, plain_dir))
    workload.check(seed, inputs, plain_dir, memo, ledger)

    tracer = tracing.Tracer()
    (work / "traced-logs").mkdir()
    with tracing.installed(tracer):
        for n, command in enumerate(workload.commands(seed, inputs, traced_dir)):
            code = run_in_process(tracer, command,
                                  work / "traced-logs" / f"{n:03d}-{command.role}.log")
            ledger.record(code == 0, f"traced {command.role}: exit {code}")
    workload.check(seed, inputs, traced_dir, memo, ledger)
    expected = harness.digests(plain_dir, workload.outputs())
    for name, digest in harness.digests(traced_dir, workload.outputs()).items():
        ledger.record(digest is not None and digest == expected[name],
                      f"traced {name} differs from the untraced run")
    for deviation, boundary in tracer.audits:
        ledger.record(deviation <= AUDIT_TOLERANCE * abs(boundary),
                      f"audit deviation {deviation!r} at boundary {boundary!r}")

    layer = tracing.layer_metrics(tracer)
    figures = command_metrics(plain)
    sweep = next((r for r in plain if r.command.role == "sweep"), None)
    layer["cli.sweep_parallel_efficiency"] = \
        sweep.cpu_s / (SWEEP_WORKERS * sweep.wall_s) if sweep else 0.0
    for role in ("sweep", "calibrate", "replay", "metrics"):
        layer[f"cmd.{role}_s"] = figures.get(f"{role}_s", 0.0)
    # In-process commands skip interpreter start-up and run the sweep on one
    # worker: compare with child wall time (CPU time for the sweep) less start-up.
    startup = statistics.median([r.wall_s for r in run_iteration(
        runner, ledger, [harness.Command("startup", ("--version",))] * MIN_SETUPS)])
    baseline = sum(r.cpu_s if r is sweep else r.wall_s for r in plain) \
        - startup * len(plain)
    traced_wall = sum(s.duration for s in tracer.spans if s.parent is None) \
        - sum(s.duration for s in tracer.spans if s.name == "sampler.audit")
    layer["trace.overhead_frac"] = traced_wall * 1e-9 / baseline - 1.0
    tracer.dump(work / "spans.jsonl")
    for row in tracing.command_breakdown(tracer):
        print(json.dumps(row), file=sys.stderr)
    return layer


def result_json(ledger, values: dict, wanted: list) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def run_workload(workload, seed: int, args, spec: dict) -> int:
    work = ROOT / ".perfbench" / f"{workload.name}-{'traced' if args.trace else 'run'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = harness.Ledger()
    if args.trace:
        values = traced(workload, seed, work, ledger)
        wanted = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in wanted}
        lines = [f"  {name:36s} {value!r} {units.get(name, '')}"
                 for name, value in values.items()]
        what = "traced run"
    else:
        series, iterations = measure(workload, seed, args.seconds, work, ledger)
        if "setup_s" not in series.values:
            for failure in ledger.failures:
                print(f"FAILED: {failure}", file=sys.stderr)
            return 1
        values = series.medians()
        wanted = spec["end_to_end"]
        lines = [f"  {name:14s} {value:12.4f} {'MB' if name.endswith('_mb') else 's':2s}"
                 f"  median of {len(series.values[name])}" for name, value in values.items()]
        lines.append(f"  {'error_rate':14s} {ledger.failed / ledger.attempted:12.4f} "
                     f"    {ledger.failed} of {ledger.attempted} operations failed")
        what = f"{iterations} iteration(s)"
    print(f"{workload.name} seed {seed}: {what}, {ledger.attempted} operations, "
          f"{ledger.failed} failed")
    print("\n".join(lines))
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result_json(ledger, values, wanted)))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; expected 'all' or "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    code = 0
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        code = max(code, run_workload(workload, seed, args, spec))
    return code


if __name__ == "__main__":
    sys.exit(main())
