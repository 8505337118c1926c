"""Ladder probe: the hand-measured scaling points of ROADMAP.md, re-measured.

    python3 perfbench/ladder.py [--seed 1]

Not a workload and not gated. Each point runs the CLI in this process with
only the ``sampler.run`` and ``metrics.avg_shortest_path`` spans installed,
and reports that span's time next to the ROADMAP figure. A 4k -> 8k growth
ratio near 4 means the cost is quadratic in the network size.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    if not (ROOT / "src" / "tightsample" / "cli.py").is_file():
        sys.exit(f"perfbench: tightsample sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run, tracing  # noqa: E402
from perfbench.workloads import N_BLOCKS, write_block_seeds  # noqa: E402

# (label, strategy, extra sample flags, block size, ROADMAP figure in seconds)
POINTS = (
    ("RS_DW", "RS_DW", (), 500, None),
    ("RS_DW", "RS_DW", (), 1000, 2.3),
    ("MAS random-tie", "MAS", ("--tie-break", "random"), 500, 0.6),
    ("MAS random-tie", "MAS", ("--tie-break", "random"), 1000, 3.1),
    ("MAS ordered", "MAS", (), 4000, 2.8),
)
PATH_POINT = ("avg_shortest_path", 500, 14.0)
SPANS = ("sampler.run", "metrics.avg_shortest_path")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    work = ROOT / ".perfbench" / "ladder"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    targets = [t for t in tracing.TARGETS if t[2] in SPANS]

    def cli(role, *argv) -> float:
        """Run one command; return the time of its sampler or metrics span."""
        command = harness.Command(role, tuple(str(a) for a in argv))
        first = len(tracer.spans)
        code = run.run_in_process(tracer, command, work / f"{len(tracer.spans)}.log")
        if code != 0:
            raise harness.BenchmarkError(f"{role} exited {code}")
        return sum(s.duration for s in tracer.spans[first:] if s.name in SPANS) * 1e-9

    measured: dict[tuple[str, int], float] = {}
    with tracing.installed(tracer, targets):
        for block in sorted({p[3] for p in POINTS}):
            n = block * N_BLOCKS
            cli("gen-sbm", "gen-sbm", "--sizes", f"{block}x{N_BLOCKS}", "--seed",
                args.seed, "--out", work / f"sbm{n}")
            write_block_seeds(work / f"seeds{n}.txt", args.seed, block)
        for label, strategy, flags, block, _figure in POINTS:
            n = block * N_BLOCKS
            measured[label, n] = cli(
                "sample", "sample", "--undirected", work / f"sbm{n}" / "edges.tsv",
                "--seeds-file", work / f"seeds{n}.txt", "--strategy", strategy,
                *flags, "--budget", n - N_BLOCKS, "--seed", args.seed,
                "--out", work / f"{strategy}{n}")
        label, block, _figure = PATH_POINT
        n = block * N_BLOCKS
        measured[label, n] = cli("metrics", "metrics", work / f"MAS{n}",
                                 "--out", work / f"metrics{n}")

    figures = {(p[0], p[3] * N_BLOCKS): p[4] for p in POINTS}
    figures[PATH_POINT[0], PATH_POINT[1] * N_BLOCKS] = PATH_POINT[2]
    print(f"{'point':20s} {'nodes':>6s} {'measured_s':>10s} {'roadmap_s':>9s} "
          f"{'4k->8k':>7s}")
    for (label, n), seconds in measured.items():
        figure = figures.get((label, n))
        smaller = measured.get((label, n // 2))
        growth = f"{seconds / smaller:7.2f}" if smaller and n == 8000 else f"{'':7s}"
        print(f"{label:20s} {n:6d} {seconds:10.3f} "
              f"{figure if figure is not None else '-':>9} {growth}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
