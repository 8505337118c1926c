"""The benchmark's workloads: inputs from a seed, the CLI commands, output checks.

A workload is a dataclass whose fields set its size; the registry holds the
full-size instances and the tests build smoke-size ones. ``commands`` lists
one iteration's CLI invocations in order, each tagged with the role that
decides which end-to-end metric its wall time counts toward:

- ``gen-sbm`` and ``setup`` (the same ``sample`` with ``--budget 1``) -> setup_s
- ``sample`` (full-budget runs) -> sample_s
- ``sweep``, ``calibrate``, ``replay``, ``metrics`` -> their own command times

All of them count toward total_s.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import engagement
from perfbench.engagement import N_BLOCKS
from perfbench.harness import Command, Ledger, digests

SETUP_ROLES = ("gen-sbm", "setup")
RUN_FILES = ("trace.csv", "discovered.tsv", "access_log.csv")
SWEEP_WORKERS = 2          # worker processes of the untraced sweep

# sha256 of the ordered unit-weight MAS run of tight-32k at its default seed.
# Ordered runs on unit weights are byte-identical across commits, so these
# only change when the generated network does (e.g. another numpy version).
TIGHT_PINNED = {
    "trace.csv": "fded6121de1bbaba8b840bfbb149569cc12a6f108e887ce682cea0a24df38411",
    "discovered.tsv": "be85548fe71ecff5c579e43c2f167ce77096f859ecb853ef2375c6f73127c2d5",
    "access_log.csv": "5a68e094063b41a90fd1a5f51c7821d9a1a88f5e1ec7b3d349e7e12fe459b466",
}


def write_block_seeds(path: Path, seed: int, block_size: int) -> Path:
    """One uniformly drawn seed node per block of an ``{block_size}x8`` model."""
    rng = np.random.default_rng([seed, block_size])
    nodes = [b * block_size + int(rng.integers(block_size)) for b in range(N_BLOCKS)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{v}\n" for v in nodes))
    return path


def _read_column(path: Path, column: str) -> list[str]:
    with open(path, newline="") as fh:
        return [row[column] for row in csv.DictReader(fh)]


def access_log_matches_trace(run_dir: Path, seeds_file: Path) -> bool:
    """The oracle is queried once per seed, then once per selected node, in order."""
    try:
        seeds = [s.strip() for s in seeds_file.read_text().split() if s.strip()]
        queried = _read_column(run_dir / "access_log.csv", "node_ext_id")
        selected = _read_column(run_dir / "trace.csv", "node_ext_id")
    except (OSError, KeyError):
        return False
    return queried == seeds + selected and len(set(selected)) == len(selected)


def same_across_iterations(ledger: Ledger, memo: dict, label: str,
                           directory: Path, names) -> None:
    for name, digest in digests(directory, names).items():
        key = f"{label}/{name}"
        first = memo.setdefault(key, digest)
        ledger.record(digest is not None and digest == first,
                      f"{key} differs from the first iteration")


@dataclass(frozen=True)
class TightSample:
    """Ordered unit-weight MAS over a large cohesive blockmodel."""

    name: str = "tight-32k"
    block_size: int = 4000
    default_seed: int = 1

    @property
    def budget(self) -> int:
        return self.block_size * N_BLOCKS - N_BLOCKS

    def prepare(self, seed: int, inputs: Path) -> dict:
        return {"seeds": write_block_seeds(inputs / "seeds.txt", seed, self.block_size)}

    def commands(self, seed: int, inputs: dict, out: Path) -> list[Command]:
        edges = out / "sbm" / "edges.tsv"
        sample = ("sample", "--undirected", str(edges), "--seeds-file",
                  str(inputs["seeds"]), "--strategy", "MAS")
        return [
            Command("gen-sbm", ("gen-sbm", "--sizes", f"{self.block_size}x{N_BLOCKS}",
                                "--k-intra", "10", "--r", "4", "--seed", str(seed),
                                "--out", str(out / "sbm"))),
            Command("setup", sample + ("--budget", "1", "--out", str(out / "setup"))),
            Command("sample", sample + ("--budget", str(self.budget),
                                        "--out", str(out / "mas"))),
        ]

    def outputs(self) -> list[str]:
        return ["sbm/edges.tsv", "setup/trace.csv"] + [f"mas/{f}" for f in RUN_FILES]

    def check(self, seed: int, inputs: dict, out: Path, memo: dict,
              ledger: Ledger) -> None:
        run = out / "mas"
        if self == TightSample() and seed == self.default_seed:
            for name, digest in digests(run, RUN_FILES).items():
                ledger.record(digest == TIGHT_PINNED[name],
                              f"mas/{name} does not match its pinned digest")
        else:
            same_across_iterations(ledger, memo, "mas", run, RUN_FILES)
        ledger.record(access_log_matches_trace(run, inputs["seeds"]),
                      "mas/access_log.csv does not follow the trace")


@dataclass(frozen=True)
class Baselines:
    """Random-tie MAS plus a sweep of the random baselines."""

    name: str = "baselines-8k"
    block_size: int = 1000
    default_seed: int = 1

    @property
    def budget(self) -> int:
        return self.block_size * N_BLOCKS - N_BLOCKS

    def prepare(self, seed: int, inputs: Path) -> dict:
        return {"seeds": write_block_seeds(inputs / "seeds.txt", seed, self.block_size)}

    def commands(self, seed: int, inputs: dict, out: Path) -> list[Command]:
        sizes = f"{self.block_size}x{N_BLOCKS}"
        sample = ("sample", "--undirected", str(out / "sbm" / "edges.tsv"),
                  "--seeds-file", str(inputs["seeds"]), "--strategy", "MAS",
                  "--tie-break", "random", "--seed", str(seed))
        return [
            Command("gen-sbm", ("gen-sbm", "--sizes", sizes, "--r", "4",
                                "--seed", str(seed), "--out", str(out / "sbm"))),
            Command("setup", sample + ("--budget", "1", "--out", str(out / "setup"))),
            Command("sample", sample + ("--budget", str(self.budget),
                                        "--out", str(out / "mas"))),
            Command("sweep", ("sweep", "--sizes", sizes, "--r-list", "1,4",
                              "--strategies", "RS_DU,RS_DW,RS_SU,RS_SW",
                              "--repeats", "1", "--budget", str(self.budget),
                              "--seed", str(seed), "--out", str(out / "sweep")),
                    env=(("TIGHTSAMPLE_WORKERS", str(SWEEP_WORKERS)),)),
        ]

    def outputs(self) -> list[str]:
        return (["sbm/edges.tsv", "setup/trace.csv", "sweep/sweep.csv"]
                + [f"mas/{f}" for f in RUN_FILES])

    def check(self, seed: int, inputs: dict, out: Path, memo: dict,
              ledger: Ledger) -> None:
        same_across_iterations(ledger, memo, "mas", out / "mas", RUN_FILES)
        same_across_iterations(ledger, memo, "sweep", out / "sweep", ["sweep.csv"])
        ledger.record(access_log_matches_trace(out / "mas", inputs["seeds"]),
                      "mas/access_log.csv does not follow the trace")


@dataclass(frozen=True)
class Engagement:
    """Calibrated weights over an engagement log, two strategies, replay, metrics."""

    name: str = "engagement-4k"
    block_size: int = 500
    budget: int = 2000
    default_seed: int = 1

    def prepare(self, seed: int, inputs: Path) -> dict:
        log = engagement.generate(inputs, seed, block_size=self.block_size)
        return {"events": log.events, "seeds": log.seeds, "labels": log.labels}

    def commands(self, seed: int, inputs: dict, out: Path) -> list[Command]:
        weights = out / "cal" / "weights_distinct.csv"
        sample = ("sample", "--events", str(inputs["events"]), "--seeds-file",
                  str(inputs["seeds"]), "--weights", str(weights))
        budget = ("--budget", str(self.budget), "--seed", str(seed))
        return [
            Command("calibrate", ("calibrate", str(inputs["events"]), "--scheme",
                                  "distinct", "--trim", "0.9", "--out", str(out / "cal"))),
            Command("setup", sample + ("--strategy", "MAS", "--budget", "1",
                                       "--out", str(out / "setup"))),
            Command("sample", sample + ("--strategy", "MAS") + budget
                    + ("--out", str(out / "mas"))),
            Command("sample", sample + ("--strategy", "RO") + budget
                    + ("--out", str(out / "ro"))),
            Command("replay", ("sample", "--from-manifest",
                               str(out / "mas" / "manifest.json"),
                               "--out", str(out / "replay"))),
            Command("metrics", ("metrics", str(out / "mas"), str(out / "ro"),
                                "--labels", str(inputs["labels"]),
                                "--out", str(out / "cmp"))),
        ]

    def outputs(self) -> list[str]:
        runs = [f"{run}/{f}" for run in ("mas", "ro", "replay") for f in RUN_FILES]
        return ["cal/weights_distinct.csv", "setup/trace.csv", "cmp/comparison.csv"] + runs

    def check(self, seed: int, inputs: dict, out: Path, memo: dict,
              ledger: Ledger) -> None:
        mas = digests(out / "mas", RUN_FILES)
        for name, digest in digests(out / "replay", RUN_FILES).items():
            ledger.record(digest is not None and digest == mas[name],
                          f"replay/{name} differs from mas/{name}")
        try:
            omega = [float(w) for w in
                     _read_column(out / "cal" / "weights_distinct.csv", "omega_star")]
        except (OSError, KeyError, ValueError):
            omega = []
        ledger.record(len(omega) == 15 and all(w > 0 for w in omega),
                      "calibration does not hold 15 positive omega_star weights")
        same_across_iterations(ledger, memo, "cmp", out / "cmp", ["comparison.csv"])
        ledger.record(access_log_matches_trace(out / "mas", inputs["seeds"]),
                      "mas/access_log.csv does not follow the trace")


WORKLOADS = {w.name: w for w in (TightSample(), Baselines(), Engagement())}
