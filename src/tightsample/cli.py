"""Command-line orchestration: calibrate, gen-sbm, sample, metrics, sweep.

Every run records its rng seed and inputs in a manifest so it can be
reproduced byte-for-byte; the manifest also holds the size and sha256 of each
input file, and a replay refuses inputs that no longer match. Figures are not
rendered; all outputs are CSV or JSON for downstream plotting.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, graph, ingest, interactions, metrics, sampler, sbm
from .oracle import GraphOracle
from .util import ConfigError, DataError, read_lines, write_csv

WORKERS_ENV = "TIGHTSAMPLE_WORKERS"
SHIPPED_SCHEMES = ("distinct", "nested", "af")   # the shipped weight table's sections
SWEEP_COLUMNS = ("r", "strategy", "repeat", "run_seed", "steps", "insiders",
                 "final_boundary", "max_window_purity")
ORACLE_KINDS = ("undirected", "edgelist", "events")   # a manifest's oracle.kind


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _refuse_duplicates(names: list[str], what: str, clash: str) -> None:
    """ConfigError naming the first of ``names`` that occurs twice."""
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"two {what} are named {name!r}; {clash}")


def _write_table(stem: Path, rows: list[dict], fmt: str, columns) -> Path:
    """``stem.json`` holding ``rows``, or ``stem.csv`` with ``columns``; returns the path."""
    path = stem.with_suffix(f".{fmt}")
    if fmt == "json":
        path.write_text(json.dumps(rows, indent=2))
    else:
        write_csv(path, columns, ([row[c] for c in columns] for row in rows))
    return path


def _parse_sizes(text: str) -> tuple[int, ...]:
    """Block sizes as '400,800,1200' or the shorthand '200x8'; at least one block."""
    text = text.strip()
    size, x, count = text.partition("x")
    try:
        sizes = (int(size),) * int(count) if x and "," not in text \
            else tuple(int(s) for s in text.split(","))
    except ValueError:
        sizes = ()
    if not sizes:
        raise argparse.ArgumentTypeError(
            f"expected integers as '400,800' or '200x8' (1 block or more), got {text!r}")
    return sizes


def _parse_seed(text: str) -> int:
    """An rng seed: numpy's generators take only non-negative integers."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _load_weights(selector: str):
    """'unit', a scheme tag of the shipped tables, or a weight-CSV path."""
    if selector == "unit":
        return interactions.UnitWeights()
    if selector in SHIPPED_SCHEMES:
        return interactions.load_reference_tables()[selector].weights
    path = Path(selector)
    if not path.exists():
        raise ConfigError(f"weight table not found: {selector}")
    tables = interactions.read_weight_csv(path)
    if len(tables) == 1:
        return next(iter(tables.values())).weights
    raise ConfigError(f"{selector} holds the schemes {', '.join(tables)}; use a weight "
                      f"table of one scheme, or a shipped tag ({', '.join(SHIPPED_SCHEMES)})")


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> int:
    corpus_filter = ingest.CorpusFilter(trim_quantile=args.trim)
    scheme = interactions.Scheme.parse(args.scheme)
    seeds = _read_seed_file(args.seeds_file) if args.seeds_file else None
    events = ingest.parse_events(args.events, fmt=args.events_format)
    filtered = ingest.apply_filters(events, seeds, corpus_filter)
    if not filtered.events:
        raise ConfigError("empty corpus")
    cal = interactions.calibrate_records(filtered.events, scheme)
    out = _out_dir(args.out)
    table_path = out / f"weights_{scheme.value}.csv"
    interactions.write_weight_csv(table_path, cal)
    summary = {
        "scheme": scheme.value,
        "events": len(filtered.events),
        "seeds": len(filtered.seeds),
        "patterns": len(cal.eta_star.values),
        "filter_report": filtered.report,
        "weight_table": str(table_path),
    }
    (out / "calibration_summary.json").write_text(json.dumps(summary, indent=2))
    print(f"calibrated {len(filtered.events)} events "
          f"({scheme.value}, {len(cal.eta_star.values)} patterns) -> {table_path}")
    for x in sorted(cal.eta_star.values):
        print(f"  {interactions.pattern_str(x, scheme.width)}  "
              f"eta*={cal.eta_star.values[x]:9.4f}  "
              f"w*={cal.weights.omega_star[x]:8.2f}")
    return 0


# ---------------------------------------------------------------------------
# gen-sbm


def cmd_gen_sbm(args) -> int:
    if args.config:
        cfg, seed_cfg = sbm.read_config(args.config)
        if args.seed is not None:
            cfg = sbm.BlockModelConfig(cfg.block_sizes, cfg.k_intra, cfg.r, args.seed)
    else:
        if not args.sizes:
            raise ConfigError("gen-sbm needs --sizes or --config")
        cfg = sbm.BlockModelConfig(
            block_sizes=args.sizes, k_intra=args.k_intra,
            r=args.r, rng_seed=args.seed if args.seed is not None else 0)
        seed_cfg = None
    matrix = sbm.derive_block_matrix(cfg)
    edges, labels = sbm.generate(matrix, cfg.block_sizes, cfg.rng_seed)
    out = _out_dir(args.out)
    sbm.write_edges_tsv(out / "edges.tsv", edges)
    graph.write_labels_csv(out / "labels.csv", dict(enumerate(labels.tolist())))
    sbm.write_config(out / "sbm.cfg", cfg, seed_cfg)
    stats = sbm.realized_block_stats(edges, labels)
    print(f"generated {len(labels)} nodes, {len(edges)} undirected edges "
          f"-> {out}/edges.tsv")
    print(f"  mean intra-block degree: "
          f"{np.round(stats['mean_intra_degree'], 3).tolist()}")
    return 0


# ---------------------------------------------------------------------------
# sample


def _resolve(path, base: Path) -> Path:
    """A manifest's path: absolute as written, else relative to ``base``."""
    path = Path(path)
    return path if path.is_absolute() else base / path


def _fingerprint(path) -> dict:
    """Byte size and sha256 of an input file, as a manifest records it."""
    import hashlib  # loads OpenSSL, about 4 MB resident: only sample runs pay it
    digest, size = hashlib.sha256(), 0
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                size += len(chunk)
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc}") from exc
    return {"bytes": size, "sha256": digest.hexdigest()}


def _check_inputs(manifest: dict, manifest_path: Path) -> None:
    """Refuse a replay whose recorded input files changed; warn on another numpy."""
    inputs = manifest.get("inputs", {})
    if not isinstance(inputs, dict):
        raise DataError(f"{manifest_path}: inputs is not an object")
    for name, recorded in inputs.items():
        path = _resolve(name, manifest_path.parent)
        if _fingerprint(path) != recorded:
            raise DataError(f"{path}: size or sha256 differs from {manifest_path}; "
                            f"the input changed since the run")
    written_with = manifest.get("numpy")
    if written_with is not None and written_with != np.__version__:
        print(f"warning: {manifest_path} was written with numpy {written_with}, "
              f"this is numpy {np.__version__}: generated graphs and random draws "
              f"may differ", file=sys.stderr)


def _oracle_from_descriptor(desc: dict, base: Path) -> GraphOracle:
    kind = desc.get("kind")
    path = desc.get("path")
    if path is not None:
        path = _resolve(path, base)
    if kind == "undirected":
        edges = sbm.read_edges_tsv(path)
        return GraphOracle.from_undirected_edges(edges, n_nodes=desc.get("n_nodes"))
    if kind == "edgelist":
        return GraphOracle.from_edgelist(path)
    return GraphOracle.from_events(ingest.parse_events(path, fmt=desc.get("format")))


def _build_oracle(args) -> tuple[GraphOracle, dict]:
    """The oracle of the one backing option given, and its manifest descriptor."""
    picked = [name for name in ("undirected", "edges", "events")
              if getattr(args, name, None)]
    if len(picked) != 1:
        raise ConfigError("pass exactly one of --undirected/--edges/--events")
    # manifests must replay from any directory, so record absolute paths
    if args.undirected:
        desc = {"kind": "undirected", "path": str(Path(args.undirected).resolve()),
                "n_nodes": None}
    elif args.edges:
        desc = {"kind": "edgelist", "path": str(Path(args.edges).resolve())}
    else:
        desc = {"kind": "events", "path": str(Path(args.events).resolve()),
                "format": args.events_format}
    return _oracle_from_descriptor(desc, Path.cwd()), desc


def _read_seed_file(path) -> list[str]:
    """One seed id per line; blank lines are skipped."""
    return [line.strip() for _lineno, line in read_lines(path, "seeds file")
            if line.strip()]


def _read_seeds(args) -> list:
    if args.seeds and args.seeds_file:
        raise ConfigError("pass --seeds or --seeds-file, not both")
    if args.seeds:
        return [s.strip() for s in args.seeds.split(",") if s.strip()]
    if args.seeds_file:
        return _read_seed_file(args.seeds_file)
    raise ConfigError("no seeds given")


def _read_json_object(path: Path, what: str) -> dict:
    """The JSON object in ``path``; unreadable or malformed input is a DataError."""
    try:
        value = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise DataError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise DataError(f"{path}: not a {what}")
    return value


_JSON_TYPES = {type(None): "null", bool: "boolean", int: "integer", float: "number",
               str: "string", list: "array", dict: "object"}
# the JSON types a replayed manifest field may hold; "oracle." names its descriptor
_MANIFEST_TYPES = {
    "rng_seed": ("integer",), "weights": ("string",), "seeds": ("array",),
    "budget": ("integer", "null"), "target_size": ("integer", "null"),
    "oracle.kind": ("string",), "oracle.path": ("string",), "oracle.n_nodes": ("integer", "null"),
}


def _field(manifest: dict, key: str, default=None):
    section, _, name = key.rpartition(".")
    return (manifest[section] if section else manifest).get(name, default)


def _check_types(path: Path, manifest: dict, types: dict, what: str = "manifest") -> None:
    """DataError naming ``path`` and the key unless each field holds an allowed JSON type."""
    for key, allowed in types.items():
        found = _JSON_TYPES[type(_field(manifest, key))]
        if found not in allowed:
            raise DataError(f"{path}: {what} {key} is {found}, "
                            f"expected {' or '.join(allowed)}")


def _read_manifest(path: Path) -> dict:
    manifest = _read_json_object(path, "sample manifest")
    if not isinstance(manifest.get("oracle"), dict):
        raise DataError(f"{path}: not a sample manifest")
    missing = [key for key in ("strategy", "rng_seed", "weights", "seeds", "budget")
               if key not in manifest]
    if missing:
        raise DataError(f"{path}: manifest lacks {', '.join(missing)}")
    _check_types(path, manifest, _MANIFEST_TYPES)
    if any(_JSON_TYPES[type(s)] not in ("string", "integer") for s in manifest["seeds"]):
        raise DataError(f"{path}: manifest seeds must be strings or integers")
    if manifest["rng_seed"] < 0:
        raise DataError(f"{path}: manifest rng_seed is {manifest['rng_seed']}, expected >= 0")
    n_nodes = _field(manifest, "oracle.n_nodes")
    if n_nodes is not None and not 0 <= n_nodes < 2 ** 63:   # the int64 range of node ids
        raise DataError(f"{path}: manifest oracle.n_nodes is {n_nodes}, "
                        f"expected 0 to 2**63 - 1")
    for key, allowed in (("strategy", sampler.STRATEGIES), ("tie_break", sampler.TIE_BREAKS),
                         ("oracle.kind", ORACLE_KINDS)):
        value = _field(manifest, key, allowed[0])
        if value not in allowed:
            raise DataError(f"{path}: manifest {key} is {json.dumps(value)}, "
                            f"expected one of {', '.join(allowed)}")
    return manifest


def _coerce_seed_ids(seeds, oracle: GraphOracle) -> list:
    """Seed tokens arrive as strings; integer-keyed oracles need ints."""
    coerced = []
    for s in seeds:
        digits = s.removeprefix("-") if isinstance(s, str) else ""
        # one optional '-', then ASCII digits: int() raises on '²', a digit to isdigit()
        if digits.isascii() and digits.isdigit() and s not in oracle.ids \
                and int(s) in oracle.ids:
            coerced.append(int(s))
        else:
            coerced.append(s)
    return coerced


def _record_run(out: Path, manifest: dict, oracle: GraphOracle, state, trace) -> None:
    """Write the run directory ``out``: the five files that ``metrics`` and a replay read.

    The directory is made here, so a run that fails or is refused leaves none.
    """
    out.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out / "trace.csv", oracle.ids)
    # the answers to the queried nodes in ascending id are in (target, source) order
    queried, step = sorted(state.queried), graph.WRITE_CHUNK
    batches = (oracle.in_edges(queried[i:i + step]) for i in range(0, len(queried), step))
    n_edges = graph.write_edge_tsv(batches, out / "discovered.tsv", oracle.ids)
    oracle.write_access_log(out / "access_log.csv")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    summary = {
        "insiders": len(state.insiders),
        "discovered_nodes": len(state.insiders) + len(state.outsiders),
        "discovered_edges": n_edges,
        "init_boundary": trace.init_boundary,
        "final_boundary": state.boundary,
        "stop_reason": trace.reason,
    }
    (out / "run_summary.json").write_text(json.dumps(summary, indent=2))


def _execute_sample(manifest: dict, oracle: GraphOracle, weights, out: Path | None):
    """Run the manifest's sample on ``oracle``; unless ``out`` is None, record it there.

    ``sample`` runs and kept ``sweep`` cells both run and record here. Returns (state, trace).
    """
    seeds = _coerce_seed_ids(manifest["seeds"], oracle)
    state = sampler.init(seeds, oracle, weights)
    trace = sampler.run(state, manifest["strategy"], steps=manifest["budget"],
                        target_size=manifest.get("target_size"),
                        rng_seed=manifest["rng_seed"],
                        tie_break=manifest.get("tie_break", "ordered"))
    if out is not None:
        _record_run(out, manifest, oracle, state, trace)
    return state, trace


def cmd_sample(args) -> int:
    out = Path(args.out)
    if args.from_manifest:
        manifest_path = Path(args.from_manifest)
        manifest = _read_manifest(manifest_path)
        _check_inputs(manifest, manifest_path)
        oracle = _oracle_from_descriptor(manifest["oracle"], manifest_path.parent)
        weights = _load_weights(manifest["weights"])
    else:
        if args.strategy not in sampler.STRATEGIES:
            raise ConfigError(f"unknown strategy {args.strategy!r}; "
                              f"expected one of {sampler.STRATEGIES}")
        if args.budget is None and args.target_size is None:
            raise ConfigError("need --budget or --target-size")
        oracle, descriptor = _build_oracle(args)
        weights_ref = args.weights
        weights = _load_weights(weights_ref)
        input_paths = [descriptor["path"]]
        if weights_ref not in ("unit", *SHIPPED_SCHEMES):
            weights_ref = str(Path(weights_ref).resolve())
            input_paths.append(weights_ref)
        manifest = {
            "strategy": args.strategy,
            "rng_seed": args.seed,
            "weights": weights_ref,
            "oracle": descriptor,
            "seeds": _read_seeds(args),
            "budget": args.budget,
            "target_size": args.target_size,
            "tie_break": args.tie_break,
            "version": __version__,
            "numpy": np.__version__,
            "inputs": {path: _fingerprint(path) for path in input_paths},
        }
    _state, trace = _execute_sample(manifest, oracle, weights, out)
    print(f"{manifest['strategy']}: {len(trace.rows)} timesteps "
          f"({trace.reason}) -> {out}/trace.csv")
    return 0


# ---------------------------------------------------------------------------
# metrics


def _load_run(run_dir: Path):
    manifest_path, summary_path = run_dir / "manifest.json", run_dir / "run_summary.json"
    manifest = _read_json_object(manifest_path, "manifest")
    _check_types(manifest_path, manifest, {"seeds": ("array",), "strategy": ("string",)})
    summary = _read_json_object(summary_path, "run summary")
    _check_types(summary_path, summary, {"init_boundary": ("integer", "number")}, "run summary")
    g, ids = graph.read_edge_tsv(run_dir / "discovered.tsv")
    seeds = [ids.intern(str(s)) for s in manifest["seeds"]]
    trace = sampler.SampleTrace(manifest["strategy"], tuple(seeds), summary["init_boundary"],
                                sampler.SampleTrace.read_rows(run_dir / "trace.csv", ids))
    return trace, g, ids


def cmd_metrics(args) -> int:
    run_dirs = [Path(d) for d in args.runs]
    _refuse_duplicates([d.name for d in run_dirs], "run directories",
                       "their reports would overwrite each other")
    runs = [_load_run(d) for d in run_dirs]
    raw_labels = graph.read_labels_csv(args.labels) if args.labels else None
    out = _out_dir(args.out)
    snapshots = metrics.min_common_snapshot([(t, g) for t, g, _ids in runs])
    common_size = min(t.final_size() for t, _g, _ids in runs)

    comparison = []
    for (trace, _g, _ids), sub, run_dir in zip(runs, snapshots, run_dirs):
        report = metrics.metrics_report(sub)
        (out / f"report_{run_dir.name}.json").write_text(json.dumps(report, indent=2))
        comparison.append({"run": run_dir.name, "strategy": trace.strategy,
                           "common_size": common_size, **report})
    comparison_path = _write_table(out / "comparison", comparison, args.format,
                                   list(comparison[0]))

    if raw_labels is not None:
        for (trace, _g, ids), run_dir in zip(runs, run_dirs):
            labels = {ids.resolve(ext): comm for ext, comm in raw_labels.items()
                      if ext in ids}
            series = metrics.community_evolution(trace, labels)
            series.write_csv(out / f"evolution_{run_dir.name}.csv")
    print(f"compared {len(runs)} runs at common size {common_size} "
          f"-> {comparison_path}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_cell(payload: dict) -> dict:
    """One (r, strategy, repeat) cell; module-level for process pools.

    A kept cell's manifest names a blockmodel, not an oracle file, so it does not replay.
    """
    manifest = payload["manifest"]
    model = manifest["blockmodel"]
    cfg = sbm.BlockModelConfig(block_sizes=tuple(model["sizes"]), k_intra=model["k_intra"],
                               r=model["r"], rng_seed=model["graph_seed"])
    matrix = sbm.derive_block_matrix(cfg)
    edges, labels = sbm.generate(matrix, cfg.block_sizes, cfg.rng_seed)
    oracle = GraphOracle.from_undirected_edges(edges, n_nodes=len(labels))
    run_dir = payload["out_dir"] and Path(payload["out_dir"], payload["name"])
    state, trace = _execute_sample(manifest, oracle, interactions.UnitWeights(), run_dir)
    blocks = [int(labels[v]) for v in trace.selected()]
    # a run shorter than the window reports its whole sequence; an empty one reports 0
    purity = metrics.max_window_purity(blocks, min(payload["purity_window"], max(len(blocks), 1)))
    return {
        "r": model["r"], "strategy": manifest["strategy"],
        "repeat": payload["repeat"], "run_seed": manifest["rng_seed"],
        "steps": len(trace.rows), "insiders": trace.final_size(),
        "final_boundary": state.boundary,
        "max_window_purity": purity,
    }


def _worker_count(n_cells: int) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}")
        if count < 1:
            raise ConfigError(f"{WORKERS_ENV} must be >= 1")
        return min(count, n_cells)
    return max(1, min(4, os.cpu_count() or 1, n_cells))


def cmd_sweep(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",")]
    for s in strategies:
        if s not in sampler.STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}")
    seeds_per_block = args.seeds_per_block or (1,) * len(args.sizes)
    for option, value, least in (("--budget", args.budget, 1), ("--repeats", args.repeats, 0),
                                 ("--purity-window", args.purity_window, 1)):
        if value < least:
            raise ConfigError(f"{option} must be >= {least}, got {value}")

    layout = np.repeat(np.arange(len(args.sizes)), args.sizes)   # every cell's block labels
    cells = []
    for ri, r in enumerate(args.r_list):
        for rep in range(args.repeats):
            graph_seed = args.seed * 1_000_003 + ri * 1_009 + rep
            seeds = sbm.select_seeds(layout, sbm.SeedConfig(seeds_per_block,
                                                            rng_seed=graph_seed + 777))
            for si, strategy in enumerate(strategies):
                cells.append({
                    "manifest": {
                        "strategy": strategy, "rng_seed": graph_seed * 31 + si,
                        "weights": "unit", "budget": args.budget, "tie_break": "ordered",
                        "blockmodel": {"sizes": list(args.sizes), "k_intra": args.k_intra,
                                       "r": r, "graph_seed": graph_seed},
                        "version": __version__, "numpy": np.__version__, "seeds": seeds},
                    "repeat": rep, "purity_window": args.purity_window,
                    "name": f"r{r:g}_rep{rep}_{strategy}",
                    "out_dir": args.out if args.keep_runs else None,
                })
    _refuse_duplicates([cell["name"] for cell in cells], "sweep cells",
                       "give each strategy once, and r values that differ "
                       "to 6 significant digits")
    for r in args.r_list:
        sbm.derive_block_matrix(sbm.BlockModelConfig(args.sizes, args.k_intra, r, args.seed))

    workers = _worker_count(len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(cell) for cell in cells]

    results.sort(key=lambda row: (row["r"], row["strategy"], row["repeat"]))
    agg_path = _write_table(_out_dir(args.out) / "sweep", results, args.format, SWEEP_COLUMNS)
    print(f"swept {len(cells)} cells with {workers} worker(s) -> {agg_path}")
    return 0


# ---------------------------------------------------------------------------
# demo data


def demo_config_path() -> Path:
    """The shipped 8x200 demo blockmodel configuration."""
    ref = resources.files("tightsample.data").joinpath("demo_sbm.cfg")
    with resources.as_file(ref) as path:
        return Path(path)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tightsample",
        description="Tight snowball sampling of unbounded directed networks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="derive pattern weights from an event log")
    p.add_argument("events", help="engagement event log (JSONL or CSV)")
    p.add_argument("--scheme", default="distinct",
                   help="distinct | nested | af | af-distinct")
    p.add_argument("--events-format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--seeds-file", default=None,
                   help="optional seed-author list, one id per line")
    p.add_argument("--trim", type=float, default=1.0,
                   help="keep the lower fraction of tweets by interaction count")
    p.add_argument("--out", default="calibration")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("gen-sbm", help="generate a planted-community test network")
    p.add_argument("--sizes", type=_parse_sizes, default=None,
                   help="block sizes: '200x8' or '400,800'")
    p.add_argument("--k-intra", type=float, default=10.0)
    p.add_argument("--r", type=float, default=4.0)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--seed", type=_parse_seed, default=None,
                   help="rng seed (default: the config's, else 0)")
    p.add_argument("--out", default="sbm_out")
    p.set_defaults(func=cmd_gen_sbm)

    p = sub.add_parser("sample", help="run one sampling strategy against an oracle")
    p.add_argument("--undirected", default=None,
                   help="undirected edge TSV (served in both directions)")
    p.add_argument("--edges", default=None, help="directed edge-list TSV")
    p.add_argument("--events", default=None, help="engagement event log")
    p.add_argument("--events-format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--seeds", default=None, help="comma-separated seed ids")
    p.add_argument("--seeds-file", default=None)
    p.add_argument("--strategy", default="MAS")
    p.add_argument("--weights", default="unit",
                   help="'unit', a shipped scheme tag, or a weight-CSV path")
    p.add_argument("--budget", type=int, default=None, help="max timesteps")
    p.add_argument("--target-size", type=int, default=None)
    p.add_argument("--seed", type=_parse_seed, default=0, help="rng seed")
    p.add_argument("--tie-break", choices=sampler.TIE_BREAKS, default="ordered",
                   help="argmax tie handling for MAS/RI_MAS")
    p.add_argument("--from-manifest", default=None,
                   help="reproduce a run from its manifest.json")
    p.add_argument("--out", default="sample_out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("metrics", help="evaluate one or more finished runs")
    p.add_argument("runs", nargs="+", help="run directories from 'sample'")
    p.add_argument("--labels", default=None, help="node,community CSV")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="comparison table format")
    p.add_argument("--out", default="metrics_out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", help="cartesian sweep over r values and strategies")
    p.add_argument("--sizes", type=_parse_sizes, required=True)
    p.add_argument("--k-intra", type=float, default=10.0)
    p.add_argument("--r-list", type=_parse_float_list, required=True,
                   help="comma-separated r values")
    p.add_argument("--strategies", default="MAS,RO")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seeds-per-block", type=_parse_sizes, default=None,
                   help="per-block seed counts, e.g. '1x8'")
    p.add_argument("--purity-window", type=int, default=180)
    p.add_argument("--keep-runs", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="write each cell's run directory, as 'sample' does")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="aggregate table format")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--out", default="sweep_out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
