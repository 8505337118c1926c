"""Command-line orchestration: calibrate, gen-sbm, sample, metrics, sweep.

Every run records its rng seed and inputs in a manifest so it can be
reproduced byte-for-byte; the manifest also holds the size and sha256 of each
input file, or the sha256 of a generated graph's edges, and a replay refuses
inputs that no longer match. Figures are not rendered; all outputs are CSV or
JSON for downstream plotting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, graph, ingest, interactions, metrics, sampler, sbm
from .oracle import GraphOracle
from .util import ConfigError, DataError, read_csv, read_lines, write_csv

WORKERS_ENV = "TIGHTSAMPLE_WORKERS"
SHIPPED_SCHEMES = ("distinct", "nested", "af")   # the shipped weight table's sections
SWEEP_COLUMNS = ("r", "strategy", "repeat", "run_seed", "steps", "insiders",
                 "final_boundary", "max_window_purity")
# each oracle kind of a manifest, and the JSON types its descriptor's fields may hold
ORACLE_FIELDS = {
    "undirected": {"path": ("string",), "n_nodes": ("null",)},   # older manifests hold null
    "edgelist": {"path": ("string",)},
    "events": {"path": ("string",), "format": ("string", "null")},
    "blockmodel": {"sizes": ("array",), "k_intra": ("integer", "number"),
                   "r": ("integer", "number"), "graph_seed": ("integer",),
                   "edges_sha256": ("string", "null")},
}


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
    tables = interactions.read_weight_csv(selector)
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
    import hashlib  # loads OpenSSL, about 3.5 MB resident: only runs that hash pay it
    digest, size = hashlib.sha256(), 0
    buffer = memoryview(bytearray(1 << 16))   # one 64 KiB buffer, refilled in place
    try:
        with open(path, "rb", buffering=0) as fh:
            while n := fh.readinto(buffer):
                digest.update(buffer[:n])
                size += n
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


def _block_model(desc: dict) -> tuple[sbm.BlockModelConfig, np.ndarray]:
    """The configuration and block matrix of a ``blockmodel`` descriptor."""
    cfg = sbm.BlockModelConfig(tuple(desc["sizes"]), desc["k_intra"], desc["r"],
                               desc["graph_seed"])
    return cfg, sbm.derive_block_matrix(cfg)


def _oracle_from_descriptor(desc: dict, source: Path | None) -> GraphOracle:
    """The oracle of a manifest's descriptor; ``source`` is the manifest file a replay read.

    A relative path resolves against the manifest's directory. A ``blockmodel`` is
    generated: ``desc`` gets the sha256 of its int64 edge array when it holds none (a
    fresh run), and a replay whose graph has another digest is a DataError.
    """
    kind = desc["kind"]
    if kind == "blockmodel":
        import hashlib   # as in _fingerprint
        cfg, matrix = _block_model(desc)
        edges, _labels = sbm.generate(matrix, cfg.block_sizes, cfg.rng_seed)
        digest = hashlib.sha256(edges.astype("<i8", copy=False).tobytes()).hexdigest()
        if desc.get("edges_sha256") is None:
            desc["edges_sha256"] = digest
        elif desc["edges_sha256"] != digest:
            raise DataError(f"{source}: manifest oracle.edges_sha256 differs from the "
                            f"generated graph's, {digest}: the graph is not the run's")
        return GraphOracle.from_undirected_edges(edges, n_nodes=cfg.n_nodes)
    path = _resolve(desc["path"], source.parent if source else Path.cwd())
    if kind == "undirected":
        return GraphOracle.from_undirected_edges(sbm.read_edges_tsv(path))
    if kind == "edgelist":
        return GraphOracle.from_edgelist(path)
    return GraphOracle.from_events(ingest.parse_events(path, fmt=desc.get("format")))


def _descriptor(args) -> dict:
    """The manifest descriptor of the one backing option given."""
    picked = [name for name in ("undirected", "edges", "events")
              if getattr(args, name, None)]
    if len(picked) != 1:
        raise ConfigError("pass exactly one of --undirected/--edges/--events")
    # manifests must replay from any directory, so record absolute paths
    if args.undirected:
        return {"kind": "undirected", "path": str(Path(args.undirected).resolve())}
    if args.edges:
        return {"kind": "edgelist", "path": str(Path(args.edges).resolve())}
    return {"kind": "events", "path": str(Path(args.events).resolve()),
            "format": args.events_format}


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
# the JSON types a replayed manifest field may hold; ORACLE_FIELDS types its descriptor
_MANIFEST_TYPES = {
    "rng_seed": ("integer",), "weights": ("string",), "seeds": ("array",),
    "budget": ("integer", "null"), "target_size": ("integer", "null"),
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
    for key, allowed, default in (("strategy", sampler.STRATEGIES, None),
                                  ("tie_break", sampler.TIE_BREAKS, "ordered"),
                                  ("oracle.kind", tuple(ORACLE_FIELDS), None)):
        value = _field(manifest, key, default)
        if value not in allowed:
            raise DataError(f"{path}: manifest {key} is {json.dumps(value)}, "
                            f"expected one of {', '.join(allowed)}")
    oracle = manifest["oracle"]
    _check_types(path, manifest, {f"oracle.{name}": allowed
                                  for name, allowed in ORACLE_FIELDS[oracle["kind"]].items()})
    for key in ("rng_seed", "oracle.graph_seed"):
        seed = _field(manifest, key)
        if seed is not None and seed < 0:
            raise DataError(f"{path}: manifest {key} is {seed}, expected >= 0")
    if oracle["kind"] == "blockmodel":
        if any(_JSON_TYPES[type(s)] != "integer" for s in oracle["sizes"]):
            raise DataError(f"{path}: manifest oracle.sizes must be integers")
        try:
            _block_model(oracle)
        except (ConfigError, OverflowError) as exc:   # OverflowError: an int beyond float
            raise DataError(f"{path}: manifest oracle is not a valid blockmodel: {exc}") from None
    return manifest


def _coerce_seed_ids(seeds, oracle: GraphOracle) -> list:
    """Seed tokens arrive as strings; integer-keyed oracles need ints."""
    coerced = []
    for s in seeds:
        digits = s.removeprefix("-") if isinstance(s, str) else ""
        # one optional '-', then ASCII digits: int() raises on '²', a digit to isdigit(),
        # and on more than 4,300 digits, while no int64 has more than 19
        if digits.isascii() and digits.isdigit() and len(digits) <= 19 and s not in oracle.ids \
                and int(s) in oracle.ids:
            coerced.append(int(s))
        else:
            coerced.append(s)
    return coerced


def _record_run(out: Path, manifest: dict, oracle: GraphOracle, state, trace) -> None:
    """Write the run directory ``out``: the five files that ``metrics`` and a replay read.

    The directory is made here, so a run that fails or is refused leaves none. A fresh
    run's inputs are fingerprinted here too, after the build and the writes, so that
    OpenSSL's pages do not sit under their peaks.
    """
    out.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out / "trace.csv", oracle.ids)
    # the answers to the queried nodes in ascending id are in (target, source) order
    batches = oracle.in_edge_batches(sorted(state.queried))
    n_edges = graph.write_edge_tsv(batches, out / "discovered.tsv", oracle.ids)
    oracle.write_access_log(out / "access_log.csv")
    inputs = manifest.get("inputs", {})   # a replay's were checked, and hold no None
    for path, recorded in inputs.items():
        if recorded is None:
            inputs[path] = _fingerprint(path)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    summary = {
        "insiders": state.n_insiders,
        "discovered_nodes": state.n_insiders + len(state.outsiders),
        "discovered_edges": n_edges,
        "init_boundary": trace.init_boundary,
        "final_boundary": state.boundary,
        "stop_reason": trace.reason,
    }
    (out / "run_summary.json").write_text(json.dumps(summary, indent=2))


def _new_manifest(strategy: str, rng_seed: int, weights: str, oracle: dict, seeds: list,
                  budget: int | None, target_size: int | None = None,
                  tie_break: str = "ordered", inputs=()) -> dict:
    """A run's manifest, with the same keys in the same order for every run.

    ``oracle`` is the backing's descriptor; ``inputs`` are the files the run reads, each
    to be recorded with its size and sha256 when the run is (None until then).
    """
    return {"strategy": strategy, "rng_seed": rng_seed, "weights": weights, "oracle": oracle,
            "seeds": seeds, "budget": budget, "target_size": target_size,
            "tie_break": tie_break, "version": __version__, "numpy": np.__version__,
            "inputs": dict.fromkeys(inputs)}


def _execute_sample(manifest: dict, out: Path | None, source: Path | None = None):
    """Run the manifest's sample; unless ``out`` is None, record it there.

    ``sample`` runs, their replays and ``sweep`` cells all build their oracle and
    weights, run and record here; ``source`` is the manifest file a replay read.
    Returns (state, trace).
    """
    oracle = _oracle_from_descriptor(manifest["oracle"], source)
    weights = _load_weights(manifest["weights"])
    seeds = _coerce_seed_ids(manifest["seeds"], oracle)
    try:
        state = sampler.init(seeds, oracle, weights)
    except OverflowError as exc:   # weights whose total edge weight is not finite
        raise DataError(f"{manifest['weights']}: {exc}") from None
    trace = sampler.run(state, manifest["strategy"], steps=manifest["budget"],
                        target_size=manifest.get("target_size"),
                        rng_seed=manifest["rng_seed"],
                        tie_break=manifest.get("tie_break", "ordered"))
    if out is not None:
        _record_run(out, manifest, oracle, state, trace)
    return state, trace


def cmd_sample(args) -> int:
    out = Path(args.out)
    source = Path(args.from_manifest) if args.from_manifest else None
    if source:
        manifest = _read_manifest(source)
        _check_inputs(manifest, source)
    else:
        if args.strategy not in sampler.STRATEGIES:
            raise ConfigError(f"unknown strategy {args.strategy!r}; "
                              f"expected one of {sampler.STRATEGIES}")
        if args.budget is None and args.target_size is None:
            raise ConfigError("need --budget or --target-size")
        descriptor = _descriptor(args)
        weights_ref = args.weights
        input_paths = [descriptor["path"]]
        if weights_ref not in ("unit", *SHIPPED_SCHEMES):
            weights_ref = str(Path(weights_ref).resolve())
            input_paths.append(weights_ref)
        manifest = _new_manifest(args.strategy, args.seed, weights_ref, descriptor,
                                 _read_seeds(args), args.budget, args.target_size,
                                 args.tie_break, input_paths)
    _state, trace = _execute_sample(manifest, out, source)
    print(f"{manifest['strategy']}: {len(trace)} timesteps "
          f"({trace.reason}) -> {out}/trace.csv")
    return 0


# ---------------------------------------------------------------------------
# metrics


def _load_run(run_dir: Path):
    """A run directory's trace, discovered graph and id map; DataError if a file is
    malformed, or if the files disagree with each other."""
    manifest_path, summary_path = run_dir / "manifest.json", run_dir / "run_summary.json"
    manifest = _read_json_object(manifest_path, "manifest")
    _check_types(manifest_path, manifest, {"seeds": ("array",), "strategy": ("string",)})
    summary = _read_json_object(summary_path, "run summary")
    _check_types(summary_path, summary, {"init_boundary": ("integer", "number"),
                                         "discovered_edges": ("integer",)}, "run summary")
    edges_path = run_dir / "discovered.tsv"
    g, ids = graph.read_edge_tsv(edges_path)
    seeds = [ids.intern(str(s)) for s in manifest["seeds"]]
    trace_path = run_dir / "trace.csv"
    trace = sampler.SampleTrace.read_csv(trace_path, ids, manifest["strategy"],
                                         seeds, summary["init_boundary"])
    if trace.start:   # every sample and sweep run starts at timestep 1
        lines = read_csv(trace_path, "trace")
        next(lines)
        raise DataError(f"{trace_path}:{next(lines)[0]}: the trace starts at timestep "
                        f"{trace.start + 1}, not 1")
    # every answer is to a queried node: a seed or a trace node
    queried = trace.insiders_at(trace.final_size())
    outside = np.flatnonzero(~np.isin(g.targets, np.array(queried, dtype=np.int64)))
    if outside.size:   # every line is one row
        row = int(outside[0])
        raise DataError(f"{edges_path}:{row + 1}: the edge's target "
                        f"{ids.external(int(g.targets[row]))} is neither a seed nor a "
                        f"node of {trace_path}")
    if g.n_edges() != summary["discovered_edges"]:
        raise DataError(f"{edges_path}: {summary_path} says {summary['discovered_edges']} "
                        f"edges, the file holds {g.n_edges()}")
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
    """One (r, strategy, repeat) cell, run from its manifest as a replay runs one;
    module-level for process pools."""
    manifest = payload["manifest"]
    model = manifest["oracle"]
    run_dir = payload["out_dir"] and Path(payload["out_dir"], payload["name"])
    state, trace = _execute_sample(manifest, run_dir)
    labels = sbm.block_labels(model["sizes"])   # a generated graph's node i has internal id i
    blocks = [int(labels[v]) for v in trace.selected()]
    # a run shorter than the window reports its whole sequence; an empty one reports 0
    purity = metrics.max_window_purity(blocks, min(payload["purity_window"], max(len(blocks), 1)))
    return {
        "r": model["r"], "strategy": manifest["strategy"],
        "repeat": payload["repeat"], "run_seed": manifest["rng_seed"],
        "steps": len(trace), "insiders": trace.final_size(),
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

    # each configuration is valid before a cell is laid out, each model feasible before one runs
    models = [sbm.BlockModelConfig(args.sizes, args.k_intra, r, args.seed) for r in args.r_list]
    layout = sbm.block_labels(args.sizes)   # every cell's block labels
    cells = []
    for ri, r in enumerate(args.r_list):
        for rep in range(args.repeats):
            graph_seed = args.seed * 1_000_003 + ri * 1_009 + rep
            seeds = sbm.select_seeds(layout, sbm.SeedConfig(seeds_per_block,
                                                            rng_seed=graph_seed + 777))
            for si, strategy in enumerate(strategies):
                # one descriptor per cell: its run records the edges' sha256 in it
                model = {"kind": "blockmodel", "sizes": list(args.sizes),
                         "k_intra": args.k_intra, "r": r, "graph_seed": graph_seed,
                         "edges_sha256": None}
                cells.append({
                    "manifest": _new_manifest(strategy, graph_seed * 31 + si, "unit", model,
                                              seeds, args.budget),
                    "repeat": rep, "purity_window": args.purity_window,
                    "name": f"r{r:g}_rep{rep}_{strategy}",
                    "out_dir": args.out if args.keep_runs else None,
                })
    _refuse_duplicates([cell["name"] for cell in cells], "sweep cells",
                       "give each strategy once, and r values that differ "
                       "to 6 significant digits")
    for cfg in models:
        sbm.derive_block_matrix(cfg)

    workers = _worker_count(len(cells))
    if workers > 1:
        import concurrent.futures   # only a pooled sweep pays for the import
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
