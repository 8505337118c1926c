"""Traced mode: wrap the package's public functions and derive per-layer metrics.

Coarse calls get one span each (name, layer, command id, parent, start, end).
Hot leaves (``in_neighbors``, ``add_events``, ``event_weight``, ``select``)
are too frequent for a span per call; each call instead adds its count and
nanoseconds to the span that is open around it. A span's self time is its
duration minus its child spans and its leaf time. Spans stay in memory and
are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from tightsample import graph, ingest, interactions, metrics, oracle, sampler, sbm

class Span:
    __slots__ = ("id", "name", "layer", "command", "parent", "start", "end", "leaves")

    def __init__(self, span_id, name, layer, command, parent, start, end=None):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.command = command
        self.parent = parent          # id of the enclosing span, or None
        self.start = start            # perf_counter_ns
        self.end = end
        self.leaves: dict[str, list[int]] = {}   # leaf name -> [calls, ns]

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "command": self.command, "parent": self.parent,
                "start_ns": self.start, "end_ns": self.end, "leaves": self.leaves}


class Tracer:
    """In-memory span recorder for one traced iteration (single-threaded)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.command = 0
        self.counters: dict[str, float] = {}
        self.audits: list[tuple[float, float]] = []   # (deviation, boundary)

    def open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, layer, self.command, parent, self.clock())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def command_span(self, role: str):
        self.command += 1
        span = self.open(f"cli.{role}", "cli")
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans) -> list[int]:
    """Self time of each span: duration minus child spans and leaf time."""
    position = {s.id: i for i, s in enumerate(spans)}
    own = [s.duration - sum(ns for _calls, ns in s.leaves.values()) for s in spans]
    for s in spans:
        if s.parent in position:
            own[position[s.parent]] -= s.duration
    return own


# ---------------------------------------------------------------------------
# wrappers


def _coarse(tracer: Tracer, name: str, layer: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, result)
        return result
    return wrapper


def _leaf(tracer: Tracer, name: str, fn, after=None):
    clock = tracer.clock
    stack = tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            tally = stack[-1].leaves.setdefault(name, [0, 0])
            tally[0] += 1
            tally[1] += clock() - start
        if after is not None:
            after(tracer, result)
        return result
    return wrapper


def _traced_run(tracer: Tracer, fn, audit):
    """``sampler.run`` with a frontier probe per step and an audit afterwards."""
    @functools.wraps(fn)
    def wrapper(state, *args, **kwargs):
        user_on_step = kwargs.get("on_step")

        def on_step(st, row):
            tracer.count("sampler.frontier_sum", len(st.outsiders))
            tracer.count("sampler.steps")
            if user_on_step is not None:
                user_on_step(st, row)

        kwargs["on_step"] = on_step
        span = tracer.open("sampler.run", "sampler")
        try:
            result = fn(state, *args, **kwargs)
        finally:
            tracer.close(span)
        span = tracer.open("sampler.audit", "sampler")
        try:
            deviation = audit(state)
        finally:
            tracer.close(span)
        tracer.audits.append((deviation, state.boundary))
        tracer.count("graph.discovered_edges", state.discovered.n_edges())
        return result
    return wrapper


def _count_len(name):
    return lambda tracer, result: tracer.count(name, len(result))


# (owner, attribute, span or leaf name, layer, kind, after-hook)
TARGETS = (
    (sbm, "generate", "sbm.generate", "sbm", "coarse", None),
    (sbm, "read_edges_tsv", "sbm.read_edges_tsv", "sbm", "coarse", None),
    (oracle.GraphOracle, "from_undirected_edges", "oracle.build", "oracle", "coarse", None),
    (oracle.GraphOracle, "from_edgelist", "oracle.build", "oracle", "coarse", None),
    (oracle.GraphOracle, "from_events", "oracle.build", "oracle", "coarse", None),
    (oracle.GraphOracle, "in_neighbors", "oracle.in_neighbors", "oracle", "leaf",
     _count_len("oracle.answer_entries")),
    # the trace.csv and access_log.csv writes count as CLI work
    (oracle.GraphOracle, "write_access_log", "cli.write_access_log", "cli", "coarse", None),
    (graph.DiscoveredGraph, "add_events", "graph.add_events", "graph", "leaf", None),
    (graph, "write_edge_tsv", "graph.write_edge_tsv", "graph", "coarse", None),
    (graph, "read_edge_tsv", "graph.read_edge_tsv", "graph", "coarse", None),
    (sampler, "init", "sampler.init", "sampler", "coarse", None),
    (sampler, "run", "sampler.run", "sampler", "run", None),
    (sampler, "step", "sampler.step", "sampler", "coarse", None),
    (sampler.SampleState, "select", "sampler.select", "sampler", "leaf", None),
    (sampler.SampleTrace, "write_csv", "cli.write_trace_csv", "cli", "coarse", None),
    (interactions.WeightTable, "event_weight", "interactions.event_weight",
     "interactions", "leaf", None),
    (interactions.UnitWeights, "event_weight", "interactions.event_weight",
     "interactions", "leaf", None),
    (interactions, "calibrate_records", "interactions.calibrate_records",
     "interactions", "coarse", None),
    (interactions, "read_weight_csv", "interactions.read_weight_csv",
     "interactions", "coarse", None),
    (ingest, "parse_events", "ingest.parse_events", "ingest", "coarse",
     _count_len("ingest.rows")),
    (ingest, "apply_filters", "ingest.apply_filters", "ingest", "coarse", None),
    (metrics, "avg_shortest_path", "metrics.avg_shortest_path", "metrics", "coarse",
     lambda tracer, stats: tracer.count("metrics.reachable_pairs", stats.reachable_pairs)),
    (metrics, "clustering_local", "metrics.clustering_local", "metrics", "coarse", None),
    (metrics, "clustering_global", "metrics.clustering_global", "metrics", "coarse", None),
    (metrics, "min_common_snapshot", "metrics.min_common_snapshot", "metrics",
     "coarse", None),
    (metrics, "community_evolution", "metrics.community_evolution", "metrics",
     "coarse", None),
)


def _raw(owner, attr):
    """The attribute as stored, so a classmethod is restored as a classmethod."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Install the wrappers for the duration of the block, then restore."""
    originals = []
    audit = sampler.audit
    try:
        for owner, attr, name, layer, kind, after in targets:
            raw = _raw(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if kind == "leaf":
                wrapped = _leaf(tracer, name, fn, after)
            elif kind == "run":
                wrapped = _traced_run(tracer, fn, audit)
            else:
                wrapped = _coarse(tracer, name, layer, fn, after)
            originals.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod)
                    else wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics

_NS = 1e-9


def span_totals(spans) -> dict[str, float]:
    """``<name>_s`` and ``<name>_calls`` for every span and leaf name."""
    totals: dict[str, float] = {}
    for s in spans:
        totals[f"{s.name}_s"] = totals.get(f"{s.name}_s", 0.0) + s.duration * _NS
        totals[f"{s.name}_calls"] = totals.get(f"{s.name}_calls", 0) + 1
        for leaf, (calls, ns) in s.leaves.items():
            totals[f"{leaf}_s"] = totals.get(f"{leaf}_s", 0.0) + ns * _NS
            totals[f"{leaf}_calls"] = totals.get(f"{leaf}_calls", 0) + calls
    own = self_times(spans)
    for s, ns in zip(spans, own):
        key = "sampler.step_self_s" if s.name == "sampler.step" else f"{s.layer}.self_s"
        totals[key] = totals.get(key, 0.0) + ns * _NS
    return totals


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced iteration, by benchmark name."""
    totals = span_totals(tracer.spans)
    counters = tracer.counters
    steps = counters.get("sampler.steps", 0)
    out = {name: totals.get(name, 0) for name in (
        "sbm.generate_s", "sbm.generate_calls", "sbm.read_edges_tsv_s",
        "oracle.build_s", "oracle.build_calls", "oracle.in_neighbors_s",
        "graph.add_events_s", "graph.add_events_calls",
        "graph.write_edge_tsv_s", "graph.read_edge_tsv_s",
        "sampler.run_s", "sampler.select_s", "sampler.select_calls",
        "sampler.step_self_s", "sampler.init_s", "sampler.audit_s",
        "interactions.event_weight_s", "interactions.event_weight_calls",
        "interactions.calibrate_records_s", "interactions.read_weight_csv_s",
        "ingest.parse_events_s", "ingest.apply_filters_s",
        "metrics.avg_shortest_path_s", "metrics.clustering_local_s",
        "metrics.clustering_global_s", "metrics.min_common_snapshot_s",
        "metrics.community_evolution_s", "cli.self_s")}
    out["oracle.queries"] = totals.get("oracle.in_neighbors_calls", 0)
    out["ingest.parse_calls"] = totals.get("ingest.parse_events_calls", 0)
    for name in ("oracle.answer_entries", "graph.discovered_edges", "ingest.rows",
                 "metrics.reachable_pairs"):
        out[name] = counters.get(name, 0)
    out["sampler.frontier_mean"] = counters.get("sampler.frontier_sum", 0) / steps \
        if steps else 0.0
    out["sampler.audit_dev"] = max((dev for dev, _b in tracer.audits), default=0.0)
    return out


def command_breakdown(tracer: Tracer) -> list[dict]:
    """Per-command wall time and layer totals, for the traced-run report."""
    by_command: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_command.setdefault(s.command, []).append(s)
    rows = []
    for command, spans in sorted(by_command.items()):
        root = spans[0]
        totals = span_totals(spans)
        seconds = {k: round(v, 4) for k, v in totals.items()
                   if v and k.endswith("_s") and k != f"{root.name}_s"}
        calls = {k: v for k, v in totals.items()
                 if k.endswith("_calls") and k != f"{root.name}_calls"}
        rows.append({"command": command, "role": root.name.removeprefix("cli."),
                     "wall_s": round(root.duration * _NS, 4), "seconds": seconds,
                     "calls": calls})
    return rows
