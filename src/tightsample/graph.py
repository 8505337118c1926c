"""Node-id interning and the discovered subgraph.

All internal node ids are dense integers assigned by :class:`IdMap`;
external ids (strings or ints) appear only at I/O boundaries.
"""

from __future__ import annotations

import csv

from .util import ConfigError, DataError, read_csv, read_lines

EDGE_SELECTORS = ("all", "boundary", "internal")


class IdMap:
    """Bijection between external ids and dense internal integers 0..n-1."""

    def __init__(self):
        self._ext2int: dict = {}
        self._int2ext: list = []

    def intern(self, ext) -> int:
        """Return the internal id for ``ext``, assigning a new one if needed."""
        internal = self._ext2int.get(ext)
        if internal is None:
            internal = len(self._int2ext)
            self._ext2int[ext] = internal
            self._int2ext.append(ext)
        return internal

    def resolve(self, ext) -> int:
        """Internal id for a known external id; KeyError if never interned."""
        return self._ext2int[ext]

    def external(self, internal: int):
        return self._int2ext[internal]

    def __contains__(self, ext) -> bool:
        return ext in self._ext2int

    def __len__(self) -> int:
        return len(self._int2ext)


class DiscoveredGraph:
    """The portion of the unbounded network revealed so far.

    ``edges`` maps (source, target) to the summed weight of its engagement
    events and ``n_events`` to their count; the events themselves are not
    kept. ``insiders`` is the one record of the sample: every edge's target
    is an insider because edges are only discovered by querying insiders'
    in-neighborhoods. Single-writer: callers serialize mutations; reads are
    safe once a mutation completes.
    """

    def __init__(self):
        self.nodes: set[int] = set()
        self.insiders: set[int] = set()
        self.edges: dict[tuple[int, int], float] = {}
        self.n_events: dict[tuple[int, int], int] = {}

    @classmethod
    def from_edge_pairs(cls, pairs, weight: float = 1.0) -> "DiscoveredGraph":
        """Build an all-insider graph from (source, target) pairs (test/metrics aid)."""
        g = cls()
        for s, t in pairs:
            g.add_node(s, insider=True)
            g.add_node(t, insider=True)
            g.add_events(s, t, weight, 1)
        return g

    def add_node(self, v: int, insider: bool = False) -> None:
        self.nodes.add(v)
        if insider:
            self.insiders.add(v)

    def add_events(self, source: int, target: int, weight: float, n_events: int) -> None:
        """Add ``n_events`` events of total ``weight`` to the (source, target) edge."""
        if source == target:
            raise DataError(f"self-loop rejected: {source}")
        key = (source, target)
        old = self.edges.get(key)
        if old is None:
            self.edges[key] = weight
            self.n_events[key] = n_events
        else:
            self.edges[key] = old + weight
            self.n_events[key] += n_events

    def n_edges(self) -> int:
        return len(self.edges)


def induced_subgraph(g: DiscoveredGraph, keep: set[int]) -> DiscoveredGraph:
    """Subgraph on ``keep`` (all marked insider), edges with both endpoints kept."""
    sub = DiscoveredGraph()
    sub.nodes.update(keep)
    sub.insiders.update(keep)
    for (s, t), weight in g.edges.items():
        if s in keep and t in keep:
            sub.add_events(s, t, weight, g.n_events[(s, t)])
    return sub


def total_edge_weight(g: DiscoveredGraph, selector: str = "all") -> float:
    """Sum of edge weights over a selector class.

    ``boundary`` counts outsider->insider edges, ``internal`` counts
    insider->insider edges; with unit weights both reduce to edge counts.
    """
    if selector not in EDGE_SELECTORS:
        raise ConfigError(f"unknown edge selector {selector!r}; use one of {EDGE_SELECTORS}")
    total = 0.0
    for (s, _t), weight in g.edges.items():
        if selector == "boundary" and s in g.insiders:
            continue
        if selector == "internal" and s not in g.insiders:
            continue
        total += weight
    return total


def write_edge_tsv(g: DiscoveredGraph, path, ids: IdMap) -> None:
    """TSV export ``source target weight n_events``, ordered by (target, source)."""
    rows = sorted(g.edges, key=lambda st: (st[1], st[0]))
    with open(path, "w", newline="") as fh:
        for key in rows:
            fh.write(f"{ids.external(key[0])}\t{ids.external(key[1])}\t"
                     f"{g.edges[key]!r}\t{g.n_events[key]}\n")


def read_edge_tsv(path, ids: IdMap | None = None) -> tuple[DiscoveredGraph, IdMap]:
    """Rebuild a graph from :func:`write_edge_tsv` output (roles left unset)."""
    if ids is None:
        ids = IdMap()
    g = DiscoveredGraph()
    for lineno, line in read_lines(path, "edge list"):
        try:
            source, target, weight, n_events = line.rstrip("\n").split("\t")
            weight, n_events = float(weight), int(n_events)
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields: "
                            f"source, target, weight, event count") from None
        s = ids.intern(source)
        t = ids.intern(target)
        g.add_node(s)
        g.add_node(t)
        g.add_events(s, t, weight, n_events)
    return g, ids


def write_labels_csv(path, labels: dict) -> None:
    """``node,block`` CSV, node order sorted by external id string."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "block"])
        for node in sorted(labels, key=str):
            writer.writerow([node, labels[node]])


def read_labels_csv(path) -> dict[str, int]:
    """Read a ``node,community`` (or ``node,block``) CSV into a dict."""
    rows = read_csv(path, "labels")
    _lineno, header = next(rows, (0, None))
    if header is None or len(header) < 2:
        raise DataError(f"{path}: missing header row")
    labels = {}
    for lineno, row in rows:
        try:
            labels[row[0]] = int(row[1])
        except (IndexError, ValueError):
            raise DataError(f"{path}:{lineno}: expected node and integer "
                            f"community fields") from None
    return labels
