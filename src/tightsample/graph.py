"""Node-id interning and the discovered subgraph.

All internal node ids are dense integers assigned by :class:`IdMap`;
external ids (strings or ints) appear only at I/O boundaries.
"""

from __future__ import annotations

from array import array

import numpy as np

from .util import ConfigError, DataError, read_csv, read_lines, write_csv

EDGE_SELECTORS = ("all", "boundary", "internal")
WRITE_CHUNK = 8192   # lines per write in write_edge_tsv, nodes per gather of a run record


class IdMap:
    """Bijection between external ids and dense internal integers 0..n-1."""

    def __init__(self, exts=()):
        """Intern each of ``exts`` in turn."""
        self._ext2int: dict = {}
        self._int2ext: list = []
        for ext in exts:
            self.intern(ext)

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

    Edges are numpy columns, one row per ``(source, target)`` pair:
    ``sources`` and ``targets`` hold internal ids, ``weights`` the summed
    weight of the edge's engagement events and ``event_counts`` their count;
    the events themselves are not kept. Rows enter only through
    :meth:`add_events`, whole columns at a time, and are never merged or
    removed, so callers add each pair once: a sampler's graph is the oracle's
    answers to the nodes it queried once each, and :func:`read_edge_tsv`
    rejects a repeated pair. ``insiders`` is the one record of the sample:
    every edge's target is an insider because edges are only discovered by
    querying insiders' in-neighborhoods. Single-writer: callers serialize
    mutations.
    """

    def __init__(self, insiders: set[int] | None = None):
        self.insiders: set[int] = set() if insiders is None else insiders
        self.sources = np.empty(0, dtype=np.int64)
        self.targets = np.empty(0, dtype=np.int64)
        self.weights = np.empty(0, dtype=np.float64)
        self.event_counts = np.empty(0, dtype=np.int64)

    @property
    def nodes(self) -> set[int]:
        """Every node: the insiders and the edge endpoints."""
        return self.insiders | set(self.sources.tolist() + self.targets.tolist())

    def add_events(self, sources, targets, weights, event_counts) -> None:
        """Append the rows ``sources[i] -> targets[i]``, ``event_counts[i]`` events of
        total ``weights[i]``; an edgeless graph keeps the columns where dtypes match."""
        old = (self.sources, self.targets, self.weights, self.event_counts)
        new = [np.asarray(col, dtype=have.dtype)
               for col, have in zip((sources, targets, weights, event_counts), old)]
        if len({len(col) for col in new}) != 1:
            raise ValueError("edge columns differ in length")
        if (new[0] == new[1]).any():
            raise DataError(f"self-loop rejected: {new[0][new[0] == new[1]][0]}")
        if self.n_edges():
            new = [np.concatenate(pair) for pair in zip(old, new)]
        self.sources, self.targets, self.weights, self.event_counts = new

    def pairs(self):
        """``(source, target)`` of every edge, in append order."""
        return zip(self.sources.tolist(), self.targets.tolist())

    def n_edges(self) -> int:
        return len(self.sources)


def induced_subgraph(g: DiscoveredGraph, keep: set[int]) -> DiscoveredGraph:
    """Subgraph on ``keep`` (all marked insider), edges with both endpoints kept."""
    sub = DiscoveredGraph(set(keep))
    kept = np.fromiter(keep, dtype=np.int64, count=len(keep))
    rows = np.isin(g.sources, kept) & np.isin(g.targets, kept)
    sub.add_events(g.sources[rows], g.targets[rows], g.weights[rows], g.event_counts[rows])
    return sub


def total_edge_weight(g: DiscoveredGraph, selector: str = "all") -> float:
    """Sum of edge weights over a selector class.

    ``boundary`` counts outsider->insider edges, ``internal`` counts
    insider->insider edges; with unit weights both reduce to edge counts.
    """
    if selector not in EDGE_SELECTORS:
        raise ConfigError(f"unknown edge selector {selector!r}; use one of {EDGE_SELECTORS}")
    inside = np.isin(g.sources, np.fromiter(g.insiders, np.int64, len(g.insiders)))
    rows = {"all": slice(None), "boundary": ~inside, "internal": inside}[selector]
    return sum(g.weights[rows].tolist(), 0.0)


def in_edge_runs(targets: np.ndarray, sources: np.ndarray, *minor: np.ndarray):
    """Sort edge rows by (target, source, *minor) and cut them into edges.

    Returns the stable row order and ``edges``, the positions in it where the
    run of rows of each (target, source) pair begins. Ids must be non-negative,
    and dense enough (as internal ids are) that ``target * n + source`` fits in
    int64, ``n`` being one past the largest source id.
    """
    key = targets * (int(sources.max(initial=-1)) + 1) + sources   # one int64 per pair
    order = np.lexsort((*minor[::-1], key))
    key = key[order]
    # the first row, if any (keys are >= 0), then each row whose key differs from the last
    return order, np.flatnonzero(np.concatenate((key[:1] >= 0, key[1:] != key[:-1])))


def _format_distinct(column: np.ndarray, keys: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of each entry of ``column``, called once per distinct entry of ``keys``."""
    _distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([fmt(value) for value in column[first].tolist()], dtype=object)[inverse]


def write_edge_tsv(chunks, path, ids: IdMap) -> int:
    """TSV export ``source target weight n_events``; returns the number of lines.

    ``chunks`` yields ``(sources, targets, weights, event_counts)`` columns,
    already in line order. Lines are formatted column by column and written
    :data:`WRITE_CHUNK` at a time: one ``str`` per node id, built once, and per
    chunk one ``repr`` per distinct weight (by bit pattern, so ``-0.0`` keeps
    its sign) and one ``str`` per distinct event count.
    """
    names = np.fromiter(map(str, map(ids.external, range(len(ids)))), object, len(ids))
    written = 0
    with open(path, "w", newline="") as fh:
        for chunk in chunks:
            for start in range(0, len(chunk[0]), WRITE_CHUNK):
                s, t, w, n = (column[start:start + WRITE_CHUNK] for column in chunk)
                table = np.column_stack((names[s], names[t], _format_distinct(
                    w, w.view(np.int64), repr), _format_distinct(n, n, str)))
                fh.write("%s\t%s\t%s\t%s\n" * len(table) % tuple(table.ravel().tolist()))
                written += len(table)
    return written


def read_edge_tsv(path) -> tuple[DiscoveredGraph, IdMap]:
    """Rebuild a graph from :func:`write_edge_tsv` output (roles left unset).

    A self-loop or a repeated (source, target) pair is a :class:`DataError`
    naming its line.
    """
    ids = IdMap()
    sources, targets, weights, counts = array("q"), array("q"), array("d"), array("q")
    for lineno, line in read_lines(path, "edge list"):
        try:
            source, target, weight, n_events = line.rstrip("\n").split("\t")
            weight, n_events = float(weight), int(n_events)
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields: "
                            f"source, target, weight, event count") from None
        if source == target:
            raise DataError(f"{path}:{lineno}: self-loop on {source} rejected")
        sources.append(ids.intern(source))
        targets.append(ids.intern(target))
        weights.append(weight)
        counts.append(n_events)
    g = DiscoveredGraph()
    g.add_events(sources, targets, weights, counts)
    order, edges = in_edge_runs(g.targets, g.sources)
    repeats = np.delete(order, edges)   # every row of a pair but its first
    if repeats.size:
        row = int(repeats.min())   # every line is one row
        raise DataError(f"{path}:{row + 1}: repeats the edge "
                        f"{ids.external(sources[row])} -> {ids.external(targets[row])}")
    return g, ids


def write_labels_csv(path, labels: dict) -> None:
    """``node,block`` CSV, node order sorted by external id string."""
    write_csv(path, ["node", "block"],
              ((node, labels[node]) for node in sorted(labels, key=str)))


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
