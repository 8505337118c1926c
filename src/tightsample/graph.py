"""Node-id interning and the discovered subgraph.

All internal node ids are dense integers assigned by :class:`IdMap`;
external ids (strings or ints) appear only at I/O boundaries.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .util import ConfigError, DataError, read_csv, read_lines, run_starts, write_csv

EDGE_SELECTORS = ("all", "boundary", "internal")
# lines per write in write_columns, and about the rows per gather of a run record: a
# chunk's field strings and pointer arrays, some 0.5 KB a trace line, set the peak
# of a run's writes, and fewer lines per write cost more per line
WRITE_CHUNK = 4096


class IdMap:
    """Bijection between external ids and dense internal integers 0..n-1."""

    def __init__(self, exts=()):
        """Intern each of ``exts`` in turn: each distinct one by its first appearance."""
        self._int2ext: list = list(dict.fromkeys(exts))
        self._ext2int: dict = dict(zip(self._int2ext, range(len(self._int2ext))))

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
    """The portion of the unbounded network revealed so far, as ``metrics`` reads it.

    Edges are numpy columns, one row per ``(source, target)`` pair:
    ``sources`` and ``targets`` hold internal ids, ``weights`` the summed
    weight of the edge's engagement events and ``event_counts`` their count;
    the events themselves are not kept. Rows enter only through
    :meth:`add_events`, whole columns at a time, and are never merged or
    removed, so callers add each pair once: ``SampleState.discovered`` is the
    oracle's answers to the nodes a run queried once each, and
    :func:`read_edge_tsv` rejects a repeated pair. ``insiders`` is a copy of the
    sample where the builder knows it (``SampleState.discovered``,
    :func:`induced_subgraph`) and empty from :func:`read_edge_tsv`; a running
    sampler keeps its sample as one flag per node and builds no graph. Every
    edge's target is an insider because edges are only discovered by querying
    insiders' in-neighborhoods. Single-writer: callers serialize mutations.
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

    Returns the stable row order and ``starts``, the mask over it of the rows that
    begin the run of rows of each (target, source) pair. Ids must be non-negative
    ints, and dense enough (as internal ids are) that ``target * n + source`` fits in
    int64, ``n`` being one past the largest source id.
    """
    key = targets.astype(np.int64)   # one int64 per pair
    key *= int(sources.max(initial=-1)) + 1
    key += sources
    order = np.lexsort((*minor[::-1], key))
    key.sort()   # key[order], sorted in place
    return order, run_starts(key)


def _format_distinct(column: np.ndarray, keys: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of each entry of ``column``, called once per distinct entry of ``keys``."""
    _distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([fmt(value) for value in column[first].tolist()], dtype=object)[inverse]


def format_floats(column: np.ndarray) -> np.ndarray:
    """``repr`` of each float64, once per distinct bit pattern (so ``-0.0`` keeps its sign)."""
    return _format_distinct(column, column.view(np.int64), repr)


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field: quoted, its quotes doubled, when it
    holds a comma, a quote, a CR or an LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def format_ids(ids: IdMap, field=str, keep: bool = False):
    """A column format: ``field(str(ext))`` of each internal id's external id, built
    once per distinct id of a chunk; with ``keep``, once per distinct id of the whole
    write, each string kept to its end (for ids that recur from chunk to chunk)."""
    if not keep:
        return lambda column: _format_distinct(
            column, column, lambda v: field(str(ids.external(v))))
    names = np.empty(len(ids), dtype=object)
    done = np.zeros(len(ids), dtype=bool)

    def fmt(column):
        todo = np.unique(column[~done[column]])
        names[todo] = [field(str(ids.external(v))) for v in todo.tolist()]
        done[todo] = True
        return names[column]
    return fmt


def write_columns(path, chunks, formats, header=(), sep: str = "\t", end: str = "\n") -> int:
    """Write the fields of ``header`` (no line if empty), then the rows of ``chunks``;
    returns the row count.

    ``chunks`` yields tuples of equal-length numpy columns, rows already in line order;
    ``formats`` holds one entry per column: a function mapping a slice of it to an
    object array of field strings, or ``None`` for an int column, written as its
    values. Rows are written :data:`WRITE_CHUNK` at a time, one ``%``-format per write.
    With a comma, CRLF line ends and :func:`csv_field` on the text columns, the bytes
    are ``csv.writer``'s.
    """
    line = sep.join(["%s"] * len(formats)) + end
    written = 0
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(sep.join(header) + end)
        for chunk in chunks:
            for start in range(0, len(chunk[0]), WRITE_CHUNK):
                rows = slice(start, start + WRITE_CHUNK)
                table = np.column_stack([column[rows] if fmt is None else fmt(column[rows])
                                         for fmt, column in zip(formats, chunk)])
                fh.write(line * len(table) % tuple(table.ravel().tolist()))
                written += len(table)
    return written


def write_edge_tsv(chunks, path, ids: IdMap) -> int:
    """TSV export ``source target weight n_events``; returns the number of lines.

    ``chunks`` yields ``(sources, targets, weights, event_counts)`` columns,
    already in line order, written by :func:`write_columns`: one ``str`` per node
    id that the file holds, per chunk one ``repr`` per distinct weight (by bit
    pattern), and the event counts as ints.
    """
    node = format_ids(ids, keep=True)
    return write_columns(path, chunks, (node, node, format_floats, None))


def read_edge_tsv(path) -> tuple[DiscoveredGraph, IdMap]:
    """Rebuild a graph from :func:`write_edge_tsv` output (roles left unset).

    A self-loop, a repeated (source, target) pair, a weight that is not a finite
    number >= 0 and an event count below 1 or beyond int64 are each a
    :class:`DataError` naming its line.
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
        if not (0.0 <= weight < math.inf and 1 <= n_events < 1 << 63):   # false for NaN too
            raise DataError(f"{path}:{lineno}: expected a finite weight >= 0 and an int64 "
                            f"event count >= 1, got {weight!r} and {n_events}")
        sources.append(ids.intern(source))
        targets.append(ids.intern(target))
        weights.append(weight)
        counts.append(n_events)
    g = DiscoveredGraph()
    g.add_events(sources, targets, weights, counts)
    order, starts = in_edge_runs(g.targets, g.sources)
    repeats = order[~starts]   # every row of a pair but its first
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
