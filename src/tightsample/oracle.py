"""The gateway to the unbounded network.

Samplers never see the full graph; the only retrieval primitive is
``in_neighbors(v)`` for a node that is already discoverable (a declared seed
or a node returned by an earlier answer). Every query is appended to an
access log so tests can audit exactly what a sampling run touched.
"""

from __future__ import annotations

import csv
import threading

import numpy as np

from .graph import IdMap
from .ingest import EventTable
from .interactions import PLAIN_EDGE
from .util import DataError, read_lines


class UnknownNodeError(DataError):
    """Raised when a query names a node the oracle never revealed."""


def _string_ranks(strings: list[str]) -> np.ndarray:
    """Each of the distinct ``strings``' position in sorted order."""
    order = sorted(range(len(strings)), key=strings.__getitem__)
    ranks = np.empty(len(strings), dtype=np.int64)
    ranks[order] = np.arange(len(strings))
    return ranks


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Indices where a run of equal ``keys`` rows begins, in rows sorted by them."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _plain_in_adjacency(sources: dict[int, list[int]]) -> dict:
    """Plain-edge in-adjacency from in-neighbour ids: sorted, no repeats or self-loops."""
    plain = (PLAIN_EDGE,)
    return {v: tuple((u, plain) for u in sorted(set(srcs)) if u != v)
            for v, srcs in sources.items()}


class GraphOracle:
    """In-neighborhood oracle over one of three backings.

    Backings: an in-memory generated graph (undirected edges served in both
    directions), a directed edge-list file, or an engagement-event index.
    ``in_neighbors`` is read-only on the backing and safe for concurrent
    callers; the access log append is lock-protected.
    """

    def __init__(self, in_adj: dict, ids: IdMap):
        self._in = in_adj
        self.ids = ids
        self._discoverable: set[int] = set()
        self._log: list[int] = []
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------

    @classmethod
    def from_undirected_edges(cls, edges, n_nodes: int | None = None) -> "GraphOracle":
        """Serve an undirected simple graph as two directed plain edges each.

        Nodes are the integers 0..n-1; external and internal ids coincide.
        """
        ids = IdMap()
        if n_nodes is not None:
            for v in range(n_nodes):
                ids.intern(v)
        sources: dict[int, list[int]] = {}
        for u, v in edges:
            ui, vi = ids.intern(u), ids.intern(v)
            sources.setdefault(vi, []).append(ui)
            sources.setdefault(ui, []).append(vi)
        return cls(_plain_in_adjacency(sources), ids)

    @classmethod
    def from_edgelist(cls, path) -> "GraphOracle":
        """Directed edge-list TSV backing: one ``source<TAB>target`` per line."""
        ids = IdMap()
        sources: dict[int, list[int]] = {}
        for lineno, line in read_lines(path, "edge list"):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected source<TAB>target")
            src = ids.intern(parts[0])
            sources.setdefault(ids.intern(parts[1]), []).append(src)
        return cls(_plain_in_adjacency(sources), ids)

    @classmethod
    def from_events(cls, events) -> "GraphOracle":
        """Engagement-event backing, pre-indexed by author at load time.

        ``events`` is an :class:`~tightsample.ingest.EventTable` or an
        iterable of events. ``in_neighbors(author)`` lists every user who
        engaged with the author's tweets, with one interaction pattern per
        tweet. The patterns are ordered by tweet id (as strings), the order in
        which ``event_weight`` sums them; the ids themselves are not kept.
        Internal ids go to users in order of appearance, author before
        interactor, event by event.
        """
        if not isinstance(events, EventTable):
            events = EventTable.from_events(events)
        # user codes in order of first appearance in the interleaved (author, interactor)
        codes, first = np.unique(np.column_stack((events.author, events.interactor)),
                                 return_index=True)
        codes = codes[np.argsort(first)]
        ids = IdMap()
        for code in codes.tolist():
            ids.intern(events.users[code])
        internal = np.empty(len(events.users), dtype=np.int64)
        internal[codes] = np.arange(len(codes))
        author, interactor = internal[events.author], internal[events.interactor]
        engaged = author != interactor
        author, interactor = author[engaged], interactor[engaged]
        tweet_rank = _string_ranks(events.tweets)[events.tweet[engaged]]

        # sorted by (author, interactor, tweet id string): an answer per run of one
        # author, an edge per run of one (author, interactor)
        order = np.lexsort((tweet_rank, interactor, author))
        author, interactor = author[order], interactor[order]
        patterns = events.pattern[engaged][order].tolist()
        edges = _starts(author, interactor)
        bounds = edges.tolist() + [len(patterns)]
        answers = list(zip(interactor[edges].tolist(),
                           (tuple(patterns[i:k]) for i, k in zip(bounds, bounds[1:]))))
        targets = author[edges]
        heads = _starts(targets)
        bounds = heads.tolist() + [len(answers)]
        in_adj = {v: tuple(answers[i:k])
                  for v, i, k in zip(targets[heads].tolist(), bounds, bounds[1:])}
        return cls(in_adj, ids)

    # -- seed declaration and queries -----------------------------------

    def declare_seeds(self, seed_exts) -> list[int]:
        """Mark seeds discoverable, returning their internal ids in order."""
        internal = []
        for ext in seed_exts:
            if ext not in self.ids:
                raise DataError(f"unknown seed: {ext!r}")
            v = self.ids.resolve(ext)
            self._discoverable.add(v)
            internal.append(v)
        return internal

    def in_neighbors(self, v: int):
        """All known in-neighbors of ``v``, each as ``(u, patterns)``.

        ``patterns`` is a tuple of interaction-pattern ints, one per event on
        the edge ``u -> v``; a plain edge answers ``(PLAIN_EDGE,)``. Strictly
        ascending internal id, which the sampler's frontiers rely on. ``v``
        must be discoverable.
        """
        if v not in self._discoverable:
            ext = self.ids.external(v) if 0 <= v < len(self.ids) else v
            raise UnknownNodeError(f"node not discoverable: {ext!r}")
        with self._lock:
            self._log.append(v)
        answer = self._in.get(v, ())
        for u, _patterns in answer:
            self._discoverable.add(u)
        return answer

    # -- audit ----------------------------------------------------------

    @property
    def access_log(self) -> tuple[int, ...]:
        return tuple(self._log)

    @property
    def query_count(self) -> int:
        return len(self._log)

    def write_access_log(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "node_ext_id"])
            for step, v in enumerate(self._log, 1):
                writer.writerow([step, self.ids.external(v)])
