"""The gateway to the unbounded network.

Samplers never see the full graph; the only retrieval primitive is
``in_neighbors(v)`` for a node that is already discoverable (a declared seed
or a node returned by an earlier answer). Every query is appended to an
access log so tests can audit exactly what a sampling run touched.
"""

from __future__ import annotations

import threading
from itertools import chain

import numpy as np

from .graph import IdMap, in_edge_runs
from .ingest import EventTable
from .interactions import PLAIN_EDGE, UnitWeights
from .util import DataError, first_seen, read_lines, write_csv


class UnknownNodeError(DataError):
    """Raised when a query names a node the oracle never revealed."""


def _string_ranks(strings: list[str]) -> np.ndarray:
    """Each of the distinct ``strings``' position in sorted order."""
    order = sorted(range(len(strings)), key=strings.__getitem__)
    ranks = np.empty(len(strings), dtype=np.int64)
    ranks[order] = np.arange(len(strings))
    return ranks


class GraphOracle:
    """In-neighborhood oracle over one of three backings.

    Backings: an in-memory generated graph (undirected edges served in both
    directions), a directed edge-list file, or an engagement-event index,
    each held as one in-edge CSR. A run's weight table is bound to it once,
    by :meth:`declare_seeds`, as one float64 weight column in CSR order, beside
    the int64 event-count column. ``in_neighbors`` is read-only on the
    backing and safe for concurrent callers; the access log append is
    lock-protected.
    """

    # -- construction --------------------------------------------------

    def __init__(self, ids: IdMap, targets: np.ndarray, sources: np.ndarray,
                 patterns: np.ndarray | None = None, tweet_rank: np.ndarray | None = None):
        """The in-edge CSR of the rows ``sources[i] -> targets[i]`` (internal ids).

        Self-loops are dropped and the rows of one (target, source) pair make one
        edge: ``v``'s in-neighbours are ``_sources[_indptr[v]:_indptr[v + 1]]``,
        ascending. Edge ``i``'s pattern tuple is ``_tuples[_codes[i]]``, each
        distinct tuple held once: ``(PLAIN_EDGE,)`` when ``patterns`` is None,
        else the rows' patterns in ``tweet_rank`` order.
        """
        kept = targets != sources
        targets, sources = targets[kept], sources[kept]
        minor = () if tweet_rank is None else (tweet_rank[kept],)
        order, edges = in_edge_runs(targets, sources, *minor)
        if patterns is None:
            self._tuples, self._codes = [(PLAIN_EDGE,)], np.zeros(len(edges), dtype=np.int64)
        else:
            patterns = patterns[kept][order].tolist()
            bounds = edges.tolist() + [len(patterns)]
            distinct: dict[tuple, int] = {}
            codes = [distinct.setdefault(tuple(patterns[i:k]), len(distinct))
                     for i, k in zip(bounds, bounds[1:])]
            self._tuples, self._codes = list(distinct), np.array(codes, dtype=np.int64)
        self._event_counts = np.array([len(t) for t in self._tuples], dtype=np.int64)[self._codes]
        self._weights = np.empty(0)   # bound by declare_seeds
        edges = order[edges]
        self._indptr = np.searchsorted(targets[edges], np.arange(len(ids) + 1)).tolist()
        # one int object per node, shared by its edges: less memory, identity-hit lookups
        self._sources = np.arange(len(ids)).astype(object)[sources[edges]].tolist()
        self.ids = ids
        self._discoverable: set[int] = set()
        self._log: list[int] = []
        self._lock = threading.Lock()

    @classmethod
    def from_undirected_edges(cls, edges, n_nodes: int | None = None) -> "GraphOracle":
        """Serve an undirected graph as two directed plain edges each.

        ``edges`` is an ``(m, 2)`` int array or a sequence of ``(u, v)`` int pairs.
        Internal ids go to nodes by first appearance, ``u`` before ``v`` edge by
        edge, after 0..n_nodes-1 when ``n_nodes`` is given, so node ``i`` of a
        generated graph has internal id ``i``. Repeats and self-loops are dropped.
        """
        prefix = np.arange(n_nodes or 0, dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1)
        internal, nodes, _first = first_seen(np.concatenate((prefix, edges)))
        ids = IdMap(nodes.tolist())
        u, v = internal[len(prefix):].reshape(-1, 2).T
        return cls(ids, np.concatenate((v, u)), np.concatenate((u, v)))

    @classmethod
    def from_edgelist(cls, path) -> "GraphOracle":
        """Directed edge-list TSV backing: one ``source<TAB>target`` per line.

        Internal ids go to nodes in order of first appearance, source before
        target. Repeated lines and self-loops are dropped.
        """
        ids = IdMap()
        codes = []
        for lineno, line in read_lines(path, "edge list"):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected source<TAB>target")
            if not parts[0] or not parts[1]:
                raise DataError(f"{path}:{lineno}: empty node id")
            codes += ids.intern(parts[0]), ids.intern(parts[1])
        codes = np.array(codes, dtype=np.int64)
        return cls(ids, codes[1::2], codes[0::2])

    @classmethod
    def from_events(cls, events: EventTable) -> "GraphOracle":
        """Engagement-event backing, pre-indexed by author at load time.

        ``in_neighbors(author)`` of the :class:`~tightsample.ingest.EventTable`
        ``events`` lists every user who engaged with the author's tweets. An
        edge's pattern tuple holds one interaction pattern per tweet, ordered by
        tweet id (as strings), the order in which ``event_weight`` sums them;
        the ids themselves are not kept. Internal ids go to users in order of
        appearance, author before interactor, event by event.
        """
        # users numbered by first appearance in the interleaved (author, interactor)
        internal, codes, _first = first_seen(np.column_stack((events.author, events.interactor)))
        ids = IdMap(events.users[code] for code in codes.tolist())
        return cls(ids, internal[:, 0], internal[:, 1],
                   events.pattern, _string_ranks(events.tweets)[events.tweet])

    # -- seed declaration and queries -----------------------------------

    def declare_seeds(self, seed_exts, weights=None) -> list[int]:
        """Mark seeds discoverable and weigh every edge by ``weights``.

        Returns the seeds' internal ids in order. ``weights`` (default
        :class:`~tightsample.interactions.UnitWeights`) is bound for the run
        that starts here: each edge weighs ``weights.event_weight`` of its
        pattern tuple, called once per distinct tuple, so a pattern the table
        lacks warns now, whether or not its edges are ever queried.
        """
        internal = []
        for ext in seed_exts:
            if ext not in self.ids:
                raise DataError(f"unknown seed: {ext!r}")
            v = self.ids.resolve(ext)
            self._discoverable.add(v)
            internal.append(v)
        weights = UnitWeights() if weights is None else weights
        per_tuple = [weights.event_weight(patterns) for patterns in self._tuples]
        self._weights = np.array(per_tuple, dtype=np.float64)[self._codes]
        return internal

    def in_neighbors(self, v: int):
        """All known in-neighbors of ``v``, each as ``(u, w)``.

        ``w`` is the edge ``u -> v``'s entry in the bound weight column: its
        events' weights, summed in tweet-id order. Strictly ascending internal id, which the
        sampler's frontiers rely on, and never ``v`` itself: self-loops are
        dropped at build. ``v`` must be discoverable.
        """
        if v not in self._discoverable:
            ext = self.ids.external(v) if 0 <= v < len(self.ids) else v
            raise UnknownNodeError(f"node not discoverable: {ext!r}")
        with self._lock:
            self._log.append(v)
        i, k = self._indptr[v], self._indptr[v + 1]
        sources = self._sources[i:k]
        self._discoverable.update(sources)
        return tuple(zip(sources, self._weights[i:k].tolist()))

    def in_edges(self, nodes):
        """``sources, targets, weights, event_counts`` of the answers to ``nodes``, one
        after another, as the columns ``DiscoveredGraph.add_events`` takes; unlike
        :meth:`in_neighbors`, logs and reveals nothing."""
        spans = [range(self._indptr[v], self._indptr[v + 1]) for v in nodes]
        sizes = list(map(len, spans))
        rows = np.fromiter(chain.from_iterable(spans), np.int64, sum(sizes))
        sources = chain.from_iterable(self._sources[span.start:span.stop] for span in spans)
        return (np.fromiter(sources, np.int64, len(rows)),
                np.repeat(np.array(nodes, dtype=np.int64), sizes),
                self._weights[rows], self._event_counts[rows])

    # -- audit ----------------------------------------------------------

    @property
    def access_log(self) -> tuple[int, ...]:
        return tuple(self._log)

    def write_access_log(self, path) -> None:
        write_csv(path, ["step", "node_ext_id"],
                  ((step, self.ids.external(v)) for step, v in enumerate(self._log, 1)))
