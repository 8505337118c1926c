"""The gateway to the unbounded network.

Samplers never see the full graph; the only retrieval primitive is
``in_neighbors(v)`` for a node that is already discoverable (a declared seed
or a node returned by an earlier answer), recorded as one flag per node. Every
query is appended to an access log so tests can audit exactly what a sampling
run touched.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import graph
from .graph import IdMap, in_edge_runs
from .ingest import EventTable
from .interactions import PLAIN_EDGE, UnitWeights
from .util import DataError, first_seen, id_dtype, read_lines


class UnknownNodeError(DataError):
    """Raised when a query names a node the oracle never revealed."""


class GraphOracle:
    """In-neighborhood oracle over one of three backings.

    Backings: an in-memory generated graph (undirected edges served in both
    directions), a directed edge-list file, or an engagement-event index,
    each held as one in-edge CSR with one pattern-tuple code per edge. A run's
    weight table is bound to it once, by :meth:`declare_seeds`, as one float64
    weight per distinct tuple, beside the event count per tuple; answers gather
    both through the codes. ``in_neighbors`` is read-only on the backing and
    safe for concurrent callers: it only ever sets reveal flags, one bool per
    node, and the access log append is lock-protected.
    """

    # -- construction --------------------------------------------------

    def __init__(self, ids: IdMap, targets: np.ndarray, sources: np.ndarray,
                 patterns: np.ndarray | None = None, tweet_rank: np.ndarray | None = None):
        """The in-edge CSR of the rows ``sources[i] -> targets[i]`` (internal ids).

        Self-loops are dropped and the rows of one (target, source) pair make one
        edge: ``v``'s in-neighbours are ``_sources[_indptr[v]:_indptr[v + 1]]``,
        ascending. Edge ``i``'s pattern tuple is ``_tuples[_codes[i]]``, each
        distinct tuple held once: ``(PLAIN_EDGE,)`` when ``patterns`` is None,
        else the rows' patterns in ``tweet_rank`` order. Event counts, edge counts
        and the bound weights are per-tuple tables, read through ``_codes``; a plain
        backing's code column is a zero-stride view of one 0, so every backing keeps
        one column per edge, ``_sources``, in the dtype of the ids given (int32 from
        :func:`~tightsample.util.first_seen`). Each temporary is dropped once used,
        since the build's peak sets the heap that a run keeps.
        """
        kept = targets != sources
        if not kept.all():   # copy only to drop a self-loop
            targets, sources = targets[kept], sources[kept]
            patterns = None if patterns is None else patterns[kept]
            tweet_rank = None if tweet_rank is None else tweet_rank[kept]
        del kept
        order, starts = in_edge_runs(targets, sources,
                                     *(() if tweet_rank is None else (tweet_rank,)))
        del tweet_rank
        if patterns is None:
            self._tuples = [(PLAIN_EDGE,)]
            self._codes = np.broadcast_to(np.int64(0), np.count_nonzero(starts))
            self._tuple_edges = np.array([len(self._codes)])
        else:
            patterns = patterns[order].tolist()
            bounds = np.flatnonzero(starts).tolist() + [len(patterns)]
            distinct: dict[tuple, int] = {}
            codes = [distinct.setdefault(tuple(patterns[i:k]), len(distinct))
                     for i, k in zip(bounds, bounds[1:])]
            del patterns, bounds
            self._tuples, self._codes = list(distinct), np.array(codes, dtype=np.int64)
            self._tuple_edges = np.bincount(self._codes, minlength=len(self._tuples))
            del codes
        if not starts.all():   # some pair has several rows: keep each pair's first
            order = order[starts]
        del starts
        self._event_counts = np.array([len(t) for t in self._tuples], dtype=np.int64)
        self._weights = np.empty(0)   # per tuple, bound by declare_seeds
        self._sources = sources[order]
        del sources
        self._indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets if len(order) == len(targets) else targets[order],
                              minlength=len(ids)), out=self._indptr[1:])
        del order
        # one int object per node, shared by all answers: less memory, identity-hit lookups
        self._nodes = np.arange(len(ids)).astype(object)
        self.ids = ids
        self._revealed = np.zeros(len(ids), dtype=bool)   # seeds and answered nodes
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
        values = np.asarray(edges, dtype=np.int64).reshape(-1)
        del edges
        if n_nodes:
            values = np.concatenate((np.arange(n_nodes, dtype=np.int64), values))
        internal, nodes, _first = first_seen(values, id_dtype(values.size))
        del values, _first
        ids = IdMap(nodes.tolist())
        del nodes
        # the rows u <- v and v <- u of each edge: targets u, v and sources v, u in turn
        targets = internal[n_nodes or 0:]
        del internal
        return cls(ids, targets, targets.reshape(-1, 2)[:, ::-1].ravel())

    @classmethod
    def from_edgelist(cls, path) -> "GraphOracle":
        """Directed edge-list TSV backing: one ``source<TAB>target`` per line.

        Internal ids go to nodes in order of first appearance, source before
        target. Repeated lines and self-loops are dropped.
        """
        ids, codes = IdMap(), []
        for lineno, line in read_lines(path, "edge list"):
            parts = line.rstrip("\r\n").split("\t")
            if parts == [""]:   # a blank line
                continue
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected source<TAB>target")
            if not parts[0] or not parts[1]:
                raise DataError(f"{path}:{lineno}: empty node id")
            codes += ids.intern(parts[0]), ids.intern(parts[1])
        codes = np.array(codes, dtype=id_dtype(len(ids)))
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
        pairs = np.column_stack((events.author, events.interactor))
        internal, codes, _first = first_seen(pairs, id_dtype(pairs.size))
        del pairs
        ids = IdMap(events.users[code] for code in codes.tolist())
        # each tweet's rank among the ids as strings: the inverse of their sorting permutation
        ranks = np.argsort(sorted(range(len(events.tweets)), key=events.tweets.__getitem__))
        return cls(ids, internal[:, 0], internal[:, 1], events.pattern, ranks[events.tweet])

    # -- seed declaration and queries -----------------------------------

    def declare_seeds(self, seed_exts, weights=None) -> list[int]:
        """Mark seeds discoverable and weigh every edge by ``weights``.

        Returns the seeds' internal ids in order. ``weights`` (default
        :class:`~tightsample.interactions.UnitWeights`) is bound for the run
        that starts here: each edge weighs ``weights.event_weight`` of its
        pattern tuple, called once per distinct tuple, so a pattern the table
        lacks warns now, whether or not its edges are ever queried. Weights are
        >= 0, so every priority and boundary of the run is at most the total edge
        weight: a binding whose total is not finite raises OverflowError, and an
        unknown seed DataError, before anything is revealed or bound.
        """
        internal = []
        for ext in seed_exts:
            if ext not in self.ids:
                raise DataError(f"unknown seed: {ext!r}")
            internal.append(self.ids.resolve(ext))
        weights = UnitWeights() if weights is None else weights
        per_tuple = np.array([weights.event_weight(patterns) for patterns in self._tuples],
                             dtype=np.float64)
        total = float(self._tuple_edges @ per_tuple)
        if not math.isfinite(total):
            raise OverflowError(f"the edges' total weight is {total!r}: "
                                f"the weights sum beyond the float range")
        self._revealed[internal] = True
        self._weights = per_tuple
        return internal

    def in_neighbors(self, v: int):
        """All known in-neighbors of ``v``, a list of ``(u, w)`` pairs.

        ``w`` is the bound weight of the edge ``u -> v``'s pattern tuple: its
        events' weights, summed in tweet-id order. Strictly ascending internal id, which the
        sampler's frontiers rely on, and never ``v`` itself: self-loops are
        dropped at build. ``v`` must be discoverable.
        """
        if not (0 <= v < len(self._revealed) and self._revealed[v]):
            ext = self.ids.external(v) if 0 <= v < len(self.ids) else v
            raise UnknownNodeError(f"node not discoverable: {ext!r}")
        with self._lock:
            self._log.append(v)
        i, k = self._indptr[v:v + 2].tolist()
        sources = self._sources[i:k].astype(np.intp, copy=False)   # one cast, two gathers
        self._revealed[sources] = True
        # a list: CPython keeps up to 2,000 freed tuples of each length below 20 for
        # reuse, so tuple answers would leave a run holding its dead answers
        return list(zip(self._nodes[sources].tolist(), self._weights[self._codes[i:k]].tolist()))

    def node(self, v: int) -> int:
        """Internal id ``v`` as the int object that every answer shares, so a caller
        that keeps many ids keeps no copies."""
        return self._nodes[v]

    def in_degrees(self, nodes) -> np.ndarray:
        """The answer size of each of ``nodes``, as an int64 array."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self._indptr[nodes + 1] - self._indptr[nodes]

    def in_edges(self, nodes):
        """``sources, targets, weights, event_counts`` of the answers to ``nodes``, one
        after another, as the columns ``DiscoveredGraph.add_events`` takes; unlike
        :meth:`in_neighbors`, logs and reveals nothing."""
        nodes = np.asarray(nodes, dtype=np.int64)
        sizes = self.in_degrees(nodes)
        # answer j's rows run from _indptr[nodes[j]]; shift a running index by its offset
        rows = np.repeat(self._indptr[nodes + 1] - np.cumsum(sizes), sizes) \
            + np.arange(sizes.sum())
        codes = self._codes[rows]
        return (self._sources[rows].astype(np.int64), np.repeat(nodes, sizes),
                self._weights[codes], self._event_counts[codes])

    def in_edge_batches(self, nodes):
        """Yield :meth:`in_edges` of ``nodes`` a run of whole answers at a time, in order:
        each batch ends with the first answer that brings it to
        :data:`~tightsample.graph.WRITE_CHUNK` rows or more."""
        rows = graph.WRITE_CHUNK
        nodes = np.asarray(nodes, dtype=np.int64)
        ends = np.cumsum(self.in_degrees(nodes))
        cuts = np.searchsorted(ends, np.arange(rows, ends[-1] if len(ends) else 0, rows)) + 1
        bounds = [0, *cuts.tolist(), len(nodes)]
        for i, k in zip(bounds, bounds[1:]):
            if k > i:   # an answer of 2 * rows rows or more spans several cuts
                yield self.in_edges(nodes[i:k])

    # -- audit ----------------------------------------------------------

    @property
    def access_log(self) -> tuple[int, ...]:
        return tuple(self._log)

    def write_access_log(self, path) -> None:
        """``step,node_ext_id`` per query, in ``csv.writer``'s bytes."""
        log = np.array(self._log, dtype=np.int64)
        graph.write_columns(path, [(np.arange(1, len(log) + 1), log)],
                            (None, graph.format_ids(self.ids, graph.csv_field)),
                            ("step", "node_ext_id"), ",", "\r\n")
