"""Tight-sampling engine: expand a seed set one node per timestep.

The state tracks insiders (the sample), outsiders (discovered in-neighbors
not yet sampled) with their priorities, and the weighted directed boundary:
the total weight of discovered outsider->insider edges. The discovered edges
are the oracle's answers to the queried nodes, so the state keeps only the
query order and the answers' weights. Maximum-adjacency search picks the
outsider with the largest priority; the other strategies are random
baselines sharing the same incremental bookkeeping.

Both MAS tie-breaks read one structure, the outsiders grouped by exact
priority with each tie set sorted by ``(disc_time, node)``: the ordered pick
takes the first key of the top tie set, the random pick draws one.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from .graph import DiscoveredGraph, IdMap
from .interactions import UnitWeights
from .util import ConfigError, DataError, IndexedSet, read_csv, write_csv

STRATEGIES = ("MAS", "RI_MAS", "RO", "RI_RO", "RS_DU", "RS_DW", "RS_SU", "RS_SW")
TIE_BREAKS = ("ordered", "random")   # the first is the default
TRACE_COLUMNS = ("timestep", "node_ext_id", "priority", "boundary", "new_nodes", "new_edges")


class FrontierExhausted(RuntimeError):
    """No outsiders remain; the discovered frontier is empty."""


@dataclass
class TraceRow:
    timestep: int
    node: int
    priority: float
    boundary: float
    new_nodes: int
    new_edges: int


@dataclass
class SampleTrace:
    """Per-timestep record of one sampling run."""

    strategy: str
    seeds: tuple[int, ...]
    init_boundary: float
    rows: list[TraceRow] = field(default_factory=list)
    reason: str | None = None

    def selected(self) -> list[int]:
        return [row.node for row in self.rows]

    def boundary_series(self) -> list[float]:
        """Boundary value per timestep, index 0 = state after seeding."""
        return [self.init_boundary] + [row.boundary for row in self.rows]

    def final_size(self) -> int:
        return len(self.seeds) + len(self.rows)

    def insiders_at(self, size: int) -> list[int]:
        """The first ``size`` insiders in inclusion order (seeds first)."""
        if size < len(self.seeds):
            raise ConfigError("size smaller than the seed set")
        return list(self.seeds) + [r.node for r in self.rows[:size - len(self.seeds)]]

    def write_csv(self, path, ids: IdMap) -> None:
        write_csv(path, TRACE_COLUMNS,
                  ([r.timestep, ids.external(r.node), r.priority, r.boundary,
                    r.new_nodes, r.new_edges] for r in self.rows))

    @staticmethod
    def read_rows(path, ids: IdMap) -> list[TraceRow]:
        """The rows of a :meth:`write_csv` file, nodes interned into ``ids``; DataError if bad."""
        lines = read_csv(path, "trace")
        _lineno, header = next(lines, (0, []))
        rows = []
        for lineno, fields in lines:
            row = dict(zip(header, fields))
            try:
                rows.append(TraceRow(
                    int(row["timestep"]), ids.intern(row["node_ext_id"]),
                    float(row["priority"]), float(row["boundary"]),
                    int(row["new_nodes"]), int(row["new_edges"])))
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed trace row "
                                f"({type(exc).__name__}: {exc})") from None
        return rows


class _Staged:
    """Selector state of the staged strategies (RI_MAS, RI_RO, RS_SU, RS_SW).

    Built by replaying :meth:`link`, its per-edge upkeep, over the oracle's
    answers to the queried nodes in query order (``GraphOracle.in_edges``; no
    ``discovered`` graph is built), skipping the promoted: every set and
    frontier gets its elements in the order that upkeep since ``init`` would
    have added them, and so does ``eligible`` until a node is promoted (a
    promotion swap-removes from it).
    """

    __slots__ = ("out_targets", "frontier_of", "eligible")

    def __init__(self, state: "SampleState"):
        self.out_targets: dict[int, set[int]] = {}   # outsider -> insiders it points to
        # insider -> its outsider in-neighbors, ascending id; empty frontiers are dropped
        self.frontier_of: dict[int, dict[int, None]] = {}
        self.eligible = IndexedSet()                  # insiders with outsider in-neighbors
        sources, targets, _counts = state.oracle.in_edges(state.queried)
        for s, t in zip(sources.tolist(), targets.tolist()):
            if s in state.outsiders:
                self.link(s, t)

    def link(self, outsider: int, insider: int) -> None:
        """Record the discovered edge ``outsider -> insider``."""
        self.out_targets.setdefault(outsider, set()).add(insider)
        self.frontier_of.setdefault(insider, {})[outsider] = None
        self.eligible.add(insider)

    def promote(self, node: int) -> None:
        for tgt in self.out_targets.pop(node):
            frontier = self.frontier_of[tgt]
            del frontier[node]
            if not frontier:
                del self.frontier_of[tgt]
                self.eligible.discard(tgt)


class _Fenwick:
    """Prefix sums of the priorities in ``outsider_set`` slot order (RS_DW).

    ``leaves[i]`` is the priority of the pool's slot ``i``; ``tree`` is a
    Fenwick tree (1-based) over ``cap`` slots, a power of two, and slots past
    the pool's end hold 0, so ``tree[cap]`` is the total. Each update walks
    O(log n) nodes. Outgrowing ``cap`` doubles it and rebuilds the tree from
    the leaves, which also clears the rounding that float updates leave.
    """

    __slots__ = ("leaves", "tree", "cap")

    def __init__(self, leaves):
        self.leaves = list(leaves)
        self._rebuild(1)

    def _rebuild(self, cap: int) -> None:
        while cap < len(self.leaves):
            cap *= 2
        tree = [0.0, *self.leaves] + [0.0] * (cap - len(self.leaves))
        for i in range(1, cap):
            parent = i + (i & -i)
            if parent <= cap:
                tree[parent] += tree[i]
        self.tree, self.cap = tree, cap

    @property
    def total(self) -> float:
        return self.tree[self.cap]

    def _update(self, slot: int, w: float) -> None:
        tree, cap = self.tree, self.cap
        i = slot + 1
        while i <= cap:
            tree[i] += w
            i += i & -i

    def add(self, slot: int, w: float) -> None:
        """Add ``w`` at ``slot``; the pool's next slot opens a new leaf."""
        leaves = self.leaves
        if slot == len(leaves):
            leaves.append(0.0)
            if slot == self.cap:
                self._rebuild(2 * self.cap)
        leaves[slot] += w
        self._update(slot, w)

    def swap_remove(self, slot: int) -> None:
        """Mirror ``IndexedSet.discard``: the last slot's value moves into ``slot``."""
        leaves = self.leaves
        self._update(slot, -leaves[slot])
        last = leaves.pop()
        if slot < len(leaves):
            self._update(len(leaves), -last)
            leaves[slot] = last
            self._update(slot, last)

    def find(self, x: float) -> int:
        """The first slot whose prefix sum exceeds ``x``, at most the last slot."""
        tree = self.tree
        pos, step = 0, self.cap >> 1
        while step:
            nxt = pos + step
            if tree[nxt] <= x:
                pos = nxt
                x -= tree[nxt]
            step >>= 1
        return min(pos, len(self.leaves) - 1)


class _TieBuckets:
    """Outsiders grouped by exact priority, for MAS.

    ``buckets[p]`` holds the ``(disc_time, node)`` keys of the outsiders at
    priority ``p``, sorted; ``heap`` holds each priority of ``buckets`` once,
    negated. A bucket that empties stays until it reaches the top of the heap,
    where both are dropped, so a priority is in the heap exactly when it is a
    key of ``buckets``. Built by one :meth:`move` per outsider, its upkeep.
    """

    __slots__ = ("buckets", "heap")

    def __init__(self, outsiders: dict[int, float], disc_time: dict[int, int]):
        self.buckets: dict[float, list[tuple[int, int]]] = {}
        self.heap: list[float] = []
        for u, p in outsiders.items():
            self.move((disc_time[u], u), None, p)

    def move(self, key: tuple[int, int], old: float | None, new: float | None) -> None:
        """Move ``key`` from priority ``old`` to ``new``; None is no bucket."""
        if old is not None:
            bucket = self.buckets[old]
            del bucket[bisect_left(bucket, key)]
        if new is not None:
            bucket = self.buckets.get(new)
            if bucket is None:
                self.buckets[new] = [key]
                heapq.heappush(self.heap, -new)
            else:
                insort(bucket, key)

    def top(self) -> list[tuple[int, int]]:
        """The bucket of the largest priority; some outsider must remain."""
        heap, buckets = self.heap, self.buckets
        while not buckets[-heap[0]]:
            del buckets[-heapq.heappop(heap)]
        return buckets[-heap[0]]


class SampleState:
    """Mutable sampling state; confine one instance to one thread.

    The core, read by every strategy: the insiders, the outsiders'
    priorities in discovery order, their discovery timesteps, the boundary,
    the queried nodes in query order and their answers' edge weights. The
    discovered graph is built from the last two on each read of
    ``discovered``, sharing the insider set. Each strategy family's selector
    state is built from the core on the first ``select`` that needs it, then
    kept up to date step by step:

    - ``MAS``: :class:`_TieBuckets`, the outsiders' keys per exact priority;
      the top bucket is the tie set in ``(disc_time, node)`` order, whose
      first key is the ordered pick and over which the random pick draws;
    - ``RO``, ``RS_DU``, ``RS_DW``: ``outsider_set``, the outsiders as an
      O(1)-pick pool;
    - ``RS_DW`` also: :class:`_Fenwick`, prefix sums of the priorities in pool
      slot order, so the weighted pick is an O(log n) descent;
    - staged strategies: ``out_targets``, ``frontier_of`` and ``eligible``.

    The ``RS_DW`` pick draws ``x = rng.random() * total`` and takes the first
    pool slot whose prefix sum exceeds ``x``, as a ``cumsum`` over the pool
    would. The tree adds in another order than ``cumsum``. On unit weights
    every priority and prefix sum is an integer held exactly in a float, so
    both give the same sums and the same pick. On non-integer weights a pick
    can differ only where ``x`` lies within rounding error of a slot boundary.
    """

    def __init__(self, oracle, weights):
        self.oracle = oracle
        self.weights = weights
        self.insiders: set[int] = set()           # the sample
        self.queried: list[int] = []              # nodes asked, in query order
        self._edge_weights = array("d")           # their answers' edge weights, in order
        self.outsiders: dict[int, float] = {}     # node -> priority
        self.disc_time: dict[int, int] = {}       # outsider -> discovery timestep
        self.boundary = 0.0
        self.timestep = 0
        self.seeds: tuple[int, ...] = ()
        self._buckets: _TieBuckets | None = None
        self._pool: IndexedSet | None = None
        self._tree: _Fenwick | None = None
        self._staged: _Staged | None = None

    @property
    def discovered(self) -> DiscoveredGraph:
        """The answers to ``queried``, in query order, as a new graph."""
        g = DiscoveredGraph(self.insiders)
        sources, targets, event_counts = self.oracle.in_edges(self.queried)
        g.add_events(sources, targets, np.array(self._edge_weights), event_counts)
        return g

    # -- selector state, built on first use --------------------------------

    def _tie_buckets(self) -> _TieBuckets:
        if self._buckets is None:
            self._buckets = _TieBuckets(self.outsiders, self.disc_time)
        return self._buckets

    @property
    def outsider_set(self) -> IndexedSet:
        if self._pool is None:
            self._pool = IndexedSet(self.outsiders)
        return self._pool

    def _weight_tree(self) -> _Fenwick:
        if self._tree is None:
            self._tree = _Fenwick(self.outsiders[u] for u in self.outsider_set)
        return self._tree

    def _staged_state(self) -> _Staged:
        if self._staged is None:
            self._staged = _Staged(self)
        return self._staged

    # -- bookkeeping -----------------------------------------------------

    def _absorb_neighbors(self, v: int) -> tuple[int, int]:
        """Query the oracle for ``v`` and fold the answer into the state."""
        new_nodes = 0
        event_weight = self.weights.event_weight
        insiders, outsiders, disc_time = self.insiders, self.outsiders, self.disc_time
        buckets, pool, tree = self._buckets, self._pool, self._tree
        staged = self._staged
        boundary = self.boundary
        answer = self.oracle.in_neighbors(v)
        self.queried.append(v)
        edge_weights = [event_weight(events) for _u, events in answer]
        self._edge_weights.extend(edge_weights)
        for (u, _events), w in zip(answer, edge_weights):
            if u in insiders:
                continue
            old = outsiders.get(u)
            if old is None:
                disc_time[u] = self.timestep
                new_nodes += 1
                if pool is not None:
                    pool.add(u)
            priority = (0.0 if old is None else old) + w
            outsiders[u] = priority
            boundary += w
            if buckets is not None:
                buckets.move((disc_time[u], u), old, priority)
            if tree is not None:
                tree.add(pool.index(u), w)
            if staged is not None:
                staged.link(u, v)
        self.boundary = boundary
        return new_nodes, len(answer)

    def _promote(self, node: int) -> float:
        """Move an outsider into the insider set; returns its final priority."""
        priority = self.outsiders.pop(node)
        self.boundary -= priority
        if self._buckets is not None:
            self._buckets.move((self.disc_time[node], node), priority, None)
        del self.disc_time[node]
        if self._tree is not None:
            self._tree.swap_remove(self._pool.index(node))
        if self._pool is not None:
            self._pool.discard(node)
        if self._staged is not None:
            self._staged.promote(node)
        self.insiders.add(node)
        return priority

    # -- selection -------------------------------------------------------

    def select(self, strategy: str, rng, tie_break: str = "ordered") -> int:
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}; "
                              f"expected one of {STRATEGIES}")
        if tie_break not in TIE_BREAKS:
            raise ConfigError(f"unknown tie_break {tie_break!r}")
        if not self.outsiders:
            raise FrontierExhausted("no outsiders to select")
        if strategy == "MAS":
            tied = self._tie_buckets().top()
            return tied[0 if tie_break == "ordered" else int(rng.integers(len(tied)))][1]
        if strategy in ("RO", "RS_DU"):
            return self.outsider_set.pick(rng)
        if strategy == "RS_DW":
            tree = self._weight_tree()
            return self.outsider_set.items()[tree.find(rng.random() * tree.total)]
        # staged strategies: uniform insider with >= 1 outsider in-neighbor
        staged = self._staged_state()
        insider = staged.eligible.pick(rng)
        candidates = list(staged.frontier_of[insider])  # ascending id, as the oracle answered
        if strategy in ("RI_RO", "RS_SU"):
            return candidates[int(rng.integers(len(candidates)))]
        priorities = [self.outsiders[o] for o in candidates]
        if strategy == "RS_SW":
            cumulative = np.cumsum(priorities)
            idx = int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))
            return candidates[min(idx, len(candidates) - 1)]
        if tie_break == "random":   # RI_MAS
            top = max(priorities)
            tied = [o for o, p in zip(candidates, priorities) if p == top]
            return tied[int(rng.integers(len(tied)))]
        return min(candidates, key=lambda o: (-self.outsiders[o], self.disc_time[o], o))


def init(seeds, oracle, weights=None) -> SampleState:
    """Seed a sampling state: every seed is queried exactly once.

    ``seeds`` are external ids; edges between seeds land inside the sample,
    not on the boundary.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("seed set is empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds")
    state = SampleState(oracle, weights if weights is not None else UnitWeights())
    internal = oracle.declare_seeds(seeds)
    state.seeds = tuple(internal)
    state.insiders.update(internal)
    for v in internal:
        state._absorb_neighbors(v)
    return state


def step(state: SampleState, strategy: str, rng,
         tie_break: str = "ordered") -> tuple[int, TraceRow]:
    """Advance one timestep: select, promote, and discover.

    ``tie_break`` applies to the argmax strategies: "ordered" prefers the
    earliest-discovered then smallest-id outsider among ties (reproducible
    traces); "random" draws uniformly among ties for sensitivity studies.
    Raises FrontierExhausted when no outsiders remain.
    """
    node = state.select(strategy, rng, tie_break)
    state.timestep += 1
    priority = state._promote(node)
    new_nodes, new_edges = state._absorb_neighbors(node)
    row = TraceRow(state.timestep, node, priority, state.boundary,
                   new_nodes, new_edges)
    return node, row


def run(state: SampleState, strategy: str, *, steps: int | None = None,
        target_size: int | None = None, rng=None, rng_seed: int | None = None,
        tie_break: str = "ordered", on_step=None) -> SampleTrace:
    """Repeat :func:`step` until the budget is spent or the frontier empties.

    Exactly one of ``steps`` / ``target_size`` bounds the run (``steps`` may
    also cap a ``target_size`` run). A budget below 1, or a target size the
    sample already meets, is a ConfigError. Deterministic given ``rng_seed``.
    ``on_step(state, row)`` is called after every timestep when provided.
    """
    if steps is None and target_size is None:
        raise ConfigError("need a budget: steps or target_size")
    if steps is not None and steps < 1:
        raise ConfigError("budget must be >= 1")
    if target_size is not None and target_size <= len(state.insiders):
        raise ConfigError(f"target size {target_size} is already met: "
                          f"the sample holds {len(state.insiders)} nodes")
    if rng is None:
        rng = np.random.default_rng(rng_seed)
    trace = SampleTrace(strategy, state.seeds, state.boundary)
    while True:
        if steps is not None and len(trace.rows) >= steps:
            trace.reason = "budget"
            break
        if target_size is not None and len(state.insiders) >= target_size:
            trace.reason = "target size"
            break
        try:
            _node, row = step(state, strategy, rng, tie_break)
        except FrontierExhausted:
            trace.reason = "frontier exhausted"
            break
        trace.rows.append(row)
        if on_step is not None:
            on_step(state, row)
    return trace


def audit(state: SampleState) -> float:
    """Recompute priorities and boundary from the discovered graph.

    Returns the largest absolute deviation from the incrementally maintained
    values, counting the RS_DW tree's total against the boundary when the tree
    exists. Raises AssertionError if the outsider sets themselves disagree, if
    the tree's leaves do not hold the pool's priorities, or if a built MAS or
    staged selector differs from a fresh build from the core: the non-empty
    tie buckets must be equal; the staged ``out_targets`` and each insider's
    frontier, in order, must be equal, and ``eligible`` as a set.
    """
    recomputed: dict[int, float] = {}
    g = state.discovered
    for s, t, weight in zip(g.sources.tolist(), g.targets.tolist(), g.weights.tolist()):
        if t in state.insiders and s not in state.insiders:
            recomputed[s] = recomputed.get(s, 0.0) + weight
    if set(recomputed) != set(state.outsiders):
        raise AssertionError("outsider sets disagree between graph and state")
    worst = abs(sum(recomputed.values()) - state.boundary)
    for node, value in recomputed.items():
        worst = max(worst, abs(value - state.outsiders[node]))
    if state._tree is not None:
        if state._tree.leaves != [state.outsiders[u] for u in state.outsider_set]:
            raise AssertionError("weight tree leaves disagree with the pool")
        worst = max(worst, abs(state._tree.total - state.boundary))
    if state._buckets is not None:
        buckets = state._buckets.buckets
        fresh = _TieBuckets(state.outsiders, state.disc_time).buckets
        if {p: bucket for p, bucket in buckets.items() if bucket} != fresh \
                or sorted(state._buckets.heap) != sorted(-p for p in buckets):
            raise AssertionError("tie buckets disagree with the outsiders")
    if state._staged is not None:
        held, fresh = state._staged, _Staged(state)
        if held.out_targets != fresh.out_targets \
                or {t: list(f) for t, f in held.frontier_of.items()} \
                != {t: list(f) for t, f in fresh.frontier_of.items()} \
                or set(held.eligible) != set(fresh.eligible):
            raise AssertionError("staged selector disagrees with the outsiders")
    return worst
