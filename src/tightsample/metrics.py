"""Post-hoc evaluation of traces and sampled subgraphs.

Clustering follows the directed convention frozen against a brute-force
triad enumeration: the neighborhood N(i) is the union of in- and
out-neighbors, the numerator counts ordered neighbor pairs joined by a
directed edge, and the denominator is deg(i)(deg(i)-1) with deg = |N(i)|.
The global coefficient is computed on the undirected simple projection.
Shortest paths are directed and averaged over reachable ordered pairs only,
with the reachable fraction reported alongside.

Path statistics come from a bit-parallel multi-source BFS (Then et al.,
"The More the Merrier: Efficient Multi-Source Graph Traversal", VLDB 2014).
Each BFS source owns one bit of a ``uint64`` word, and every node holds one
row of words per chunk of sources: its frontier bits and its seen bits. One
level of all the chunk's searches is a gather of the frontier rows along the
edges, an OR-reduction per target over an in-edge CSR, and a mask with the
seen bits. That costs about levels x edges x n/64 word operations in numpy
instead of n Python-level searches. The chunk width is chosen so that every
per-chunk array, the gathered block included, stays within 8 MiB (a chunk
is never narrower than one word, so only graphs of over a million edges or
nodes exceed it).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import count

import numpy as np

from .graph import DiscoveredGraph, induced_subgraph
from .sampler import SampleTrace
from .util import ConfigError, DataError, write_csv


def _undirected_neighbors(g: DiscoveredGraph) -> dict[int, set[int]]:
    """Per-node neighbor sets of the undirected projection; a graph holds no self-loop."""
    und: dict[int, set[int]] = {v: set() for v in g.nodes}
    for s, t in g.pairs():
        und[s].add(t)
        und[t].add(s)
    return und


def clustering_local(g: DiscoveredGraph):
    """Per-node directed local clustering and its mean.

    Nodes with fewer than two distinct neighbors contribute 0.
    """
    und = _undirected_neighbors(g)
    if not und:
        raise DataError("empty graph")
    # an edge s -> t joins an ordered neighbor pair of every common neighbor of s and t
    links = dict.fromkeys(und, 0)
    for s, t in g.pairs():
        for v in und[s] & und[t]:
            links[v] += 1
    per_node: dict[int, float] = {}
    for v in sorted(und):  # ascending, so the mean does not depend on set order
        deg = len(und[v])
        per_node[v] = links[v] / (deg * (deg - 1)) if deg >= 2 else 0.0
    mean = sum(per_node.values()) / len(per_node)
    return per_node, mean


def clustering_global(g: DiscoveredGraph) -> float:
    """Transitivity on the undirected projection: 3*triangles / triplets."""
    und = _undirected_neighbors(g)
    if not und:
        raise DataError("empty graph")
    triplets = sum(len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in und.values())
    if triplets == 0:
        warnings.warn("graph has no connected triplets; global clustering is 0",
                      stacklevel=2)
        return 0.0
    closed = 0
    for v, nbrs in und.items():
        for j in nbrs:
            if j > v:
                closed += len(nbrs & und[j])
    # closed == 3 * triangles: each triangle is seen from all three of its edges
    return closed / triplets


@dataclass
class PathStats:
    mean: float
    reachable_fraction: float
    reachable_pairs: int


# Byte cap of each per-chunk BFS array; sets how many sources share a sweep.
BFS_BLOCK_BYTES = 8 << 20


def avg_shortest_path(g: DiscoveredGraph) -> PathStats:
    """Directed BFS from every node; averages over reachable ordered pairs.

    Runs the searches 64 at a time per ``uint64`` word as a multi-source
    BFS over an in-edge CSR: about levels x edges x n/64 word operations,
    with every per-chunk array (the gathered frontier block included) capped
    at :data:`BFS_BLOCK_BYTES`. Distances are summed as Python ints, so the
    result equals a per-source BFS exactly.
    """
    nodes = np.array(sorted(g.nodes), dtype=np.int64)
    if not nodes.size:
        raise DataError("empty graph")
    n = len(nodes)
    m = g.n_edges()
    sources = np.searchsorted(nodes, g.sources)
    targets = np.searchsorted(nodes, g.targets)
    # in-edge CSR: edge sources grouped by target, one segment per target
    order = np.lexsort((sources, targets))
    sources, targets = sources[order], targets[order]
    starts = np.flatnonzero(np.diff(targets, prepend=-1))
    heads = targets[starts]

    words = max(1, min(-(-n // 64), BFS_BLOCK_BYTES // (8 * max(n, m))))
    total = 0
    pairs = 0
    # the frontier rows of the edge sources and the seen rows of the heads, gathered
    # into the same two buffers at every level
    gathered = np.empty((m, words), dtype=np.uint64)
    unseen = np.empty((len(heads), words), dtype=np.uint64)
    # an edgeless graph has no segments for reduceat and no reachable pairs
    for base in range(0, n if m else 0, 64 * words):
        width = min(64 * words, n - base)
        own = np.arange(width)
        frontier = np.zeros((n, words), dtype=np.uint64)
        frontier[base + own, own // 64] = np.left_shift(
            np.uint64(1), (own % 64).astype(np.uint64))
        seen = frontier.copy()
        for level in count(1):
            reached = np.bitwise_or.reduceat(np.take(frontier, sources, axis=0, out=gathered),
                                             starts, axis=0)
            reached &= np.invert(np.take(seen, heads, axis=0, out=unseen), out=unseen)
            new = int(np.bitwise_count(reached).sum(dtype=np.int64))
            if not new:
                break
            total += level * new
            pairs += new
            seen[heads] |= reached
            frontier.fill(0)
            frontier[heads] = reached
    possible = n * (n - 1)
    if pairs == 0:
        raise DataError("no reachable ordered pairs; average path undefined")
    return PathStats(total / pairs, pairs / possible if possible else 0.0, pairs)


def degree_stats(g: DiscoveredGraph) -> dict:
    """Mean directed degree, by edge count and by aggregated edge weight."""
    n = len(g.nodes)
    if n == 0:
        raise DataError("empty graph")
    m = g.n_edges()
    weight = sum(g.weights.tolist())
    return {"n": n, "m": m, "avg_degree": m / n, "avg_weighted_degree": weight / n}


def metrics_report(g: DiscoveredGraph) -> dict:
    """The standard JSON report for one sampled subgraph."""
    _per_node, cc_local = clustering_local(g)
    cc_global = clustering_global(g)
    try:
        paths = avg_shortest_path(g)
        mean_path: float | None = paths.mean
        reachable = paths.reachable_fraction
    except DataError:
        mean_path, reachable = None, 0.0
    deg = degree_stats(g)
    return {
        "cc_local": cc_local,
        "cc_global": cc_global,
        "avg_shortest_path": mean_path,
        "reachable_fraction": reachable,
        "avg_degree": deg["avg_degree"],
        "n": deg["n"],
        "m": deg["m"],
    }


# ---------------------------------------------------------------------------
# trace-level evaluation


@dataclass
class EvolutionSeries:
    """Cumulative per-community insider counts; index 0 is the seeded state."""

    timesteps: list[int]
    counts: dict
    boundary: list[float]

    def write_csv(self, path) -> None:
        communities = sorted(self.counts, key=str)
        write_csv(path, ["timestep", "community", "count", "boundary"],
                  ([t, comm, self.counts[comm][idx], self.boundary[idx]]
                   for idx, t in enumerate(self.timesteps) for comm in communities))


def _running_counts(sequence, columns) -> np.ndarray:
    """Row t counts each of ``columns`` among the first t labels of ``sequence``.

    The ``(len(sequence) + 1) x len(columns)`` int64 cumulative sum of the
    sequence's one-hot rows; every label of ``sequence`` must be a column.
    """
    column = {label: j for j, label in enumerate(columns)}
    onehot = np.zeros((len(sequence) + 1, len(columns)), dtype=np.int64)
    onehot[np.arange(1, len(sequence) + 1), [column[label] for label in sequence]] = 1
    return onehot.cumsum(axis=0)


def community_evolution(trace: SampleTrace, labels) -> EvolutionSeries:
    """Per-timestep cumulative community membership of the insider set.

    ``labels`` maps internal node id -> community; unlabeled nodes fall into
    the "unknown" community.
    """
    seeds = [labels.get(v, "unknown") for v in trace.seeds]
    selected = [labels.get(v, "unknown") for v in trace.selected()]
    communities = sorted({*seeds, *selected}, key=str)
    running = _running_counts(selected, communities) + _running_counts(seeds, communities)[-1]
    return EvolutionSeries(list(range(len(running))), dict(zip(communities, running.T.tolist())),
                           trace.boundary_series())


def inflection_candidates(boundary, window: int, z_threshold: float) -> list[int]:
    """Timesteps whose forward boundary jump stands out from the trailing window.

    A timestep t is flagged when the forward difference b[t+1]-b[t] exceeds
    the trailing window's mean difference by more than z_threshold trailing
    standard deviations (any increase counts when the trail is flat).
    Series shorter than the window yield no candidates.
    """
    if window < 2:
        raise ConfigError("window must be >= 2")
    diffs = np.diff(np.asarray(boundary, dtype=float))
    flagged = []
    for t in range(window, diffs.size):
        trail = diffs[t - window:t]
        mu, sigma = trail.mean(), trail.std()
        if diffs[t] - mu > z_threshold * sigma if sigma > 0.0 else diffs[t] > mu:
            flagged.append(t)
    return flagged


def window_purity(block_sequence, window: int) -> list[tuple[int, float]]:
    """Majority-share of the most recent ``window`` selections, per timestep.

    ``block_sequence`` is the block/community label of each selected node in
    order; entries start at timestep == window. A window's label counts are
    differences of the sequence's running counts.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    running = _running_counts(block_sequence, dict.fromkeys(block_sequence))
    shares = (running[window:] - running[:-window]).max(axis=1, initial=0) / window
    return list(zip(range(window, len(block_sequence) + 1), shares.tolist()))


def max_window_purity(block_sequence, window: int) -> float:
    series = window_purity(block_sequence, window)
    return max((p for _t, p in series), default=0.0)


def min_common_snapshot(runs) -> list[DiscoveredGraph]:
    """Truncate runs to the smallest final insider count and induce subgraphs.

    ``runs`` is a list of (trace, discovered_graph) pairs. Every edge between
    two insiders was discovered no later than the younger endpoint joined, so
    inducing on the truncated insider set reproduces the sampled subgraph at
    that common size exactly.
    """
    runs = list(runs)
    if not runs:
        raise DataError("no traces to compare")
    size = min(trace.final_size() for trace, _g in runs)
    return [induced_subgraph(g, set(trace.insiders_at(size))) for trace, g in runs]
