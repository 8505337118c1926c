"""Independent brute-force and reference implementations shared by the tests.

The implementations here deliberately avoid the package's own data
structures and algorithms so they can serve as independent checks.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import chain

import numpy as np

from tightsample import interactions as ia
from tightsample import sbm
from tightsample.graph import DiscoveredGraph
from tightsample.ingest import ParseReport
from tightsample.interactions import PLAIN_EDGE, pattern_of
from tightsample.metrics import EvolutionSeries
from tightsample.oracle import GraphOracle
from tightsample.sampler import SampleTrace, TraceRow
from tightsample.util import DataError, read_csv, read_lines


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_nested_counts(patterns):
    """Count, for every pattern x, the events whose pattern is a superset."""
    out = {}
    for x in range(1, 16):
        out[x] = sum(1 for p in patterns if p & x == x)
    return {x: n for x, n in out.items() if n}


def brute_sse(candidate, tables):
    """Sum of squared errors of a candidate table against several tables."""
    patterns = set(candidate)
    for t in tables:
        patterns |= set(t)
    total = 0.0
    for x in patterns:
        for t in tables:
            total += (candidate.get(x, 0.0) - t.get(x, 0.0)) ** 2
    return total


def brute_local_clustering(nodes, edge_pairs):
    """Directed local clustering by scanning all edges per node."""
    edge_set = set(edge_pairs)
    per_node = {}
    for i in nodes:
        nbrs = {s for s, t in edge_set if t == i} | {t for s, t in edge_set if s == i}
        nbrs.discard(i)
        deg = len(nbrs)
        if deg < 2:
            per_node[i] = 0.0
            continue
        links = sum(1 for j in nbrs for k in nbrs if j != k and (j, k) in edge_set)
        per_node[i] = links / (deg * (deg - 1))
    return per_node


def brute_global_clustering(nodes, edge_pairs):
    """Transitivity by enumerating every unordered node triple."""
    und = {}
    for s, t in edge_pairs:
        if s != t:
            und.setdefault(s, set()).add(t)
            und.setdefault(t, set()).add(s)
    nodes = sorted(nodes)
    closed = open_ = 0
    for ai in range(len(nodes)):
        for bi in range(ai + 1, len(nodes)):
            for ci in range(bi + 1, len(nodes)):
                a, b, c = nodes[ai], nodes[bi], nodes[ci]
                links = ((b in und.get(a, ())) + (c in und.get(a, ()))
                         + (c in und.get(b, ())))
                if links == 3:
                    closed += 3
                elif links == 2:
                    open_ += 1
    total = closed + open_
    return closed / total if total else 0.0


def brute_all_pairs(nodes, edge_pairs):
    """Floyd-Warshall min-plus; returns (sum of finite dists, reachable pairs)."""
    nodes = sorted(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for s, t in edge_pairs:
        if s != t:
            dist[idx[s], idx[t]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    off = ~np.eye(n, dtype=bool)
    finite = np.isfinite(dist) & off
    return dist[finite].sum(), int(finite.sum())


def brute_priorities(state):
    """Outsider priorities and boundary by a full scan of the discovered graph."""
    prio = {}
    g = state.discovered
    insiders = g.insiders
    for s, t, weight in zip(g.sources.tolist(), g.targets.tolist(), g.weights.tolist()):
        if t in insiders and s not in insiders:
            prio[s] = prio.get(s, 0.0) + weight
    return prio, sum(prio.values())


class AppendedEdges:
    """The discovered graph as the sampler once kept it: one appended row per edge.

    :func:`record_appends` fills the four columns while a sampler runs.
    """

    def __init__(self):
        self.sources, self.targets, self.weights, self.event_counts = [], [], [], []

    def append(self, source, target, weight, n_events):
        self.sources.append(source)
        self.targets.append(target)
        self.weights.append(weight)
        self.event_counts.append(n_events)


def record_appends(oracle, weights, in_adj) -> AppendedEdges:
    """Append every edge of every answer ``oracle`` gives from now on, in answer order.

    ``in_adj`` is the oracle's reference adjacency (:func:`reference_in_adjacency`
    or :func:`reference_plain_in_adjacency`). Each edge ``u -> v`` of an answer to
    ``v`` gets ``weights.event_weight`` of its reference patterns and their count,
    as the sampler's per-edge loop once appended them, so the recorded weights do
    not depend on the oracle's own weight column.
    """
    edges = AppendedEdges()
    ask = oracle.in_neighbors

    def in_neighbors(v):
        answer = ask(v)
        expected = in_adj.get(v, ())
        assert [u for u, _w in answer] == [u for u, _patterns in expected]
        for u, patterns in expected:
            edges.append(u, v, weights.event_weight(patterns), len(patterns))
        return answer

    oracle.in_neighbors = in_neighbors
    return edges


class PatternTags:
    """A weight table whose weights name pattern tuples, to read back what an oracle weighs.

    Bound to an oracle, each edge weighs the index in ``tuples`` of the pattern
    tuple the oracle passed for it, so :meth:`answer` turns an answer's ``(u, w)``
    back into ``(u, patterns)``.
    """

    def __init__(self):
        self.tuples = []

    def event_weight(self, patterns):
        self.tuples.append(patterns)
        return float(len(self.tuples) - 1)

    def answer(self, oracle, v):
        return tuple((u, self.tuples[int(w)]) for u, w in oracle.in_neighbors(v))


def reference_in_edges(oracle, nodes):
    """``GraphOracle.in_edges`` as a walk of the oracle's CSR, one ``range`` per node."""
    indptr, csr_sources = oracle._indptr.tolist(), oracle._sources.tolist()
    spans = [range(indptr[v], indptr[v + 1]) for v in nodes]
    sizes = list(map(len, spans))
    rows = np.fromiter(chain.from_iterable(spans), np.int64, sum(sizes))
    sources = chain.from_iterable(csr_sources[span.start:span.stop] for span in spans)
    return (np.fromiter(sources, np.int64, len(rows)),
            np.repeat(np.array(nodes, dtype=np.int64), sizes),
            oracle._weights[oracle._codes[rows]], oracle._event_counts[oracle._codes[rows]])


def reference_weighted_pick(candidates, priorities, rng):
    """The first of ``candidates`` whose running sum of ``priorities`` exceeds
    ``rng.random()`` times the total, the last one at most: a numpy ``cumsum`` and a
    right ``searchsorted``, as the RS_DW pick was before the weight tree and the
    RS_SW pick before ``sampler._weighted_pick``."""
    weights = np.fromiter((priorities[o] for o in candidates), dtype=float,
                          count=len(candidates))
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    idx = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
    return candidates[min(idx, len(candidates) - 1)]


def graph_from_edge_pairs(pairs, weight=1.0, nodes=()):
    """A graph of distinct (source, target) pairs, every endpoint and each of ``nodes``
    an insider, each edge one event of ``weight``."""
    pairs = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    g = DiscoveredGraph(set(pairs.ravel().tolist()) | set(nodes))
    g.add_events(pairs[:, 0], pairs[:, 1], [weight] * len(pairs), [1] * len(pairs))
    return g


def default_r_sweep(n_blocks):
    """The ratio sweep of the paper's blockmodel experiments for ``n_blocks`` blocks."""
    return (1.0 / (n_blocks - 1), 0.5, 1.0, 2.0, 4.0, 8.0)


def random_digraph(rng, n, p):
    """Directed simple random graph as a list of (u, v) pairs, u != v."""
    pairs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                pairs.append((u, v))
    return pairs


def event_rows(table):
    """The events of an ``ingest.EventTable`` as ``(tweet_id, author, interactor, pattern)``."""
    return [(table.tweets[t], table.users[a], table.users[j], p)
            for t, a, j, p in zip(table.tweet.tolist(), table.author.tolist(),
                                  table.interactor.tolist(), table.pattern.tolist())]


def reference_parse_events(path, fmt=None, malformed_cap=0.01):
    """Row-at-a-time event-log parse: a dict of merged events, one row after another.

    Returns ``(events, report)`` as ``ingest.parse_events_with_report`` does,
    the events as ``(tweet_id, author, interactor, pattern)`` tuples.
    """
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "jsonl"
    if fmt == "jsonl":
        def rows():
            for lineno, line in read_lines(path, "event log"):
                line = line.strip()
                if line:
                    try:
                        yield lineno, json.loads(line)
                    except (ValueError, RecursionError):
                        yield lineno, None
    else:
        def rows():
            lines = read_csv(path, "event log")
            _lineno, header = next(lines, (0, None))
            if header is None or "tweet_id" not in header:
                raise DataError(f"{path}: missing CSV header with tweet_id column")
            for lineno, row in lines:
                yield lineno, dict(zip(header, row))

    report = ParseReport()
    merged = {}
    for lineno, row in rows():
        report.rows += 1
        try:
            if not isinstance(row, dict):
                raise ValueError("not a JSON object")
            for name in ("tweet_id", "author", "interactor", "types"):
                if not row.get(name):
                    raise ValueError(f"missing field {name}")
            tweet, author = row["tweet_id"], row["author"]
            interactor, names = row["interactor"], row["types"]
            if isinstance(names, str):
                names = names.split("|")
            pattern = pattern_of(t.strip() for t in names if t and t.strip())
            tweet, author, interactor = str(tweet), str(author), str(interactor)
            if any(c in x for x in (tweet, author, interactor) for c in "\t\n\r"):
                raise ValueError("id with a tab or line break")
        except (ValueError, AttributeError, TypeError) as exc:
            report.malformed += 1
            if len(report.samples) < 5:
                report.samples.append(f"{path}:{lineno}: {exc}")
            continue
        if author == interactor:
            continue
        prev = merged.get((tweet, interactor))
        if prev is not None:
            author, pattern = prev[1], prev[3] | pattern
        merged[tweet, interactor] = (tweet, author, interactor, pattern)
    if report.rows and report.malformed / report.rows > malformed_cap:
        raise DataError(f"{path}: {report.malformed}/{report.rows} malformed rows")
    return list(merged.values()), report


def reference_apply_filters(events, seeds, corpus_filter):
    """Event-at-a-time seed and trim filters: ``(kept events, kept seeds, report)``.

    Takes and keeps ``(tweet_id, author, interactor, pattern)`` tuples;
    otherwise returns what ``ingest.apply_filters`` returns.
    """
    events = list(events)
    authored = {author for _t, author, _j, _p in events}
    kept_seeds = sorted(authored) if seeds is None else [s for s in seeds if s in authored]
    seed_set = set(kept_seeds)
    seed_events = [e for e in events if e[1] in seed_set]

    interactors_per_tweet = {}
    for tweet, _author, interactor, _pattern in seed_events:
        interactors_per_tweet.setdefault(tweet, set()).add(interactor)
    tweet_counts = {t: len(js) for t, js in interactors_per_tweet.items()}

    if tweet_counts:
        n = len(tweet_counts)
        n_keep = math.floor(corpus_filter.trim_quantile * n + 1e-9)
        if n_keep < 1:
            raise DataError("trim removed every tweet; raise trim_quantile")
        cutoff = sorted(tweet_counts.values())[n_keep - 1]
        kept_tweets = {t for t, c in tweet_counts.items() if c <= cutoff}
    else:
        cutoff = None
        kept_tweets = set()

    kept_events = [e for e in seed_events if e[0] in kept_tweets]
    report = {
        "seeds_in": len(seeds) if seeds is not None else len(kept_seeds),
        "seeds_removed": (len(seeds) - len(kept_seeds)) if seeds is not None else 0,
        "tweets_in": len(tweet_counts),
        "tweets_removed": len(tweet_counts) - len(kept_tweets),
        "events_in": len(events),
        "events_removed": len(events) - len(kept_events),
        "interaction_cutoff": cutoff,
    }
    return kept_events, kept_seeds, report


def reference_calibrate_records(events, scheme):
    """Event-at-a-time calibration: a ``Counter`` per node, shares summed in a dict loop.

    Takes ``(tweet_id, author, interactor, pattern)`` tuples, one per event.

    Returns the global, source and target ``FrequencyTable`` values and the
    ``Calibration`` that ``balance`` and ``weights_from`` make of them.
    """
    global_ = Counter()
    by_source, by_target, raw_by_source, raw_by_target = {}, {}, {}, {}
    raw_events = 0
    for _tweet, author, interactor, pattern in events:
        if scheme.collapsed:
            pattern = ia.collapse_af(pattern)
        counted = [pattern] if scheme in (ia.Scheme.DISTINCT, ia.Scheme.AF_DISTINCT) \
            else ia.subpatterns(pattern)
        src = by_source.setdefault(author, Counter())
        tgt = by_target.setdefault(interactor, Counter())
        for x in counted:
            global_[x] += 1
            src[x] += 1
            tgt[x] += 1
        raw_events += 1
        raw_by_source[author] = raw_by_source.get(author, 0) + 1
        raw_by_target[interactor] = raw_by_target.get(interactor, 0) + 1

    def mean_shares(per_node, denominators):
        values = {}
        for node, counter in per_node.items():
            for x, n in counter.items():
                values[x] = values.get(x, 0.0) + n / denominators[node]
        return {x: 100.0 * v / len(per_node) for x, v in values.items()}

    g = ia.FrequencyTable(scheme, "global",
                          {x: 100.0 * n / raw_events for x, n in global_.items()})
    s = ia.FrequencyTable(scheme, "source", mean_shares(by_source, raw_by_source))
    t = ia.FrequencyTable(scheme, "target", mean_shares(by_target, raw_by_target))
    star = ia.balance(g, s, t)
    return ia.Calibration(scheme, g, s, t, star, ia.weights_from(star))


def reference_community_evolution(trace, labels) -> EvolutionSeries:
    """``metrics.community_evolution`` as a per-step copy of every community's count."""
    communities = sorted({labels.get(v, "unknown")
                          for v in list(trace.seeds) + trace.selected()}, key=str)
    length = len(trace) + 1
    counts = {c: [0] * length for c in communities}
    for v in trace.seeds:
        counts[labels.get(v, "unknown")][0] += 1
    for idx, node in enumerate(trace.selected(), start=1):
        for c in communities:
            counts[c][idx] = counts[c][idx - 1]
        counts[labels.get(node, "unknown")][idx] += 1
    return EvolutionSeries(list(range(length)), counts, trace.boundary_series())


def trace_rows(trace) -> list[TraceRow]:
    """The columns of ``trace`` as one ``TraceRow`` per timestep."""
    return list(map(TraceRow, range(trace.start + 1, trace.start + 1 + len(trace)), trace.nodes,
                    trace.priority, trace.boundary, trace.new_nodes, trace.new_edges))


def trace_from_rows(strategy, seeds, init_boundary, rows) -> SampleTrace:
    """A trace whose columns hold ``rows``, consecutive timesteps from the first row's."""
    trace = SampleTrace(strategy, seeds, init_boundary)
    for row in rows:
        if not len(trace):
            trace.start = row.timestep - 1
        assert row.timestep == trace.start + 1 + len(trace)
        trace.nodes.append(row.node)
        trace.priority.append(row.priority)
        trace.boundary.append(row.boundary)
        trace.new_nodes.append(row.new_nodes)
        trace.new_edges.append(row.new_edges)
    return trace


def reference_window_purity(block_sequence, window):
    """``metrics.window_purity`` as one ``Counter`` per window."""
    return [(t, max(Counter(block_sequence[t - window:t]).values()) / window)
            for t in range(window, len(block_sequence) + 1)]


def reference_in_adjacency(events):
    """``(external ids in internal-id order, {author id: answer})`` of an event oracle.

    ``events`` are ``(tweet_id, author, interactor, pattern)`` tuples. Ids are
    assigned author then interactor over the events in order; an answer lists
    ``(interactor id, patterns)`` by ascending id, the patterns ordered by
    ``str(tweet_id)``.
    """
    ext2int, int2ext = {}, []
    per_author = {}
    for tweet, author, interactor, pattern in events:
        for ext in (author, interactor):
            if ext not in ext2int:
                ext2int[ext] = len(int2ext)
                int2ext.append(ext)
        a, j = ext2int[author], ext2int[interactor]
        if a != j:
            per_author.setdefault(a, {}).setdefault(j, []).append((tweet, pattern))
    in_adj = {a: tuple((j, tuple(p for _t, p in sorted(evs, key=lambda tp: str(tp[0]))))
                       for j, evs in sorted(by_src.items()))
              for a, by_src in per_author.items()}
    return int2ext, in_adj


def reference_plain_in_adjacency(pairs, first_ids=()):
    """``(external ids in internal-id order, {target id: answer})`` of a plain oracle.

    ``pairs`` are directed ``(source, target)`` external ids. Ids go to
    ``first_ids``, then to the nodes of ``pairs`` by first appearance, source
    before target. An answer lists every in-neighbour once by ascending id,
    self-loops dropped, each with the pattern ``(PLAIN_EDGE,)``.
    """
    ext2int, int2ext = {}, []
    for ext in chain(first_ids, chain.from_iterable(pairs)):
        if ext not in ext2int:
            ext2int[ext] = len(int2ext)
            int2ext.append(ext)
    sources = {}
    for s, t in pairs:
        sources.setdefault(ext2int[t], []).append(ext2int[s])
    plain = (PLAIN_EDGE,)
    return int2ext, {v: tuple((u, plain) for u in sorted(set(srcs)) if u != v)
                     for v, srcs in sources.items()}


def reference_distinct_uniform(rng, n_choices, m):
    """m distinct uniform draws from range(n_choices), one Python int at a time."""
    if m * 2 >= n_choices:
        return [int(x) for x in rng.permutation(n_choices)[:m]]
    seen = set()
    while len(seen) < m:
        batch = rng.integers(n_choices, size=max(16, 2 * (m - len(seen))))
        for x in batch.tolist():
            if len(seen) >= m:
                break
            seen.add(x)
    return sorted(seen)


def reference_generate(matrix, block_sizes, rng_seed):
    """Row-at-a-time blockmodel: ``(sorted list of (u, v), labels)``, as ``sbm.generate``."""
    sizes = [int(s) for s in block_sizes]
    rng = np.random.default_rng(rng_seed)
    offsets = sbm.block_offsets(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    edges = []
    for i, n_i in enumerate(sizes):
        base_i = int(offsets[i])
        n_pairs = n_i * (n_i - 1) // 2
        if n_pairs:
            m = int(rng.binomial(n_pairs, float(matrix[i, i])))
            for k in reference_distinct_uniform(rng, n_pairs, m):
                # invert the row-major upper-triangle index
                row = int((2 * n_i - 1 - np.sqrt((2 * n_i - 1) ** 2 - 8 * k)) // 2)
                col = k - row * (2 * n_i - row - 1) // 2 + row + 1
                edges.append((base_i + row, base_i + col))
        for j in range(i + 1, len(sizes)):
            n_j = sizes[j]
            base_j = int(offsets[j])
            m = int(rng.binomial(n_i * n_j, float(matrix[i, j])))
            for k in reference_distinct_uniform(rng, n_i * n_j, m):
                edges.append((base_i + k // n_j, base_j + k % n_j))
    edges.sort()
    return edges, labels


def reference_read_edges_tsv(path):
    """Line-at-a-time ``u<TAB>v`` reader: a list of int pairs, as ``sbm.read_edges_tsv``."""
    edges = []
    for lineno, line in read_lines(path, "edge list"):
        line = line.strip()
        if line:
            try:
                u, v = line.split("\t")
                edges.append((int(u), int(v)))
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected two tab-separated "
                                f"integer fields") from None
    return edges


def reference_id_map(exts):
    """Intern ``exts`` one at a time, the first of equal ids giving the key: the
    ``(external -> internal, internal -> external)`` pair an ``IdMap`` holds."""
    ext2int: dict = {}
    int2ext: list = []
    for ext in exts:
        if ext not in ext2int:
            ext2int[ext] = len(int2ext)
            int2ext.append(ext)
    return ext2int, int2ext


def reference_first_seen(values):
    """First-appearance numbering by a dict over the row-major values: each value's
    number (shaped like ``values``), the distinct values and their first indices."""
    values = np.asarray(values)
    number: dict = {}
    distinct, first = [], []
    for i, x in enumerate(values.ravel().tolist()):
        if x not in number:
            number[x] = len(distinct)
            distinct.append(x)
            first.append(i)
    numbers = [number[x] for x in values.ravel().tolist()]
    return (np.array(numbers, dtype=np.int64).reshape(values.shape),
            np.array(distinct, dtype=values.dtype), np.array(first, dtype=np.int64))


def make_sbm_oracle(sizes, k_intra, r, graph_seed, seeds_per_block=1, seed_rng=0):
    """Generate an SBM, pick per-block seeds, and wrap it in an oracle."""
    cfg = sbm.BlockModelConfig(tuple(sizes), k_intra, r, graph_seed)
    matrix = sbm.derive_block_matrix(cfg)
    edges, labels = sbm.generate(matrix, cfg.block_sizes, cfg.rng_seed)
    seed_cfg = sbm.SeedConfig((seeds_per_block,) * len(sizes), rng_seed=seed_rng)
    seeds = sbm.select_seeds(labels, seed_cfg)
    oracle = GraphOracle.from_undirected_edges(edges, n_nodes=sum(sizes))
    return oracle, seeds, labels, edges


# ---------------------------------------------------------------------------
# an exact ordered MAS


def exact_mas(oracle, seeds, weights, steps):
    """Ordered ``MAS`` in ``Fraction`` arithmetic: ``[(node, priority, boundary)]`` per step.

    Reads the oracle's CSR directly (``in_neighbors`` would log). Each pattern's
    weight enters as the decimal it prints, ``Fraction(repr(w))``, and a tuple weighs
    the exact sum of its patterns'. The pick is the largest exact priority, then the
    earliest discovery timestep, then the smallest internal id; a heap with lazy
    deletion finds it. Stops after ``steps`` steps or when no outsider remains.
    """
    from fractions import Fraction
    import heapq
    indptr, sources, codes = oracle._indptr.tolist(), oracle._sources.tolist(), oracle._codes
    tuple_weight = [sum((Fraction(repr(weights.of(p))) for p in patterns), Fraction(0))
                    for patterns in oracle._tuples]
    insiders = {oracle.ids.resolve(s) for s in seeds}
    priority, disc, heap = {}, {}, []
    boundary, rows = Fraction(0), []

    def absorb(v, timestep):
        nonlocal boundary
        for i in range(indptr[v], indptr[v + 1]):
            u, w = sources[i], tuple_weight[int(codes[i])]
            if u in insiders:
                continue
            disc.setdefault(u, timestep)
            priority[u] = priority.get(u, Fraction(0)) + w
            boundary += w
            heapq.heappush(heap, (-priority[u], disc[u], u))

    for s in seeds:
        absorb(oracle.ids.resolve(s), 0)
    for timestep in range(1, steps + 1):
        while heap and (heap[0][2] in insiders or -heap[0][0] != priority[heap[0][2]]):
            heapq.heappop(heap)   # a promoted node, or a priority since raised
        if not heap:
            break
        _p, _t, node = heapq.heappop(heap)
        picked = priority.pop(node)
        boundary -= picked
        insiders.add(node)
        absorb(node, timestep)
        rows.append((node, picked, boundary))
    return rows
