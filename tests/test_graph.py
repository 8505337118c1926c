import tracemalloc

import numpy as np
import pytest

from tightsample import graph
from tightsample.graph import (
    DiscoveredGraph,
    IdMap,
    in_edge_runs,
    induced_subgraph,
    read_edge_tsv,
    total_edge_weight,
    write_edge_tsv,
)
from tightsample.util import ConfigError, DataError


def test_idmap_is_dense_bijection():
    ids = IdMap()
    assert ids.intern("x") == 0
    assert ids.intern("y") == 1
    assert ids.intern("x") == 0
    assert ids.external(1) == "y"
    assert ids.resolve("y") == 1
    assert "z" not in ids
    assert len(ids) == 2


def _graph(insiders, edges):
    g = DiscoveredGraph(set(insiders))
    g.add_events([s for s, _t in edges], [t for _s, t in edges],
                 [1.0] * len(edges), [1] * len(edges))
    return g


def _write_graph(g, path, ids, step=None):
    """Write ``g`` in (target, source) order: rows ordered by ``in_edge_runs`` and
    gathered ``step`` (default ``WRITE_CHUNK``) at a time; returns the line count."""
    step = step or graph.WRITE_CHUNK
    order, _edges = in_edge_runs(g.targets, g.sources)
    columns = (g.sources, g.targets, g.weights, g.event_counts)
    return write_edge_tsv(([column[order[i:i + step]] for column in columns]
                           for i in range(0, len(order), step)), path, ids)


def test_induced_subgraph_definition():
    # insiders {a=0, b=1}, edges b->a and c->a: only b->a survives
    g = _graph([0, 1], [(1, 0), (2, 0)])
    sub = induced_subgraph(g, g.insiders)
    assert sub.nodes == {0, 1}
    assert set(sub.pairs()) == {(1, 0)}


def test_induced_subgraph_empty():
    g = _graph([], [])
    sub = induced_subgraph(g, g.insiders)
    assert not sub.nodes and not sub.n_edges()


def test_induced_subgraph_matches_brute_filter(rng):
    # random 50-node discovered graph, random insider set
    nodes = list(range(50))
    insiders = {v for v in nodes if rng.random() < 0.5}
    edges = []
    for _ in range(300):
        s, t = rng.integers(50, size=2)
        if s != t and int(t) in insiders:  # targets must be insiders
            edges.append((int(s), int(t)))
    g = _graph(insiders, edges)
    sub = induced_subgraph(g, g.insiders)
    expected = {(s, t) for (s, t) in g.pairs() if s in insiders and t in insiders}
    assert set(sub.pairs()) == expected


def test_total_edge_weight_unit_counts():
    g = _graph([0], [(1, 0), (2, 0), (3, 0)])
    assert total_edge_weight(g, "boundary") == 3.0


def test_total_edge_weight_sums_weights():
    g = DiscoveredGraph({0})
    g.add_events([1, 2], [0, 0], [0.52, 0.15], [1, 1])
    assert total_edge_weight(g, "boundary") == pytest.approx(0.67)


def test_edge_classes_partition_total(rng):
    nodes = list(range(30))
    insiders = {v for v in nodes if rng.random() < 0.6}
    g = DiscoveredGraph(set(insiders))
    for _ in range(150):
        s, t = (int(x) for x in rng.integers(30, size=2))
        if s != t and t in insiders:
            g.add_events([s], [t], [float(rng.random())], [1])
    full = total_edge_weight(g, "all")
    parts = total_edge_weight(g, "boundary") + total_edge_weight(g, "internal")
    assert full == pytest.approx(parts, rel=1e-12)
    # matches an independent full scan
    assert full == pytest.approx(sum(g.weights))


def test_unknown_selector_rejected():
    with pytest.raises(ConfigError):
        total_edge_weight(_graph([0], []), "outside")


def test_self_loops_rejected():
    g = DiscoveredGraph({0})
    with pytest.raises(DataError, match="self-loop rejected: 0"):
        g.add_events([1, 0], [0, 0], [1.0, 1.0], [1, 1])
    assert g.n_edges() == 0


def test_add_events_appends_one_row_per_call():
    # the store appends and never merges: callers add each pair once
    g = _graph([0], [(1, 0)])
    g.add_events([2, 3], [0, 0], [0.5, 2.0], [3, 1])
    assert g.n_edges() == 3
    assert list(g.pairs()) == [(1, 0), (2, 0), (3, 0)]
    assert g.weights.tolist() == [1.0, 0.5, 2.0]
    assert g.event_counts.tolist() == [1, 3, 1]
    assert g.nodes == {0, 1, 2, 3}
    with pytest.raises(ValueError, match="differ in length"):
        g.add_events([4], [0], [1.0, 2.0], [1])


def test_edge_tsv_round_trip(tmp_path):
    ids = IdMap()
    a, b, c = ids.intern("a"), ids.intern("b"), ids.intern("c")
    g = _graph([a], [(b, a), (c, a)])
    path = tmp_path / "edges.tsv"
    assert _write_graph(g, path, ids) == 2
    lines = path.read_text().splitlines()
    # deterministic (target, source) order
    assert lines[0].startswith("b\ta") and lines[1].startswith("c\ta")
    g2, ids2 = read_edge_tsv(path)
    assert g2.n_edges() == 2
    key = (ids2.resolve("b"), ids2.resolve("a"))
    row = list(g2.pairs()).index(key)
    assert g2.weights[row] == 1.0
    assert g2.event_counts[row] == 1


def test_nodes_are_insiders_and_edge_endpoints():
    g = DiscoveredGraph({0, 7})
    g.add_events([3], [0], [1.0], [1])
    assert g.nodes == {0, 3, 7}
    assert g.insiders == {0, 7}


def _reference_edge_tsv(edges, n_events, ids):
    """The dict-backed writer the column store replaced: tuple sort, repr weights."""
    lines = []
    for key in sorted(edges, key=lambda st: (st[1], st[0])):
        lines.append(f"{ids.external(key[0])}\t{ids.external(key[1])}\t"
                     f"{edges[key]!r}\t{n_events[key]}\n")
    return "".join(lines)


# weights whose repr a writer keyed by value would mix up (0.0 == -0.0), the smallest
# subnormal, and a float repr writes in exponent form
SPECIAL_WEIGHTS = (-0.0, 0.0, 5e-324, 1e16)


@pytest.mark.parametrize("seed", range(6))
def test_edge_tsv_matches_reference_writer(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    ids = IdMap()
    n = int(rng.integers(2, 60))
    for v in rng.permutation(n):  # external ids interned out of order, ints and strings
        v = int(v)
        ids.intern(v * 7919 % 1000 * 100 + v if v % 2 else f"user{v * 7919 % 1000:03d}-{v}")
    mask = rng.random((n, n)) < 0.3
    np.fill_diagonal(mask, False)
    pairs = [(int(s), int(t)) for s, t in zip(*np.nonzero(mask))]
    edges, n_events = {}, {}
    for i in rng.permutation(len(pairs)):  # scrambled append order
        key = pairs[i]
        edges[key] = float(rng.random() * 10.0 ** rng.integers(-3, 4))
        if rng.random() < 0.2:
            edges[key] = SPECIAL_WEIGHTS[rng.integers(len(SPECIAL_WEIGHTS))]
        n_events[key] = int(rng.integers(1, 6))
    # the first lines, one chunk, hold every special weight
    for key, weight in zip(sorted(edges, key=lambda st: (st[1], st[0])), SPECIAL_WEIGHTS):
        edges[key] = weight
    g = DiscoveredGraph()
    g.add_events([s for s, _t in edges], [t for _s, t in edges],
                 list(edges.values()), list(n_events.values()))
    monkeypatch.setattr(graph, "WRITE_CHUNK", 5)  # several chunks and a partial one
    path = tmp_path / "edges.tsv"
    # chunks of 7 rows, each written as 5 lines and 2
    assert _write_graph(g, path, ids, step=7) == len(pairs)
    assert path.read_text() == _reference_edge_tsv(edges, n_events, ids)
    g2, ids2 = read_edge_tsv(path)
    assert g2.n_edges() == len(pairs)


def test_edge_tsv_keys_weights_by_bit_pattern(tmp_path):
    g = DiscoveredGraph()
    g.add_events([1, 2, 3, 4, 5], [0] * 5, [0.0, -0.0, 5e-324, 1e16, -0.0], [1, 2, 1, 2, 1])
    path = tmp_path / "edges.tsv"
    assert _write_graph(g, path, IdMap(range(6))) == 5
    assert path.read_text() == ("1\t0\t0.0\t1\n2\t0\t-0.0\t2\n3\t0\t5e-324\t1\n"
                                "4\t0\t1e+16\t2\n5\t0\t-0.0\t1\n")


def test_in_edge_runs_matches_a_lexsort_over_the_columns(rng):
    # one int64 key per pair sorts as the (target, source) columns do, stable on ties
    # and under a minor key
    targets, sources = rng.integers(0, 9, size=(2, 400))
    minor = rng.integers(0, 3, size=400)
    for extra in ((), (minor,)):
        order, edges = in_edge_runs(targets, sources, *extra)
        expected = np.lexsort(extra + (sources, targets))
        assert order.tolist() == expected.tolist()
        starts = np.diff(targets[expected], prepend=-1) | np.diff(sources[expected], prepend=-1)
        assert edges.tolist() == np.flatnonzero(starts).tolist()
    order, edges = in_edge_runs(np.empty(0, np.int64), np.empty(0, np.int64))
    assert order.size == edges.size == 0


def test_edge_tsv_writer_makes_no_reordered_column_copies(tmp_path):
    # the four columns take 32 bytes an edge; sorted copies of them would double that
    rng = np.random.default_rng(3)
    m, n = 300_000, 30_000
    ids = IdMap()
    for v in range(n):
        ids.intern(v)
    g = DiscoveredGraph()
    sources = rng.integers(n, size=m)
    g.add_events(sources, (sources + rng.integers(1, n, size=m)) % n, rng.random(m),
                 rng.integers(1, 4, size=m))
    tracemalloc.start()
    try:
        _write_graph(g, tmp_path / "edges.tsv", ids)   # ordering plus writing
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * m


def test_edge_tsv_empty_graph(tmp_path):
    path = tmp_path / "edges.tsv"
    assert _write_graph(DiscoveredGraph(), path, IdMap()) == 0
    assert path.read_text() == ""


def test_read_edge_tsv_rejects_a_repeated_pair(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\t1.0\t1\nc\tb\t1.0\t1\nd\ta\t2.0\t2\nc\tb\t0.5\t1\n")
    with pytest.raises(DataError, match=r"edges.tsv:4: repeats the edge c -> b"):
        read_edge_tsv(path)
