import numpy as np
import pytest

from tightsample.graph import (
    DiscoveredGraph,
    IdMap,
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
    g = DiscoveredGraph()
    for v in insiders:
        g.add_node(v, insider=True)
    for s, t in edges:
        g.add_node(s)
        g.add_node(t)
        g.add_events(s, t, 1.0, 1)
    return g


def test_induced_subgraph_definition():
    # insiders {a=0, b=1}, edges b->a and c->a: only b->a survives
    g = _graph([0, 1], [(1, 0), (2, 0)])
    sub = induced_subgraph(g, g.insiders)
    assert sub.nodes == {0, 1}
    assert set(sub.edges) == {(1, 0)}


def test_induced_subgraph_empty():
    g = _graph([], [])
    sub = induced_subgraph(g, g.insiders)
    assert not sub.nodes and not sub.edges


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
    expected = {(s, t) for (s, t) in g.edges if s in insiders and t in insiders}
    assert set(sub.edges) == expected


def test_total_edge_weight_unit_counts():
    g = _graph([0], [(1, 0), (2, 0), (3, 0)])
    assert total_edge_weight(g, "boundary") == 3.0


def test_total_edge_weight_sums_weights():
    g = DiscoveredGraph()
    g.add_node(0, insider=True)
    g.add_node(1)
    g.add_node(2)
    g.add_events(1, 0, 0.52, 1)
    g.add_events(2, 0, 0.15, 1)
    assert total_edge_weight(g, "boundary") == pytest.approx(0.67)


def test_edge_classes_partition_total(rng):
    nodes = list(range(30))
    insiders = {v for v in nodes if rng.random() < 0.6}
    g = DiscoveredGraph()
    for v in insiders:
        g.add_node(v, insider=True)
    for _ in range(150):
        s, t = (int(x) for x in rng.integers(30, size=2))
        if s != t and t in insiders:
            g.add_node(s)
            g.add_events(s, t, float(rng.random()), 1)
    full = total_edge_weight(g, "all")
    parts = total_edge_weight(g, "boundary") + total_edge_weight(g, "internal")
    assert full == pytest.approx(parts, rel=1e-12)
    # matches an independent full scan
    assert full == pytest.approx(sum(g.edges.values()))


def test_unknown_selector_rejected():
    with pytest.raises(ConfigError):
        total_edge_weight(_graph([0], []), "outside")


def test_self_loops_rejected():
    g = DiscoveredGraph()
    g.add_node(0, insider=True)
    with pytest.raises(DataError):
        g.add_events(0, 0, 1.0, 1)


def test_parallel_events_merge_into_one_edge():
    g = _graph([0], [(1, 0)])
    g.add_events(1, 0, 0.5, 1)
    assert len(g.edges) == 1
    assert g.n_events[(1, 0)] == 2
    assert g.edges[(1, 0)] == pytest.approx(1.5)


def test_edge_tsv_round_trip(tmp_path):
    ids = IdMap()
    a, b, c = ids.intern("a"), ids.intern("b"), ids.intern("c")
    g = _graph([a], [(b, a), (c, a)])
    path = tmp_path / "edges.tsv"
    write_edge_tsv(g, path, ids)
    lines = path.read_text().splitlines()
    # deterministic (target, source) order
    assert lines[0].startswith("b\ta") and lines[1].startswith("c\ta")
    g2, ids2 = read_edge_tsv(path)
    assert len(g2.edges) == 2
    key = (ids2.resolve("b"), ids2.resolve("a"))
    assert g2.edges[key] == 1.0
    assert g2.n_events[key] == 1
