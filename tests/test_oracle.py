import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_plain_in_adjacency
from tightsample import interactions as ia
from tightsample.ingest import EngagementEvent
from tightsample.oracle import GraphOracle, UnknownNodeError
from tightsample.util import DataError


def test_generated_backing_serves_both_directions():
    oracle = GraphOracle.from_undirected_edges([(3, 7), (5, 7)], n_nodes=8)
    oracle.declare_seeds([7])
    nbrs = [u for u, _ev in oracle.in_neighbors(7)]
    assert nbrs == [3, 5]
    # the undirected edge is visible from the other side too
    oracle2 = GraphOracle.from_undirected_edges([(3, 7)], n_nodes=8)
    oracle2.declare_seeds([3])
    assert [u for u, _ev in oracle2.in_neighbors(3)] == [7]


def test_undirected_ids_follow_first_appearance_without_n_nodes():
    # the CLI passes n_nodes=None, and ordered traces depend on this id order
    oracle = GraphOracle.from_undirected_edges([(0, 5), (0, 1)])
    assert [oracle.ids.external(v) for v in range(3)] == [0, 5, 1]
    oracle = GraphOracle.from_undirected_edges([(0, 5), (0, 1)], n_nodes=6)
    assert [oracle.ids.external(v) for v in range(6)] == list(range(6))


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
       n_nodes=st.sampled_from([None, 12]), ending=st.sampled_from(["\n", "\r\n"]))
def test_plain_backings_match_reference(pairs, n_nodes, ending):
    # small id pools: lines repeat, edges appear in both orientations, self-loops
    # occur, and with n_nodes some nodes have no edge at all
    undirected = GraphOracle.from_undirected_edges(pairs, n_nodes=n_nodes)
    both_ways = [p for u, v in pairs for p in ((u, v), (v, u))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes("".join(f"n{u}\tn{v}{ending}" for u, v in pairs).encode())
        directed = GraphOracle.from_edgelist(path)
    named = [(f"n{u}", f"n{v}") for u, v in pairs]
    for oracle, (externals, in_adj) in (
            (undirected, reference_plain_in_adjacency(both_ways, range(n_nodes or 0))),
            (directed, reference_plain_in_adjacency(named))):
        assert [oracle.ids.external(v) for v in range(len(oracle.ids))] == externals
        everyone = oracle.declare_seeds(externals)
        assert {v: oracle.in_neighbors(v) for v in everyone} == \
            {v: in_adj.get(v, ()) for v in everyone}


def test_event_backing_builds_patterns():
    events = [EngagementEvent("t", "i", "j", 0b1100)]
    oracle = GraphOracle.from_events(events)
    seed = oracle.declare_seeds(["i"])[0]
    answer = oracle.in_neighbors(seed)
    assert len(answer) == 1
    u, patterns = answer[0]
    assert oracle.ids.external(u) == "j"
    assert patterns == (0b1100,)


def test_event_patterns_answer_in_tweet_id_string_order():
    # ids sort as strings (t10 < t2 < t9), and event_weight adds in that order
    events = [EngagementEvent("t9", "i", "j", 0b1000),
              EngagementEvent("t10", "i", "j", 0b0001),
              EngagementEvent("t2", "i", "j", 0b0100)]
    oracle = GraphOracle.from_events(events)
    ((_u, patterns),) = oracle.in_neighbors(oracle.declare_seeds(["i"])[0])
    assert patterns == (0b0001, 0b0100, 0b1000)
    # t9, t10, t2 weigh 0.1, 0.2, 0.3: the row order, or numeric id order, would
    # add up to 0.6000000000000001
    wt = ia.WeightTable(ia.Scheme.DISTINCT, {0b1000: 0.1, 0b0001: 0.2, 0b0100: 0.3})
    assert wt.event_weight(patterns) == 0.2 + 0.3 + 0.1 == 0.6
    assert 0.1 + 0.2 + 0.3 != 0.6


def test_plain_edges_answer_one_plain_pattern(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\n")
    for oracle in (GraphOracle.from_undirected_edges([(0, 1)]),
                   GraphOracle.from_edgelist(path)):
        seed = oracle.declare_seeds([oracle.ids.external(1)])[0]
        ((_u, patterns),) = oracle.in_neighbors(seed)
        assert patterns == (ia.PLAIN_EDGE,)


def test_repeated_calls_identical():
    oracle = GraphOracle.from_undirected_edges([(0, 1), (2, 1), (3, 1)], n_nodes=4)
    oracle.declare_seeds([1])
    assert oracle.in_neighbors(1) == oracle.in_neighbors(1)
    assert oracle.query_count == 2


def test_undeclared_node_not_discoverable():
    oracle = GraphOracle.from_undirected_edges([(0, 1)], n_nodes=2)
    with pytest.raises(UnknownNodeError, match="not discoverable"):
        oracle.in_neighbors(0)


def test_discovery_expands_through_answers():
    oracle = GraphOracle.from_undirected_edges([(0, 1), (1, 2)], n_nodes=3)
    oracle.declare_seeds([0])
    with pytest.raises(UnknownNodeError):
        oracle.in_neighbors(1)
    oracle.in_neighbors(0)  # reveals 1
    nbrs = [u for u, _ev in oracle.in_neighbors(1)]
    assert nbrs == [0, 2]


def test_unknown_seed_named_in_error():
    oracle = GraphOracle.from_undirected_edges([(0, 1)], n_nodes=2)
    with pytest.raises(DataError, match="99"):
        oracle.declare_seeds([99])


def test_missing_backing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        GraphOracle.from_edgelist(tmp_path / "nope.tsv")


def test_edgelist_backing_is_directed(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\nc\tb\n")
    oracle = GraphOracle.from_edgelist(path)
    seed = oracle.declare_seeds(["b"])[0]
    nbrs = [oracle.ids.external(u) for u, _ev in oracle.in_neighbors(seed)]
    assert nbrs == ["a", "c"]
    # a has no in-edges: b->a was never asserted
    a = oracle.ids.resolve("a")
    assert oracle.in_neighbors(a) == ()


def test_union_of_answers_reconstructs_generated_edges():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    oracle = GraphOracle.from_undirected_edges(edges, n_nodes=4)
    oracle.declare_seeds(list(range(4)))
    seen = set()
    for v in range(4):
        for u, _ev in oracle.in_neighbors(v):
            seen.add((min(u, v), max(u, v)))
    assert seen == set(edges)


def test_access_log_records_queries_in_order(tmp_path):
    oracle = GraphOracle.from_undirected_edges([(0, 1), (1, 2)], n_nodes=3)
    oracle.declare_seeds([0, 2])
    oracle.in_neighbors(0)
    oracle.in_neighbors(2)
    oracle.in_neighbors(1)
    assert oracle.access_log == (0, 2, 1)
    out = tmp_path / "log.csv"
    oracle.write_access_log(out)
    assert out.read_text().splitlines() == [
        "step,node_ext_id", "1,0", "2,2", "3,1"]


def test_every_backing_answers_in_ascending_id(tmp_path):
    # the sampler keeps frontiers in answer order and relies on it being sorted
    rng = np.random.default_rng(3)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 30, size=(300, 2)) if a != b]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"n{a}\tn{b}\n" for a, b in pairs))
    events = [EngagementEvent(f"t{i % 40}", f"n{b}", f"n{a}", 0b1000)
              for i, (a, b) in enumerate(pairs)]
    backings = {"undirected": GraphOracle.from_undirected_edges(pairs),
                "edgelist": GraphOracle.from_edgelist(path),
                "events": GraphOracle.from_events(events)}
    for kind, oracle in backings.items():
        everyone = [oracle.ids.external(v) for v in range(len(oracle.ids))]
        longest = 0
        for v in oracle.declare_seeds(everyone):
            answer = [u for u, _ev in oracle.in_neighbors(v)]
            assert all(a < b for a, b in zip(answer, answer[1:])), kind
            longest = max(longest, len(answer))
        assert longest >= 5, kind


def test_concurrent_queries_keep_exact_counts():
    edges = [(u, 100) for u in range(40)]
    oracle = GraphOracle.from_undirected_edges(edges, n_nodes=101)
    oracle.declare_seeds([100])

    def worker():
        for _ in range(50):
            oracle.in_neighbors(100)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.query_count == 400
