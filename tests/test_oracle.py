import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    PatternTags,
    event_rows,
    make_sbm_oracle,
    reference_in_adjacency,
    reference_in_edges,
    reference_plain_in_adjacency,
)
from tightsample import interactions as ia
from tightsample import sampler, sbm
from tightsample.ingest import EventTable, synthetic_corpus
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
        tags = PatternTags()
        everyone = oracle.declare_seeds(externals, tags)
        assert {v: tags.answer(oracle, v) for v in everyone} == \
            {v: in_adj.get(v, ()) for v in everyone}


def test_event_backing_builds_patterns():
    oracle = GraphOracle.from_events(EventTable.from_rows([("t", "i", "j", 0b1100)]))
    tags = PatternTags()
    seed = oracle.declare_seeds(["i"], tags)[0]
    answer = tags.answer(oracle, seed)
    assert len(answer) == 1
    u, patterns = answer[0]
    assert oracle.ids.external(u) == "j"
    assert patterns == (0b1100,)


def test_event_patterns_answer_in_tweet_id_string_order():
    # ids sort as strings (t10 < t2 < t9), and event_weight adds in that order
    events = EventTable.from_rows([("t9", "i", "j", 0b1000),
                                   ("t10", "i", "j", 0b0001),
                                   ("t2", "i", "j", 0b0100)])
    oracle = GraphOracle.from_events(events)
    tags = PatternTags()
    ((_u, patterns),) = tags.answer(oracle, oracle.declare_seeds(["i"], tags)[0])
    assert patterns == (0b0001, 0b0100, 0b1000)
    # t9, t10, t2 weigh 0.1, 0.2, 0.3: the row order, or numeric id order, would
    # add up to 0.6000000000000001
    wt = ia.WeightTable(ia.Scheme.DISTINCT, {0b1000: 0.1, 0b0001: 0.2, 0b0100: 0.3})
    ((_u, w),) = oracle.in_neighbors(oracle.declare_seeds(["i"], wt)[0])
    assert w == wt.event_weight(patterns) == 0.2 + 0.3 + 0.1 == 0.6
    assert 0.1 + 0.2 + 0.3 != 0.6


def test_plain_edges_answer_one_plain_pattern(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\n")
    for oracle in (GraphOracle.from_undirected_edges([(0, 1)]),
                   GraphOracle.from_edgelist(path)):
        tags = PatternTags()
        seed = oracle.declare_seeds([oracle.ids.external(1)], tags)[0]
        ((_u, patterns),) = tags.answer(oracle, seed)
        assert patterns == (ia.PLAIN_EDGE,)


def _backings_with_reference(tmp_path):
    """Each backing kind over one random graph, with its reference adjacency."""
    rng = np.random.default_rng(5)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 25, size=(150, 2))]
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"n{a}\tn{b}\n" for a, b in pairs))
    named = [(f"n{a}", f"n{b}") for a, b in pairs]
    # few authors and tweets per author, so many edges carry several events
    corpus = synthetic_corpus(rng, n_authors=8, n_interactors=40, n_tweets=30, n_events=400)
    both_ways = [p for u, v in pairs for p in ((u, v), (v, u))]
    return {"undirected": (GraphOracle.from_undirected_edges(pairs),
                           reference_plain_in_adjacency(both_ways)),
            "edgelist": (GraphOracle.from_edgelist(path), reference_plain_in_adjacency(named)),
            "events": (GraphOracle.from_events(corpus),
                       reference_in_adjacency(event_rows(corpus)))}


WEIGHT_TABLES = {"unit": ia.UnitWeights(), "unit/100": ia.UnitWeights().scaled(0.01),
                 "distinct": ia.load_reference_tables()["distinct"].weights,
                 "af": ia.load_reference_tables()["af"].weights}


@pytest.mark.parametrize("table", WEIGHT_TABLES)
def test_bound_weights_are_each_edges_event_weight(tmp_path, table):
    # the column holds, edge by edge, the table's weight of the reference patterns
    weights = WEIGHT_TABLES[table]
    for kind, (oracle, (externals, in_adj)) in _backings_with_reference(tmp_path).items():
        everyone = oracle.declare_seeds(externals, weights)
        expected = {v: [(u, weights.event_weight(patterns), len(patterns))
                        for u, patterns in in_adj.get(v, ())] for v in everyone}
        assert {v: list(oracle.in_neighbors(v)) for v in everyone} == \
            {v: [(u, w) for u, w, _n in rows] for v, rows in expected.items()}, kind
        sources, targets, bound, counts = oracle.in_edges(everyone)
        assert list(zip(sources.tolist(), targets.tolist(), bound.tolist(), counts.tolist())) \
            == [(u, v, w, n) for v in everyone for u, w, n in expected[v]], kind
        if kind == "events":
            assert counts.max() > 1


def test_in_edges_matches_the_per_node_walk(tmp_path):
    # the index-arithmetic gather gives the columns, dtypes included, of one walk per node
    backings = _backings_with_reference(tmp_path)
    # the random undirected graph reaches every node; 0..29 adds five without an edge
    _oracle, (externals, in_adj) = backings["undirected"]
    pairs = [(externals[u], externals[v]) for v, answer in in_adj.items() for u, _p in answer]
    backings["undirected"] = (GraphOracle.from_undirected_edges(pairs, n_nodes=30),
                              reference_plain_in_adjacency(pairs, range(30)))
    for kind, (oracle, (externals, in_adj)) in backings.items():
        everyone = oracle.declare_seeds(externals, ia.load_reference_tables()["af"].weights)
        silent = [v for v in everyone if not in_adj.get(v)]   # nodes with empty answers
        assert silent or kind == "edgelist", kind   # every node of its list has an in-edge
        shuffled = np.random.default_rng(1).permutation(everyone).tolist()
        for nodes in ([], everyone, shuffled, shuffled[:5] * 3, silent, silent + everyone[:4]):
            got, want = oracle.in_edges(nodes), reference_in_edges(oracle, nodes)
            assert [column.dtype for column in got] == [column.dtype for column in want]
            assert [column.tolist() for column in got] == [column.tolist() for column in want]


def test_a_missing_pattern_warns_once_at_bind():
    # only the edge b -> a carries the uncalibrated 0010, and a is never queried
    events = EventTable.from_rows([("t1", "a", "b", 0b1000), ("t2", "a", "b", 0b0010),
                                   ("t3", "c", "b", 0b0001)])
    oracle = GraphOracle.from_events(events)
    wt = ia.WeightTable(ia.Scheme.DISTINCT, {0b1000: 0.25, 0b0001: 0.5})
    with pytest.warns(UserWarning, match="0010 was never calibrated") as caught:
        seed = oracle.declare_seeds(["c"], wt)[0]
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # neither a query nor a second bind warns again
        assert oracle.in_neighbors(seed) == ((oracle.ids.resolve("b"), 0.5),)
        oracle.declare_seeds(["a"], wt)


def test_repeated_calls_identical():
    oracle = GraphOracle.from_undirected_edges([(0, 1), (2, 1), (3, 1)], n_nodes=4)
    oracle.declare_seeds([1])
    assert oracle.in_neighbors(1) == oracle.in_neighbors(1)
    assert len(oracle.access_log) == 2


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


def _assert_only_revealed_answer(state):
    """Every id outside the insiders and outsiders, every negative id down to -len(ids)
    (which would index a node's flag) and len(ids) are refused with UnknownNodeError,
    and the refusals log nothing."""
    oracle, log, n = state.oracle, state.oracle.access_log, len(state.oracle.ids)
    revealed = state.insiders | state.outsiders.keys()
    for v in [*range(-n, 0), n, *sorted(set(range(n)) - revealed)]:
        with pytest.raises(UnknownNodeError, match="not discoverable"):
            oracle.in_neighbors(v)
    assert oracle.access_log == log


def test_only_seeds_and_answered_nodes_are_discoverable(tmp_path):
    # the reveal record equals the sample and its frontier, on each backing kind
    rng = np.random.default_rng(2)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 60, size=(90, 2))]
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"n{a}\tn{b}\n" for a, b in pairs))
    corpus = synthetic_corpus(rng, n_authors=10, n_interactors=50, n_tweets=40, n_events=200)
    blockmodel, seeds, _labels, _edges = make_sbm_oracle((30,) * 3, 3, 2.0, 7)
    backings = {"blockmodel": (blockmodel, seeds),
                "edgelist": (GraphOracle.from_edgelist(path), [f"n{pairs[0][1]}"]),
                "events": (GraphOracle.from_events(corpus), [corpus.users[corpus.author[0]]])}

    def every_fifth_step(state, row):
        if row.timestep % 5 == 0:
            _assert_only_revealed_answer(state)

    for kind, (oracle, seed_exts) in backings.items():
        state = sampler.init(seed_exts, oracle)
        _assert_only_revealed_answer(state)
        trace = sampler.run(state, "MAS", steps=40, rng_seed=0, on_step=every_fifth_step)
        _assert_only_revealed_answer(state)
        assert len(trace) >= 5, kind
        assert len(state.insiders | state.outsiders.keys()) < len(oracle.ids), kind


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
    events = EventTable.from_rows((f"t{i % 40}", f"n{b}", f"n{a}", 0b1000)
                                  for i, (a, b) in enumerate(pairs))
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
    assert len(oracle.access_log) == 400


def test_plain_build_memory_per_edge():
    # a plain backing keeps one int32 column per edge, _sources: its code column is a
    # zero-stride view, and weights, edge and event counts are per-tuple tables; the
    # build numbers nodes in int32 and drops each temporary once used
    cfg = sbm.BlockModelConfig((500,) * 8, 10, 4.0, 5)
    edges, _labels = sbm.generate(sbm.derive_block_matrix(cfg), cfg.block_sizes, cfg.rng_seed)
    tracemalloc.start()
    try:
        oracle = GraphOracle.from_undirected_edges(edges, n_nodes=cfg.n_nodes)
        oracle.declare_seeds([0])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_edges = 2 * len(edges)   # directed
    # measured 17.7 and 39.2 bytes per edge; 21.6 and 52.3 with int64 node numbers;
    # 45.2 and 97.8 with a weight and an event-count column per edge and a build that
    # held its temporaries
    assert kept / n_edges <= 19.0
    assert peak / n_edges <= 43.0
