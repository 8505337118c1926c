import copy
import csv
import heapq
import math
import tracemalloc

import numpy as np
import pytest

from reference import (
    brute_priorities,
    event_rows,
    exact_mas,
    make_sbm_oracle,
    record_appends,
    reference_in_adjacency,
    reference_plain_in_adjacency,
    reference_weighted_pick,
    trace_rows,
)
from test_pinned_traces import graph_corpus
from tightsample import interactions as ia
from tightsample import sampler
from tightsample.graph import DiscoveredGraph
from tightsample.ingest import EventTable, synthetic_corpus
from tightsample.oracle import GraphOracle
from tightsample.util import ConfigError, DataError


def star_oracle(n_leaves=2):
    """Undirected star: leaves 1..n all attached to node 0."""
    return GraphOracle.from_undirected_edges(
        [(0, i) for i in range(1, n_leaves + 1)], n_nodes=n_leaves + 1)


# ---------------------------------------------------------------------------
# init


def test_init_single_seed_unit_weights():
    oracle = star_oracle(2)
    state = sampler.init([0], oracle)
    assert state.outsiders == {1: 1.0, 2: 1.0}
    assert state.boundary == 2.0


def test_init_seed_to_seed_edges_stay_inside():
    oracle = GraphOracle.from_undirected_edges([(0, 1)], n_nodes=2)
    state = sampler.init([0, 1], oracle)
    assert state.outsiders == {}
    assert state.boundary == 0.0
    assert state.discovered.n_edges() == 2  # both directions discovered


def test_init_weighted_seed_priority():
    oracle = GraphOracle.from_events(EventTable.from_rows([("t", "seed", "fan", 0b1000)]))
    weights = ia.load_reference_tables()["distinct"].weights
    state = sampler.init(["seed"], oracle, weights)
    fan = oracle.ids.resolve("fan")
    assert state.outsiders[fan] == pytest.approx(0.014)  # like, distinct


def test_init_rejects_bad_seeds():
    oracle = star_oracle()
    with pytest.raises(ConfigError):
        sampler.init([], oracle)
    with pytest.raises(ConfigError):
        sampler.init([0, 0], oracle)
    with pytest.raises(DataError, match="77"):
        sampler.init([77], oracle)


# ---------------------------------------------------------------------------
# selection rules


def two_priority_state():
    """Outsiders b (priority 2, two edges) and c (priority 1)."""
    events = EventTable.from_rows([("t1", "A", "B", 0b1000),
                                   ("t2", "A", "B", 0b1000),
                                   ("t3", "A", "C", 0b1000)])
    oracle = GraphOracle.from_events(events)
    state = sampler.init(["A"], oracle)
    b, c = oracle.ids.resolve("B"), oracle.ids.resolve("C")
    return state, b, c


def test_mas_takes_argmax(rng):
    state, b, _c = two_priority_state()
    assert state.select("MAS", rng) == b


def test_mas_tie_break_earliest_discovery_then_id():
    # two outsiders at priority 1: first-discovered wins
    oracle = star_oracle(3)
    state = sampler.init([0], oracle)
    rng = np.random.default_rng(0)
    node, _row = sampler.step(state, "MAS", rng)
    assert node == 1  # same discovery step, smallest id


def test_mas_random_tie_break_spreads_over_ties(rng):
    picks = set()
    for _ in range(60):
        oracle = star_oracle(5)
        state = sampler.init([0], oracle)
        picks.add(state.select("MAS", rng, tie_break="random"))
    assert picks == {1, 2, 3, 4, 5}  # all tied at priority 1


def test_random_tie_break_is_seeded():
    def seq(seed):
        oracle, seeds, _labels, _edges = make_sbm_oracle((40,) * 2, 5, 4.0, 3)
        state = sampler.init(seeds, oracle)
        trace = sampler.run(state, "MAS", steps=30, rng_seed=seed,
                            tie_break="random")
        return trace.selected()

    assert seq(1) == seq(1)
    assert seq(1) != seq(2)


def test_random_tie_break_still_picks_argmax(rng):
    state, b, _c = two_priority_state()
    assert all(state.select("MAS", rng, tie_break="random") == b
               for _ in range(10))
    assert all(state.select("RI_MAS", rng, tie_break="random") == b
               for _ in range(10))


def test_unknown_tie_break_rejected(rng):
    state, _b, _c = two_priority_state()
    with pytest.raises(ConfigError):
        state.select("MAS", rng, tie_break="coinflip")


def test_rs_dw_distribution_matches_priorities(rng):
    draws = np.zeros(2)
    state, b, c = two_priority_state()
    for _ in range(10_000):
        node = state.select("RS_DW", rng)
        draws[0 if node == b else 1] += 1
    # chi-square against (2/3, 1/3)
    expected = np.array([2 / 3, 1 / 3]) * draws.sum()
    chi2 = ((draws - expected) ** 2 / expected).sum()
    assert chi2 < 10.83  # p > 0.001 with 1 dof


def test_ro_uniform_over_outsiders(rng):
    draws = np.zeros(2)
    state, b, c = two_priority_state()
    for _ in range(10_000):
        node = state.select("RO", rng)
        draws[0 if node == b else 1] += 1
    expected = np.full(2, draws.sum() / 2)
    chi2 = ((draws - expected) ** 2 / expected).sum()
    assert chi2 < 10.83


def test_staged_strategies_condition_on_insider(rng):
    # two insiders with disjoint frontiers: stage-1 picks the insider uniformly
    events = EventTable.from_rows([("t1", "A", "x", 0b1000),
                                   ("t2", "B", "y", 0b1000),
                                   ("t3", "B", "z", 0b1000)])
    oracle = GraphOracle.from_events(events)
    state = sampler.init(["A", "B"], oracle)
    x = oracle.ids.resolve("x")
    hits = sum(state.select("RI_RO", rng) == x for _ in range(4000))
    # P(x) = P(pick insider A) = 1/2, despite A owning 1 of 3 outsiders
    assert abs(hits / 4000 - 0.5) < 0.05


def test_ri_mas_max_within_insider(rng):
    events = EventTable.from_rows([("t1", "A", "B", 0b1000),
                                   ("t2", "A", "B", 0b1000),
                                   ("t3", "A", "C", 0b1000)])
    oracle = GraphOracle.from_events(events)
    state = sampler.init(["A"], oracle)
    b = oracle.ids.resolve("B")
    assert all(state.select("RI_MAS", rng) == b for _ in range(20))


@pytest.mark.parametrize("strategy", ["RI_MAS", "RI_RO", "RS_SU", "RS_SW"])
def test_staged_frontiers_follow_discovered_edges(strategy):
    # staged picks list a frontier as kept, so it must stay in ascending id
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 3, 4, 4.0, 23)
    state = sampler.init(seeds, oracle)
    rng = np.random.default_rng(5)
    for _ in range(70):
        expected: dict = {}
        for s, t in sorted(state.discovered.pairs()):
            if t in state.insiders and s not in state.insiders:
                expected.setdefault(t, []).append(s)
        staged = state._staged_state()
        assert set(staged.frontier_of) == set(staged.eligible.items())
        assert {t: list(f) for t, f in staged.frontier_of.items()} == expected
        try:
            sampler.step(state, strategy, rng)
        except sampler.FrontierExhausted:
            break


@pytest.mark.parametrize("unit", [1.0, 0.0])
def test_random_tie_mas_draws_over_ties_in_discovery_order(unit):
    # weight 0 leaves priorities unchanged, so a key moves within its own bucket
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 3, 4, 4.0, 23)
    state = sampler.init(seeds, oracle, ia.UnitWeights(unit))
    rng = np.random.default_rng(8)
    widest = 0
    while state.outsiders:
        top = max(state.outsiders.values())
        tied = sorted((o for o, p in state.outsiders.items() if p == top),
                      key=lambda o: (state.disc_time[o], o))
        expected = tied[int(copy.deepcopy(rng).integers(len(tied)))]
        node, _row = sampler.step(state, "MAS", rng, tie_break="random")
        assert node == expected
        widest = max(widest, len(tied))
    assert widest >= 5


def test_unknown_strategy_rejected(rng):
    state, _b, _c = two_priority_state()
    with pytest.raises(ConfigError):
        state.select("BFS", rng)


# ---------------------------------------------------------------------------
# stepping


def test_step_updates_boundary_incrementally(rng):
    oracle, seeds, _labels, _edges = make_sbm_oracle((40,) * 3, 5, 4.0, 23)
    state = sampler.init(seeds, oracle)
    for _ in range(30):
        before = state.boundary
        node, row = sampler.step(state, "MAS", rng)
        # boundary after = before - priority + weight of new outsider->node edges
        prio_recomputed, boundary_recomputed = brute_priorities(state)
        assert row.boundary == pytest.approx(boundary_recomputed, abs=1e-6)
        assert row.priority <= before + 1e-9
        assert node in state.insiders and row.timestep == state.timestep


def test_frontier_exhaustion():
    oracle = star_oracle(2)
    state = sampler.init([0], oracle)
    rng = np.random.default_rng(1)
    sampler.step(state, "MAS", rng)
    sampler.step(state, "MAS", rng)
    with pytest.raises(sampler.FrontierExhausted):
        sampler.step(state, "MAS", rng)


def test_run_stops_on_exhaustion_with_reason():
    oracle = star_oracle(2)
    state = sampler.init([0], oracle)
    trace = sampler.run(state, "MAS", steps=10, rng_seed=0)
    assert len(trace) == 2
    assert trace.reason == "frontier exhausted"


def test_run_budget_and_target_size():
    oracle, seeds, _labels, _edges = make_sbm_oracle((40,) * 2, 5, 4.0, 3)
    state = sampler.init(seeds, oracle)
    trace = sampler.run(state, "RO", steps=7, rng_seed=5)
    assert len(trace) == 7 and trace.reason == "budget"
    state2 = sampler.init(seeds, make_sbm_oracle((40,) * 2, 5, 4.0, 3)[0])
    trace2 = sampler.run(state2, "RO", target_size=20, rng_seed=5)
    assert trace2.final_size() == 20 and trace2.reason == "target size"
    with pytest.raises(ConfigError):
        sampler.run(state, "RO", steps=0)
    with pytest.raises(ConfigError):
        sampler.run(state, "RO")
    # a target the sample already meets is refused, as a budget below 1 is
    state3 = sampler.init(seeds, make_sbm_oracle((40,) * 2, 5, 4.0, 3)[0])
    assert len(state3.insiders) == 2
    for target in (0, -5, 1, 2):
        with pytest.raises(ConfigError, match=f"target size {target} .* holds 2 nodes"):
            sampler.run(state3, "RO", target_size=target, rng_seed=5)
    assert state3.timestep == 0
    trace3 = sampler.run(state3, "RO", target_size=3, rng_seed=5)
    assert len(trace3) == 1 and trace3.reason == "target size"


def test_identical_seeds_give_identical_traces():
    for strategy in sampler.STRATEGIES:
        runs = []
        for _ in range(2):
            oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 3, 4, 4.0, 11)
            state = sampler.init(seeds, oracle)
            runs.append(sampler.run(state, strategy, steps=40, rng_seed=99))
        assert runs[0].selected() == runs[1].selected(), strategy
        assert runs[0].boundary == runs[1].boundary, strategy


def test_insiders_only_grow():
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 2, 4, 2.0, 7)
    state = sampler.init(seeds, oracle)
    assert state.insiders == state.discovered.insiders
    seen = set(state.insiders)
    rng = np.random.default_rng(2)
    for _ in range(25):
        sampler.step(state, "RI_RO", rng)
        assert seen <= set(state.insiders)
        seen = set(state.insiders)
        assert not (set(state.outsiders) & set(state.insiders))


def test_unit_mas_priority_equals_discovered_out_degree():
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 2, 4, 2.0, 13)
    state = sampler.init(seeds, oracle)
    rng = np.random.default_rng(3)
    for _ in range(20):
        sampler.step(state, "MAS", rng)
    for o, prio in state.outsiders.items():
        edges_to_insiders = sum(
            1 for (s, t) in state.discovered.pairs()
            if s == o and t in state.insiders)
        assert prio == pytest.approx(float(edges_to_insiders))


def test_closed_world_access_log():
    for strategy in sampler.STRATEGIES:
        oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 3, 4, 4.0, 31)
        state = sampler.init(seeds, oracle)
        trace = sampler.run(state, strategy, steps=35, rng_seed=17)
        assert oracle.access_log == tuple(state.seeds) + tuple(trace.selected())


def test_audit_stays_tiny_for_every_strategy():
    corpus = synthetic_corpus(np.random.default_rng(8), n_authors=5,
                              n_interactors=40, n_tweets=50, n_events=250)
    weights = ia.load_reference_tables()["nested"].weights
    for strategy in sampler.STRATEGIES:
        oracle = GraphOracle.from_events(corpus)
        seeds = sorted({corpus.users[a] for a in corpus.author.tolist()})[:3]
        state = sampler.init(seeds, oracle, weights)
        rng = np.random.default_rng(21)
        for _ in range(15):
            try:
                sampler.step(state, strategy, rng)
            except sampler.FrontierExhausted:
                break
            assert sampler.audit(state) <= 1e-6


def test_edge_weights_recomputable_from_events():
    corpus = synthetic_corpus(np.random.default_rng(9), n_events=200)
    weights = ia.load_reference_tables()["distinct"].weights
    oracle = GraphOracle.from_events(corpus)
    seeds = sorted({corpus.users[a] for a in corpus.author.tolist()})
    state = sampler.init(seeds, oracle, weights)
    sampler.run(state, "MAS", steps=25, rng_seed=4)
    # an edge interactor -> author carries every event of that pair
    rebuilt: dict = {}
    counts: dict = {}
    for _tweet, author, interactor, pattern in event_rows(corpus):
        key = (oracle.ids.resolve(interactor), oracle.ids.resolve(author))
        rebuilt[key] = rebuilt.get(key, 0.0) + weights.of(pattern)
        counts[key] = counts.get(key, 0) + 1
    g = state.discovered
    assert g.n_edges()
    for key, weight, n_events in zip(g.pairs(), g.weights, g.event_counts):
        assert abs(weight - rebuilt[key]) <= 1e-9 * max(1.0, abs(weight))
        assert n_events == counts[key]


def test_mas_invariant_under_weight_scaling():
    oracle, seeds, _labels, _edges = make_sbm_oracle((50,) * 4, 6, 4.0, 41)
    sequences = []
    for c in (0.01, 1.0, 100.0):
        oracle, seeds, _labels, _edges = make_sbm_oracle((50,) * 4, 6, 4.0, 41)
        state = sampler.init(seeds, oracle, ia.UnitWeights().scaled(c))
        trace = sampler.run(state, "MAS", steps=120, rng_seed=6)
        sequences.append(trace.selected())
    assert sequences[0] == sequences[1] == sequences[2]


def test_trace_csv_export(tmp_path):
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 2, 4, 2.0, 19)
    state = sampler.init(seeds, oracle)
    trace = sampler.run(state, "MAS", steps=10, rng_seed=1)
    path = tmp_path / "trace.csv"
    trace.write_csv(path, oracle.ids)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestep,node_ext_id,priority,boundary,new_nodes,new_edges"
    assert len(lines) == 11
    assert lines[1].startswith("1,")


def test_trace_columns_hold_the_rows_that_step_returned():
    # timesteps are implicit and new_edges is the answer size: the columns give back
    # each row that step handed to on_step, over two runs of one state
    for kind in ("blockmodel", "events"):
        for strategy in sampler.STRATEGIES:
            oracle, seeds, weights, _in_adj = _backing(kind)
            state = sampler.init(seeds, oracle, weights)
            for steps in (9, 14):
                handed = []
                trace = sampler.run(state, strategy, steps=steps, rng_seed=3,
                                    on_step=lambda _state, row: handed.append(row))
                assert trace_rows(trace) == handed and len(trace) == steps, (kind, strategy)
                assert trace.selected() == [row.node for row in handed]
                assert trace.start + 1 == state.timestep - steps + 1


def test_trace_and_access_log_are_csv_writer_bytes(tmp_path):
    names = ["a,b", 'q"uote', "cr\rin", "  lead", "naïve", "日本", "plain", 'x,"y"', "7"]
    rng = np.random.default_rng(5)
    pairs = {tuple(rng.choice(len(names), 2, replace=False).tolist()) for _ in range(40)}
    path = tmp_path / "edges.tsv"
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"{names[s]}\t{names[t]}\n" for s, t in sorted(pairs)))
    oracle = GraphOracle.from_edgelist(path)
    state = sampler.init([names[0]], oracle, ia.UnitWeights().scaled(0.1))
    trace = sampler.run(state, "MAS", steps=20, rng_seed=0)
    assert len(trace) > 3
    ext = oracle.ids.external
    trace.write_csv(tmp_path / "trace.csv", oracle.ids)
    assert (tmp_path / "trace.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "reference.csv", sampler.TRACE_COLUMNS,
        [(r.timestep, ext(r.node), r.priority, r.boundary, r.new_nodes, r.new_edges)
         for r in trace_rows(trace)])
    oracle.write_access_log(tmp_path / "access_log.csv")
    assert (tmp_path / "access_log.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "reference.csv", ("step", "node_ext_id"),
        [(step, ext(v)) for step, v in enumerate(oracle.access_log, 1)])


def _csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def _exact_instances(tmp_path):
    for sizes, r, graph_seed in (((60,) * 4, 4.0, 1), ((200,) * 4, 1.0, 2),
                                 ((500,) * 8, 8.0, 3), ((300,) * 3, 0.5, 4)):
        oracle, seeds, _labels, _edges = make_sbm_oracle(sizes, 6, r, graph_seed)
        yield f"blockmodel {sizes[0]}x{len(sizes)} r {r}", oracle, seeds
    rng = np.random.default_rng(12)
    pairs = {tuple(p) for p in rng.integers(0, 400, size=(2400, 2)).tolist() if p[0] != p[1]}
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"n{s}\tn{t}\n" for s, t in sorted(pairs, key=lambda p: p[::-1])))
    oracle = GraphOracle.from_edgelist(path)
    yield "edgelist", oracle, [oracle.ids.external(0), oracle.ids.external(1)]


def test_ordered_mas_is_the_exact_reference(tmp_path):
    # on unit weights every priority and boundary is an integer, held exactly in a float:
    # whole runs select as the exact rule does and print its values
    for name, oracle, seeds in _exact_instances(tmp_path):
        exact = exact_mas(oracle, seeds, ia.UnitWeights(), len(oracle.ids))
        state = sampler.init(seeds, oracle)
        trace = sampler.run(state, "MAS", steps=len(oracle.ids), rng_seed=0)
        assert trace.reason == "frontier exhausted" and len(exact) == len(trace), name
        assert trace.selected() == [node for node, _p, _b in exact], name
        path = tmp_path / "trace.csv"
        trace.write_csv(path, oracle.ids)
        printed = [(row["priority"], row["boundary"])
                   for row in csv.DictReader(open(path, newline=""))]
        assert printed == [(repr(float(p)), repr(float(b))) for _v, p, b in exact], name


# corpus seeds whose ordered MAS run already leaves the exact order: float rounding
# breaks an exact tie (seed 9 at timestep 38 of 57)
CALIBRATED_DIVERGENT = {9}


def _calibrated_instances():
    corpus = graph_corpus()
    oracle = GraphOracle.from_events(corpus)
    seeds = sorted({corpus.users[a] for a in corpus.author.tolist()})[:3]
    weights = ia.load_reference_tables()["distinct"].weights
    yield "graph_corpus", sampler.init(seeds, oracle, weights)
    for corpus_seed in range(1, 41):
        if corpus_seed not in CALIBRATED_DIVERGENT:
            yield f"corpus seed {corpus_seed}", calibrated_corpus_state(60, 1500, corpus_seed)


def test_ordered_mas_selects_as_the_exact_reference_on_calibrated_weights():
    # selections only: the printed priority and boundary columns carry ulp noise
    weights = ia.load_reference_tables()["distinct"].weights
    for name, state in _calibrated_instances():
        oracle = state.oracle
        exact = exact_mas(oracle, [oracle.ids.external(v) for v in state.seeds], weights,
                          len(oracle.ids))
        trace = sampler.run(state, "MAS", steps=len(oracle.ids), rng_seed=0)
        assert trace.reason == "frontier exhausted" and len(trace) == len(exact) == 57, name
        assert trace.selected() == [node for node, _p, _b in exact], name


def test_run_state_memory_per_step():
    # one flag and one discovery time per node, three trace columns appended per step
    # and two taken once at the end: a whole ordered MAS run keeps no object per step
    oracle, _seeds, _labels, _edges = make_sbm_oracle((500,) * 8, 10, 4.0, 5)
    seeds = [b * 500 for b in range(8)]
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        state = sampler.init(seeds, oracle)
        trace = sampler.run(state, "MAS", steps=len(oracle.ids), rng_seed=0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = len(trace)
    assert steps == len(oracle.ids) - len(seeds) and not state.outsiders
    # measured 69.9 and 93.6 bytes per step; 185 and 208 with the answers as tuples,
    # which CPython keeps on its free lists once freed, and 368 and 369 with a set of
    # insiders, dicts of discovery times and a TraceRow with its floats per step
    assert (kept - before) / steps <= 80.0
    assert (peak - before) / steps <= 107.0


def test_trace_insider_count_invariant():
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 2, 4, 2.0, 19)
    state = sampler.init(seeds, oracle)
    trace = sampler.run(state, "RO", steps=12, rng_seed=2)
    for i, row in enumerate(trace_rows(trace), start=1):
        assert row.timestep == i
    assert trace.final_size() == len(seeds) + 12
    assert trace.insiders_at(len(seeds)) == list(seeds)
    with pytest.raises(ConfigError, match="size smaller than the seed set"):
        trace.insiders_at(len(seeds) - 1)


# ---------------------------------------------------------------------------
# edge store and selector state


def _backing(name):
    """An oracle, seeds, weights and the oracle's reference adjacency: a unit blockmodel
    or a weighted engagement corpus, whose interactors are its authors in "graph-corpus",
    so that engagement forms a graph."""
    if name == "blockmodel":
        oracle, seeds, _labels, edges = make_sbm_oracle((30,) * 3, 4, 4.0, 29)
        both_ways = [p for u, v in edges.tolist() for p in ((u, v), (v, u))]
        _externals, in_adj = reference_plain_in_adjacency(both_ways, range(90))
        return oracle, seeds, ia.UnitWeights(), in_adj
    if name == "graph-corpus":
        corpus = synthetic_corpus(np.random.default_rng(4), n_authors=30, n_interactors=30,
                                  n_tweets=120, n_events=600)
        corpus = EventTable.from_rows((t, a, "a" + j[1:], p)
                                      for t, a, j, p in event_rows(corpus))
        n_seeds = 2
    else:
        corpus = synthetic_corpus(np.random.default_rng(14), n_authors=6,
                                  n_interactors=50, n_tweets=60, n_events=400)
        n_seeds = 3
    oracle = GraphOracle.from_events(corpus)
    seeds = sorted({corpus.users[a] for a in corpus.author.tolist()})[:n_seeds]
    _externals, in_adj = reference_in_adjacency(event_rows(corpus))
    return oracle, seeds, ia.load_reference_tables()["distinct"].weights, in_adj


@pytest.mark.parametrize("backing", ["blockmodel", "events"])
@pytest.mark.parametrize("strategy", sampler.STRATEGIES)
def test_each_discovered_edge_is_appended_once(backing, strategy):
    oracle, seeds, weights, _in_adj = _backing(backing)
    state = sampler.init(seeds, oracle, weights)
    sampler.run(state, strategy, steps=40, rng_seed=3)
    pairs = list(state.discovered.pairs())
    assert len(pairs) == len(set(pairs))
    queried = oracle.access_log
    answered = sum(1 for v in queried for u, _w in oracle.in_neighbors(v) if u != v)
    assert state.discovered.n_edges() == answered


def _assert_columns_equal_appends(state, appended):
    g = state.discovered
    assert g.n_edges() > 0
    assert g.sources.tolist() == appended.sources
    assert g.targets.tolist() == appended.targets
    assert g.weights.tolist() == appended.weights
    assert g.event_counts.tolist() == appended.event_counts


@pytest.mark.parametrize("backing", ["blockmodel", "graph-corpus"])
@pytest.mark.parametrize("tie_break", sampler.TIE_BREAKS)
@pytest.mark.parametrize("strategy", sampler.STRATEGIES)
def test_discovered_columns_equal_the_per_edge_appends(backing, strategy, tie_break):
    # the graph built from the query list holds, row for row, what appending each
    # answered edge would have: same order, same float weights, same counts
    oracle, seeds, weights, in_adj = _backing(backing)
    appended = record_appends(oracle, weights, in_adj)
    state = sampler.init(seeds, oracle, weights)
    trace = sampler.run(state, strategy, steps=40, rng_seed=3, tie_break=tie_break)
    assert len(trace) > 20
    if backing != "blockmodel":
        assert max(appended.event_counts) > 1
    _assert_columns_equal_appends(state, appended)


@pytest.mark.parametrize("backing", ["blockmodel", "events"])
def test_init_only_columns_equal_the_per_edge_appends(backing):
    oracle, seeds, weights, in_adj = _backing(backing)
    appended = record_appends(oracle, weights, in_adj)
    state = sampler.init(seeds, oracle, weights)
    assert state.queried == list(state.seeds)
    _assert_columns_equal_appends(state, appended)


def _outsider_in_neighbours(state):
    """Ascending outsider in-neighbours per insider, from the edge columns."""
    frontiers: dict = {}
    for s, t in sorted(state.discovered.pairs(), key=lambda st: (st[1], st[0])):
        if s in state.outsiders:
            frontiers.setdefault(t, []).append(s)
    return frontiers


@pytest.mark.parametrize("first", ["MAS", "RO", "RI_RO"])
@pytest.mark.parametrize("then", ["MAS", "MAS-random", "RO", "RS_DW", "RI_MAS", "RS_SW"])
def test_selector_state_built_late_reads_the_core(first, then):
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 3, 4, 4.0, 37)
    state = sampler.init(seeds, oracle)
    rng = np.random.default_rng(12)
    then, _, tie_break = then.partition("-")
    tie_break = tie_break or "ordered"
    for _ in range(25):
        sampler.step(state, first, rng)
    for _ in range(10):
        expected = None
        if then == "RS_DW":
            expected = reference_weighted_pick(state.outsider_set.items(),
                                               state.outsiders, copy.deepcopy(rng))
        elif tie_break == "random":
            top = max(state.outsiders.values())
            tied = sorted((state.disc_time[o], o) for o, p in state.outsiders.items()
                          if p == top)
            expected = tied[int(copy.deepcopy(rng).integers(len(tied)))][1]
        node = state.select(then, rng, tie_break)
        assert node in state.outsiders
        if then == "MAS" and tie_break == "ordered":
            assert node == reference_ordered_pick(state)
        elif expected is not None:
            assert node == expected
        sampler.step(state, then, rng, tie_break)
        assert set(state.outsider_set) == set(state.outsiders)
        frontiers = _outsider_in_neighbours(state)
        staged = state._staged_state()
        assert {t: list(f) for t, f in staged.frontier_of.items()} == frontiers
        assert set(staged.eligible) == set(frontiers)
        assert {o: sorted(ts) for o, ts in staged.out_targets.items()} == {
            o: sorted(t for s, t in state.discovered.pairs() if s == o)
            for o in state.outsiders}
        assert sampler.audit(state) == 0.0


@pytest.mark.parametrize("strategy,tie_break,built", [
    ("MAS", "ordered", {"_buckets"}), ("MAS", "random", {"_buckets"}),
    ("RO", "ordered", {"_pool"}), ("RS_DU", "ordered", {"_pool"}),
    ("RS_DW", "ordered", {"_pool", "_tree"})],
    ids=["MAS-ordered", "MAS-random", "RO", "RS_DU", "RS_DW"])
def test_each_family_builds_only_its_own_structures(strategy, tie_break, built):
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 3, 4, 4.0, 37)
    state = sampler.init(seeds, oracle)
    sampler.run(state, strategy, steps=40, rng_seed=1, tie_break=tie_break)
    assert {name for name in ("_buckets", "_pool", "_tree", "_staged")
            if getattr(state, name) is not None} == built
    assert sampler.audit(state) == 0.0


def _audited_state(strategy, tie_break="ordered"):
    """A state 30 steps into a run of ``strategy``, its selector built and audited clean."""
    oracle, seeds, _labels, _edges = make_sbm_oracle((30,) * 3, 4, 4.0, 37)
    state = sampler.init(seeds, oracle)
    sampler.run(state, strategy, steps=30, rng_seed=3, tie_break=tie_break)
    assert sampler.audit(state) == 0.0
    return state


def _swap_two_frontier_keys(state):
    frontier_of = state._staged.frontier_of
    insider, frontier = next((t, f) for t, f in frontier_of.items() if len(f) >= 2)
    keys = list(frontier)
    keys[0], keys[1] = keys[1], keys[0]
    frontier_of[insider] = dict.fromkeys(keys)


def _drop_an_out_target(state):
    out_targets = state._staged.out_targets
    del out_targets[next(iter(out_targets))]


def _leave_a_stale_insider_eligible(state):
    # an insider without outsider in-neighbours, as if eligible had kept it past its last one
    staged = state._staged
    staged.eligible.add(next(v for v in state.insiders if v not in staged.frontier_of))


@pytest.mark.parametrize("corrupt", [_swap_two_frontier_keys, _drop_an_out_target,
                                     _leave_a_stale_insider_eligible],
                         ids=["frontier-order", "out-target-dropped", "stale-eligible"])
def test_audit_catches_a_corrupted_staged_selector(corrupt):
    state = _audited_state("RI_RO")
    corrupt(state)
    with pytest.raises(AssertionError, match="staged selector"):
        sampler.audit(state)


def test_audit_catches_a_tie_bucket_key_at_a_wrong_priority():
    state = _audited_state("MAS")
    buckets = state._buckets.buckets
    p = next(p for p, bucket in buckets.items() if bucket)
    key = buckets[p][0]
    state._buckets.move(key, p, p + 1.0)
    with pytest.raises(AssertionError, match="tie buckets"):
        sampler.audit(state)


def _ro_state():
    """An audited ``RO`` state: its one selector is the pool, whose upkeep adds nothing
    to the deviation, so :func:`sampler.audit` reads only the recomputed sums."""
    state = _audited_state("RO")
    assert state._pool is not None and (state._buckets, state._tree, state._staged) == \
        (None, None, None)
    return state


def _raise_a_priority(state):
    state.outsiders[next(iter(state.outsiders))] += 1.0


def _raise_the_boundary(state):
    state.boundary += 1.0


@pytest.mark.parametrize("corrupt", [_raise_a_priority, _raise_the_boundary],
                         ids=["priority", "boundary"])
def test_audit_reports_a_wrong_priority_or_boundary(corrupt):
    state = _ro_state()
    corrupt(state)
    assert sampler.audit(state) >= 1.0


def _drop_an_outsider(state):
    del state.outsiders[next(iter(state.outsiders))]


def _add_an_insider_as_outsider(state):
    state.outsiders[state.seeds[0]] = 1.0


@pytest.mark.parametrize("corrupt", [_drop_an_outsider, _add_an_insider_as_outsider],
                         ids=["dropped", "added"])
def test_audit_catches_a_wrong_outsider_set(corrupt):
    state = _ro_state()
    corrupt(state)
    with pytest.raises(AssertionError, match="outsider sets disagree"):
        sampler.audit(state)


def test_audit_catches_a_wrong_weight_tree_leaf():
    state = _audited_state("RS_DW")
    state._tree.leaves[0] += 1.0
    with pytest.raises(AssertionError, match="weight tree leaves disagree"):
        sampler.audit(state)


def test_audit_builds_no_graph(monkeypatch):
    # audit reads the answers and the insider flags in place
    state = _ro_state()
    calls = []
    add_events = DiscoveredGraph.add_events
    monkeypatch.setattr(DiscoveredGraph, "add_events",
                        lambda g, *columns: calls.append(1) or add_events(g, *columns))
    assert sampler.audit(state) == 0.0
    assert calls == []


# ---------------------------------------------------------------------------
# sublinear selection against the O(n) picks it replaced, and the ordered argmax


def reference_random_tie_pick(state, rng):
    """The random-tie MAS pick before the tie buckets: the whole tie set is
    popped off a heap of ``(-priority, disc_time, node)`` and drawn from."""
    heap = [(-p, state.disc_time[u], u) for u, p in state.outsiders.items()]
    heapq.heapify(heap)
    top = heap[0][0]
    tied = []  # in (disc_time, node) order
    while heap and heap[0][0] == top:
        tied.append(heapq.heappop(heap))
    return tied[int(rng.integers(len(tied)))][2]


def reference_ordered_pick(state):
    """The ordered MAS pick: largest priority, then earliest discovery, then id."""
    return min(state.outsiders, key=lambda u: (
        -state.outsiders[u], state.disc_time[u], u))


STEP_MIX = (("RS_DW", "ordered"), ("MAS", "random"), ("RS_DW", "ordered"),
            ("MAS", "random"), ("RO", "ordered"), ("MAS", "ordered"), ("RI_RO", "ordered"))


@pytest.mark.parametrize("unit", [1.0, 0.0])
@pytest.mark.parametrize("graph_seed", range(6))
def test_tree_and_bucket_picks_match_the_reference(graph_seed, unit):
    # strategies interleave, so each structure is built late and kept up to date
    oracle, seeds, _labels, _edges = make_sbm_oracle((40,) * 4, 5, 4.0, graph_seed)
    state = sampler.init(seeds, oracle, ia.UnitWeights(unit))
    rng = np.random.default_rng(graph_seed)
    mix = np.random.default_rng(100 + graph_seed)
    checked = {"RS_DW": 0, "MAS-random": 0, "MAS-ordered": 0}
    while state.outsiders:
        strategy, tie_break = STEP_MIX[int(mix.integers(len(STEP_MIX)))]
        expected = None
        if strategy == "RS_DW":
            expected = reference_weighted_pick(state.outsider_set.items(),
                                               state.outsiders, copy.deepcopy(rng))
        elif tie_break == "random":
            expected = reference_random_tie_pick(state, copy.deepcopy(rng))
        elif strategy == "MAS":
            expected = reference_ordered_pick(state)
        node, _row = sampler.step(state, strategy, rng, tie_break)
        if expected is not None:
            assert node == expected
            checked[strategy if strategy == "RS_DW" else f"MAS-{tie_break}"] += 1
        assert sampler.audit(state) == 0.0
    assert min(checked["RS_DW"], checked["MAS-random"]) >= 30
    assert checked["MAS-ordered"] >= 15


def calibrated_corpus_state(n, n_events, corpus_seed):
    """A distinct-weight state over a synthetic corpus whose interactors are
    renamed into the authors' id space, so engagement forms one graph."""
    corpus = synthetic_corpus(np.random.default_rng(corpus_seed), n_authors=n,
                              n_interactors=n, n_tweets=2 * n, n_events=n_events)
    corpus = EventTable.from_rows((t, a, "a" + j[1:], p) for t, a, j, p in event_rows(corpus))
    oracle = GraphOracle.from_events(corpus)
    seeds = sorted({corpus.users[a] for a in corpus.author.tolist()})[:3]
    return sampler.init(seeds, oracle, ia.load_reference_tables()["distinct"].weights)


def test_random_tie_buckets_match_the_reference_on_calibrated_weights():
    # float priorities are bucketed by exact value, as the reference heap compares them
    state = calibrated_corpus_state(300, 2000, 9)
    rng = np.random.default_rng(4)
    widest = 0
    while state.outsiders:
        top = max(state.outsiders.values())
        widest = max(widest, sum(p == top for p in state.outsiders.values()))
        expected = reference_random_tie_pick(state, copy.deepcopy(rng))
        node, _row = sampler.step(state, "MAS", rng, tie_break="random")
        assert node == expected
    assert state.timestep > 250 and widest >= 5
    assert sampler.audit(state) <= 1e-9 * max(1.0, state.boundary)
    # the ordered pass reads the first key of the same top bucket
    state = calibrated_corpus_state(300, 2000, 9)
    while state.outsiders:
        expected = reference_ordered_pick(state)
        node, _row = sampler.step(state, "MAS", rng)
        assert node == expected
    assert state.timestep > 250
    assert sampler.audit(state) <= 1e-9 * max(1.0, state.boundary)


def test_weight_tree_does_not_drift_on_calibrated_weights():
    state = calibrated_corpus_state(2400, 16000, 4)
    rng = np.random.default_rng(5)
    for t in range(2000):
        node = state.select("RS_DW", rng)
        assert node in state.outsiders
        sampler.step(state, "RS_DW", rng)
        if t % 250 == 0 or t == 1999:
            live = math.fsum(state.outsiders.values())
            assert abs(state._tree.total - live) <= 1e-9 * state.boundary
    assert state._tree.cap >= 1024   # grew, and was rebuilt, several times
    assert sampler.audit(state) <= 1e-9 * state.boundary


def test_rs_sw_pick_is_the_numpy_pick():
    # the same running sums and comparisons: equal picks on fractional weights and zeros
    rng = np.random.default_rng(11)
    for _ in range(2000):
        size = int(rng.integers(1, 12))
        weights = rng.random(size) * rng.choice([1e-3, 1.0, 7.0, 1e6])
        weights[rng.random(size) < 0.3] = 0.0
        if rng.random() < 0.05:
            weights[:] = 0.0   # every candidate at priority 0: the last is picked
        candidates = list(range(100, 100 + size))
        priorities = dict(zip(candidates, weights.tolist()))
        draws = np.random.default_rng(int(rng.integers(2**32)))
        expected = reference_weighted_pick(candidates, priorities, copy.deepcopy(draws))
        assert sampler._weighted_pick(candidates, weights.tolist(), draws) == expected


def test_weight_tree_find_is_searchsorted_on_integer_leaves():
    rng = np.random.default_rng(6)
    leaves = [float(w) for w in rng.integers(0, 4, size=37)]
    tree = sampler._Fenwick(leaves)
    for _ in range(300):
        slot = int(rng.integers(len(leaves) + 1))
        if slot == len(leaves) or rng.random() < 0.5:
            w = float(rng.integers(1, 3))
            tree.add(slot, w)
            if slot == len(leaves):
                leaves.append(0.0)
            leaves[slot] += w
        elif len(leaves) > 1:
            tree.swap_remove(slot)
            last = leaves.pop()
            if slot < len(leaves):
                leaves[slot] = last
        cumulative = np.cumsum(leaves)
        assert tree.leaves == leaves and tree.total == cumulative[-1]
        for x in (0.0, 0.5, cumulative[-1] / 2, cumulative[-1] - 1, cumulative[-1]):
            idx = int(np.searchsorted(cumulative, x, side="right"))
            assert tree.find(x) == min(idx, len(leaves) - 1)
