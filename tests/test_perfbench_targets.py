"""The benchmark's traced mode patches package functions by name.

A renamed function would otherwise only show up as a failed benchmark run.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing

    # looked up as tracing.installed() looks them up: in the owner's own namespace
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_rest in tracing.TARGETS
               if attr not in vars(owner)]
    assert missing == []


def test_sampling_calls_the_traced_add_events_once_per_edge(monkeypatch):
    # the traced mode times graph builds through this leaf: a sampled state's graph
    # enters through one call whose columns hold every discovered edge once, and
    # sampling itself, a staged strategy's selector build included, makes none
    import numpy as np

    from tightsample import graph, sampler, sbm
    from tightsample.oracle import GraphOracle

    calls = []
    add_events = graph.DiscoveredGraph.add_events

    def counted(self, *columns):
        calls.append([np.asarray(column).tolist() for column in columns])
        return add_events(self, *columns)

    monkeypatch.setattr(graph.DiscoveredGraph, "add_events", counted)
    cfg = sbm.BlockModelConfig((40,) * 4, 6, 4.0, 5)
    edges, labels = sbm.generate(sbm.derive_block_matrix(cfg), cfg.block_sizes, 5)
    seeds = sbm.select_seeds(labels, sbm.SeedConfig((1,) * 4, rng_seed=2))
    for strategy in ("MAS", "RS_SW"):
        calls.clear()
        oracle = GraphOracle.from_undirected_edges(edges, n_nodes=len(labels))
        state = sampler.init(seeds, oracle)
        sampler.run(state, strategy, steps=100, rng=np.random.default_rng(0))
        assert calls == [], strategy   # sampling appends no edge
        g = state.discovered
        [(sources, targets, weights, counts)] = calls
        answered = [(u, v) for v in oracle.access_log for u, _w in oracle.in_neighbors(v)]
        assert list(zip(sources, targets)) == answered == list(g.pairs())
        assert len(set(answered)) == len(answered) > 0
        assert weights == [1.0] * len(answered) and counts == [1] * len(answered)


def test_weight_binding_calls_the_traced_event_weight_once_per_pattern_tuple(monkeypatch):
    # the traced mode times edge weighting through this leaf: binding a table at init
    # calls it through the class attribute, once per distinct pattern tuple of the
    # backing, and every answered weight is that call's result for the edge's tuple
    import numpy as np

    from reference import event_rows, reference_in_adjacency
    from tightsample import interactions, sampler
    from tightsample.ingest import EventTable, synthetic_corpus
    from tightsample.oracle import GraphOracle

    calls = []
    event_weight = interactions.WeightTable.event_weight

    def counted(self, patterns):
        calls.append((patterns, event_weight(self, patterns)))
        return calls[-1][1]

    monkeypatch.setattr(interactions.WeightTable, "event_weight", counted)
    corpus = synthetic_corpus(np.random.default_rng(4), n_authors=30, n_interactors=30,
                              n_tweets=120, n_events=600)
    corpus = EventTable.from_rows((t, a, "a" + j[1:], p) for t, a, j, p in event_rows(corpus))
    oracle = GraphOracle.from_events(corpus)
    weights = interactions.load_reference_tables()["distinct"].weights
    state = sampler.init(sorted({corpus.users[a] for a in corpus.author.tolist()})[:2],
                         oracle, weights)
    bound = dict(calls)
    sampler.run(state, "MAS", steps=20, rng=np.random.default_rng(0))
    assert len(calls) == len(bound)   # once per distinct tuple, all at init
    _externals, in_adj = reference_in_adjacency(event_rows(corpus))
    assert set(bound) == {patterns for answer in in_adj.values() for _u, patterns in answer}
    assert any(len(patterns) > 1 for patterns in bound)
    assert all(type(p) is int for patterns in bound for p in patterns)
    assert state.discovered.n_edges() > 20
    for v in oracle.access_log:
        assert oracle.in_neighbors(v) == \
            [(u, bound[patterns]) for u, patterns in in_adj.get(v, ())]


def test_events_sample_parses_and_builds_once(monkeypatch, tmp_path):
    # the traced ingest.* and oracle.build layers count these calls, and ingest.rows
    # is len() of what parse_events returns: the deduplicated events
    import json

    import numpy as np

    from reference import event_rows
    from tightsample import cli, ingest, oracle
    from tightsample.interactions import pattern_types

    corpus = ingest.synthetic_corpus(np.random.default_rng(6), n_events=300)
    log = tmp_path / "events.jsonl"
    # one row per interaction type, so repeated rows must merge into one event
    log.write_text("".join(
        json.dumps({"tweet_id": tweet, "author": author,
                    "interactor": interactor, "types": [name]}) + "\n"
        for tweet, author, interactor, pattern in event_rows(corpus)
        for name in pattern_types(pattern)))
    assert sum(1 for _ in open(log)) > len(corpus)

    parsed, built = [], []
    parse_events = ingest.parse_events
    from_events = oracle.GraphOracle.from_events.__func__

    def counted_parse(*args, **kwargs):
        parsed.append(parse_events(*args, **kwargs))
        return parsed[-1]

    def counted_build(cls, events):
        built.append(events)
        return from_events(cls, events)

    monkeypatch.setattr(ingest, "parse_events", counted_parse)
    monkeypatch.setattr(oracle.GraphOracle, "from_events", classmethod(counted_build))
    assert cli.main(["sample", "--events", str(log), "--seeds", corpus.users[corpus.author[0]],
                     "--budget", "5", "--out", str(tmp_path / "run")]) == 0
    assert len(parsed) == 1 and len(built) == 1
    assert built[0] is parsed[0]
    assert len(parsed[0]) == len(corpus)


def test_calibrate_parses_filters_and_calibrates_once(monkeypatch, tmp_path):
    # the traced ingest.apply_filters and interactions.calibrate_records layers time
    # these calls; apply_filters must get the table the parse made, and
    # calibrate_records the very table apply_filters kept
    import numpy as np

    from tightsample import cli, ingest, interactions

    corpus = ingest.synthetic_corpus(np.random.default_rng(6), n_events=300)
    log = tmp_path / "events.jsonl"
    ingest.write_events_jsonl(log, corpus)

    parsed, filtered, filtered_results, calibrated = [], [], [], []
    parse_events, apply_filters = ingest.parse_events, ingest.apply_filters
    calibrate_records = interactions.calibrate_records

    def counted_parse(*args, **kwargs):
        parsed.append(parse_events(*args, **kwargs))
        return parsed[-1]

    def counted_filter(events, *args):
        filtered.append(events)
        filtered_results.append(apply_filters(events, *args))
        return filtered_results[-1]

    def counted_calibrate(*args):
        calibrated.append(args)
        return calibrate_records(*args)

    monkeypatch.setattr(ingest, "parse_events", counted_parse)
    monkeypatch.setattr(ingest, "apply_filters", counted_filter)
    monkeypatch.setattr(interactions, "calibrate_records", counted_calibrate)
    assert cli.main(["calibrate", str(log), "--trim", "0.9",
                     "--out", str(tmp_path / "cal")]) == 0
    assert len(parsed) == len(filtered) == len(calibrated) == 1
    assert filtered[0] is parsed[0]
    assert calibrated[0][0] is filtered_results[0].events


def test_blockmodel_commands_generate_read_and_build_once(monkeypatch, tmp_path):
    # the traced sbm.generate, sbm.read_edges_tsv and oracle.build layers count these
    # calls: gen-sbm generates once, sample --undirected reads and builds once
    from tightsample import cli, oracle, sbm

    generated, read, built = [], [], []
    generate, read_edges_tsv = sbm.generate, sbm.read_edges_tsv
    from_undirected_edges = oracle.GraphOracle.from_undirected_edges.__func__

    def counted_generate(*args, **kwargs):
        generated.append(generate(*args, **kwargs))
        return generated[-1]

    def counted_read(*args, **kwargs):
        read.append(read_edges_tsv(*args, **kwargs))
        return read[-1]

    def counted_build(cls, edges, *args, **kwargs):
        built.append(edges)
        return from_undirected_edges(cls, edges, *args, **kwargs)

    monkeypatch.setattr(sbm, "generate", counted_generate)
    monkeypatch.setattr(sbm, "read_edges_tsv", counted_read)
    monkeypatch.setattr(oracle.GraphOracle, "from_undirected_edges",
                        classmethod(counted_build))
    net = tmp_path / "net"
    assert cli.main(["gen-sbm", "--sizes", "40x4", "--k-intra", "6", "--seed", "5",
                     "--out", str(net)]) == 0
    assert len(generated) == 1 and read == [] and built == []
    assert cli.main(["sample", "--undirected", str(net / "edges.tsv"), "--seeds", "0",
                     "--budget", "5", "--out", str(tmp_path / "run")]) == 0
    assert len(generated) == 1 and len(read) == 1 and len(built) == 1
    assert built[0] is read[0]
    assert read[0].tolist() == generated[0][0].tolist()
