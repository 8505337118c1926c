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
    # the traced mode times discovery through this leaf, so the sampler must call it
    import numpy as np

    from tightsample import graph, sampler, sbm
    from tightsample.oracle import GraphOracle

    calls = []
    add_events = graph.DiscoveredGraph.add_events

    def counted(self, *args):
        calls.append(args[:2])
        return add_events(self, *args)

    monkeypatch.setattr(graph.DiscoveredGraph, "add_events", counted)
    cfg = sbm.BlockModelConfig((40,) * 4, 6, 4.0, 5)
    edges, labels = sbm.generate(sbm.derive_block_matrix(cfg), cfg.block_sizes, 5)
    oracle = GraphOracle.from_undirected_edges(edges, n_nodes=len(labels))
    seeds = sbm.select_seeds(labels, sbm.SeedConfig((1,) * 4, rng_seed=2))
    state = sampler.init(seeds, oracle)
    sampler.run(state, "MAS", steps=100, rng=np.random.default_rng(0))
    assert state.discovered.n_edges() > 0
    assert calls == list(state.discovered.pairs())


def test_weighted_sampling_calls_the_traced_event_weight_once_per_edge(monkeypatch):
    # the traced mode times edge weighting through this leaf, so the sampler must
    # call it rather than sum the patterns itself
    import dataclasses

    import numpy as np

    from tightsample import interactions, sampler
    from tightsample.ingest import synthetic_corpus
    from tightsample.oracle import GraphOracle

    calls = []
    event_weight = interactions.WeightTable.event_weight

    def counted(self, patterns):
        calls.append(patterns)
        return event_weight(self, patterns)

    monkeypatch.setattr(interactions.WeightTable, "event_weight", counted)
    corpus = [dataclasses.replace(e, interactor="a" + e.interactor[1:])
              for e in synthetic_corpus(np.random.default_rng(4), n_authors=30,
                                        n_interactors=30, n_tweets=120, n_events=600)]
    oracle = GraphOracle.from_events(corpus)
    weights = interactions.load_reference_tables()["distinct"].weights
    state = sampler.init(sorted({e.author for e in corpus})[:2], oracle, weights)
    sampler.run(state, "MAS", steps=20, rng=np.random.default_rng(0))
    assert state.discovered.n_edges() > 20
    assert len(calls) == state.discovered.n_edges()
    assert any(len(patterns) > 1 for patterns in calls)
    assert all(type(patterns) is tuple and all(type(p) is int for p in patterns)
               for patterns in calls)
