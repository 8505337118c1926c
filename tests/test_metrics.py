import numpy as np
import pytest

from reference import (
    brute_all_pairs,
    brute_global_clustering,
    brute_local_clustering,
    graph_from_edge_pairs as digraph,
    make_sbm_oracle,
    random_digraph,
    reference_community_evolution,
    reference_window_purity,
    trace_from_rows,
)
from tightsample import metrics, sampler
from tightsample.graph import DiscoveredGraph
from tightsample.util import ConfigError, DataError


# ---------------------------------------------------------------------------
# clustering


def test_local_clustering_bidirected_triangle():
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    per_node, mean = metrics.clustering_local(digraph(pairs))
    assert per_node == {0: 1.0, 1: 1.0, 2: 1.0}
    assert mean == 1.0


def test_local_clustering_inward_star():
    pairs = [(i, 0) for i in range(1, 5)]
    per_node, mean = metrics.clustering_local(digraph(pairs))
    assert mean == 0.0


def test_local_clustering_empty_graph_errors():
    with pytest.raises(DataError):
        metrics.clustering_local(DiscoveredGraph())


def test_local_clustering_matches_brute_force(rng):
    for trial in range(8):
        pairs = random_digraph(rng, 60, 0.1)
        g = digraph(pairs, nodes=range(60))
        per_node, mean = metrics.clustering_local(g)
        brute = brute_local_clustering(range(60), pairs)
        assert per_node == brute
        assert mean == sum(brute.values()) / len(brute)
        assert all(0.0 <= cc <= 1.0 for cc in per_node.values())
        assert 0.0 <= metrics.clustering_global(g) <= 1.0


def test_local_clustering_mean_independent_of_node_insertion_order():
    # sparse ids collide in the set's hash table, so insertion order changes
    # the set's iteration order; at 20 seeds, 3 of them change the sum's last bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ids = [int(v) for v in rng.choice(10**6, 40, replace=False)]
        pairs = set()
        while len(pairs) < 120:
            a, b = rng.choice(40, 2, replace=False)
            pairs.add((ids[a], ids[b]))
        forward = digraph([], nodes=ids)
        backward = digraph([], nodes=ids[::-1])
        for g in (forward, backward):
            g.add_events(*zip(*sorted(pairs)), [1.0] * len(pairs), [1] * len(pairs))
        assert metrics.clustering_local(forward)[1] == metrics.clustering_local(backward)[1]


def test_global_clustering_triangle_path_k5():
    tri = digraph([(0, 1), (1, 2), (2, 0)])
    assert metrics.clustering_global(tri) == 1.0
    path = digraph([(0, 1), (1, 2)])
    assert metrics.clustering_global(path) == 0.0
    k5 = digraph([(a, b) for a in range(5) for b in range(5) if a < b])
    assert metrics.clustering_global(k5) == 1.0


def test_global_clustering_warns_without_triplets():
    g = digraph([(0, 1)])
    with pytest.warns(UserWarning, match="triplets"):
        assert metrics.clustering_global(g) == 0.0


def test_global_clustering_matches_brute_force(rng):
    for trial in range(6):
        pairs = random_digraph(rng, 40, 0.08)
        g = digraph(pairs, nodes=range(40))
        assert metrics.clustering_global(g) == pytest.approx(
            brute_global_clustering(range(40), pairs), abs=1e-12)


# ---------------------------------------------------------------------------
# paths and degrees


def test_avg_path_directed_chain():
    g = digraph([(0, 1), (1, 2)])
    stats = metrics.avg_shortest_path(g)
    assert stats.mean == pytest.approx(4 / 3)
    assert stats.reachable_pairs == 3


def test_avg_path_bidirected_k4():
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    stats = metrics.avg_shortest_path(g := digraph(pairs))
    assert stats.mean == 1.0
    assert stats.reachable_fraction == 1.0


def test_avg_path_no_reachable_pairs_errors():
    g = DiscoveredGraph({0, 1})
    with pytest.raises(DataError):
        metrics.avg_shortest_path(g)


def assert_paths_exact(nodes, pairs):
    stats = metrics.avg_shortest_path(digraph(pairs, nodes=nodes))
    total, count = brute_all_pairs(nodes, pairs)
    assert stats.reachable_pairs == count
    assert stats.mean == int(total) / count
    n = len(nodes)
    assert stats.reachable_fraction == count / (n * (n - 1))


def test_avg_path_matches_floyd_warshall(rng):
    for trial in range(5):
        assert_paths_exact(range(80), random_digraph(rng, 80, 0.04))


@pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
def test_avg_path_exact_across_word_boundaries(rng, n):
    # dense enough to connect most pairs, plus a chain so n=2 has an edge
    pairs = sorted(set(random_digraph(rng, n, 3.0 / n))
                   | {(v, v + 1) for v in range(n - 1)})
    assert_paths_exact(range(n), pairs)


def test_avg_path_isolated_and_source_only_nodes(rng):
    # 0..39 random, 40..49 isolated, 50..59 have out-edges but no in-edges
    pairs = random_digraph(rng, 40, 0.08)
    pairs += [(50 + i, int(t)) for i, t in enumerate(rng.integers(0, 40, 10))]
    assert_paths_exact(range(60), pairs)


def test_avg_path_disconnected_components(rng):
    left = random_digraph(rng, 70, 0.05)
    right = [(70 + s, 70 + t) for s, t in random_digraph(rng, 70, 0.05)]
    assert_paths_exact(range(140), left + right)


def test_avg_path_several_source_chunks(rng, monkeypatch):
    pairs = random_digraph(rng, 200, 0.02)
    # one 64-source word per chunk: four chunks over 200 sources
    monkeypatch.setattr(metrics, "BFS_BLOCK_BYTES", 8)
    assert_paths_exact(range(200), pairs)


def test_avg_path_matches_scipy_csgraph(rng):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    n = 300
    pairs = random_digraph(rng, n, 0.006)
    adj = np.zeros((n, n))
    for s, t in pairs:
        adj[s, t] = 1.0
    dist = csgraph.shortest_path(adj, method="D", directed=True, unweighted=True)
    finite = np.isfinite(dist) & ~np.eye(n, dtype=bool)
    stats = metrics.avg_shortest_path(digraph(pairs, nodes=range(n)))
    assert stats.reachable_pairs == int(finite.sum())
    assert stats.mean == int(dist[finite].sum()) / stats.reachable_pairs


def test_degree_stats_both_flavors():
    g = digraph([(0, 1), (2, 1)], weight=0.5)
    d = metrics.degree_stats(g)
    assert d["n"] == 3 and d["m"] == 2
    assert d["avg_degree"] == pytest.approx(2 / 3)
    assert d["avg_weighted_degree"] == pytest.approx(1.0 / 3)
    # |E|/n equals both the mean in-degree and the mean out-degree
    in_sum = sum(1 for _ in g.targets)
    out_sum = len(g.sources)
    assert d["avg_degree"] == in_sum / d["n"] == out_sum / d["n"]


def test_metrics_report_keys():
    g = digraph([(0, 1), (1, 2), (2, 0)])
    report = metrics.metrics_report(g)
    assert set(report) == {"cc_local", "cc_global", "avg_shortest_path",
                           "reachable_fraction", "avg_degree", "n", "m"}


# ---------------------------------------------------------------------------
# evolution


def run_mas(sizes, r, graph_seed, steps, run_seed=1):
    oracle, seeds, labels, _edges = make_sbm_oracle(sizes, 6, r, graph_seed)
    state = sampler.init(seeds, oracle)
    trace = sampler.run(state, "MAS", steps=steps, rng_seed=run_seed)
    return state, trace, labels


def test_evolution_single_community():
    state, trace, labels = run_mas((40,) * 2, 4.0, 5, steps=20)
    series = metrics.community_evolution(trace, {v: 0 for v in range(80)})
    assert series.counts[0] == list(range(len(trace.seeds),
                                          len(trace.seeds) + 21))
    assert len(series.boundary) == 21


def test_evolution_monotone_and_sums_to_insiders():
    state, trace, labels = run_mas((50,) * 3, 4.0, 7, steps=60)
    series = metrics.community_evolution(
        trace, {v: int(labels[v]) for v in range(150)})
    totals = [sum(counts[t] for counts in series.counts.values())
              for t in range(len(series.timesteps))]
    assert totals == [len(trace.seeds) + t for t in range(61)]
    for comm, counts in series.counts.items():
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_evolution_unlabeled_nodes_fall_into_unknown():
    state, trace, labels = run_mas((40,) * 2, 4.0, 5, steps=10)
    series = metrics.community_evolution(trace, {})
    assert set(series.counts) == {"unknown"}


def test_mas_fills_one_block_before_the_other():
    # well separated two-block instance: one block saturates first
    state, trace, labels = run_mas((60, 60), 8.0, 9, steps=100)
    series = metrics.community_evolution(
        trace, {v: int(labels[v]) for v in range(120)})
    first_full = {}
    for comm, counts in series.counts.items():
        for t, c in enumerate(counts):
            if c >= 58:
                first_full[comm] = t
                break
    assert len(first_full) >= 1
    leader_t = min(first_full.values())
    other = [counts[leader_t] for comm, counts in series.counts.items()
             if first_full.get(comm) != leader_t]
    assert all(c <= 15 for c in other)


def test_ro_grows_blocks_proportionally():
    oracle, seeds, labels, _edges = make_sbm_oracle((40, 80), 6, 8.0, 29,
                                                    seeds_per_block=2)
    state = sampler.init(seeds, oracle)
    traces = sampler.run(state, "RO", steps=60, rng_seed=3)
    fracs = []
    for s in range(6):
        oracle, seeds, labels, _edges = make_sbm_oracle((40, 80), 6, 8.0, 29,
                                                        seeds_per_block=2)
        state = sampler.init(seeds, oracle)
        trace = sampler.run(state, "RO", steps=60, rng_seed=100 + s)
        insiders = list(state.insiders)
        share = np.mean([labels[v] == 1 for v in insiders])
        fracs.append(share)
    assert abs(np.mean(fracs) - 2 / 3) < 2 / 3 * 0.2


# ---------------------------------------------------------------------------
# inflections


def test_inflections_constant_series_empty():
    assert metrics.inflection_candidates([5.0] * 50, window=10, z_threshold=3) == []


def test_inflections_flag_single_jump():
    rng = np.random.default_rng(0)
    series = list(10.0 + 0.1 * rng.standard_normal(40))
    series[25:] = [s + 30.0 for s in series[25:]]  # 10-sigma-plus jump at t=24
    flagged = metrics.inflection_candidates(series, window=10, z_threshold=10)
    assert flagged == [24]


def test_inflections_short_series_empty():
    assert metrics.inflection_candidates([1, 2, 3], window=10, z_threshold=2) == []


def test_inflections_window_validated():
    with pytest.raises(ConfigError):
        metrics.inflection_candidates([1, 2, 3], window=1, z_threshold=2)


def test_inflections_near_block_completions():
    # MAS on 4x100 r=6: boundary jumps when a new block opens
    oracle, seeds, labels, _edges = make_sbm_oracle((100,) * 4, 8, 6.0, 77)
    state = sampler.init(seeds, oracle)
    trace = sampler.run(state, "MAS", steps=396, rng_seed=2)
    flagged = metrics.inflection_candidates(trace.boundary_series(),
                                            window=30, z_threshold=4.0)
    blocks = [int(labels[v]) for v in trace.selected()]
    completions = []
    seen = {}
    for t, b in enumerate(blocks, start=1):
        seen[b] = seen.get(b, 0) + 1
        if seen[b] == 97:  # block nearly exhausted (99 non-seed members)
            completions.append(t)
    # at least one flagged candidate lands near each of the later completions
    for comp in completions[:-1]:
        assert any(abs(f - comp) <= 0.05 * 396 + 5 for f in flagged), \
            (comp, flagged)


# ---------------------------------------------------------------------------
# purity and snapshots


def test_window_purity_basics():
    blocks = [0] * 10 + [1] * 10
    series = dict(metrics.window_purity(blocks, 10))
    assert series[10] == 1.0
    assert series[15] == 0.5
    assert metrics.max_window_purity(blocks, 10) == 1.0


def random_label_cases(seed, n_cases):
    """``(labels, window)`` pairs: lengths 0-400, 1-9 distinct int, "x" or "unknown" labels."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        pool = [0, 1, 2, 3, 4, 5, 6, "x", "unknown"][:int(rng.integers(1, 10))]
        rng.shuffle(pool)
        labels = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(0, 401)))]
        yield labels, int(rng.integers(1, 51))


def test_window_purity_equals_one_counter_per_window():
    cases = list(random_label_cases(19, 300)) + [
        ([], 1), ([], 5), ([3], 1), ([3], 2), ([1, 1, 2], 3), ([1, 1, 2], 4),
        ([7] * 40, 9), ([0, "unknown", 0, "unknown", "unknown"], 2)]
    assert any(window > len(labels) for labels, window in cases)
    for labels, window in cases:
        expected = reference_window_purity(labels, window)
        assert metrics.window_purity(labels, window) == expected
        assert metrics.max_window_purity(labels, window) == \
            max((p for _t, p in expected), default=0.0)


def test_community_evolution_equals_the_per_step_copy():
    rng = np.random.default_rng(23)
    for labels, _window in random_label_cases(29, 300):
        # nodes 0-29 take labels[node] when it is not "unknown", the rest go unlabelled
        node_labels = {v: label for v, label in enumerate(labels[:30]) if label != "unknown"}
        order = rng.permutation(60).tolist()
        n_seeds = int(rng.integers(1, 4))
        rows = [sampler.TraceRow(t, v, 1.0, float(t), 0, 0)
                for t, v in enumerate(order[n_seeds:n_seeds + len(labels) % 57], 1)]
        trace = trace_from_rows("MAS", tuple(order[:n_seeds]), 0.5, rows)
        series = metrics.community_evolution(trace, node_labels)
        expected = reference_community_evolution(trace, node_labels)
        assert series == expected and list(series.counts) == list(expected.counts)


def test_min_common_snapshot_truncates_to_shortest():
    runs = []
    for steps in (30, 20, 40):
        oracle, seeds, _labels, _edges = make_sbm_oracle((40,) * 2, 5, 4.0, 15)
        state = sampler.init(seeds, oracle)
        trace = sampler.run(state, "RO", steps=steps, rng_seed=steps)
        runs.append((trace, state.discovered))
    subs = metrics.min_common_snapshot(runs)
    target = min(t.final_size() for t, _g in runs)
    for sub in subs:
        assert len(sub.nodes) == target
        assert all(s in sub.insiders and t in sub.insiders for s, t in sub.pairs())


def test_min_common_snapshot_single_run_unchanged():
    oracle, seeds, _labels, _edges = make_sbm_oracle((40,) * 2, 5, 4.0, 15)
    state = sampler.init(seeds, oracle)
    trace = sampler.run(state, "RO", steps=25, rng_seed=8)
    [sub] = metrics.min_common_snapshot([(trace, state.discovered)])
    assert sub.nodes == set(trace.insiders_at(trace.final_size()))


def test_min_common_snapshot_empty_errors():
    with pytest.raises(DataError):
        metrics.min_common_snapshot([])


def test_snapshot_equals_graph_at_that_time():
    """Inducing on the truncated insider list reproduces the earlier graph."""
    oracle, seeds, _labels, _edges = make_sbm_oracle((40,) * 3, 5, 4.0, 33)
    state = sampler.init(seeds, oracle)
    half = sampler.run(state, "MAS", steps=30, rng_seed=9)
    edges_at_half = {(s, t) for (s, t) in state.discovered.pairs()
                     if s in state.insiders and t in state.insiders}
    rest = sampler.run(state, "MAS", steps=30, rng=np.random.default_rng(10))
    full_trace = trace_from_rows(
        "MAS", state.seeds, 0.0,
        [sampler.TraceRow(i + 1, v, 0, 0, 0, 0)
         for i, v in enumerate(half.selected() + rest.selected())])
    insiders_half = set(full_trace.insiders_at(len(seeds) + 30))
    from tightsample.graph import induced_subgraph
    sub = induced_subgraph(state.discovered, insiders_half)
    assert set(sub.pairs()) == edges_at_half


def test_evolution_csv_export(tmp_path):
    state, trace, labels = run_mas((40,) * 2, 4.0, 5, steps=10)
    series = metrics.community_evolution(
        trace, {v: int(labels[v]) for v in range(80)})
    path = tmp_path / "evolution.csv"
    series.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestep,community,count,boundary"
    assert len(lines) == 1 + len(series.timesteps) * len(series.counts)
