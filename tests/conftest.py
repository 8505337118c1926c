"""Shared fixtures and independent brute-force oracles.

The brute-force implementations here deliberately avoid the package's own
data structures and algorithms so they can serve as independent checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from tightsample import sbm, sampler
from tightsample.oracle import GraphOracle


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
    for s, t, weight in zip(g.sources, g.targets, g.weights):
        if t in state.insiders and s not in state.insiders:
            prio[s] = prio.get(s, 0.0) + weight
    return prio, sum(prio.values())


def random_digraph(rng, n, p):
    """Directed simple random graph as a list of (u, v) pairs, u != v."""
    pairs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                pairs.append((u, v))
    return pairs


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_sbm_oracle(sizes, k_intra, r, graph_seed, seeds_per_block=1, seed_rng=0):
    """Generate an SBM, pick per-block seeds, and wrap it in an oracle."""
    cfg = sbm.BlockModelConfig(tuple(sizes), k_intra, r, graph_seed)
    matrix = sbm.derive_block_matrix(cfg)
    edges, labels = sbm.generate(matrix, cfg.block_sizes, cfg.rng_seed)
    seed_cfg = sbm.SeedConfig((seeds_per_block,) * len(sizes), rng_seed=seed_rng)
    seeds = sbm.select_seeds(labels, seed_cfg)
    oracle = GraphOracle.from_undirected_edges(edges, n_nodes=sum(sizes))
    return oracle, seeds, labels, edges


@pytest.fixture
def small_sbm():
    """4 blocks x 60 nodes, r=4: small but structured."""
    return make_sbm_oracle((60,) * 4, 6, 4.0, graph_seed=17, seed_rng=5)


def run_strategy(oracle_seeds, strategy, steps, run_seed, weights=None):
    oracle, seeds = oracle_seeds
    state = sampler.init(seeds, oracle, weights)
    trace = sampler.run(state, strategy, steps=steps, rng_seed=run_seed)
    return state, trace
