import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from reference import (
    default_r_sweep,
    reference_distinct_uniform,
    reference_generate,
    reference_read_edges_tsv,
)
from tightsample import graph, sbm
from tightsample.util import ConfigError, DataError


def test_block_matrix_eight_equal_blocks():
    cfg = sbm.BlockModelConfig((1000,) * 8, 10.0, 4.0, rng_seed=0)
    rho = sbm.derive_block_matrix(cfg)
    assert rho[0, 0] == pytest.approx(10 / 999)
    off = rho[~np.eye(8, dtype=bool)]
    assert np.allclose(off, 10 / 56000)


def test_block_matrix_unequal_blocks():
    cfg = sbm.BlockModelConfig((400, 800, 1200, 1600), 10.0, 1.0, rng_seed=0)
    rho = sbm.derive_block_matrix(cfg)
    expected = 0.5 * (10 / (2 * 3600) + 10 / (2 * 3200))
    assert rho[0, 1] == pytest.approx(expected)
    assert rho[0, 1] == pytest.approx(1.47569e-3, rel=1e-4)
    assert np.allclose(rho, rho.T)


def test_equal_blocks_give_equal_off_diagonals():
    cfg = sbm.BlockModelConfig((300,) * 5, 8.0, 2.0, rng_seed=0)
    rho = sbm.derive_block_matrix(cfg)
    off = rho[~np.eye(5, dtype=bool)]
    assert np.all(off == off[0])


def test_infeasible_configs_rejected():
    with pytest.raises(ConfigError):
        sbm.derive_block_matrix(sbm.BlockModelConfig((5, 5), 10.0, 4.0, 0))
    with pytest.raises(ConfigError):
        # tiny r blows the inter-block probability past 1
        sbm.derive_block_matrix(sbm.BlockModelConfig((100, 100), 90.0, 0.004, 0))
    with pytest.raises(ConfigError):
        sbm.BlockModelConfig((1,) * 4, 1.0, 1.0, 0)
    # numpy's generators take only non-negative seeds
    with pytest.raises(ConfigError, match="rng_seed"):
        sbm.BlockModelConfig((5, 5), 2.0, 4.0, -1)
    with pytest.raises(ConfigError, match="seed_rng"):
        sbm.SeedConfig((1, 1), rng_seed=-1)
    with pytest.raises(ConfigError, match="seed counts must be non-negative"):
        sbm.SeedConfig((1, -1))
    with pytest.raises(ConfigError, match="unknown seed selection 'median-degree'"):
        sbm.SeedConfig((1, 1), selection="median-degree")


def test_generate_empty_and_complete():
    rho = np.zeros((2, 2))
    edges, labels = sbm.generate(rho, (5, 5), rng_seed=1)
    assert edges.tolist() == []
    assert labels.tolist() == [0] * 5 + [1] * 5

    rho = np.ones((1, 1))
    edges, _ = sbm.generate(rho, (5,), rng_seed=1)
    assert edges.tolist() == [[u, v] for u in range(5) for v in range(u + 1, 5)]
    assert len(edges) == 10


def test_generate_deterministic():
    cfg = sbm.BlockModelConfig((100,) * 3, 6.0, 2.0, rng_seed=9)
    rho = sbm.derive_block_matrix(cfg)
    a, _ = sbm.generate(rho, cfg.block_sizes, 9)
    b, _ = sbm.generate(rho, cfg.block_sizes, 9)
    assert a.tolist() == b.tolist()
    c, _ = sbm.generate(rho, cfg.block_sizes, 10)
    assert a.tolist() != c.tolist()


def test_generate_simple_graph():
    cfg = sbm.BlockModelConfig((80, 80), 10.0, 1.0, rng_seed=3)
    edges, _ = sbm.generate(sbm.derive_block_matrix(cfg), cfg.block_sizes, 3)
    assert len(edges) == len(set(map(tuple, edges.tolist())))
    assert all(u < v for u, v in edges.tolist())


@settings(max_examples=200, deadline=None)
@given(n_choices=st.integers(1, 400), share=st.floats(0, 1), seed=st.integers(0, 2**32))
def test_distinct_uniform_matches_row_at_a_time_reference(n_choices, share, seed):
    # share below 1/2 takes the batch draws, from 1/2 on the permutation prefix
    m = int(share * n_choices)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = sbm._distinct_uniform(rng, n_choices, m)
    expected = reference_distinct_uniform(ref_rng, n_choices, m)
    assert drawn.dtype == np.int64
    assert sorted(drawn.tolist()) == sorted(expected)
    if m * 2 >= n_choices:
        assert drawn.tolist() == expected
    # the same draws were consumed
    assert rng.integers(2**62) == ref_rng.integers(2**62)


@pytest.mark.filterwarnings("error::RuntimeWarning")   # one-block models included
@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(2, 40), min_size=1, max_size=4),
       density=st.floats(0.01, 0.99), r=st.floats(0.05, 8.0), seed=st.integers(0, 2**32))
@example(sizes=[30, 30, 30], density=20 / 30, r=0.3, seed=7)   # every pair dense
@example(sizes=[50] * 4, density=4 / 50, r=2.0, seed=7)       # every pair sparse
def test_generate_matches_row_at_a_time_reference(sizes, density, r, seed):
    try:
        cfg = sbm.BlockModelConfig(tuple(sizes), density * min(sizes), r, seed)
        matrix = sbm.derive_block_matrix(cfg)
    except ConfigError:
        assume(False)
    edges, labels = sbm.generate(matrix, cfg.block_sizes, seed)
    ref_edges, ref_labels = reference_generate(matrix, cfg.block_sizes, seed)
    assert edges.dtype == np.int64 and edges.shape == (len(ref_edges), 2)
    assert edges.tolist() == [list(e) for e in ref_edges]
    assert labels.tolist() == ref_labels.tolist()


def test_realized_intra_degree_matches_target():
    cfg = sbm.BlockModelConfig((500, 500), 10.0, 2.0, rng_seed=0)
    rho = sbm.derive_block_matrix(cfg)
    per_seed = []
    for s in range(5):
        edges, labels = sbm.generate(rho, cfg.block_sizes, s)
        st = sbm.realized_block_stats(edges, labels)
        per_seed.append(st["mean_intra_degree"])
    mean = np.mean(per_seed, axis=0)
    assert np.all(np.abs(mean - 10.0) < 0.5)


def test_intra_edges_within_three_binomial_sigmas():
    cfg = sbm.BlockModelConfig((400, 400, 400), 10.0, 4.0, rng_seed=21)
    rho = sbm.derive_block_matrix(cfg)
    edges, labels = sbm.generate(rho, cfg.block_sizes, 21)
    st = sbm.realized_block_stats(edges, labels)
    for i, n_i in enumerate(cfg.block_sizes):
        pairs = n_i * (n_i - 1) / 2
        p = rho[i, i]
        sigma = np.sqrt(pairs * p * (1 - p))
        assert abs(st["intra_edges"][i] - n_i * 10.0 / 2) <= 3 * sigma


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0, 8.0])
def test_realized_intra_inter_ratio(r):
    cfg = sbm.BlockModelConfig((500, 500), 10.0, r, rng_seed=0)
    rho = sbm.derive_block_matrix(cfg)
    ratios = []
    for s in range(5):
        edges, labels = sbm.generate(rho, cfg.block_sizes, s)
        st = sbm.realized_block_stats(edges, labels)
        ratios.append(st["intra_edges"] / st["inter_edge_ends"])
    mean = np.mean(ratios)
    assert abs(mean - r) / r < 0.15


def test_degree_distributions_exchangeable_across_equal_blocks():
    cfg = sbm.BlockModelConfig((250,) * 4, 10.0, 2.0, rng_seed=0)
    rho = sbm.derive_block_matrix(cfg)
    block0, block1 = [], []
    for s in range(5):
        edges, labels = sbm.generate(rho, cfg.block_sizes, 50 + s)
        deg = sbm.degrees_from_edges(edges, cfg.n_nodes)
        block0.extend(deg[labels == 0].tolist())
        block1.extend(deg[labels == 1].tolist())
    result = stats.ks_2samp(block0, block1)
    assert result.pvalue > 0.01


def test_default_r_sweep():
    assert default_r_sweep(8)[0] == pytest.approx(1 / 7)
    assert default_r_sweep(4) == (pytest.approx(1 / 3), 0.5, 1.0, 2.0, 4.0, 8.0)


# ---------------------------------------------------------------------------
# seeds


def _labels(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def test_one_seed_per_block():
    labels = _labels((50,) * 8)
    seeds = sbm.select_seeds(labels, sbm.SeedConfig((1,) * 8, rng_seed=4))
    assert len(seeds) == 8
    assert sorted(labels[s] for s in seeds) == list(range(8))


def test_twenty_seeds_in_two_blocks():
    labels = _labels((50,) * 8)
    counts = (20, 20) + (0,) * 6
    seeds = sbm.select_seeds(labels, sbm.SeedConfig(counts, rng_seed=4))
    assert len(seeds) == 40
    assert set(labels[s] for s in seeds) == {0, 1}


def test_zero_seeds_everywhere_errors():
    labels = _labels((10, 10))
    with pytest.raises(ConfigError, match="no seeds"):
        sbm.select_seeds(labels, sbm.SeedConfig((0, 0)))


def test_infeasible_seed_counts_error():
    labels = _labels((5, 5))
    with pytest.raises(ConfigError):
        sbm.select_seeds(labels, sbm.SeedConfig((6, 0)))


def test_degree_extremes_with_id_tie_break():
    labels = _labels((4,))
    degrees = np.array([5, 1, 1, 9])
    low = sbm.select_seeds(labels, sbm.SeedConfig((2,), selection="low-degree"),
                           degrees)
    assert low == [1, 2]
    high = sbm.select_seeds(labels, sbm.SeedConfig((1,), selection="high-degree"),
                            degrees)
    assert high == [3]
    with pytest.raises(ConfigError, match="needs the degree array"):
        sbm.select_seeds(labels, sbm.SeedConfig((1,), selection="low-degree"))


def test_seed_selection_deterministic():
    labels = _labels((100, 100))
    a = sbm.select_seeds(labels, sbm.SeedConfig((3, 3), rng_seed=7))
    b = sbm.select_seeds(labels, sbm.SeedConfig((3, 3), rng_seed=7))
    assert a == b


# ---------------------------------------------------------------------------
# files


def test_config_round_trip(tmp_path):
    cfg = sbm.BlockModelConfig((200,) * 8, 10.0, 4.0, rng_seed=7)
    seed_cfg = sbm.SeedConfig((1,) * 8, rng_seed=11)
    path = tmp_path / "net.cfg"
    sbm.write_config(path, cfg, seed_cfg)
    cfg2, seed_cfg2 = sbm.read_config(path)
    assert cfg2 == cfg
    assert seed_cfg2 == seed_cfg


def test_edges_tsv_round_trip(tmp_path):
    edges = np.array([(0, 1), (1, 2), (0, 5)])
    path = tmp_path / "edges.tsv"
    sbm.write_edges_tsv(path, edges)
    assert sbm.read_edges_tsv(path).tolist() == edges.tolist()


def test_edges_tsv_writes_each_row_as_its_two_ints(tmp_path, monkeypatch):
    monkeypatch.setattr(graph, "WRITE_CHUNK", 2)   # several chunks and a partial one
    edges = np.array([(0, 1), (-4, 2**63 - 1), (-2**63, 7), (10, 11), (3, 2)], dtype=np.int64)
    path = tmp_path / "edges.tsv"
    sbm.write_edges_tsv(path, edges)
    assert path.read_bytes() == b"".join(b"%d\t%d\n" % (u, v) for u, v in edges.tolist())
    sbm.write_edges_tsv(path, edges[:0])
    assert path.read_bytes() == b""


# edge-list lines: pairs that loadtxt takes, lines that only the line reader takes,
# and lines that neither takes
GOOD_FIELDS = ["0", "7", "23", "-4", "007", "+1", "1_0", "١٢"]
EDGE_LINES = st.one_of(
    st.tuples(st.sampled_from(GOOD_FIELDS), st.sampled_from(GOOD_FIELDS)).map(
        lambda pair: "\t".join(pair).encode()),
    st.sampled_from([b"", b"  ", b"\r", b"1\t2\t", b"\t1\t2", b" 3 \t 4 "]),
    st.sampled_from([b"\t", b"1\r2\t3", b"1\t2\r3\t4", b"#", b"# 1\t2", b"1 2", b"1  2",
                     b"1\t2\t3", b"1\t\t2", b"1.0\t2", b"\xff\t1"]))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(EDGE_LINES, max_size=8), ending=st.sampled_from(["\n", "\r\n"]),
       last=st.sampled_from(["", "\n", "\r\n"]))
def test_read_edges_tsv_matches_line_reader(lines, ending, last):
    data = ending.encode().join(lines) + last.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes(data)
        try:
            expected = reference_read_edges_tsv(path)
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                sbm.read_edges_tsv(path)
            assert str(raised.value) == str(exc)
            return
        edges = sbm.read_edges_tsv(path)
    assert edges.dtype == np.int64 and edges.shape == (len(expected), 2)
    assert edges.tolist() == [list(e) for e in expected]


def test_read_edges_tsv_refuses_ids_outside_int64(tmp_path):
    path = tmp_path / "edges.tsv"
    for big in (2**63, -2**63 - 1):
        path.write_text(f"0\t1\n{2**63 - 1}\t{-2**63}\n1\t{big}\n")
        with pytest.raises(DataError, match=f"{path}:3: node id outside int64"):
            sbm.read_edges_tsv(path)
