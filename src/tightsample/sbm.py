"""Planted-community test networks with a degree/ratio parameterization.

The block-probability matrix is derived from the target intra-block mean
degree k_intra and the intra/inter edge ratio r:

    rho[i][i] = k_intra / (n_i - 1)
    rho[i][j] = (rho_i* + rho_j*) / 2   with   rho_i* = k_intra / (2 r (n - n_i))

Generation is undirected and simple; the oracle layer serves each edge in
both directions.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import write_columns
from .util import ConfigError, DataError, read_lines

SEED_SELECTIONS = ("uniform-random", "low-degree", "high-degree")
CONFIG_KEYS = ("block_sizes", "k_intra", "r", "rng_seed", "seed_counts", "seed_selection",
               "seed_rng")   # the keys of a config file, as write_config writes them

@dataclass(frozen=True)
class BlockModelConfig:
    block_sizes: tuple[int, ...]
    k_intra: float
    r: float
    rng_seed: int

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        if len(sizes) < 1 or any(s < 2 for s in sizes):
            raise ConfigError("every block needs size >= 2")
        for s in sizes:   # generate draws each block's node pairs as int64 indices
            if s * (s - 1) // 2 >= 2**63:
                raise ConfigError(f"block size {s} has more node pairs than int64 holds")
        if len(sizes) >= 2 and sum(sizes) <= max(sizes):
            raise ConfigError("total size must exceed the largest block")
        if not (self.k_intra > 0) or not (self.r > 0):   # true for NaN too
            raise ConfigError(f"k_intra and r must be positive, got k_intra={self.k_intra}, "
                              f"r={self.r}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be non-negative, got {self.rng_seed}")

    @property
    def n_nodes(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class SeedConfig:
    """Per-block seed counts, e.g. (1,)*8 for one seed in each of 8 blocks."""

    per_block: tuple[int, ...]
    selection: str = "uniform-random"
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "per_block", tuple(int(c) for c in self.per_block))
        if any(c < 0 for c in self.per_block):
            raise ConfigError("seed counts must be non-negative")
        if self.rng_seed < 0:
            raise ConfigError(f"seed_rng must be non-negative, got {self.rng_seed}")
        if self.selection not in SEED_SELECTIONS:
            raise ConfigError(f"unknown seed selection {self.selection!r}; "
                              f"expected one of {SEED_SELECTIONS}")


def derive_block_matrix(cfg: BlockModelConfig) -> np.ndarray:
    """The symmetric block-probability matrix for a configuration."""
    sizes = np.asarray(cfg.block_sizes, dtype=float)
    n = sizes.sum()
    if any(cfg.k_intra >= s for s in cfg.block_sizes):
        raise ConfigError("infeasible configuration: k_intra >= block size")
    with np.errstate(divide="ignore"):   # n - sizes is 0 for one block, which has no off-diagonal
        rho_star = cfg.k_intra / (2.0 * cfg.r * (n - sizes))
    rho = (rho_star[:, None] + rho_star[None, :]) / 2.0
    np.fill_diagonal(rho, cfg.k_intra / (sizes - 1.0))
    if (rho > 1.0).any() or (rho < 0.0).any():
        raise ConfigError("infeasible configuration: probability outside [0, 1]")
    return rho


def block_offsets(block_sizes) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(block_sizes)])


def block_labels(block_sizes) -> np.ndarray:
    """The block index of each node, nodes numbered block after block as ``generate`` does."""
    return np.repeat(np.arange(len(block_sizes)), block_sizes)


def _distinct_uniform(rng: np.random.Generator, n_choices: int, m: int) -> np.ndarray:
    """m distinct uniform draws from range(n_choices), as an int64 array."""
    if m > n_choices:
        raise ConfigError("cannot draw more distinct values than exist")
    if m * 2 >= n_choices:
        return rng.permutation(n_choices)[:m]
    drawn = np.empty(0, dtype=np.int64)
    while len(drawn) < m:
        batch = rng.integers(n_choices, size=max(16, 2 * (m - len(drawn))))
        values, first = np.unique(batch, return_index=True)
        first = np.sort(first[~np.isin(values, drawn)])[:m - len(drawn)]
        drawn = np.concatenate((drawn, batch[first]))
    return drawn


def generate(matrix: np.ndarray, block_sizes, rng_seed: int):
    """Sample an undirected simple graph from a block matrix.

    Returns (edges, labels): edges is an ``(m, 2)`` int64 array of rows (u, v)
    with u < v, sorted by (u, v); labels a numpy array mapping node -> block
    index. Deterministic for a given rng_seed. Each unordered pair appears
    independently with the probability of its block pair.
    """
    sizes = [int(s) for s in block_sizes]
    rng = np.random.default_rng(rng_seed)
    offsets = block_offsets(sizes).tolist()
    b = len(sizes)
    labels = block_labels(sizes)
    blocks = [np.empty((0, 2), dtype=np.int64)]

    for i in range(b):
        n_i = sizes[i]
        n_pairs = n_i * (n_i - 1) // 2
        if n_pairs:
            m = int(rng.binomial(n_pairs, float(matrix[i, i])))
            k = _distinct_uniform(rng, n_pairs, m)
            # invert the row-major upper-triangle index
            row = ((2 * n_i - 1 - np.sqrt((2 * n_i - 1) ** 2 - 8 * k)) // 2).astype(np.int64)
            col = k - row * (2 * n_i - row - 1) // 2 + row + 1
            blocks.append(offsets[i] + np.column_stack((row, col)))
        for j in range(i + 1, b):
            n_j = sizes[j]
            m = int(rng.binomial(n_i * n_j, float(matrix[i, j])))
            k = _distinct_uniform(rng, n_i * n_j, m)
            blocks.append(np.column_stack((offsets[i] + k // n_j, offsets[j] + k % n_j)))

    edges = np.concatenate(blocks)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))], labels


def degrees_from_edges(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    return np.bincount(edges.ravel(), minlength=n_nodes)


def select_seeds(labels: np.ndarray, seed_cfg: SeedConfig,
                 degrees: np.ndarray | None = None) -> list[int]:
    """Pick per-block seed nodes by the configured selection rule.

    Degree-based selection takes the extremes with ties broken by node id;
    it requires ``degrees``.
    """
    b = int(labels.max()) + 1 if labels.size else 0
    if len(seed_cfg.per_block) != b:
        raise ConfigError(f"seed counts cover {len(seed_cfg.per_block)} blocks, "
                          f"labels have {b}")
    if sum(seed_cfg.per_block) == 0:
        raise ConfigError("no seeds: every per-block count is zero")
    if seed_cfg.selection != "uniform-random" and degrees is None:
        raise ConfigError("degree-based seed selection needs the degree array")

    rng = np.random.default_rng(seed_cfg.rng_seed)
    seeds: list[int] = []
    for i, count in enumerate(seed_cfg.per_block):
        members = np.flatnonzero(labels == i)
        if count > members.size:
            raise ConfigError(f"block {i} has {members.size} nodes, "
                              f"cannot place {count} seeds")
        if count == 0:
            continue
        if seed_cfg.selection == "uniform-random":
            picked = rng.choice(members, size=count, replace=False)
            seeds.extend(sorted(int(x) for x in picked))
        else:
            reverse = seed_cfg.selection == "high-degree"
            ranked = sorted(members.tolist(),
                            key=lambda v: (-degrees[v], v) if reverse else (degrees[v], v))
            seeds.extend(ranked[:count])
    return seeds


def realized_block_stats(edges, labels: np.ndarray) -> dict:
    """Per-block intra edge counts, mean intra degrees, and intra/inter ratios."""
    b = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=b)
    ends = labels[edges]   # the block of each endpoint
    within = ends[:, 0] == ends[:, 1]
    intra = np.bincount(ends[within, 0], minlength=b)
    inter = np.bincount(ends[~within].ravel(), minlength=b)
    mean_intra_degree = 2.0 * intra / sizes
    with np.errstate(divide="ignore"):
        ratio = np.where(inter > 0, intra / np.maximum(inter, 1), np.inf)
    return {"sizes": sizes, "intra_edges": intra, "inter_edge_ends": inter,
            "mean_intra_degree": mean_intra_degree, "intra_inter_ratio": ratio}


# ---------------------------------------------------------------------------
# file formats


def write_edges_tsv(path, edges: np.ndarray) -> None:
    """One ``u<TAB>v`` line per row of ``edges``, by :func:`~tightsample.graph.write_columns`."""
    write_columns(path, [(edges[:, 0], edges[:, 1])], (None, None))


def read_edges_tsv(path) -> np.ndarray:
    """The ``(m, 2)`` int64 array of a ``u<TAB>v`` edge list (blank lines skipped).

    A bad line, a node id outside int64 or a non-UTF-8 line is a DataError naming it.
    """
    # newline="\n" keeps a lone \r inside its line, which loadtxt then refuses
    with contextlib.suppress(OSError, ValueError), warnings.catch_warnings(), \
            open(path, encoding="utf-8", newline="\n") as fh:
        warnings.simplefilter("ignore", UserWarning)   # an empty file
        edges = np.loadtxt(fh, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
        if edges.shape[1] == 2:
            return edges
    # name the bad line, or take what int() takes and loadtxt refuses ('1_0', an end tab)
    pairs = []
    for lineno, line in read_lines(path, "edge list"):
        line = line.strip()
        if line:
            try:
                u, v = map(int, line.split("\t"))
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected two tab-separated "
                                f"integer fields") from None
            if not -2**63 <= min(u, v) <= max(u, v) < 2**63:
                raise DataError(f"{path}:{lineno}: node id outside int64")
            pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def write_config(path, cfg: BlockModelConfig, seed_cfg: SeedConfig | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(f"block_sizes = {','.join(str(s) for s in cfg.block_sizes)}\n")
        fh.write(f"k_intra = {cfg.k_intra}\n")
        fh.write(f"r = {cfg.r}\n")
        fh.write(f"rng_seed = {cfg.rng_seed}\n")
        if seed_cfg is not None:
            fh.write(f"seed_counts = {','.join(str(c) for c in seed_cfg.per_block)}\n")
            fh.write(f"seed_selection = {seed_cfg.selection}\n")
            fh.write(f"seed_rng = {seed_cfg.rng_seed}\n")


def read_config(path) -> tuple[BlockModelConfig, SeedConfig | None]:
    """Parse a ``key = value`` config file mirroring the two config types.

    A key outside :data:`CONFIG_KEYS`, or one given twice, is a ConfigError naming its line.
    """
    fields: dict[str, str] = {}
    for lineno, line in read_lines(path, "config"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                              f"expected one of {', '.join(CONFIG_KEYS)}")
        if key in fields:
            raise ConfigError(f"{path}:{lineno}: {key} is set twice")
        fields[key] = value
    try:
        cfg = BlockModelConfig(
            block_sizes=tuple(int(s) for s in fields["block_sizes"].split(",")),
            k_intra=float(fields["k_intra"]),
            r=float(fields["r"]),
            rng_seed=int(fields.get("rng_seed", "0")))
        seed_cfg = None
        if "seed_counts" in fields:
            seed_cfg = SeedConfig(
                per_block=tuple(int(c) for c in fields["seed_counts"].split(",")),
                selection=fields.get("seed_selection", "uniform-random"),
                rng_seed=int(fields.get("seed_rng", "0")))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc}") from exc
    except ValueError as exc:  # a non-numeric value, or a ConfigError of the config types
        raise ConfigError(f"{path}: {exc}") from None
    return cfg, seed_cfg
