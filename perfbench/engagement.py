"""Seeded engagement-log generator for the engagement workload.

Users sit in planted communities drawn by ``sbm.generate``. Every user both
authors tweets and engages with other users' tweets, so a snowball started
from a few authors keeps discovering new authors past the first hop. Each
directed edge interactor -> author carries 1-3 engagements, each on a
distinct tweet of the author, with a like-heavy interaction pattern.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tightsample import sbm

# Like-heavy with a rare tail, the shape of observed engagement logs. All 15
# non-empty patterns occur, so a "distinct" calibration covers every one.
PATTERN_MIX = (
    (("like",), 0.70), (("retweet",), 0.09), (("reply",), 0.08),
    (("like", "retweet"), 0.06), (("quote",), 0.03), (("like", "reply"), 0.02),
    (("like", "retweet", "reply"), 0.01), (("retweet", "quote"), 0.005),
    (("like", "quote"), 0.003), (("reply", "retweet"), 0.002),
    (("like", "quote", "retweet"), 0.002), (("like", "quote", "reply"), 0.002),
    (("quote", "reply"), 0.001), (("quote", "reply", "retweet"), 0.001),
    (("like", "quote", "reply", "retweet"), 0.001),
)
TWEETS_PER_AUTHOR = 24
N_BLOCKS = 8


@dataclass(frozen=True)
class EngagementLog:
    events: Path
    seeds: Path
    labels: Path
    rows: int


def user_id(node: int) -> str:
    return f"u{node}"


def generate(out_dir, seed: int, block_size: int = 500) -> EngagementLog:
    """Write ``events.jsonl``, ``seeds.txt`` and ``labels.csv`` into ``out_dir``.

    Deterministic for a given ``seed``: the same seed writes the same bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = sbm.BlockModelConfig((block_size,) * N_BLOCKS, 10.0, 4.0, seed)
    edges, labels = sbm.generate(sbm.derive_block_matrix(cfg), cfg.block_sizes, seed)
    rng = np.random.default_rng([seed, 1])

    directed = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    directed.sort()
    type_sets = [sorted(types) for types, _w in PATTERN_MIX]
    probs = np.array([w for _types, w in PATTERN_MIX])
    probs /= probs.sum()

    rows = []
    for interactor, author in directed:
        count = int(rng.integers(1, 4))
        tweets = rng.choice(TWEETS_PER_AUTHOR, size=count, replace=False)
        patterns = rng.choice(len(type_sets), size=count, p=probs)
        for tweet, pattern in zip(tweets.tolist(), patterns.tolist()):
            rows.append({"tweet_id": f"t{author}_{tweet}", "author": user_id(author),
                         "interactor": user_id(interactor),
                         "types": type_sets[pattern]})
    order = rng.permutation(len(rows))

    events = out_dir / "events.jsonl"
    with open(events, "w") as fh:
        for i in order.tolist():
            fh.write(json.dumps(rows[i]) + "\n")

    degree = sbm.degrees_from_edges(edges, len(labels))
    seed_nodes = []
    for block in range(N_BLOCKS):
        members = np.flatnonzero((labels == block) & (degree > 0))
        seed_nodes.append(int(members[int(rng.integers(members.size))]))
    seeds = out_dir / "seeds.txt"
    seeds.write_text("".join(f"{user_id(v)}\n" for v in seed_nodes))

    labels_path = out_dir / "labels.csv"
    with open(labels_path, "w") as fh:
        fh.write("node,community\n")
        for node, block in enumerate(labels.tolist()):
            fh.write(f"{user_id(node)},{block}\n")
    return EngagementLog(events, seeds, labels_path, len(rows))
