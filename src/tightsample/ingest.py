"""Parse engagement-event logs into a calibration corpus.

The input is a generic event log (JSONL or CSV), one row per engagement,
possibly several rows per (tweet, interactor) pair. Parsing deduplicates
types per pair, drops self-engagement, and enforces a malformed-row cap.
Filtering applies the seed-activity rule and rank-based outlier trimming.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .interactions import TYPES, pattern_of
from .util import DataError, read_csv, read_lines

_TYPE_SET = set(TYPES)


@dataclass(frozen=True)
class EngagementEvent:
    """One (tweet, interactor) engagement with deduplicated types."""

    tweet_id: str
    author: str
    interactor: str
    types: frozenset
    ts: str | None = None

    @property
    def pattern(self) -> int:
        return pattern_of(self.types)

    def record(self) -> tuple:
        """(author, interactor, pattern) triple for the counting pipeline."""
        return (self.author, self.interactor, self.pattern)


@dataclass(frozen=True)
class CorpusFilter:
    """Seed-activity and outlier-trim settings.

    ``trim_quantile`` keeps the lower fraction of tweets when ranked by
    distinct-interactor count (ties with the last kept rank survive).
    """

    require_author_activity: bool = True
    trim_quantile: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.trim_quantile <= 1.0):
            raise DataError(f"trim_quantile must be in (0, 1], got {self.trim_quantile}")


@dataclass
class ParseReport:
    rows: int = 0
    malformed: int = 0
    self_engagements: int = 0
    merged_rows: int = 0
    samples: list = field(default_factory=list)


def _row_to_parts(row: dict) -> tuple:
    tweet = row.get("tweet_id")
    author = row.get("author")
    interactor = row.get("interactor")
    types = row.get("types")
    if not tweet or not author or not interactor or not types:
        raise ValueError("missing field")
    if isinstance(types, str):
        types = [t for t in types.split("|") if t]
    types = {t.strip() for t in types if t and t.strip()}
    if not types or types - _TYPE_SET:
        raise ValueError(f"bad types {sorted(types)!r}")
    return str(tweet), str(author), str(interactor), frozenset(types), row.get("ts")


def _iter_jsonl(path):
    for _lineno, line in read_lines(path, "event log"):
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except (ValueError, RecursionError):  # bad JSON, an over-long int, deep nesting
            yield None


def _iter_csv(path):
    rows = read_csv(path, "event log")
    _lineno, header = next(rows, (0, None))
    if header is None or "tweet_id" not in header:
        raise DataError(f"{path}: missing CSV header with tweet_id column")
    for _lineno, row in rows:
        yield dict(zip(header, row))


def parse_events(path, fmt: str | None = None,
                 malformed_cap: float = 0.01) -> list[EngagementEvent]:
    """Parse a JSONL or CSV event log into deduplicated events.

    Malformed rows are skipped and counted; if they exceed ``malformed_cap``
    as a fraction of all rows the whole parse fails. Rows repeating a
    (tweet, interactor) pair merge into one event with the union of types.
    """
    events, report = parse_events_with_report(path, fmt, malformed_cap)
    return events


def parse_events_with_report(path, fmt: str | None = None,
                             malformed_cap: float = 0.01):
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown event-log format {fmt!r}")
    rows = _iter_jsonl(path) if fmt == "jsonl" else _iter_csv(path)
    report = ParseReport()
    merged: dict[tuple, EngagementEvent] = {}
    for row in rows:
        report.rows += 1
        if row is None:
            report.malformed += 1
            continue
        try:
            tweet, author, interactor, types, ts = _row_to_parts(row)
        except (ValueError, AttributeError, TypeError) as exc:
            report.malformed += 1
            if len(report.samples) < 5:
                report.samples.append(str(exc))
            continue
        if author == interactor:
            report.self_engagements += 1
            continue
        key = (tweet, interactor)
        prev = merged.get(key)
        if prev is None:
            merged[key] = EngagementEvent(tweet, author, interactor, types, ts)
        else:
            report.merged_rows += 1
            merged[key] = EngagementEvent(tweet, prev.author, interactor,
                                          prev.types | types, prev.ts)

    if report.rows and report.malformed / report.rows > malformed_cap:
        raise DataError(
            f"{path}: {report.malformed}/{report.rows} malformed rows exceeds "
            f"the {malformed_cap:.0%} cap (e.g. {report.samples[:3]})")
    return list(merged.values()), report


@dataclass
class FilterResult:
    events: list[EngagementEvent]
    seeds: list[str]
    report: dict


def apply_filters(events, seeds, corpus_filter: CorpusFilter) -> FilterResult:
    """Apply the seed-activity rule and the interaction-count trim.

    Seeds that authored nothing are removed; events by non-seed authors are
    dropped (when a seed list is given); tweets are ranked by
    distinct-interactor count and the top (1 - trim_quantile) fraction is
    removed, keeping ties with the last surviving rank.
    """
    events = list(events)
    if seeds is None:
        kept_seeds = sorted({e.author for e in events})
    else:
        authored = {e.author for e in events}
        if corpus_filter.require_author_activity:
            kept_seeds = [s for s in seeds if s in authored]
        else:
            kept_seeds = list(seeds)
    seed_set = set(kept_seeds)
    seed_events = [e for e in events if e.author in seed_set]

    interactors_per_tweet: dict[str, set] = {}
    for e in seed_events:
        interactors_per_tweet.setdefault(e.tweet_id, set()).add(e.interactor)
    tweet_counts = {t: len(js) for t, js in interactors_per_tweet.items()}

    if tweet_counts:
        n = len(tweet_counts)
        n_keep = math.floor(corpus_filter.trim_quantile * n + 1e-9)
        if n_keep < 1:
            raise DataError("trim removed every tweet; raise trim_quantile")
        ordered = sorted(tweet_counts.values())
        cutoff = ordered[n_keep - 1]
        kept_tweets = {t for t, c in tweet_counts.items() if c <= cutoff}
    else:
        cutoff = None
        kept_tweets = set()

    kept_events = [e for e in seed_events if e.tweet_id in kept_tweets]
    report = {
        "seeds_in": len(seeds) if seeds is not None else len(kept_seeds),
        "seeds_removed": (len(seeds) - len(kept_seeds)) if seeds is not None else 0,
        "tweets_in": len(tweet_counts),
        "tweets_removed": len(tweet_counts) - len(kept_tweets),
        "events_in": len(events),
        "events_removed": len(events) - len(kept_events),
        "interaction_cutoff": cutoff,
    }
    return FilterResult(kept_events, kept_seeds, report)


def write_events_jsonl(path, events) -> None:
    with open(path, "w", newline="") as fh:
        for e in events:
            row = {"tweet_id": e.tweet_id, "author": e.author,
                   "interactor": e.interactor, "types": sorted(e.types)}
            if e.ts is not None:
                row["ts"] = e.ts
            fh.write(json.dumps(row) + "\n")


# Default pattern mix for synthetic corpora: like-heavy with a rare tail,
# roughly matching observed engagement logs.
_DEFAULT_MIX = (
    ({"like"}, 0.70), ({"retweet"}, 0.09), ({"reply"}, 0.08),
    ({"like", "retweet"}, 0.06), ({"quote"}, 0.03), ({"like", "reply"}, 0.02),
    ({"like", "retweet", "reply"}, 0.01), ({"retweet", "quote"}, 0.005),
    ({"like", "quote"}, 0.003), ({"reply", "quote"}, 0.001),
    ({"like", "retweet", "reply", "quote"}, 0.001),
)


def synthetic_corpus(rng, n_authors: int = 5, n_interactors: int = 40,
                     n_tweets: int = 60, n_events: int = 300,
                     mix=_DEFAULT_MIX) -> list[EngagementEvent]:
    """Random fixture corpus; deterministic given the numpy Generator state."""
    type_sets = [frozenset(ts) for ts, _w in mix]
    probs = [w for _ts, w in mix]
    total = sum(probs)
    probs = [w / total for w in probs]
    tweet_author = {f"t{k}": f"a{int(rng.integers(n_authors))}" for k in range(n_tweets)}

    merged: dict[tuple, frozenset] = {}
    for _ in range(n_events):
        tweet = f"t{int(rng.integers(n_tweets))}"
        interactor = f"u{int(rng.integers(n_interactors))}"
        choice = type_sets[int(rng.choice(len(type_sets), p=probs))]
        key = (tweet, interactor)
        merged[key] = merged.get(key, frozenset()) | choice

    events = []
    for (tweet, interactor), types in sorted(merged.items()):
        author = tweet_author[tweet]
        if author == interactor:
            continue
        events.append(EngagementEvent(tweet, author, interactor, types))
    return events
