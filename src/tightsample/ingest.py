"""Parse engagement-event logs into a calibration corpus.

The input is a generic event log (JSONL or CSV), one row per engagement,
possibly several rows per (tweet, interactor) pair. Each row is parsed
straight to its interaction pattern (the type bit vector of
:func:`interactions.pattern_of`) and its ids are interned to int codes, so the
parse result is an :class:`EventTable` of int columns; repeated rows of a pair
merge by OR-ing their patterns. Other row fields, such as a timestamp, are
ignored. Parsing drops self-engagement and enforces a malformed-row cap.
Filtering applies the seed-activity rule and rank-based outlier trimming.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from json.scanner import make_scanner

import numpy as np

from .interactions import pattern_of, pattern_types
from .util import ConfigError, DataError, read_csv, read_lines


_FIELDS = ("tweet_id", "author", "interactor", "types")   # a missing one is named in this order


@dataclass(frozen=True, slots=True)
class EngagementEvent:
    """One (tweet, interactor) engagement; ``pattern`` is its type bit vector."""

    tweet_id: str
    author: str
    interactor: str
    pattern: int


@dataclass(eq=False, slots=True)
class EventTable:
    """Engagement events as int columns, one row per event.

    ``tweet``, ``author`` and ``interactor`` are int64 codes into ``tweets``
    and ``users``, the external ids in first-seen order (tweet ids as
    strings); ``pattern`` holds each event's type bit vector. ``len()`` is the
    number of events, and iterating yields them as :class:`EngagementEvent`
    in row order.
    """

    tweets: list
    users: list
    tweet: np.ndarray
    author: np.ndarray
    interactor: np.ndarray
    pattern: np.ndarray

    @classmethod
    def from_events(cls, events) -> "EventTable":
        """The columns of ``events`` as given, in order: nothing merged or dropped."""
        tweets: dict[str, int] = {}
        users: dict = {}
        columns = tuple(array("q") for _ in range(4))
        tweet, author, interactor, pattern = (c.append for c in columns)
        for e in events:
            tweet(tweets.setdefault(str(e.tweet_id), len(tweets)))
            author(users.setdefault(e.author, len(users)))
            interactor(users.setdefault(e.interactor, len(users)))
            pattern(e.pattern)
        return cls(list(tweets), list(users),
                   *(np.frombuffer(c, dtype=np.int64) for c in columns))

    def __len__(self) -> int:
        return len(self.pattern)

    def __iter__(self):
        tweets, users = self.tweets, self.users
        for t, a, j, p in zip(self.tweet.tolist(), self.author.tolist(),
                              self.interactor.tolist(), self.pattern.tolist()):
            yield EngagementEvent(tweets[t], users[a], users[j], p)


@dataclass(frozen=True)
class CorpusFilter:
    """Seed-activity and outlier-trim settings.

    ``trim_quantile`` keeps the lower fraction of tweets when ranked by
    distinct-interactor count (ties with the last kept rank survive).
    """

    trim_quantile: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.trim_quantile <= 1.0):   # false for NaN too
            raise ConfigError(f"trim_quantile must be in (0, 1], got {self.trim_quantile}")


@dataclass
class ParseReport:
    rows: int = 0
    malformed: int = 0
    samples: list = field(default_factory=list)


def _types_pattern(names) -> int:
    """The pattern of a row's ``types`` field: a list of names or one '|'-joined string."""
    if isinstance(names, str):
        names = names.split("|")
    # no names, or an unknown one, raises DataError, a ValueError
    return pattern_of(t.strip() for t in names if t and t.strip())


def _iter_jsonl(path):
    """Each non-blank line's number and JSON value (None for a line that is not JSON)."""
    scan = make_scanner(json.JSONDecoder())   # (line, start) -> (value, end)
    for lineno, line in read_lines(path, "event log"):
        line = line.strip()
        if not line:
            continue
        try:
            value, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            yield lineno, None   # no JSON value, bad JSON, an over-long int, deep nesting
            continue
        yield lineno, value if end == len(line) else None


def _iter_csv(path):
    rows = read_csv(path, "event log")
    _lineno, header = next(rows, (0, None))
    if header is None or "tweet_id" not in header:
        raise DataError(f"{path}: missing CSV header with tweet_id column")
    for lineno, row in rows:
        yield lineno, dict(zip(header, row))


def parse_events(path, fmt: str | None = None, malformed_cap: float = 0.01) -> EventTable:
    """Parse a JSONL or CSV event log into an :class:`EventTable` of deduplicated events.

    Malformed rows are skipped and counted; if they exceed ``malformed_cap``
    as a fraction of all rows the whole parse fails. Rows repeating a
    (tweet, interactor) pair merge into one event with the OR of their
    patterns and the first row's author; events keep the order of their
    pair's first row.
    """
    return parse_events_with_report(path, fmt, malformed_cap)[0]


def parse_events_with_report(path, fmt: str | None = None,
                             malformed_cap: float = 0.01) -> tuple[EventTable, ParseReport]:
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown event-log format {fmt!r}")
    rows = _iter_jsonl(path) if fmt == "jsonl" else _iter_csv(path)
    report = ParseReport()
    tweets: dict[str, int] = {}
    users: dict[str, int] = {}
    patterns: dict = {}   # types field (a list as a tuple) -> pattern
    columns = tuple(array("q") for _ in range(4))
    add_tweet, add_author, add_interactor, add_pattern = (c.append for c in columns)
    for lineno, row in rows:
        report.rows += 1
        try:
            if not isinstance(row, dict):
                raise ValueError("not a JSON object")
            tweet, author = row.get("tweet_id"), row.get("author")
            interactor, names = row.get("interactor"), row.get("types")
            if not tweet or not author or not interactor or not names:
                raise ValueError(f"missing field {next(f for f in _FIELDS if not row.get(f))}")
            key = tuple(names) if type(names) is list else names
            try:
                pattern = patterns[key]
            except KeyError:
                pattern = patterns[key] = _types_pattern(names)
            except TypeError:   # unhashable: names holding a list or an object
                pattern = _types_pattern(names)
            tweet, author, interactor = str(tweet), str(author), str(interactor)
        except (ValueError, AttributeError, TypeError) as exc:
            report.malformed += 1
            if len(report.samples) < 5:
                report.samples.append(f"{path}:{lineno}: {exc}")
            continue
        if author == interactor:
            continue
        add_tweet(tweets.setdefault(tweet, len(tweets)))
        add_author(users.setdefault(author, len(users)))
        add_interactor(users.setdefault(interactor, len(users)))
        add_pattern(pattern)

    if report.rows and report.malformed / report.rows > malformed_cap:
        raise DataError(
            f"{path}: {report.malformed}/{report.rows} malformed rows exceeds "
            f"the {malformed_cap:.0%} cap (e.g. {report.samples[:3]})")
    tweet, author, interactor, pattern = (np.frombuffer(c, dtype=np.int64)
                                          for c in columns)
    # one event per (tweet, interactor) pair: its first row, with all rows' patterns OR-ed;
    # codes are below twice the row count, so a key fits int64 below 2e9 rows
    pair = tweet * len(users) + interactor
    pairs, first_row, row_pair = np.unique(pair, return_index=True, return_inverse=True)
    if len(pairs) < len(pair):
        merged = np.zeros(len(pairs), dtype=np.int64)
        np.bitwise_or.at(merged, row_pair, pattern)
        by_first_row = np.argsort(first_row)
        rows_kept = first_row[by_first_row]
        tweet, author, interactor = tweet[rows_kept], author[rows_kept], interactor[rows_kept]
        pattern = merged[by_first_row]
    return EventTable(list(tweets), list(users), tweet, author, interactor, pattern), report


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
    authored = {e.author for e in events}
    kept_seeds = sorted(authored) if seeds is None else [s for s in seeds if s in authored]
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
                   "interactor": e.interactor, "types": pattern_types(e.pattern)}
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
    patterns = [pattern_of(names) for names, _w in mix]
    probs = [w for _names, w in mix]
    total = sum(probs)
    probs = [w / total for w in probs]
    tweet_author = {f"t{k}": f"a{int(rng.integers(n_authors))}" for k in range(n_tweets)}

    merged: dict[tuple, int] = {}
    for _ in range(n_events):
        tweet = f"t{int(rng.integers(n_tweets))}"
        interactor = f"u{int(rng.integers(n_interactors))}"
        choice = patterns[int(rng.choice(len(patterns), p=probs))]
        key = (tweet, interactor)
        merged[key] = merged.get(key, 0) | choice

    events = []
    for (tweet, interactor), pattern in sorted(merged.items()):
        author = tweet_author[tweet]
        if author == interactor:
            continue
        events.append(EngagementEvent(tweet, author, interactor, pattern))
    return events
