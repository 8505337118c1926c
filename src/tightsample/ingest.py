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
from .util import ConfigError, DataError, first_seen, read_csv, read_lines


_FIELDS = ("tweet_id", "author", "interactor", "types")   # a missing one is named in this order


@dataclass(eq=False, slots=True)
class EventTable:
    """Engagement events as int columns, one row per event.

    ``tweet``, ``author`` and ``interactor`` are int64 codes into ``tweets``
    and ``users``, the external ids in first-seen order (tweet ids as
    strings); ``pattern`` holds each event's type bit vector. ``len()`` is the
    number of events.
    """

    tweets: list
    users: list
    tweet: np.ndarray
    author: np.ndarray
    interactor: np.ndarray
    pattern: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "EventTable":
        """The ``(tweet_id, author, interactor, pattern)`` rows as given, in order.

        Nothing is merged or dropped. Tweet ids are kept as strings; users are
        interned author before interactor, row by row.
        """
        tweets: dict[str, int] = {}
        users: dict = {}
        columns = tuple(array("q") for _ in range(4))
        add_tweet, add_author, add_interactor, add_pattern = (c.append for c in columns)
        for tweet, author, interactor, pattern in rows:
            add_tweet(tweets.setdefault(str(tweet), len(tweets)))
            add_author(users.setdefault(author, len(users)))
            add_interactor(users.setdefault(interactor, len(users)))
            add_pattern(pattern)
        return cls(list(tweets), list(users),
                   *(np.frombuffer(c, dtype=np.int64) for c in columns))

    def __len__(self) -> int:
        return len(self.pattern)


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


def _usable_rows(rows, path, report: ParseReport):
    """Yield ``(tweet_id, author, interactor, pattern)`` of each usable row, ids as strings.

    Malformed rows, counted in ``report``, and self-engagement are skipped. An id
    holding a tab or a line break is malformed: ``discovered.tsv`` could not hold it.
    """
    patterns: dict = {}   # types field (a list as a tuple) -> pattern
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
            joined = tweet + author + interactor
            if "\t" in joined or "\n" in joined or "\r" in joined:
                raise ValueError("id with a tab or line break")
        except (ValueError, AttributeError, TypeError) as exc:
            report.malformed += 1
            if len(report.samples) < 5:
                report.samples.append(f"{path}:{lineno}: {exc}")
            continue
        if author != interactor:
            yield tweet, author, interactor, pattern


def parse_events_with_report(path, fmt: str | None = None,
                             malformed_cap: float = 0.01) -> tuple[EventTable, ParseReport]:
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown event-log format {fmt!r}")
    rows = _iter_jsonl(path) if fmt == "jsonl" else _iter_csv(path)
    report = ParseReport()
    table = EventTable.from_rows(_usable_rows(rows, path, report))
    if report.rows and report.malformed / report.rows > malformed_cap:
        raise DataError(
            f"{path}: {report.malformed}/{report.rows} malformed rows exceeds "
            f"the {malformed_cap:.0%} cap (e.g. {report.samples[:3]})")
    # one event per (tweet, interactor) pair: its first row, with all rows' patterns OR-ed;
    # codes are below twice the row count, so a key fits int64 below 2e9 rows
    pair = table.tweet * len(table.users) + table.interactor
    row_pair, pairs, first_row = first_seen(pair)
    if len(pairs) < len(pair):
        merged = np.zeros(len(pairs), dtype=np.int64)
        np.bitwise_or.at(merged, row_pair, table.pattern)
        table = EventTable(table.tweets, table.users, table.tweet[first_row],
                           table.author[first_row], table.interactor[first_row], merged)
    return table, report


@dataclass
class FilterResult:
    events: EventTable
    seeds: list[str]
    report: dict


def apply_filters(events: EventTable, seeds, corpus_filter: CorpusFilter) -> FilterResult:
    """Apply the seed-activity rule and the interaction-count trim.

    The kept events are an :class:`EventTable` over the same ``tweets`` and
    ``users``, in their original order. Seeds that authored nothing are
    removed; events by non-seed authors are dropped (when a seed list is
    given); tweets are ranked by distinct-interactor count and the top
    (1 - trim_quantile) fraction is removed, keeping ties with the last
    surviving rank.
    """
    authors = {events.users[a]: a for a in np.unique(events.author).tolist()}   # id -> code
    kept_seeds = sorted(authors) if seeds is None else [s for s in seeds if s in authors]
    seed_rows = np.isin(events.author, [authors[s] for s in kept_seeds])

    # distinct interactors per tweet: count (tweet, interactor) keys, since rows may repeat a pair
    n_users = len(events.users)
    pairs = np.unique(events.tweet[seed_rows] * n_users + events.interactor[seed_rows])
    counts = np.bincount(pairs // n_users, minlength=len(events.tweets))
    ranked = np.sort(counts[counts > 0])   # the counts of the tweets with a seed event
    n_keep = math.floor(corpus_filter.trim_quantile * len(ranked) + 1e-9)
    if len(ranked) and n_keep < 1:
        raise DataError("trim removed every tweet; raise trim_quantile")
    cutoff = int(ranked[n_keep - 1]) if len(ranked) else 0
    keep = seed_rows & (counts <= cutoff)[events.tweet]
    report = {
        "seeds_in": len(seeds) if seeds is not None else len(kept_seeds),
        "seeds_removed": (len(seeds) - len(kept_seeds)) if seeds is not None else 0,
        "tweets_in": len(ranked),
        "tweets_removed": int((ranked > cutoff).sum()),
        "events_in": len(events),
        "events_removed": len(events) - int(keep.sum()),
        "interaction_cutoff": cutoff if len(ranked) else None,
    }
    kept = EventTable(events.tweets, events.users, events.tweet[keep], events.author[keep],
                      events.interactor[keep], events.pattern[keep])
    return FilterResult(kept, kept_seeds, report)


def write_events_jsonl(path, events: EventTable) -> None:
    tweets, users = events.tweets, events.users
    with open(path, "w", newline="") as fh:
        for t, a, j, p in zip(events.tweet.tolist(), events.author.tolist(),
                              events.interactor.tolist(), events.pattern.tolist()):
            row = {"tweet_id": tweets[t], "author": users[a],
                   "interactor": users[j], "types": pattern_types(p)}
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
                     mix=_DEFAULT_MIX) -> EventTable:
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

    return EventTable.from_rows(
        (tweet, tweet_author[tweet], interactor, pattern)
        for (tweet, interactor), pattern in sorted(merged.items())
        if tweet_author[tweet] != interactor)
