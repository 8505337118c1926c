import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    event_rows,
    reference_apply_filters,
    reference_in_adjacency,
    reference_parse_events,
)
from tightsample import ingest
from tightsample.oracle import GraphOracle
from tightsample.util import DataError

FIXTURE_ROWS = [
    {"tweet_id": "t1", "author": "a1", "interactor": "u1", "types": ["like"]},
    {"tweet_id": "t1", "author": "a1", "interactor": "u2",
     "types": ["retweet", "quote"]},
    {"tweet_id": "t2", "author": "a1", "interactor": "u1",
     "types": ["like", "like", "retweet"]},
    {"tweet_id": "t3", "author": "a2", "interactor": "u3", "types": ["reply"]},
    {"tweet_id": "t3", "author": "a2", "interactor": "u3", "types": ["like"]},
    {"tweet_id": "t4", "author": "a2", "interactor": "a2", "types": ["like"]},
    {"tweet_id": "t5", "author": "a3", "interactor": "u1", "types": ["quote"]},
    {"tweet_id": "t5", "author": "a3", "interactor": "u4", "types": ["like"]},
    {"tweet_id": "t6", "author": "a3", "interactor": "u5", "types": ["reply"],
     "ts": "2022-07-03T10:00:00Z"},
    {"tweet_id": "t7", "author": "a4", "interactor": "u2", "types": ["like"]},
]


@pytest.fixture
def fixture_log(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        for row in FIXTURE_ROWS:
            fh.write(json.dumps(row) + "\n")
    return path


def test_fixture_log_parses_to_expected_events(fixture_log):
    events = ingest.parse_events(fixture_log)
    by_key = {(t, j): p for t, _a, j, p in event_rows(events)}
    # 10 rows -> 8 events: one self-engagement dropped, t3/u3 rows merged
    assert len(events) == 8
    assert by_key[("t1", "u2")] == 0b0101  # retweet, quote
    assert by_key[("t2", "u1")] == 0b1100  # like twice, retweet
    assert by_key[("t3", "u3")] == 0b1010  # reply row | like row
    assert ("t4", "a2") not in by_key
    assert by_key[("t6", "u5")] == 0b0010  # its ts field is ignored


def test_empty_types_row_is_counted_malformed(tmp_path):
    path = tmp_path / "events.jsonl"
    rows = [{"tweet_id": "t1", "author": "a", "interactor": "u", "types": []}]
    rows += [{"tweet_id": f"t{i}", "author": "a", "interactor": f"u{i}",
              "types": ["like"]} for i in range(200)]
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    events, report = ingest.parse_events_with_report(path)
    assert report.malformed == 1
    assert len(events) == 200


def test_malformed_cap_exceeded(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write("not json at all\n")
        for i in range(50):
            fh.write(json.dumps({"tweet_id": f"t{i}", "author": "a",
                                 "interactor": f"u{i}", "types": ["like"]}) + "\n")
    with pytest.raises(DataError, match="malformed"):
        ingest.parse_events(path)


def test_unreadable_file():
    with pytest.raises(DataError):
        ingest.parse_events("/nonexistent/events.jsonl")


def test_csv_format_round_trip(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(
        "tweet_id,author,interactor,types,ts\n"
        "t1,a1,u1,like|retweet,\n"
        "t2,a1,u2,quote,2022-07-01\n")
    events = ingest.parse_events(path)
    assert set(events.pattern.tolist()) == {0b1100, 0b0001}


def test_csv_types_cells_parse_to_patterns(tmp_path):
    cells = {"u1": " like | retweet ", "u2": "like||quote", "u3": "reply|",
             "u4": "|quote|like|", "u5": "like|boost", "u6": "|", "u7": " "}
    path = tmp_path / "events.csv"
    path.write_text("tweet_id,author,interactor,types\n" + "".join(
        f"t1,a1,{u},{cell}\n" for u, cell in cells.items()))
    events, report = ingest.parse_events_with_report(path, malformed_cap=1.0)
    assert {j: p for _t, _a, j, p in event_rows(events)} == {
        "u1": 0b1100, "u2": 0b1001, "u3": 0b0010, "u4": 0b1001}
    # an unknown type, or no type at all, makes the row malformed
    assert report.rows == 7 and report.malformed == 3
    assert any("boost" in sample for sample in report.samples)


def test_jsonl_write_read_round_trip(tmp_path, rng):
    corpus = ingest.synthetic_corpus(rng, n_events=120)
    path = tmp_path / "synth.jsonl"
    ingest.write_events_jsonl(path, corpus)
    back = ingest.parse_events(path)
    assert sorted(event_rows(back)) == sorted(event_rows(corpus))


# ---------------------------------------------------------------------------
# filters


def _mk_rows(counts_per_tweet):
    """One author; tweet k receives engagement from counts[k] interactors."""
    return [(f"t{k}", "a0", f"u{k}_{j}", 0b1000)
            for k, c in enumerate(counts_per_tweet) for j in range(c)]


def _mk_events(counts_per_tweet):
    return ingest.EventTable.from_rows(_mk_rows(counts_per_tweet))


def _kept_tweets(result):
    return [t for t, _a, _j, _p in event_rows(result.events)]


def test_trim_identity_at_quantile_one():
    events = _mk_events([1, 2, 3])
    out = ingest.apply_filters(events, None, ingest.CorpusFilter(trim_quantile=1.0))
    assert len(out.events) == len(events)
    assert out.report["tweets_removed"] == 0


def test_trim_drops_top_decile_tweet():
    events = _mk_events(range(1, 11))  # counts 1..10
    out = ingest.apply_filters(events, None, ingest.CorpusFilter(trim_quantile=0.9))
    kept_tweets = set(_kept_tweets(out))
    assert "t9" not in kept_tweets  # the count-10 tweet
    assert len(kept_tweets) == 9
    assert out.report["interaction_cutoff"] == 9


def test_trim_keeps_ties_with_last_rank():
    events = _mk_events([1, 2, 5, 5, 5])  # 0.8 quantile rank lands inside the tie
    out = ingest.apply_filters(events, None, ingest.CorpusFilter(trim_quantile=0.8))
    assert len(set(_kept_tweets(out))) == 5


def test_inactive_seeds_removed():
    events = _mk_events([2, 3])
    seeds = ["a0", "ghost1", "ghost2", "a0b", "a0c"]
    out = ingest.apply_filters(events, seeds, ingest.CorpusFilter())
    assert out.seeds == ["a0"]
    assert out.report["seeds_removed"] == 4


def test_three_of_five_seeds_kept():
    events = ingest.EventTable.from_rows((f"t{k}", f"a{k}", f"u{k}", 0b1000) for k in range(3))
    seeds = ["a0", "a1", "a2", "a3", "a4"]
    out = ingest.apply_filters(events, seeds, ingest.CorpusFilter())
    assert out.seeds == ["a0", "a1", "a2"]


def test_events_of_nonseed_authors_dropped():
    events = ingest.EventTable.from_rows(_mk_rows([2]) + [("tx", "stranger", "u9", 0b1000)])
    out = ingest.apply_filters(events, ["a0"],
                               ingest.CorpusFilter(trim_quantile=1.0))
    assert out.events and all(a == "a0" for _t, a, _j, _p in event_rows(out.events))


def test_all_tweets_trimmed_errors():
    events = _mk_events([1])
    with pytest.raises(DataError, match="trim"):
        ingest.apply_filters(events, None, ingest.CorpusFilter(trim_quantile=0.4))


def test_filter_idempotent_on_tie_heavy_corpus(rng):
    """Realistic skewed counts: re-filtering the kept corpus is a no-op.

    Rank-based trimming with a strictly increasing count distribution is not
    idempotent in general (the cutoff value keeps sliding down); on corpora
    whose counts tie heavily at the low end, which is what engagement data
    looks like, the cutoff is stable and f(f(x)) == f(x).
    """
    counts = [int(c) for c in rng.geometric(0.6, size=200)]  # mostly 1s and 2s
    events = _mk_events(counts)
    f = ingest.CorpusFilter(trim_quantile=0.9)
    once = ingest.apply_filters(events, None, f)
    twice = ingest.apply_filters(once.events, once.seeds, f)
    assert _kept_tweets(twice) == _kept_tweets(once)
    assert twice.seeds == once.seeds


def test_seed_filter_idempotent():
    events = _mk_events([2, 3])
    f = ingest.CorpusFilter(trim_quantile=1.0)
    once = ingest.apply_filters(events, ["a0", "ghost"], f)
    twice = ingest.apply_filters(once.events, once.seeds, f)
    assert twice.seeds == once.seeds
    assert len(twice.events) == len(once.events)


def test_synthetic_corpus_deterministic():
    a = ingest.synthetic_corpus(np.random.default_rng(5), n_events=100)
    b = ingest.synthetic_corpus(np.random.default_rng(5), n_events=100)
    assert event_rows(a) == event_rows(b)


# ---------------------------------------------------------------------------
# parity of the columnar parse and oracle build with a row-at-a-time reference

# small pools so that pairs repeat (often with another author) and users
# engage with themselves; ids include JSON numbers and non-ASCII text
TWEET_IDS = ["t1", "t10", "t9", "tš", "推", 7, "7"]
USER_IDS = ["u1", "u2", "ü", "用户", 3, "3", "u10"]
TYPES = ["like", "retweet", "reply", "quote", " like ", "", "boost"]

row_values = st.fixed_dictionaries(
    {"tweet_id": st.sampled_from(TWEET_IDS), "author": st.sampled_from(USER_IDS),
     "interactor": st.sampled_from(USER_IDS),
     "types": st.one_of(st.lists(st.sampled_from(TYPES), max_size=3),
                        st.lists(st.sampled_from(TYPES), max_size=3).map("|".join))})
# a field may be missing, or hold a value of the wrong type
jsonl_rows = st.one_of(
    row_values.map(json.dumps),
    row_values.map(lambda row: json.dumps(row, ensure_ascii=False)),
    st.tuples(row_values, st.sampled_from(["author", "types"]),
              st.sampled_from([None, 5, [["like"]], {"like": 1}, ""])).map(
        lambda r: json.dumps({**r[0], r[1]: r[2]})),
    # blank, not JSON, JSON but not an object, halves of one object
    st.sampled_from(["", "   ", "{not json", "[1, 2]", "5", '"text"', "{", "}",
                     '{"tweet_id": "t1",', '"author": "u1"}', '{"a": 1} {"b": 2}']))


def _compare_with_reference(path, fmt, cap):
    try:
        expected = reference_parse_events(path, fmt, cap)
    except DataError:
        with pytest.raises(DataError, match="malformed"):
            ingest.parse_events_with_report(path, fmt, cap)
        return
    table, report = ingest.parse_events_with_report(path, fmt, cap)
    ref_events, ref_report = expected
    assert event_rows(table) == ref_events
    assert len(table) == len(ref_events)
    assert report == ref_report
    _compare_oracles(table, ref_events)


def _compare_oracles(events, ref_events):
    oracle = GraphOracle.from_events(events)
    externals, in_adj = reference_in_adjacency(ref_events)
    assert [oracle.ids.external(v) for v in range(len(oracle.ids))] == externals
    everyone = oracle.declare_seeds(externals)
    assert {v: oracle.in_neighbors(v) for v in everyone} == \
        {v: in_adj.get(v, ()) for v in everyone}


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(jsonl_rows, min_size=10, max_size=40),
       cap=st.sampled_from([0.01, 1.0, 1.0]))
def test_jsonl_parse_and_oracle_match_row_at_a_time_reference(lines, cap):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        path.write_bytes("\n".join(lines).encode())
        _compare_with_reference(path, "jsonl", cap)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.one_of(
    row_values.map(lambda r: [str(r["tweet_id"]), str(r["author"]),
                              str(r["interactor"]),
                              r["types"] if isinstance(r["types"], str)
                              else "|".join(r["types"])]),
    st.lists(st.sampled_from(["t1", "u1", "like"]), max_size=3)), min_size=10, max_size=40),
    cap=st.sampled_from([0.01, 1.0, 1.0]))
def test_csv_parse_and_oracle_match_row_at_a_time_reference(rows, cap):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tweet_id", "author", "interactor", "types"])
    writer.writerows(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        path.write_bytes(buf.getvalue().encode())
        _compare_with_reference(path, "csv", cap)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(TWEET_IDS), st.sampled_from(USER_IDS),
                               st.sampled_from(USER_IDS), st.integers(1, 15)), max_size=30))
def test_oracle_from_unparsed_events_matches_reference(rows):
    # not deduplicated: a pair may repeat, even on one tweet, and user ids keep their type
    _compare_oracles(ingest.EventTable.from_rows(rows), rows)


# one id pool per corpus, string ids as a parse makes them or int ids as a caller may
# pass them; pairs repeat unmerged, and seeds repeat or name a user who authored nothing
ID_POOLS = ((["t1", "t10", "t9", "tš", "7"], ["u1", "u2", "ü", "用户", "3", "u10"]),
            ([1, 10, 9, 7], [3, 1, 10, 2, 0, 7]))


def _filter_case(pool):
    tweets, users = pool
    events = st.lists(st.tuples(st.sampled_from(tweets), st.sampled_from(users),
                                st.sampled_from(users), st.integers(1, 15)), max_size=40)
    seeds = st.none() | st.lists(st.sampled_from([*users, "ghost"]), max_size=8)
    return st.tuples(events, seeds)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(ID_POOLS).flatmap(_filter_case),
       trim=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 1.0]))
def test_filters_match_event_at_a_time_reference(case, trim):
    events, seeds = case
    f = ingest.CorpusFilter(trim_quantile=trim)
    table = ingest.EventTable.from_rows(events)
    try:
        ref_events, ref_seeds, ref_report = reference_apply_filters(events, seeds, f)
    except DataError:
        with pytest.raises(DataError, match="trim removed every tweet"):
            ingest.apply_filters(table, seeds, f)
        return
    out = ingest.apply_filters(table, seeds, f)
    assert isinstance(out.events, ingest.EventTable)
    assert out.events.users is table.users
    # the table keeps tweet ids as strings, as GraphOracle.from_events does
    assert event_rows(out.events) == [(str(t), a, j, p) for t, a, j, p in ref_events]
    assert out.seeds == ref_seeds
    assert out.report == ref_report
    assert all(v is None or type(v) is int for v in out.report.values())
