import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import brute_nested_counts, brute_sse
from tightsample import interactions as ia
from tightsample.util import ConfigError, DataError


# ---------------------------------------------------------------------------
# pattern algebra


def test_pattern_of_retweet_quote():
    assert ia.pattern_str(ia.pattern_of({"retweet", "quote"})) == "0101"


def test_pattern_of_collapses_duplicates():
    assert ia.pattern_str(ia.pattern_of(["like", "like", "like"])) == "1000"


def test_pattern_of_all_types():
    assert ia.pattern_str(ia.pattern_of(ia.TYPES)) == "1111"


def test_pattern_of_rejects_empty_and_unknown():
    with pytest.raises(DataError, match="no engagement"):
        ia.pattern_of([])
    with pytest.raises(DataError):
        ia.pattern_of(["boost"])


@given(st.sets(st.sampled_from(ia.TYPES), min_size=1))
def test_pattern_bits_match_membership(types):
    text = ia.pattern_str(ia.pattern_of(types))
    expected = "".join("1" if t in types else "0"
                       for t in ("like", "retweet", "reply", "quote"))
    assert text == expected


def test_collapse_af_examples():
    assert ia.pattern_str(ia.collapse_af(ia.parse_pattern("1000")), 3) == "100"
    assert ia.pattern_str(ia.collapse_af(ia.parse_pattern("0101")), 3) == "001"
    assert ia.pattern_str(ia.collapse_af(ia.parse_pattern("0010")), 3) == "010"


def test_af_space_has_seven_patterns():
    collapsed = {ia.collapse_af(p) for p in ia.FULL_PATTERNS}
    assert collapsed == set(ia.AF_PATTERNS)
    assert len(collapsed) == 7


def test_subpatterns():
    assert ia.subpatterns(0b1100) == [0b0100, 0b1000, 0b1100]
    assert ia.subpatterns(0b0001) == [0b0001]


# ---------------------------------------------------------------------------
# counting


def _count(records, scheme):
    return ia.count_events(records, scheme)


def test_distinct_counts_exact_pattern():
    counts = _count([("a", "u", 0b1100)], ia.Scheme.DISTINCT)
    assert counts.global_ == {0b1100: 1}
    assert counts.raw_events == 1


def test_nested_counts_all_subsets():
    counts = _count([("a", "u", 0b1100)], ia.Scheme.NESTED)
    assert counts.global_ == {0b1000: 1, 0b0100: 1, 0b1100: 1}
    assert counts.raw_events == 1


def test_af_counts_collapse_then_nest():
    # like+retweet collapses to 101 (like, no reply, rtq); nested subsets
    counts = _count([("a", "u", 0b1100)], ia.Scheme.AF)
    assert counts.global_ == {0b100: 1, 0b001: 1, 0b101: 1}


def test_af_distinct_counts_exact_collapsed():
    counts = _count([("a", "u", 0b1100)], ia.Scheme.AF_DISTINCT)
    assert counts.global_ == {0b101: 1}


@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_nested_equals_superset_sums(patterns):
    records = [("a", f"u{i}", p) for i, p in enumerate(patterns)]
    counts = _count(records, ia.Scheme.NESTED)
    assert dict(counts.global_) == brute_nested_counts(patterns)


@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=100))
@settings(max_examples=30, deadline=None)
def test_nested_1111_equals_distinct_1111(patterns):
    records = [("a", f"u{i}", p) for i, p in enumerate(patterns)]
    nested = _count(records, ia.Scheme.NESTED).global_
    distinct = _count(records, ia.Scheme.DISTINCT).global_
    assert nested.get(0b1111, 0) == distinct.get(0b1111, 0)


# ---------------------------------------------------------------------------
# normalization


def test_global_degenerate_distribution():
    t = ia.normalize_global(_count([("a", "u", 8), ("a", "v", 8)], ia.Scheme.DISTINCT))
    assert t.values == {8: 100.0}


def test_global_proportions():
    records = [("a", f"u{i}", 8) for i in range(3)] + [("a", "u9", 1)]
    t = ia.normalize_global(_count(records, ia.Scheme.DISTINCT))
    assert t.values == {8: 75.0, 1: 25.0}


def test_empty_corpus_errors():
    counts = _count([], ia.Scheme.DISTINCT)
    with pytest.raises(DataError, match="empty corpus"):
        ia.normalize_global(counts)


def test_source_single_author_collapses_to_global():
    records = [("a", "u", 8), ("a", "v", 8), ("a", "w", 2)]
    counts = _count(records, ia.Scheme.DISTINCT)
    source = ia.normalize_source(counts).values
    global_ = ia.normalize_global(counts).values
    assert source == pytest.approx(global_)


def test_source_averages_per_author_rows():
    # two authors with disjoint single-pattern engagement -> 50/50
    records = [("a", "u", 8), ("b", "v", 2)]
    t = ia.normalize_source(_count(records, ia.Scheme.DISTINCT))
    assert t.values == {8: 50.0, 2: 50.0}


def test_target_single_interactor_collapses_to_global():
    records = [("a", "u", 8), ("b", "u", 2)]
    counts = _count(records, ia.Scheme.DISTINCT)
    assert ia.normalize_target(counts).values == ia.normalize_global(counts).values


def test_target_averages_per_interactor_rows():
    records = [("a", "u", 8), ("a", "v", 2)]
    t = ia.normalize_target(_count(records, ia.Scheme.DISTINCT))
    assert t.values == {8: 50.0, 2: 50.0}


def test_distinct_global_sums_to_100(rng):
    patterns = [int(p) for p in rng.integers(1, 16, size=500)]
    records = [(f"a{i % 7}", f"u{i % 31}", p) for i, p in enumerate(patterns)]
    t = ia.normalize_global(_count(records, ia.Scheme.DISTINCT))
    assert sum(t.values.values()) == pytest.approx(100.0, abs=1e-9)


# ---------------------------------------------------------------------------
# balance + weights


def _table(scheme, values, kind="global"):
    return ia.FrequencyTable(scheme, kind, values)


def test_balance_reference_row():
    s = ia.Scheme.DISTINCT
    out = ia.balance(_table(s, {1: 2.2560}), _table(s, {1: 2.0575}),
                     _table(s, {1: 1.4276}))
    assert out.values[1] == pytest.approx(1.9137, abs=5e-5)


def test_balance_idempotent_on_agreement():
    s = ia.Scheme.DISTINCT
    out = ia.balance(_table(s, {3: 7.5}), _table(s, {3: 7.5}), _table(s, {3: 7.5}))
    assert out.values[3] == 7.5


def test_balance_rare_row():
    s = ia.Scheme.DISTINCT
    out = ia.balance(_table(s, {15: 0.0084}), _table(s, {15: 0.0169}),
                     _table(s, {15: 0.0207}))
    assert out.values[15] == pytest.approx(0.0153, abs=5e-5)


def test_balance_rejects_mismatched_schemes():
    with pytest.raises(ConfigError):
        ia.balance(_table(ia.Scheme.DISTINCT, {1: 1.0}),
                   _table(ia.Scheme.NESTED, {1: 1.0}),
                   _table(ia.Scheme.NESTED, {1: 1.0}))


@given(st.dictionaries(st.integers(1, 15),
                       st.floats(0.001, 100.0, allow_nan=False), min_size=1),
       st.integers(1, 15),
       st.floats(-5.0, 5.0).filter(lambda d: abs(d) > 1e-6))
@settings(max_examples=60, deadline=None)
def test_balance_is_the_sse_argmin(values, perturb_at, delta):
    s = ia.Scheme.DISTINCT
    g = _table(s, values)
    src = _table(s, {x: v * 1.1 for x, v in values.items()})
    tgt = _table(s, {x: v * 0.8 for x, v in values.items()})
    star = ia.balance(g, src, tgt)
    tables = [g.values, src.values, tgt.values]
    base = brute_sse(star.values, tables)
    nudged = dict(star.values)
    nudged[perturb_at] = nudged.get(perturb_at, 0.0) + delta
    assert brute_sse(nudged, tables) > base


def test_weights_reference_rows():
    s = ia.Scheme.DISTINCT
    wt = ia.weights_from(_table(s, {1: 1.9137}, kind="balanced"))
    assert wt.omega[1] == pytest.approx(0.5225, abs=5e-5)
    assert wt.omega_star[1] == 0.52


def test_weights_simple_reciprocal():
    wt = ia.weights_from(_table(ia.Scheme.DISTINCT, {8: 100.0}, kind="balanced"))
    assert wt.omega[8] == pytest.approx(0.01)


def test_weights_rare_pattern():
    wt = ia.weights_from(_table(ia.Scheme.DISTINCT, {15: 0.0153}, kind="balanced"))
    assert wt.omega[15] == pytest.approx(65.359, abs=1e-2)
    # the reference table prints 65.175 from the unrounded eta*; a 4-decimal
    # display rounding of eta* moves omega by up to ~0.33%
    assert wt.omega[15] == pytest.approx(65.175, rel=4e-3)


def test_weights_reject_zero_frequency():
    with pytest.raises(DataError, match="unobserved pattern"):
        ia.weights_from(_table(ia.Scheme.DISTINCT, {8: 0.0}, kind="balanced"))


def test_unknown_pattern_warns_and_uses_max_weight():
    wt = ia.WeightTable(ia.Scheme.DISTINCT, {8: 0.014, 1: 0.52})
    with pytest.warns(UserWarning, match="never"):
        assert wt.of(0b0010) == wt.omega_star[1]


def test_plain_edge_always_weighs_one():
    wt = ia.WeightTable(ia.Scheme.DISTINCT, {8: 0.014})
    assert wt.of(ia.PLAIN_EDGE) == 1.0
    assert ia.UnitWeights().of(ia.PLAIN_EDGE) == 1.0


def test_af_table_collapses_raw_event_patterns():
    # keys live in the 3-bit space; raw 4-bit event patterns must fold first
    records = [("a", f"u{i}", p) for i, p in enumerate(
        [0b1000, 0b1100, 0b0101, 0b0010, 0b1111, 0b0110] * 4)]
    cal = ia.calibrate_records(records, ia.Scheme.AF)
    wt = cal.weights
    assert wt.of(0b1100) == wt.omega_star[0b101]  # like+retweet -> like, rtq
    assert wt.of(0b0101) == wt.omega_star[0b001]  # retweet+quote -> rtq
    assert wt.of(0b1000) == wt.omega_star[0b100]  # like -> like
    assert wt.event_weight((0b1100, 0b1000)) == \
        pytest.approx(wt.omega_star[0b101] + wt.omega_star[0b100])


def test_omega_strictly_decreasing_in_eta(rng):
    values = {int(x): float(v) for x, v in
              zip(range(1, 16), rng.uniform(0.001, 80.0, size=15))}
    wt = ia.weights_from(_table(ia.Scheme.DISTINCT, values, kind="balanced"))
    ranked = sorted(values, key=values.get)
    for lo, hi in zip(ranked, ranked[1:]):
        if values[lo] < values[hi]:
            assert wt.omega[lo] > wt.omega[hi]
            assert wt.omega_star[lo] >= wt.omega_star[hi]


def test_corpus_duplication_leaves_tables_unchanged(rng):
    patterns = [int(p) for p in rng.integers(1, 16, size=60)]
    records = [(f"a{i % 5}", f"u{i % 17}", p) for i, p in enumerate(patterns)]
    for scheme in ia.Scheme:
        once = ia.calibrate_records(records, scheme)
        thrice = ia.calibrate_records(records * 3, scheme)
        assert once.eta_global.values == thrice.eta_global.values
        assert once.eta_source.values == thrice.eta_source.values
        assert once.eta_target.values == thrice.eta_target.values
        assert once.eta_star.values == thrice.eta_star.values
        assert once.weights.omega == thrice.weights.omega


# ---------------------------------------------------------------------------
# a corpus small enough to verify end to end by hand


HAND_CORPUS = [
    ("a1", "u1", 0b1000),  # t1 liked
    ("a1", "u2", 0b1100),  # t1 liked+retweeted
    ("a1", "u1", 0b1000),  # t2 liked
    ("a2", "u3", 0b0010),  # t3 replied
    ("a2", "u1", 0b1000),  # t3 liked
    ("a2", "u2", 0b0001),  # t4 quoted
]


def test_hand_corpus_distinct_pipeline():
    cal = ia.calibrate_records(HAND_CORPUS, ia.Scheme.DISTINCT)
    assert cal.eta_global.values[0b1000] == pytest.approx(50.0)
    assert cal.eta_source.values[0b1000] == pytest.approx(50.0)
    assert cal.eta_target.values[0b1000] == pytest.approx(100.0 / 3)
    assert cal.eta_star.values[0b1000] == pytest.approx(400.0 / 9)
    assert cal.weights.omega[0b1000] == pytest.approx(9.0 / 400.0)
    assert cal.weights.omega_star[0b1000] == 0.02
    # 0010: global 1/6, source (0 + 1/3)/2, target (0,0,1)/3
    assert cal.eta_star.values[0b0010] == pytest.approx(
        (100 / 6 + 100 / 6 + 100 / 3) / 3)


# ---------------------------------------------------------------------------
# CSV round trip


def test_weight_csv_round_trip(tmp_path, rng):
    patterns = [int(p) for p in rng.integers(1, 16, size=200)]
    records = [(f"a{i % 4}", f"u{i % 20}", p) for i, p in enumerate(patterns)]
    cal = ia.calibrate_records(records, ia.Scheme.NESTED)
    path = tmp_path / "weights.csv"
    ia.write_weight_csv(path, cal)
    loaded = ia.read_weight_csv(path)["nested"]
    for x, star in cal.eta_star.values.items():
        assert loaded.eta_star.values[x] == pytest.approx(star, rel=1e-4)
        assert loaded.weights.omega_star[x] == cal.weights.omega_star[x]


def test_scheme_parse():
    assert ia.Scheme.parse("AF_DISTINCT") is ia.Scheme.AF_DISTINCT
    with pytest.raises(ConfigError):
        ia.Scheme.parse("bogus")
