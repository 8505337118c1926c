"""Consistency checks on the shipped calibrated weight tables.

The shipped file is authoritative as printed. Re-derivation from its own
frequency columns reproduces it everywhere except two rows of the distinct
section, which are provably misprinted in the source (see the dedicated
tests below); the acceptance suite tracks those two rows as expected
failures.
"""

import pytest

from tightsample import interactions as ia
from tightsample.ingest import EventTable
from tightsample.util import round_half_up


@pytest.fixture(scope="module")
def tables():
    return ia.load_reference_tables()


def test_sections_present(tables):
    assert set(tables) == {"distinct", "nested", "af"}
    assert len(tables["distinct"].eta_star.values) == 15
    assert len(tables["nested"].eta_star.values) == 15
    # the af section prints six rows; pattern 011 is absent from the source
    assert len(tables["af"].eta_star.values) == 6
    assert 0b011 not in tables["af"].eta_star.values


def test_distinct_global_column_sums_to_100(tables):
    total = sum(tables["distinct"].eta_global.values.values())
    assert total == pytest.approx(100.0, abs=0.5)


def test_nested_and_af_sections_rebalance_exactly(tables):
    for tag in ("nested", "af"):
        cal = tables[tag]
        rebal = ia.balance(cal.eta_global, cal.eta_source, cal.eta_target)
        for x, printed in cal.eta_star.values.items():
            assert rebal.values[x] == pytest.approx(printed, abs=5e-4), tag
            assert 1.0 / rebal.values[x] == pytest.approx(
                cal.weights.omega[x], rel=0.01), tag


def test_distinct_section_rebalances_except_misprints(tables):
    cal = tables["distinct"]
    rebal = ia.balance(cal.eta_global, cal.eta_source, cal.eta_target)
    for x, printed in cal.eta_star.values.items():
        if x in (0b0011, 0b1000):
            continue
        assert abs(rebal.values[x] - printed) <= 5e-4
        assert abs(1.0 / rebal.values[x] - cal.weights.omega[x]) \
            <= 0.01 * cal.weights.omega[x]


def test_misprinted_0011_row_is_internally_inconsistent(tables):
    """The printed eta* and omega of distinct 0011 contradict each other."""
    cal = tables["distinct"]
    eta_star = cal.eta_star.values[0b0011]    # printed 0.0047
    omega = cal.weights.omega[0b0011]         # printed 22.392
    assert abs(1.0 / eta_star - omega) / omega > 5  # off by ~10x, not rounding


def test_corrected_0011_value_restores_consistency(tables):
    """Three independent checks converge on eta_global(0011) = 0.0328.

    With that correction the balanced value matches the printed omega to
    display precision, the distinct global column sums to 100, and the
    nested(0011) entry equals its superset sum.
    """
    cal = tables["distinct"]
    corrected = 0.0328
    source = cal.eta_source.values[0b0011]
    target = cal.eta_target.values[0b0011]
    star = (corrected + source + target) / 3.0
    assert 1.0 / star == pytest.approx(cal.weights.omega[0b0011], rel=1e-3)

    column = dict(cal.eta_global.values)
    column[0b0011] = corrected
    assert sum(column.values()) == pytest.approx(100.0, abs=1e-3)

    nested_0011 = sum(column[x] for x in column if x & 0b0011 == 0b0011)
    assert nested_0011 == pytest.approx(
        tables["nested"].eta_global.values[0b0011], abs=1e-3)


def test_misprinted_1000_eta_star_last_digit(tables):
    """Distinct 1000 prints eta* 72.1440; the column mean is 72.1447.

    The printed omega agrees with the mean (1/72.1447 = 0.01386 -> 0.0139),
    so only the eta* cell's last digit is off.
    """
    cal = tables["distinct"]
    mean = (cal.eta_global.values[0b1000] + cal.eta_source.values[0b1000]
            + cal.eta_target.values[0b1000]) / 3.0
    assert mean == pytest.approx(72.14467, abs=1e-4)
    assert abs(mean - cal.eta_star.values[0b1000]) > 5e-4
    assert 1.0 / mean == pytest.approx(cal.weights.omega[0b1000], rel=0.01)


def test_nested_columns_equal_distinct_superset_sums(tables):
    """Column-wise superset identity, using the corrected 0011 cell."""
    distinct = dict(tables["distinct"].eta_global.values)
    distinct[0b0011] = 0.0328
    nested = tables["nested"].eta_global.values
    for x in ia.FULL_PATTERNS:
        total = sum(v for p, v in distinct.items() if p & x == x)
        assert total == pytest.approx(nested[x], abs=0.01), ia.pattern_str(x)


def test_af_100_equals_nested_1000(tables):
    assert tables["af"].eta_global.values[0b100] == \
        tables["nested"].eta_global.values[0b1000]


def test_af_010_matches_nested_reply(tables):
    assert tables["af"].eta_global.values[0b010] == pytest.approx(
        tables["nested"].eta_global.values[0b0010], abs=1e-3)


def test_af_001_derivable_within_one_percent(tables):
    """af(001) differs slightly from the distinct-column derivation.

    Derived from the printed distinct column (including its misprint) the
    value lands within 1% of the printed 19.091; the printed snapshot of the
    corpus evidently differed a little.
    """
    distinct = tables["distinct"].eta_global.values
    rtq = 0b0101  # retweet or quote bits
    derived = sum(v for p, v in distinct.items() if p & rtq)
    printed = tables["af"].eta_global.values[0b001]
    assert derived == pytest.approx(printed, rel=0.01)


def test_seventh_af_pattern_computable_from_any_corpus(rng):
    """Calibration over the collapsed space yields all seven patterns."""
    patterns = [int(p) for p in rng.integers(1, 16, size=2000)]
    events = EventTable.from_rows((f"t{i}", f"a{i % 6}", f"u{i % 50}", p)
                                  for i, p in enumerate(patterns))
    cal = ia.calibrate_records(events, ia.Scheme.AF)
    assert set(cal.eta_star.values) == set(ia.AF_PATTERNS)


def test_printed_omega_star_matches_a_display_rounding(tables):
    """Printed omega* is a 1-, 2-, or 3-decimal rounding or truncation of omega.

    The source keeps one decimal for a few large or mid-range values
    (e.g. 360.1, 3.6), three for the smallest (0.014), and truncates at
    least one cell (0.0955 -> 0.095); loaded tables win over re-derivation.
    """
    for cal in tables.values():
        for x, omega in cal.weights.omega.items():
            printed = cal.weights.omega_star[x]
            candidates = {round_half_up(omega, nd) for nd in (1, 2, 3)}
            candidates |= {int(omega * 10 ** nd) / 10 ** nd for nd in (1, 2, 3)}
            assert printed in candidates, \
                (cal.scheme, ia.pattern_str(x, cal.scheme.width), omega, printed)
