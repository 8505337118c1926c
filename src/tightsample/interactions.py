"""Engagement-pattern algebra and the frequency-to-weight calibration pipeline.

An interaction pattern is the presence/absence bit vector of the engagement
types (like, retweet, reply, quote) one user showed toward one tweet. The
calibration pipeline counts patterns under a scheme, normalizes frequencies
three ways (globally, per source, per target), balances the three views by
least squares, and inverts the balanced frequencies into importance weights.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .util import ConfigError, DataError, read_csv, round_half_up, write_csv

TYPES = ("like", "retweet", "reply", "quote")

# Bit layout renders patterns as (like, retweet, reply, quote), so
# "retweet and quote" prints as 0101.
_TYPE_BIT = {"like": 0b1000, "retweet": 0b0100, "reply": 0b0010, "quote": 0b0001}

_AF_LIKE, _AF_REPLY, _AF_RTQ = 0b100, 0b010, 0b001

#: Pseudo-pattern for edges of unlabeled graphs; every weight table maps it to 1.
PLAIN_EDGE = 0

FULL_PATTERNS = tuple(range(1, 16))
AF_PATTERNS = tuple(range(1, 8))


class Scheme(enum.Enum):
    """Pattern-counting scheme.

    DISTINCT attributes an event to exactly its observed pattern; NESTED to
    every bitwise sub-pattern of it; AF first merges retweet and quote into
    one audience-facing type (3-bit patterns) and then counts nested.
    AF_DISTINCT is the exact-pattern variant on the collapsed space.
    """

    DISTINCT = "distinct"
    NESTED = "nested"
    AF = "af"
    AF_DISTINCT = "af-distinct"

    @property
    def collapsed(self) -> bool:
        return self in (Scheme.AF, Scheme.AF_DISTINCT)

    @property
    def width(self) -> int:
        return 3 if self.collapsed else 4

    @classmethod
    def parse(cls, tag: str) -> "Scheme":
        normalized = tag.strip().lower().replace("_", "-")
        for scheme in cls:
            if scheme.value == normalized:
                return scheme
        raise ConfigError(f"unknown counting scheme {tag!r}; "
                          f"expected one of {[s.value for s in cls]}")


def pattern_of(events) -> int:
    """Bit pattern of an event set for one (tweet, interactor) pair.

    Duplicate instances of a type collapse to one bit; only presence counts.
    """
    bits = 0
    for ev in events:
        try:
            bits |= _TYPE_BIT[ev]
        except KeyError:
            raise DataError(f"unknown interaction type {ev!r}") from None
    if not bits:   # every type sets a bit
        raise DataError("no engagement: empty event set has no pattern")
    return bits


def pattern_types(pattern: int) -> list[str]:
    """The type names of a 4-bit pattern, in :data:`TYPES` order."""
    return [t for t in TYPES if pattern & _TYPE_BIT[t]]


def pattern_str(pattern: int, width: int = 4) -> str:
    return format(pattern, f"0{width}b")


def parse_pattern(text: str) -> int:
    text = text.strip()
    if len(text) not in (3, 4) or set(text) - {"0", "1"}:
        raise DataError(f"malformed pattern {text!r}")
    value = int(text, 2)
    if value == 0:
        raise DataError("pattern 0 is unrepresentable (no engagement)")
    return value


def collapse_af(pattern: int) -> int:
    """Collapse a 4-bit pattern to 3 bits: (like, reply, retweet-or-quote)."""
    like, retweet, reply, quote = (bool(pattern & _TYPE_BIT[t]) for t in TYPES)
    return like * _AF_LIKE | reply * _AF_REPLY | (retweet or quote) * _AF_RTQ


def subpatterns(pattern: int):
    """All non-zero bitwise subsets of ``pattern``, ascending."""
    return [s for s in range(1, pattern + 1) if s & pattern == s]


@dataclass
class PatternCounts:
    """Global, per-source and per-target pattern counts for one corpus.

    ``by_source`` and ``by_target`` are node x 16 int arrays indexed by
    pattern, nodes in order of first appearance. ``raw_events`` and the
    ``raw_by_*`` denominators count each (tweet, interactor) event exactly
    once regardless of scheme; only the numerators depend on the scheme.
    """

    scheme: Scheme
    global_: dict[int, int]
    by_source: np.ndarray
    by_target: np.ndarray
    raw_events: int
    raw_by_source: np.ndarray
    raw_by_target: np.ndarray


def _scheme_matrix(scheme: Scheme) -> np.ndarray:
    """16 x 16 0/1 matrix: row p marks the patterns an event of pattern p counts toward."""
    matrix = np.zeros((16, 16), dtype=np.int64)
    for p in FULL_PATTERNS:
        x = collapse_af(p) if scheme.collapsed else p
        matrix[p, [x] if scheme in (Scheme.DISTINCT, Scheme.AF_DISTINCT) else subpatterns(x)] = 1
    return matrix


def _node_counts(codes: np.ndarray, patterns: np.ndarray, matrix: np.ndarray):
    """Scheme counts (node x 16) and event counts per node, nodes in first-seen order."""
    _distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    raw = np.bincount(rank[inverse] * 16 + patterns,
                      minlength=len(first) * 16).reshape(-1, 16)
    return raw @ matrix, raw.sum(axis=1)   # int64 throughout, so exact


def count_events(events, scheme: Scheme) -> PatternCounts:
    """Count events under a scheme from their ``author``, ``interactor`` and ``pattern``.

    ``events`` holds the three as int64 columns, users as codes (an
    :class:`~tightsample.ingest.EventTable`). Events must already be
    deduplicated per (tweet, interactor); each row is one raw event.
    """
    patterns = events.pattern
    bad = patterns[(patterns < 1) | (patterns > 15)]
    if len(bad):
        raise DataError(f"pattern {bad[0]} is outside 1-15")
    matrix = _scheme_matrix(scheme)
    by_source, raw_by_source = _node_counts(events.author, patterns, matrix)
    by_target, raw_by_target = _node_counts(events.interactor, patterns, matrix)
    global_ = {x: n for x, n in enumerate(by_source.sum(axis=0).tolist()) if n}
    return PatternCounts(scheme, global_, by_source, by_target, len(patterns),
                         raw_by_source, raw_by_target)


@dataclass
class FrequencyTable:
    """Relative pattern frequencies in percent units."""

    scheme: Scheme
    kind: str  # "global" | "source" | "target" | "balanced"
    values: dict[int, float]

    def get(self, pattern: int, default: float = 0.0) -> float:
        return self.values.get(pattern, default)


def normalize_global(counts: PatternCounts) -> FrequencyTable:
    """Overall frequency of each pattern, in percent of raw events."""
    if counts.raw_events == 0:
        raise DataError("empty corpus")
    values = {x: 100.0 * n / counts.raw_events for x, n in counts.global_.items()}
    return FrequencyTable(counts.scheme, "global", values)


def _mean_shares(scheme: Scheme, kind: str, per_node: np.ndarray,
                 denominators: np.ndarray) -> FrequencyTable:
    """Per-node pattern shares averaged over the nodes of ``per_node``."""
    if not len(per_node):
        raise DataError(f"empty corpus: no engaged {kind}s")
    # summed node by node in first-appearance order, not pairwise as np.sum would
    sums = np.cumsum(per_node / denominators[:, None], axis=0)[-1].tolist()
    observed = np.flatnonzero(per_node.any(axis=0)).tolist()
    n_nodes = len(per_node)
    return FrequencyTable(scheme, kind, {x: 100.0 * sums[x] / n_nodes for x in observed})


def normalize_source(counts: PatternCounts) -> FrequencyTable:
    """Average per-author engagement shares (sources of information).

    Authors with zero received engagement never appear in the counts, so the
    average runs over engaged sources only.
    """
    return _mean_shares(counts.scheme, "source", counts.by_source, counts.raw_by_source)


def normalize_target(counts: PatternCounts) -> FrequencyTable:
    """Average per-interactor engagement shares (consumers of information)."""
    return _mean_shares(counts.scheme, "target", counts.by_target, counts.raw_by_target)


def balance(global_t: FrequencyTable, source_t: FrequencyTable,
            target_t: FrequencyTable) -> FrequencyTable:
    """Least-squares compromise of the three normalizations.

    The sum of squared errors against the three tables is minimized by the
    per-pattern mean, which is non-negative whenever the inputs are.
    Patterns absent from all three inputs are excluded from the domain.
    """
    if not (global_t.scheme == source_t.scheme == target_t.scheme):
        raise ConfigError("cannot balance tables with mismatched schemes")
    support = set(global_t.values) | set(source_t.values) | set(target_t.values)
    values = {x: (global_t.get(x) + source_t.get(x) + target_t.get(x)) / 3.0
              for x in support}
    return FrequencyTable(global_t.scheme, "balanced", values)


class WeightTable:
    """Importance weights per pattern: omega = 1/eta_star (percent units).

    ``omega_star`` is omega rounded half-away-from-zero to two decimals and is
    what samplers use as the per-event edge weight. The pseudo-pattern
    ``PLAIN_EDGE`` always weighs 1. Patterns outside the calibrated domain
    fall back to the largest calibrated weight, with a one-time warning.
    """

    def __init__(self, scheme: Scheme, omega: dict[int, float],
                 omega_star: dict[int, float] | None = None):
        self.scheme = scheme
        self.omega = dict(omega)
        if omega_star is None:
            omega_star = {x: round_half_up(w, 2) for x, w in self.omega.items()}
        self.omega_star = dict(omega_star)
        self._max_weight = max(self.omega_star.values()) if self.omega_star else 1.0
        self._warned: set[int] = set()

    def of(self, pattern: int) -> float:
        """Edge-event weight for a raw 4-bit event pattern.

        Tables over the collapsed audience-facing space fold the pattern
        into 3 bits before lookup. Uses the rounded omega_star column.
        """
        if pattern == PLAIN_EDGE:
            return 1.0
        if self.scheme.collapsed:
            pattern = collapse_af(pattern)
        w = self.omega_star.get(pattern)
        if w is None:
            if pattern not in self._warned:
                warnings.warn(
                    f"pattern {pattern_str(pattern, self.scheme.width)} was never "
                    f"calibrated; using the largest calibrated weight "
                    f"{self._max_weight}", stacklevel=2)
                self._warned.add(pattern)
            return self._max_weight
        return w

    def event_weight(self, patterns) -> float:
        """Total weight of one edge's event patterns, summed in the order given."""
        return sum(map(self.of, patterns))

    def scaled(self, c: float) -> "WeightTable":
        """A copy with every weight multiplied by ``c`` (scale-invariance runs)."""
        return WeightTable(self.scheme,
                           {x: w * c for x, w in self.omega.items()},
                           {x: w * c for x, w in self.omega_star.items()})


class UnitWeights:
    """Weight table assigning the same weight (default 1) to every pattern."""

    def __init__(self, value: float = 1.0):
        self.value = value

    def of(self, pattern: int) -> float:
        return self.value

    def event_weight(self, patterns) -> float:
        return self.value * len(patterns)

    def scaled(self, c: float) -> "UnitWeights":
        return UnitWeights(self.value * c)


def weights_from(balanced: FrequencyTable) -> WeightTable:
    """Invert balanced frequencies into a weight table."""
    omega: dict[int, float] = {}
    for x, eta in balanced.values.items():
        if eta <= 0.0:
            raise DataError(
                f"unobserved pattern {pattern_str(x, balanced.scheme.width)}; "
                f"exclude it or supply a prior frequency")
        omega[x] = 1.0 / eta
    return WeightTable(balanced.scheme, omega)


@dataclass
class Calibration:
    """The full output of one calibration run over one corpus and scheme."""

    scheme: Scheme
    eta_global: FrequencyTable
    eta_source: FrequencyTable
    eta_target: FrequencyTable
    eta_star: FrequencyTable
    weights: WeightTable


def calibrate_records(events, scheme: Scheme) -> Calibration:
    """``scheme``'s calibration over deduplicated events, as :func:`count_events` reads them."""
    counts = count_events(events, scheme)
    g = normalize_global(counts)
    s = normalize_source(counts)
    t = normalize_target(counts)
    star = balance(g, s, t)
    return Calibration(scheme, g, s, t, star, weights_from(star))


# ---------------------------------------------------------------------------
# weight-table files


WEIGHT_CSV_HEADER = ["scheme", "pattern", "eta_global", "eta_source",
                     "eta_target", "eta_star", "omega", "omega_star"]


def write_weight_csv(path, calibrations) -> None:
    """Write one or more calibrations to the standard weight-table CSV."""
    if isinstance(calibrations, Calibration):
        calibrations = [calibrations]
    write_csv(path, WEIGHT_CSV_HEADER, (
        [cal.scheme.value, pattern_str(x, cal.scheme.width),
         f"{cal.eta_global.get(x):.6g}", f"{cal.eta_source.get(x):.6g}",
         f"{cal.eta_target.get(x):.6g}", f"{cal.eta_star.get(x):.6g}",
         f"{cal.weights.omega[x]:.6g}", f"{cal.weights.omega_star[x]:.6g}"]
        for cal in calibrations for x in sorted(cal.eta_star.values)))


def read_weight_csv(path) -> dict[str, Calibration]:
    """Read a weight-table CSV; returns one Calibration per scheme section.

    Loaded omega_star values are authoritative: no re-rounding is applied, so
    hand-curated tables survive a round trip unchanged.
    """
    rows = read_csv(path, "weight table")
    _lineno, header = next(rows, (0, None))
    if header != WEIGHT_CSV_HEADER:
        raise DataError(f"{path}: unexpected weight-table header {header!r}")
    sections: dict[str, dict[str, dict[int, float]]] = {}
    for lineno, row in rows:
        if len(row) != len(WEIGHT_CSV_HEADER):
            raise DataError(f"{path}:{lineno}: expected {len(WEIGHT_CSV_HEADER)} fields")
        cols = sections.setdefault(row[0], {name: {} for name in WEIGHT_CSV_HEADER[2:]})
        try:
            Scheme.parse(row[0])   # an unknown tag is a ConfigError, a ValueError too
            x = parse_pattern(row[1])
            for name, cell in zip(WEIGHT_CSV_HEADER[2:], row[2:]):
                value = float(cell)
                if not 0.0 <= value < math.inf:   # false for NaN too
                    raise DataError(f"{name} must be a finite number >= 0, got {cell!r}")
                cols[name][x] = value
        except ValueError as exc:  # DataError is a ValueError too
            raise DataError(f"{path}:{lineno}: {exc}") from None

    out: dict[str, Calibration] = {}
    for tag, cols in sections.items():
        scheme = Scheme.parse(tag)
        star = FrequencyTable(scheme, "balanced", cols["eta_star"])
        wt = WeightTable(scheme, cols["omega"], cols["omega_star"])
        out[tag] = Calibration(
            scheme,
            FrequencyTable(scheme, "global", cols["eta_global"]),
            FrequencyTable(scheme, "source", cols["eta_source"]),
            FrequencyTable(scheme, "target", cols["eta_target"]),
            star, wt)
    return out


def load_reference_tables() -> dict[str, Calibration]:
    """The calibrated weight tables shipped with the package.

    Calibrated on a large Twitter engagement corpus; carries distinct,
    nested, and audience-facing sections. Printed values are authoritative
    even where re-derivation from the frequency columns differs slightly.
    """
    ref = resources.files("tightsample.data").joinpath("calibrated_weights.csv")
    with resources.as_file(ref) as path:
        return read_weight_csv(path)
