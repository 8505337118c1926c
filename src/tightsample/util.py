"""Shared helpers: error types, input readers, the CSV writer, rounding, run
starts of a sorted array, first-appearance numbering, an O(1)-pick set."""

from __future__ import annotations

import csv
from decimal import ROUND_HALF_UP, Decimal

import numpy as np


class ConfigError(ValueError):
    """Invalid user-supplied configuration. Maps to CLI exit code 2."""


class DataError(ValueError):
    """Unreadable or inconsistent input data. Maps to CLI exit code 3."""


def read_lines(path, what: str):
    """Yield ``(line number, line)`` for each line of ``path``, ending kept.

    Each line is decoded as UTF-8 on its own, so a bad byte is reported with
    its line. An unreadable file (named ``what`` in the message) or a line that
    is not UTF-8 raises :class:`DataError`.
    """
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    yield lineno, raw.decode()
                except UnicodeDecodeError:
                    raise DataError(f"{path}:{lineno}: not valid UTF-8") from None
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc


def read_csv(path, what: str):
    """Yield ``(line number, row)`` for each non-blank CSV record of ``path``.

    The line number is that of the record's last line. Errors are those of
    :func:`read_lines`, plus a :class:`DataError` with ``path:line`` for a
    record the csv module rejects.
    """
    reader = csv.reader(line for _lineno, line in read_lines(path, what))
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def write_csv(path, header, rows) -> None:
    """Write ``header``, then each of ``rows``, as CSV records; floats are written as repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def round_half_up(x: float, ndigits: int = 2) -> float:
    """Round half away from zero; builtin round() is banker's rounding."""
    q = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """The mask of the positions of the sorted 1-D ``ordered`` where a run of equal
    values begins: the first position, if any, and each that differs from the last."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def id_dtype(count: int):
    """int32 if it holds the ids 0..count-1 exactly, else int64."""
    return np.int32 if count <= 2**31 else np.int64


def first_seen(values, dtype=np.int64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number ``values`` in order of first appearance, row-major for a 2-D array.

    Returns ``(numbers, distinct, first)``: each value's number in ``dtype``
    (``id_dtype(values.size)`` holds them all), shaped like ``values``; the distinct
    values in order of first appearance, so ``distinct[numbers] == values``; and
    each one's first index into the flattened ``values``, ascending.
    """
    values = np.asarray(values)
    flat = values.reshape(-1)
    order = np.argsort(flat, kind="stable")   # equal values keep their index order
    ordered = flat[order]
    starts = run_starts(ordered)
    distinct, first = ordered[starts], order[starts]
    del ordered
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=dtype)
    rank[by_first] = np.arange(len(first))
    run_lengths = np.diff(np.flatnonzero(np.append(starts, True)))
    del starts
    numbers = np.empty(len(flat), dtype=dtype)
    numbers[order] = np.repeat(rank, run_lengths)   # from sorted back to input order
    return numbers.reshape(values.shape), distinct[by_first], first[by_first]


class IndexedSet:
    """Set of hashables with O(1) add/discard and O(1) uniform random pick.

    Backed by a list plus a position map (swap-remove on discard). Iteration
    order depends on the mutation history but is deterministic for a fixed
    sequence of operations, which is all the samplers need.
    """

    __slots__ = ("_items", "_pos")

    def __init__(self, items=()):
        self._items: list = []
        self._pos: dict = {}
        for item in items:
            self.add(item)

    def add(self, item) -> None:
        if item not in self._pos:
            self._pos[item] = len(self._items)
            self._items.append(item)

    def discard(self, item) -> None:
        """Remove ``item``, a member: the last slot's item moves into its slot."""
        pos = self._pos.pop(item)
        last = self._items.pop()
        if last != item:
            self._items[pos] = last
            self._pos[last] = pos

    def pick(self, rng):
        """Uniform random element of a non-empty set; ``rng`` is a numpy Generator."""
        return self._items[int(rng.integers(len(self._items)))]

    def index(self, item) -> int:
        """The slot of ``item`` in :meth:`items`; KeyError if absent."""
        return self._pos[item]

    def items(self) -> list:
        """The backing list (do not mutate)."""
        return self._items

    def __iter__(self):
        return iter(self._items)
