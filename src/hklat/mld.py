"""Log discrepancies and minimal log discrepancies over finite tables.

A table row records, for one divisor on a resolution, the multiplicity
k_E of the divisor in the relative canonical class, the multiplicity
d_E >= 0 of the divisor in the pulled-back boundary, and the label of
its center downstairs. The log discrepancy of the row is 1 + k_E - d_E.

Minimal log discrepancies computed here are minima over the rows
supplied, nothing more. The true quantity is an infimum over all
divisors over the variety; a finite table gives an upper bound unless
the caller asserts completeness, and that assertion is carried on the
table so reports can echo it.

The center poset is given by containment pairs [A, B] meaning A is
contained in B. The reflexive-transitive closure is taken
automatically; a cycle between distinct labels is rejected, and the
error names the first label on it in order of first appearance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    EmptyCenterError,
    InvalidPosetError,
    InvalidQueryError,
    UnknownLabelError,
)
from .lattice import _rational

NEG_INFINITY = float("-inf")


@dataclass(frozen=True)
class TableRow:
    label: str
    k: int | Fraction
    d: int | Fraction
    center: str


@dataclass(frozen=True)
class LogPairTable:
    """Finite resolution table plus the center poset.

    ``contains`` holds the closed relation as (inner, outer) pairs;
    (A, B) present means center A sits inside center B. ``complete`` is
    the caller's assertion that the rows realize the relevant infima.
    """

    rows: tuple[TableRow, ...]
    labels: tuple[str, ...]
    contains: frozenset[tuple[str, str]]
    complete: bool


def _to_rational(value, what: str) -> int | Fraction:
    try:
        return _rational(value)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(f"{what} is not a rational value: {value!r}") from exc


def make_table(
    rows: Sequence,
    containment: Sequence[Sequence[str]] = (),
    complete: bool = False,
) -> LogPairTable:
    """Validated table.

    Rows are (label, k, d, center) tuples or TableRow instances; d must
    be nonnegative and divisor labels unique. Containment pairs [A, B],
    lists or tuples of two, assert A is contained in B; the closure is
    computed here and antisymmetry checked on it.
    """
    conv: list[TableRow] = []
    seen: set[str] = set()
    for row in rows:
        if isinstance(row, TableRow):
            label, k, d, center = row.label, row.k, row.d, row.center
        else:
            try:
                label, k, d, center = row
            except (TypeError, ValueError):
                raise InvalidQueryError(f"row {row!r} is not a (label, k, d, center) tuple") from None
        k = _to_rational(k, f"k of row {label!r}")
        d = _to_rational(d, f"d of row {label!r}")
        if d < 0:
            raise InvalidQueryError(f"row {label!r} has negative boundary multiplicity")
        name = str(label)
        if name in seen:
            raise InvalidQueryError(f"duplicate divisor label {label!r}")
        seen.add(name)
        conv.append(TableRow(name, k, d, str(center)))

    # center -> the centers it is directly contained in; the keys, in
    # insertion order, are the labels by first appearance
    succ: dict[str, list[str]] = {row.center: [] for row in conv}
    for pair in containment:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidPosetError(f"containment entry {pair!r} is not a pair")
        inner, outer = str(pair[0]), str(pair[1])
        succ.setdefault(inner, []).append(outer)
        succ.setdefault(outer, [])
    # reflexive-transitive closure: a depth-first search from each label,
    # each reach set a dict so that it iterates in discovery order
    reach: dict[str, dict[str, None]] = {}
    for start in succ:
        reached = {start: None}
        stack = [start]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in reached:
                    reached[nxt] = None
                    stack.append(nxt)
        reach[start] = reached
    # antisymmetry; the error names the first label on a cycle and the
    # first label it reaches on that cycle, whatever the hash seed
    for a, reached in reach.items():
        for b in reached:
            if b != a and a in reach[b]:
                raise InvalidPosetError(f"containment cycle through {a!r} and {b!r}")
    contains = frozenset((a, b) for a, reached in reach.items() for b in reached)
    return LogPairTable(tuple(conv), tuple(succ), contains, bool(complete))


def log_discrepancy(table: LogPairTable, label: str):
    """1 + k_E - d_E for the row with the given divisor label."""
    for row in table.rows:
        if row.label == label:
            return 1 + row.k - row.d
    raise UnknownLabelError(f"no row with divisor label {label!r}")


def _collapse(values: list[Fraction]):
    m = min(values)
    return NEG_INFINITY if m < 0 else m


def mld_at(table: LogPairTable, center: str):
    """Minimum log discrepancy over rows at exactly this center.

    Any negative minimum collapses to -infinity. The value is relative
    to the table: an upper bound for the true minimal log discrepancy
    unless table.complete asserts otherwise.
    """
    if center not in table.labels:
        raise UnknownLabelError(f"unknown center label {center!r}")
    values = [1 + row.k - row.d for row in table.rows if row.center == center]
    if not values:
        raise EmptyCenterError(f"no rows at center {center!r}")
    return _collapse(values)


def mld_along(table: LogPairTable, outer: str):
    """Minimum of mld_at over all centers contained in the given one.

    One pass over the rows at those centers: the collapse of a negative
    minimum to -infinity is monotone, so it commutes with the minimum.
    """
    if outer not in table.labels:
        raise UnknownLabelError(f"unknown center label {outer!r}")
    values = [1 + row.k - row.d for row in table.rows if (row.center, outer) in table.contains]
    if not values:
        raise EmptyCenterError(f"no populated centers inside {outer!r}")
    return _collapse(values)


@dataclass(frozen=True)
class AccReport:
    """Stationarity diagnostic for a finite candidate sequence.

    ``stationary`` means the sequence has settled by its end: the final
    step is not a strict increase (short sequences are trivially
    stationary). ``stationary_from`` is the index where the final
    constant run begins, None when not stationary. ``increase_points``
    lists every index whose value strictly exceeds its predecessor.
    """

    stationary: bool
    stationary_from: int | None
    increase_points: tuple[int, ...]


def check_sequence_acc(values: Sequence) -> AccReport:
    vals = [_to_rational(v, f"entry {i}") for i, v in enumerate(values)]
    increases = tuple(i for i in range(1, len(vals)) if vals[i] > vals[i - 1])
    if len(vals) <= 1:
        return AccReport(True, 0 if vals else None, increases)
    if vals[-1] > vals[-2]:
        return AccReport(False, None, increases)
    start = len(vals) - 1
    while start > 0 and vals[start - 1] == vals[start]:
        start -= 1
    return AccReport(True, start, increases)
