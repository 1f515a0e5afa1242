"""Age/gender-standardized log incidence rates from stratified counts.

The crude rate of a stratum is cases over total records, scaled to
per-100,000 person-years.  The adjusted rate is the weighted sum of stratum
crude rates with standard-population weights (direct standardization).
Strata with no records are skipped; by default the remaining weights are
not renormalized, which matches the weighted-sum formula as written (a
renormalization switch exists for sensitivity analysis).

Regions whose adjusted rate is zero are treated as unobserved for the code
(log of zero is undefined); a configurable continuity offset added to every
region's adjusted rate is available instead.  Logs are natural; every
downstream statistic is invariant to the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .fields import RateField
from .graph import NeighborGraph

RATE_SCALE = 100_000.0
DEFAULT_YEARS = 8.0
DEFAULT_COVERAGE = 2.0 / 3.0

AGE_GROUPS = tuple(range(1, 20))  # standard 19 age groups
GENDERS = ("F", "M")

Stratum = tuple[int, str]  # (age_group, gender)

# every valid stratum -> a small integer key: the only stratum encoding (an
# int16 of the counts table's columns, and a column of its totals matrix)
STRATUM_KEYS = {
    (age, gender): 2 * age + g for age in AGE_GROUPS for g, gender in enumerate(GENDERS)
}
_KEY_COUNT = max(STRATUM_KEYS.values()) + 1


def validate_stratum(age_group: int, gender: str) -> None:
    if age_group not in AGE_GROUPS:
        raise ValueError(f"age_group must be in 1..19, got {age_group}")
    if gender not in GENDERS:
        raise ValueError(f"gender must be 'F' or 'M', got {gender!r}")


@dataclass(frozen=True)
class StandardPopulation:
    """Reference population counts per (age_group, gender) stratum."""

    populations: Mapping[Stratum, float]

    def __post_init__(self):
        if not self.populations:
            raise ValueError("standard population is empty")
        for (age, gender), pop in self.populations.items():
            validate_stratum(age, gender)
            if not 0 <= pop < math.inf:
                raise ValueError(f"population {pop} for stratum {(age, gender)} not in [0, inf)")
        if self.total <= 0:
            raise ValueError("standard population total must be positive")

    @property
    def total(self) -> float:
        return sum(self.populations.values())

    def weight(self, age_group: int, gender: str) -> float:
        return self.populations[(age_group, gender)] / self.total

    def strata(self) -> tuple[Stratum, ...]:
        return tuple(sorted(self.populations.keys()))


class StratifiedCounts:
    """Raw case counts per (region, code, stratum) and record totals per
    (region, stratum), held as one columnar table.

    ``cases`` may be sparse (absent key = zero cases); ``totals`` defines
    which strata exist for a region (total of zero or absent = stratum
    missing).  Cases must not exceed the corresponding total.

    Table row ``i`` is region ``region_ids[i]`` (``row_of`` maps back).
    ``case_columns`` holds (region row as int32, code index as int32, stratum
    key as int16, count as int64) arrays with one entry per cases key, and
    ``total_columns`` (region row, stratum key, total) arrays with one per
    totals key, both in input order.  ``total_matrix`` is the region row x
    stratum key totals, with one more, all-zero row last, which row -1 picks
    for a region without totals.  ``code_columns[code]``, made when first
    asked for, is a code's (region row, stratum key, count) triple, in
    sorted code order.

    Built from ``codes``, sorted, and column arrays whose rows, code indices
    and stratum keys are valid, as the readers and
    :func:`spatialboot.synth.synthesize_counts` give them; the ``cases``
    and ``totals`` mappings are made from the columns when asked for.  The
    table is checked in bulk by :meth:`_check`.
    """

    def __init__(self, region_ids, codes, case_columns, total_columns):
        self.region_ids = tuple(region_ids)
        self.row_of = {rid: i for i, rid in enumerate(self.region_ids)}
        self._codes = tuple(codes)
        self.case_columns = case_columns
        self.total_columns = total_columns
        rows, strata, values = total_columns
        self.total_matrix = np.zeros((len(self.region_ids) + 1, _KEY_COUNT), np.int64)
        self.total_matrix[rows, strata] = values
        self._check()

    def _check(self) -> None:
        """Raises ``ValueError`` for a negative count, a repeated key or cases
        above their total, naming the first such entry in input order."""
        rows, code, strata, values = self.case_columns
        total_rows, total_strata, total_values = self.total_columns
        case_keys = (code.astype(np.int64) * len(self.region_ids) + rows) * _KEY_COUNT + strata
        total_keys = total_rows.astype(np.int64) * _KEY_COUNT + total_strata
        for columns, bad, message in (
            (self.case_columns, values < 0, "negative cases for {key}"),
            (self.total_columns, total_values < 0, "negative total for {key}"),
            (self.case_columns, _repeats(case_keys), "duplicate key {key}"),
            (self.total_columns, _repeats(total_keys), "duplicate key {key}"),
            (self.case_columns, values > self.total_matrix[rows, strata], "cases {n} exceed "
             "total {total} for region {key[0]!r} code {key[1]!r} stratum {stratum}"),
        ):
            if bad.any():
                at = int(bad.argmax())
                *key, n = next(zip(*self._fields(columns, [at])))
                total = self.total_matrix[columns[0][at], columns[-2][at]]
                raise ValueError(message.format(key=tuple(key), stratum=tuple(key[-2:]), n=n,
                                                total=total))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StratifiedCounts):
            return NotImplemented
        return self.cases == other.cases and self.totals == other.totals

    @cached_property
    def cases(self) -> dict[tuple[str, str, int, str], int]:
        return dict(self._items(self.case_columns))

    @cached_property
    def totals(self) -> dict[tuple[str, int, str], int]:
        return dict(self._items(self.total_columns))

    def codes(self) -> tuple[str, ...]:
        return self._codes

    @cached_property
    def code_columns(self) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        rows, code, strata, values = self.case_columns
        selections = ((name, np.flatnonzero(code == k)) for k, name in enumerate(self._codes))
        return {name: (rows[sel], strata[sel], values[sel]) for name, sel in selections}

    def observed_counts(self) -> dict[str, int]:
        """Per code, the number of regions with a positive case count."""
        rows, code, _, values = self.case_columns
        positive = values > 0
        seen = np.zeros((len(self._codes), len(self.region_ids)), bool)  # code x region
        seen[code[positive], rows[positive]] = True
        return dict(zip(self._codes, seen.sum(axis=1).tolist()))

    def _items(self, columns):
        """(key, count) pairs of the column entries; a key is (id, [code,]
        age_group, gender)."""
        *fields, counts = self._fields(columns, slice(None))
        return zip(zip(*fields), counts)

    def _fields(self, columns, order) -> list:
        """Per key field, then the counts: the values of the column entries at
        ``order``."""
        rows, *code, strata, values = (column[order] for column in columns)
        return [
            map(self.region_ids.__getitem__, rows.tolist()),
            *(map(self._codes.__getitem__, c.tolist()) for c in code),
            (strata >> 1).tolist(),
            map(GENDERS.__getitem__, (strata & 1).tolist()),
            values.tolist(),
        ]


def stratum_key(stratum: Stratum) -> int:
    """The key of a stratum; :func:`validate_stratum`'s error for a bad one."""
    if stratum not in STRATUM_KEYS:
        validate_stratum(*stratum)
    return STRATUM_KEYS[stratum]


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Whether each entry repeats the key of an earlier one: a sort, not a
    hash, and an argsort only when some key repeats."""
    repeats = np.zeros(keys.size, bool)
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(keys, kind="stable")
        repeats[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    return repeats


@dataclass(frozen=True)
class CoverageRejection:
    """Outcome for a code observed in too few regions (not an error)."""

    code: str
    observed_count: int
    region_count: int
    threshold: float

    @property
    def fraction(self) -> float:
        return self.observed_count / self.region_count if self.region_count else 0.0


def meets_coverage(observed_count: int, region_count: int, threshold: float) -> bool:
    """Coverage filter: observed >= threshold * regions.

    A small epsilon guards against float noise at exact boundaries (e.g.
    2,073 observed of 3,109 regions at a two-thirds threshold).
    """
    return observed_count + 1e-9 >= threshold * region_count


def coverage_outcome(
    field: RateField, graph: NeighborGraph, threshold: float
) -> RateField | CoverageRejection:
    """The field when it is observed in enough of the graph's regions (see
    :func:`meets_coverage`), else its coverage rejection."""
    observed = int(field.observed_mask(graph.ids).sum())
    if meets_coverage(observed, graph.n, threshold):
        return field
    return CoverageRejection(field.code, observed, graph.n, threshold)


def crude_rate(cases: int, total_cases: int, years: float = DEFAULT_YEARS) -> float | None:
    """Stratum crude rate per 100,000 person-years; None when the stratum
    has no records (missing, not zero)."""
    if years <= 0:
        raise ValueError("years must be positive")
    if cases < 0 or total_cases < 0:
        raise ValueError("counts must be nonnegative")
    if total_cases == 0:
        return None
    if cases > total_cases:
        raise ValueError(f"cases {cases} exceed total {total_cases}")
    return (cases / total_cases) * (RATE_SCALE / years)


def adjusted_rate(
    crude: Mapping[Stratum, float | None],
    std: StandardPopulation,
    renormalize_missing: bool = False,
) -> float | None:
    """Direct-standardized rate: sum of stratum crude rates times weights.

    Strata mapped to None (or absent from ``crude``) are skipped.  Without
    renormalization the skipped weight is simply lost; with it, the present
    weights are rescaled to sum to one.  Returns None when every stratum is
    missing (region unobserved).
    """
    acc = 0.0
    wsum = 0.0
    present = 0
    for stratum in std.strata():
        value = crude.get(stratum)
        if value is None:
            continue
        w = std.weight(*stratum)
        acc += value * w
        wsum += w
        present += 1
    if present == 0:
        return None
    if renormalize_missing:
        if wsum <= 0:
            return None
        return acc / wsum
    return acc


def build_rate_field(
    counts: StratifiedCounts,
    std: StandardPopulation,
    code: str,
    graph: NeighborGraph,
    coverage_threshold: float = DEFAULT_COVERAGE,
    years: float = DEFAULT_YEARS,
    zero_offset: float = 0.0,
    renormalize_missing: bool = False,
) -> RateField | CoverageRejection:
    """Adjusted log rate field for one code, or a coverage rejection.

    A region is unobserved when it has no strata with records or when its
    (offset-adjusted) rate is not positive.  The field is accepted only if
    the observed count reaches ``coverage_threshold`` times the graph's
    region count.  Every value equals :func:`crude_rate` ->
    :func:`adjusted_rate` -> ``math.log`` for that region, bit for bit.
    """
    if not 0.0 < coverage_threshold <= 1.0:
        raise ValueError("coverage_threshold must be in (0, 1]")
    if zero_offset < 0:
        raise ValueError("zero_offset must be nonnegative")
    if years <= 0:
        raise ValueError("years must be positive")
    # region x stratum matrices in graph order and std.strata() order; the
    # sums below run stratum by stratum exactly as adjusted_rate's loop does
    strata = std.strata()
    rows = np.fromiter((counts.row_of.get(rid, -1) for rid in graph.ids), np.int64, graph.n)
    grid = np.ix_(rows, [STRATUM_KEYS[stratum] for stratum in strata])
    totals = counts.total_matrix[grid]
    present = totals > 0
    crude = np.zeros(totals.shape)
    if code in counts.code_columns:
        region, key, count = counts.code_columns[code]
        cases = np.zeros_like(counts.total_matrix)
        cases[region, key] = count
        np.divide(cases[grid], totals, out=crude, where=present)
    crude *= RATE_SCALE / years
    std_total = std.total
    acc = np.zeros(graph.n)
    wsum = np.zeros(graph.n)
    for j, stratum in enumerate(strata):
        w = std.populations[stratum] / std_total
        acc += crude[:, j] * w  # an absent stratum adds 0.0
        wsum += np.where(present[:, j], w, 0.0)
    observed = present.any(axis=1)
    if renormalize_missing:
        observed &= wsum > 0
        acc = np.divide(acc, wsum, out=acc, where=observed)
    values: dict[str, float] = {}
    for rid, adjusted, ok in zip(graph.ids, acc.tolist(), observed.tolist()):
        rate = adjusted + zero_offset
        if ok and rate > 0.0:
            values[rid] = math.log(rate)
    return coverage_outcome(RateField(code, values), graph, coverage_threshold)
