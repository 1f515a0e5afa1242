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
from itertools import chain
from operator import itemgetter
from typing import Mapping, Sequence

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
# int16 of the counts index, and a column of its totals matrix)
_STRATUM_KEYS = {
    (age, gender): 2 * age + g for age in AGE_GROUPS for g, gender in enumerate(GENDERS)
}
_KEY_COUNT = max(_STRATUM_KEYS.values()) + 1


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
    (region, stratum).

    ``cases`` may be sparse (absent key = zero cases); ``totals`` defines
    which strata exist for a region (total of zero or absent = stratum
    missing).  Cases must not exceed the corresponding total.

    Built either from the two mappings, checked key by key, or by
    :meth:`from_columns` from the counts reader's column arrays, checked in
    bulk; the mappings of the latter are made only when asked for.
    ``region_ids`` orders the index rows (default: first seen in the keys).
    """

    def __init__(
        self,
        cases: Mapping[tuple[str, str, int, str], int],
        totals: Mapping[tuple[str, int, str], int],
        region_ids: Sequence[str] | None = None,
    ):
        for (rid, code, age, gender), n in cases.items():
            if (age, gender) not in _STRATUM_KEYS:
                validate_stratum(age, gender)
            if n < 0:
                raise ValueError(f"negative cases for {(rid, code, age, gender)}")
            total = totals.get((rid, age, gender), 0)
            if n > total:
                raise ValueError(
                    f"cases {n} exceed total {total} for region {rid!r} code "
                    f"{code!r} stratum {(age, gender)}"
                )
        for (rid, age, gender), n in totals.items():
            if (age, gender) not in _STRATUM_KEYS:
                validate_stratum(age, gender)
            if n < 0:
                raise ValueError(f"negative total for {(rid, age, gender)}")
        self.cases = cases
        self.totals = totals
        self._region_ids = region_ids

    @classmethod
    def from_columns(cls, region_ids, codes, case_columns, total_columns) -> "StratifiedCounts":
        """Counts from :class:`_CountsIndex` columns whose rows, code indices
        and stratum keys are valid; a negative count, a repeated key or cases
        above their total raise a ``ValueError`` that names no key."""
        counts = cls.__new__(cls)
        counts._index = _CountsIndex(region_ids, codes, case_columns, total_columns)
        counts._index.check()
        return counts

    def __eq__(self, other) -> bool:
        if not isinstance(other, StratifiedCounts):
            return NotImplemented
        return self.cases == other.cases and self.totals == other.totals

    @cached_property
    def cases(self) -> dict[tuple[str, str, int, str], int]:
        return dict(self._index.items(self._index.case_columns))

    @cached_property
    def totals(self) -> dict[tuple[str, int, str], int]:
        return dict(self._index.items(self._index.total_columns))

    def codes(self) -> tuple[str, ...]:
        return self._index.codes

    def case_rows(self):
        """(id, code, age_group, gender, cases) rows in key order, the order of
        ``sorted(self.cases.items())``."""
        return self._index.sorted_rows(self._index.case_columns)

    def total_rows(self):
        """(id, age_group, gender, total) rows in key order."""
        return self._index.sorted_rows(self._index.total_columns)

    def observed_counts(self) -> dict[str, int]:
        """Per code, the number of regions with a positive case count."""
        return {
            code: np.unique(rows[values > 0]).size
            for code, (rows, _, values) in self._index.cases.items()
        }

    @cached_property
    def _index(self) -> "_CountsIndex":
        return _CountsIndex.from_mappings(self.cases, self.totals, self._region_ids)


class _CountsIndex:
    """Column arrays of a :class:`StratifiedCounts`, built once per instance.

    ``region_ids`` gives the region of each row and ``row_of`` maps it back;
    ``codes`` are sorted.  ``case_columns`` holds one (region row as int32,
    code index as int32, stratum key as int16, count as int64) entry per
    cases key and ``total_columns`` one (region row, stratum key, total)
    entry per totals key, both in input order.  ``totals`` is a region row x
    stratum key int64 matrix with one more, all-zero row last, which row -1
    picks for a region without totals; ``cases[code]`` is the code's (region
    row, stratum key, count) triple.
    """

    def __init__(self, region_ids, codes, case_columns, total_columns):
        self.region_ids = tuple(region_ids)
        self.row_of = {rid: i for i, rid in enumerate(self.region_ids)}
        self.codes = tuple(codes)
        self.case_columns = case_columns
        self.total_columns = total_columns
        rows, strata, values = total_columns
        self.totals = np.zeros((len(self.region_ids) + 1, _KEY_COUNT), np.int64)
        self.totals[rows, strata] = values
        rows, code, strata, values = case_columns
        self.cases = {}
        for k, name in enumerate(self.codes):
            sel = np.flatnonzero(code == k)
            self.cases[name] = (rows[sel], strata[sel], values[sel])

    @classmethod
    def from_mappings(cls, cases: Mapping, totals: Mapping, region_ids=None) -> "_CountsIndex":
        """The index of validated mappings."""
        if region_ids is None:
            region_ids = dict.fromkeys(
                chain(map(itemgetter(0), totals), map(itemgetter(0), cases))
            )
        row_of = {rid: i for i, rid in enumerate(region_ids)}.__getitem__
        stratum_key = _STRATUM_KEYS.__getitem__
        codes = sorted(set(map(itemgetter(1), cases)))
        code_of = {code: k for k, code in enumerate(codes)}.__getitem__

        def column(keys, at, dtype, lookup) -> np.ndarray:
            return np.fromiter(map(lookup, map(itemgetter(at), keys)), dtype, len(keys))

        return cls(
            region_ids,
            codes,
            (
                column(cases, 0, np.int32, row_of),
                column(cases, 1, np.int32, code_of),
                column(cases, slice(2, 4), np.int16, stratum_key),
                np.fromiter(cases.values(), np.int64, len(cases)),
            ),
            (
                column(totals, 0, np.int32, row_of),
                column(totals, slice(1, 3), np.int16, stratum_key),
                np.fromiter(totals.values(), np.int64, len(totals)),
            ),
        )

    def check(self) -> None:
        """Raises ``ValueError`` for a negative count, a repeated key or cases
        above their total."""
        rows, code, strata, values = self.case_columns
        total_rows, total_strata, total_values = self.total_columns
        if (values < 0).any() or (total_values < 0).any():
            raise ValueError("negative count")
        case_keys = (code.astype(np.int64) * len(self.region_ids) + rows) * _KEY_COUNT + strata
        if _repeats(case_keys) or _repeats(total_rows.astype(np.int64) * _KEY_COUNT + total_strata):
            raise ValueError("duplicate key")
        if (values > self.totals[rows, strata]).any():
            raise ValueError("cases exceed their total")

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each row's rank in region id (string) order."""
        rank = np.empty(len(self.region_ids), np.int64)
        rank[sorted(range(len(rank)), key=self.region_ids.__getitem__)] = np.arange(len(rank))
        return rank

    def items(self, columns):
        """(key, count) pairs of the column entries; a key is (id, [code,]
        age_group, gender)."""
        *fields, counts = self._fields(columns, slice(None))
        return zip(zip(*fields), counts)

    def sorted_rows(self, columns):
        """(*key, count) rows of the column entries in key order (ids as
        strings)."""
        rows, *code, strata, _ = columns
        return zip(*self._fields(columns, np.lexsort((strata, *code, self.id_rank[rows]))))

    def _fields(self, columns, order) -> list:
        """Per key field, then the counts: the values of the column entries at
        ``order``."""
        rows, *code, strata, values = (column[order] for column in columns)
        return [
            map(self.region_ids.__getitem__, rows.tolist()),
            *(map(self.codes.__getitem__, c.tolist()) for c in code),
            (strata >> 1).tolist(),
            map(GENDERS.__getitem__, (strata & 1).tolist()),
            values.tolist(),
        ]


def _repeats(keys: np.ndarray) -> bool:
    """Whether an integer array holds a value twice (a sort, not a hash)."""
    keys = np.sort(keys)
    return bool((keys[1:] == keys[:-1]).any())


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
    index = counts._index
    rows = np.fromiter((index.row_of.get(rid, -1) for rid in graph.ids), np.int64, graph.n)
    grid = np.ix_(rows, [_STRATUM_KEYS[stratum] for stratum in strata])
    totals = index.totals[grid]
    present = totals > 0
    crude = np.zeros(totals.shape)
    if code in index.cases:
        region, key, count = index.cases[code]
        cases = np.zeros_like(index.totals)
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
