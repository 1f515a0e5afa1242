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
# int16 of the counts index, and a column of its totals matrix)
_STRATUM_KEYS = {
    (age, gender): 2 * age + g for age in AGE_GROUPS for g, gender in enumerate(GENDERS)
}


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


@dataclass(frozen=True)
class StratifiedCounts:
    """Raw case counts per (region, code, stratum) and record totals per
    (region, stratum).

    ``cases`` may be sparse (absent key = zero cases); ``totals`` defines
    which strata exist for a region (total of zero or absent = stratum
    missing).  Cases must not exceed the corresponding total.
    """

    cases: Mapping[tuple[str, str, int, str], int]
    totals: Mapping[tuple[str, int, str], int]

    def __post_init__(self):
        totals = self.totals
        for (rid, code, age, gender), n in self.cases.items():
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

    def codes(self) -> tuple[str, ...]:
        return tuple(sorted({key[1] for key in self.cases}))

    @cached_property
    def _index(self) -> "_CountsIndex":
        return _CountsIndex(self.cases, self.totals)


class _CountsIndex:
    """Column arrays of a :class:`StratifiedCounts`, built once per instance.

    ``row_of`` maps every region id of the keys (by reference) to its row;
    ``totals`` is a region row x stratum key int64 matrix with one more,
    all-zero row last, which row -1 picks for a region without totals;
    ``cases[code]`` (codes sorted) is a (region row as int32, stratum key as
    int16, count as int64) triple of equal-length arrays.
    """

    def __init__(self, cases: Mapping, totals: Mapping):
        region_ids = dict.fromkeys(chain(map(itemgetter(0), totals), map(itemgetter(0), cases)))
        self.row_of = {rid: i for i, rid in enumerate(region_ids)}
        # every key was validated on construction, so a plain lookup will do
        stratum_key = _STRATUM_KEYS.__getitem__

        def column(keys, at, dtype, lookup) -> np.ndarray:
            return np.fromiter(map(lookup, map(itemgetter(at), keys)), dtype, len(keys))

        self.totals = np.zeros((len(self.row_of) + 1, max(_STRATUM_KEYS.values()) + 1), np.int64)
        self.totals[
            column(totals, 0, np.int32, self.row_of.__getitem__),
            column(totals, slice(1, 3), np.int16, stratum_key),
        ] = np.fromiter(totals.values(), np.int64, len(totals))
        rows = column(cases, 0, np.int32, self.row_of.__getitem__)
        strata = column(cases, slice(2, 4), np.int16, stratum_key)
        values = np.fromiter(cases.values(), np.int64, len(cases))
        codes = sorted(set(map(itemgetter(1), cases)))
        code_of = column(cases, 1, np.int32, {code: k for k, code in enumerate(codes)}.__getitem__)
        self.cases = {}
        for k, code in enumerate(codes):
            sel = np.flatnonzero(code_of == k)
            self.cases[code] = (rows[sel], strata[sel], values[sel])


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
