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
from typing import Mapping

from .fields import RateField
from .graph import NeighborGraph

RATE_SCALE = 100_000.0
DEFAULT_YEARS = 8.0
DEFAULT_COVERAGE = 2.0 / 3.0

AGE_GROUPS = tuple(range(1, 20))  # standard 19 age groups
GENDERS = ("F", "M")

Stratum = tuple[int, str]  # (age_group, gender)


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
            if pop < 0:
                raise ValueError(f"negative population for stratum {(age, gender)}")
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
        for (rid, code, age, gender), n in self.cases.items():
            validate_stratum(age, gender)
            if n < 0:
                raise ValueError(f"negative cases for {(rid, code, age, gender)}")
            total = self.totals.get((rid, age, gender), 0)
            if n > total:
                raise ValueError(
                    f"cases {n} exceed total {total} for region {rid!r} code "
                    f"{code!r} stratum {(age, gender)}"
                )
        for (rid, age, gender), n in self.totals.items():
            validate_stratum(age, gender)
            if n < 0:
                raise ValueError(f"negative total for {(rid, age, gender)}")

    def codes(self) -> tuple[str, ...]:
        return tuple(sorted({key[1] for key in self.cases}))

    def region_ids(self) -> tuple[str, ...]:
        return tuple(sorted({key[0] for key in self.totals}))


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
    observed = sum(1 for rid in field.values if rid in graph.regions)
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
    region count.
    """
    if not 0.0 < coverage_threshold <= 1.0:
        raise ValueError("coverage_threshold must be in (0, 1]")
    if zero_offset < 0:
        raise ValueError("zero_offset must be nonnegative")
    values: dict[str, float] = {}
    for rid in graph.ids:
        crude: dict[Stratum, float | None] = {}
        for stratum in std.strata():
            age, gender = stratum
            total = counts.totals.get((rid, age, gender), 0)
            if total <= 0:
                crude[stratum] = None
            else:
                crude[stratum] = crude_rate(
                    counts.cases.get((rid, code, age, gender), 0), total, years
                )
        adjusted = adjusted_rate(crude, std, renormalize_missing=renormalize_missing)
        if adjusted is None:
            continue
        rate = adjusted + zero_offset
        if rate <= 0.0:
            continue
        values[rid] = math.log(rate)
    return coverage_outcome(RateField(code, values), graph, coverage_threshold)
