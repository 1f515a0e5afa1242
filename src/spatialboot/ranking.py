"""Rank codes per method, join rankings, and summarize variogram scale.

Rank 1 is the largest statistic (strongest spatial signal); ties receive
the average of the tied rank positions.  Non-converged variogram models are
kept in the joined table (with their range and sill) but excluded from
top-N curves and category summaries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Mapping, Sequence

import numpy as np

from .nb2 import VARIANT_ODDS, VARIANT_TTEST
from .variogram import VariogramModel

METHOD_NB2_T = "nb2_t"
METHOD_NB2_ODDS = "nb2_odds"
METHOD_MORAN = "moran"
METHODS = (METHOD_NB2_T, METHOD_NB2_ODDS, METHOD_MORAN)  # ranking.csv's column order
NB2_METHODS = {VARIANT_TTEST: METHOD_NB2_T, VARIANT_ODDS: METHOD_NB2_ODDS}


@dataclass
class RankRow:
    code: str
    name: str = ""
    category: str | None = None
    statistics: dict[str, float] = dataclass_field(default_factory=dict)
    ranks: dict[str, float] = dataclass_field(default_factory=dict)
    practical_range_km: float | None = None
    sill: float | None = None
    converged: bool | None = None


@dataclass
class RankingTable:
    rows: list[RankRow]

    def row(self, code: str) -> RankRow:
        for r in self.rows:
            if r.code == code:
                return r
        raise KeyError(code)

    def ranked_codes(self, method: str) -> list[str]:
        """Codes carrying the method's statistic, best rank first."""
        rows = [r for r in self.rows if method in r.ranks]
        rows.sort(key=lambda r: r.ranks[method])
        return [r.code for r in rows]


def average_ranks(values) -> np.ndarray:
    """1-based ascending ranks, tied values sharing the mean of their
    positions; any NaN makes every rank NaN.  Equals
    ``scipy.stats.rankdata(values, method="average")``."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.shape)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def rank(
    statistics: Mapping[str, Mapping[str, float]],
    variograms: Mapping[str, VariogramModel] | None = None,
    names: Mapping[str, str] | None = None,
    categories: Mapping[str, str] | None = None,
) -> RankingTable:
    """Join per-method statistics into a ranked table.

    ``statistics`` maps method id to {code: statistic}.  Codes missing a
    method simply have no rank for it.  Duplicate codes within a method are
    impossible by construction of the mapping; an empty input is an error.
    """
    if not statistics:
        raise ValueError("no methods to rank")
    all_codes: list[str] = sorted({c for per in statistics.values() for c in per})
    if not all_codes:
        raise ValueError("no codes to rank")
    variograms = variograms or {}
    names = names or {}
    categories = categories or {}

    rows = {
        code: RankRow(code=code, name=names.get(code, ""), category=categories.get(code))
        for code in all_codes
    }
    for method, per_code in statistics.items():
        codes = sorted(per_code.keys())
        values = np.array([per_code[c] for c in codes], dtype=float)
        # rank 1 = largest statistic; ties get average ranks
        ranks = average_ranks(-values)
        for code, value, rk in zip(codes, values, ranks):
            rows[code].statistics[method] = float(value)
            rows[code].ranks[method] = float(rk)
    for code, model in variograms.items():
        if code in rows:
            rows[code].practical_range_km = model.practical_range_km
            rows[code].sill = model.sill
            rows[code].converged = model.converged
    return RankingTable(rows=[rows[c] for c in all_codes])


def top_n_curve(
    table: RankingTable,
    method: str,
    n_values: Sequence[int],
) -> list[tuple[int, float, float]]:
    """Mean variogram properties over the top-N codes of one method.

    Returns (N, mean practical range, mean sill) per requested N, averaging
    only converged models among the top-N ranked codes.  N values larger
    than the ranked list are truncated with a warning.
    """
    ordered = table.ranked_codes(method)
    if not ordered:
        raise ValueError(f"no codes ranked by method {method!r}")
    out = []
    for n in n_values:
        if n < 1:
            raise ValueError("N must be positive")
        if n > len(ordered):
            warnings.warn(
                f"top-N={n} exceeds {len(ordered)} ranked codes; truncating",
                stacklevel=2,
            )
            n = len(ordered)
        chosen = [table.row(c) for c in ordered[:n]]
        ranges = [r.practical_range_km for r in chosen if r.converged]
        sills = [r.sill for r in chosen if r.converged]
        mean_range = float(np.mean(ranges)) if ranges else float("nan")
        mean_sill = float(np.mean(sills)) if sills else float("nan")
        out.append((n, mean_range, mean_sill))
    return out


@dataclass(frozen=True)
class CategorySummary:
    category: str
    count: int
    mean_range_km: float
    q1: float
    median: float
    q3: float
    outliers: tuple[float, ...]


def category_summary(table: RankingTable) -> list[CategorySummary]:
    """Distribution of fitted ranges per category, converged models only.

    Categories are ordered by increasing mean range; categories with no
    converged model are omitted with a warning.  Outliers are ranges beyond
    1.5 IQR outside the quartiles.
    """
    groups: dict[str, list[float]] = {}
    for row in table.rows:
        if row.category is None:
            continue
        if row.converged and row.practical_range_km is not None:
            groups.setdefault(row.category, []).append(row.practical_range_km)
        else:
            groups.setdefault(row.category, [])
    out = []
    for category in sorted(groups):
        ranges = np.array(groups[category], dtype=float)
        if ranges.size == 0:
            warnings.warn(
                f"category {category!r} has no converged variogram models; omitted",
                stacklevel=2,
            )
            continue
        q1, med, q3 = np.percentile(ranges, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        outliers = tuple(float(v) for v in ranges[(ranges < lo) | (ranges > hi)])
        out.append(
            CategorySummary(
                category=category,
                count=int(ranges.size),
                mean_range_km=float(ranges.mean()),
                q1=float(q1),
                median=float(med),
                q3=float(q3),
                outliers=outliers,
            )
        )
    out.sort(key=lambda s: s.mean_range_km)
    return out
