"""Delimited-text readers and writers for every file the pipeline touches.

All files are comma-separated with a fixed header row.  Readers validate
schema and referential integrity and raise :class:`IngestionError` with the
offending file and 1-based row number.  Writers pass Python scalars to the
csv module, which formats the cells: floats by ``repr`` (shortest round-trip
form, keeping outputs byte-stable across runs) and ``None`` as an empty cell.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import IngestionError
from .fields import RateField
from .graph import NeighborGraph, Region, RegionSet
from .moran import MoranResult
from .nb2 import BootstrapResult
from .ranking import METHOD_MORAN, METHODS, NB2_METHODS, CategorySummary, RankingTable
from .rates import AGE_GROUPS, GENDERS, StandardPopulation, StratifiedCounts, validate_stratum
from .variogram import EmpiricalVariogram, VariogramModel

REGIONS_HEADER = ["id", "lat", "lon", "population"]
EDGES_HEADER = ["id_a", "id_b"]
COUNTS_HEADER = ["id", "code", "age_group", "gender", "cases"]
TOTALS_HEADER = ["id", "age_group", "gender", "total"]
STDPOP_HEADER = ["age_group", "gender", "population"]
FIELDS_HEADER = ["id", "code", "log_rate"]
NB2_HEADER = ["code", "variant", "statistic", "n_effective", "M", "master_seed", "flags"]
NB2_REPS_HEADER = ["code", "rep_index", "value"]
MORAN_HEADER = ["code", "I", "n", "scheme"]
VARIOGRAM_HEADER = [
    "code", "nugget", "sill", "length_param_km", "practical_range_km", "converged", "rss",
]
VARIOGRAM_EMP_HEADER = ["code", "lag_km", "semivariance", "pairs"]
RANKING_HEADER = ["code", "name", "rank_nb2_t", "rank_nb2_odds", "rank_moran", "range_km", "sill"]
CURVES_HEADER = ["method", "N", "mean_range_km", "mean_sill"]
CATEGORIES_HEADER = ["category", "count", "mean_range_km", "q1", "median", "q3", "outliers"]
FAILURES_HEADER = ["code", "stage", "reason"]
CODE_META_HEADER = ["code", "name", "category"]

_AGES = frozenset(AGE_GROUPS)  # a set: the readers test every row's age against it


def _open_rows(path, expected_header: Sequence[str], optional: Sequence[str] = ()):
    """Yield (row_number, fields) with the stripped fields in header order;
    validates the header first and skips blank lines."""
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestionError(f"cannot open: {exc}", path=str(path)) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file (missing header)", path=str(path)) from None
        header = [h.strip() for h in header]
        required = list(expected_header)
        if header[: len(required)] != required:
            raise IngestionError(
                f"expected header {','.join(required)} (optionally {','.join(optional)}), "
                f"got {','.join(header)}",
                path=str(path),
                row=1,
            )
        extras = header[len(required) :]
        bad = [c for c in extras if c not in optional]
        if bad:
            raise IngestionError(
                f"unexpected columns {bad}", path=str(path), row=1
            )
        width = len(header)
        for row_no, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue  # skip blank lines
                raise IngestionError(
                    f"expected {width} fields, got {len(row)}",
                    path=str(path),
                    row=row_no,
                )
            yield row_no, list(map(str.strip, row))


def _parse_float(value: str, what: str, path: str, row: int, infinite: bool = False) -> float:
    """A finite number (+-inf too if ``infinite``), else an error at its row."""
    try:
        number = float(value)
    except ValueError:
        raise IngestionError(f"{what}: not a number: {value!r}", path=path, row=row) from None
    if math.isfinite(number) or (infinite and not math.isnan(number)):
        return number
    raise IngestionError(f"{what}: non-finite value {value!r}", path=path, row=row)


def _parse_int(value: str, what: str, path: str, row: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise IngestionError(f"{what}: not an integer: {value!r}", path=path, row=row) from None


def _region_id(ids: dict[str, str], rid: str, path: str, row: int) -> str:
    """The region's own id string for an id field."""
    try:
        return ids[rid]
    except KeyError:
        raise IngestionError(f"unknown region id {rid!r}", path=path, row=row) from None


def _reject_stratum(age: int, gender: str, path: str, row: int) -> None:
    """Raises :func:`validate_stratum`'s error for an invalid stratum, at its row."""
    try:
        validate_stratum(age, gender)
    except ValueError as exc:
        raise IngestionError(str(exc), path=path, row=row) from None


# ---------------------------------------------------------------------------
# Readers


def read_regions(path) -> RegionSet:
    """Region metadata: id,lat,lon,population[,category]."""
    spath = str(path)
    regions = []
    seen: set[str] = set()
    for row_no, (rid, lat, lon, population, *category) in _open_rows(
        path, REGIONS_HEADER, optional=("category",)
    ):
        if not rid:
            raise IngestionError("empty region id", path=spath, row=row_no)
        if rid in seen:
            raise IngestionError(f"duplicate region id {rid!r}", path=spath, row=row_no)
        seen.add(rid)
        try:
            regions.append(
                Region(
                    id=rid,
                    lat=_parse_float(lat, "lat", spath, row_no),
                    lon=_parse_float(lon, "lon", spath, row_no),
                    population=_parse_float(population, "population", spath, row_no),
                    category=category[-1] if category and category[-1] else None,
                )
            )
        except ValueError as exc:
            raise IngestionError(str(exc), path=spath, row=row_no) from None
    if not regions:
        raise IngestionError("no regions", path=spath)
    return RegionSet(regions)


def load_adjacency(path, regions: RegionSet) -> NeighborGraph:
    """Edge list (id_a,id_b) over known regions; deduplicated and made
    symmetric; self-loop rows are rejected; regions without edges stay as
    isolates."""
    spath = str(path)
    adjacency: dict[str, set[str]] = {rid: set() for rid in regions.ids}
    for row_no, (a, b) in _open_rows(path, EDGES_HEADER):
        for rid in (a, b):
            if rid not in regions:
                raise IngestionError(f"unknown region id {rid!r}", path=spath, row=row_no)
        if a == b:
            raise IngestionError(f"self-loop on {a!r}", path=spath, row=row_no)
        adjacency[a].add(b)
        adjacency[b].add(a)
    return NeighborGraph(regions, adjacency)


def load_geojson_polygons(path, id_property: str = "id") -> dict[str, dict]:
    """Polygon geometries keyed by a feature property."""
    spath = str(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestionError(f"cannot parse GeoJSON: {exc}", path=spath) from exc
    if doc.get("type") != "FeatureCollection":
        raise IngestionError("expected a FeatureCollection", path=spath)
    polygons: dict[str, dict] = {}
    for i, feature in enumerate(doc.get("features", [])):
        props = feature.get("properties") or {}
        rid = props.get(id_property, feature.get("id"))
        if rid is None:
            raise IngestionError(
                f"feature {i} has no {id_property!r} property", path=spath
            )
        rid = str(rid)
        if rid in polygons:
            raise IngestionError(f"duplicate feature id {rid!r}", path=spath)
        geometry = feature.get("geometry")
        if not geometry or geometry.get("type") not in ("Polygon", "MultiPolygon"):
            raise IngestionError(
                f"feature {rid!r}: geometry must be Polygon or MultiPolygon", path=spath
            )
        polygons[rid] = geometry
    if not polygons:
        raise IngestionError("no polygon features", path=spath)
    return polygons


def read_standard_population(path) -> StandardPopulation:
    spath = str(path)
    populations: dict[tuple[int, str], float] = {}
    for row_no, (age, gender, population) in _open_rows(path, STDPOP_HEADER):
        key = (_parse_int(age, "age_group", spath, row_no), gender)
        if key[0] not in _AGES or gender not in GENDERS:
            _reject_stratum(*key, spath, row_no)
        if key in populations:
            raise IngestionError(f"duplicate stratum {key}", path=spath, row=row_no)
        populations[key] = _parse_float(population, "population", spath, row_no)
        if populations[key] < 0:
            raise IngestionError(f"negative population {population}", path=spath, row=row_no)
    try:
        return StandardPopulation(populations)
    except ValueError as exc:
        raise IngestionError(str(exc), path=spath) from None


def read_counts(path, regions: RegionSet) -> dict[tuple[str, str, int, str], int]:
    """Case counts: id,code,age_group,gender,cases (region ids must exist).

    Keys hold the region's own id string and one shared string per code and
    per gender."""
    spath = str(path)
    ids = {rid: rid for rid in regions.ids}
    codes: dict[str, str] = {}
    genders: dict[str, str] = {}
    cases: dict[tuple[str, str, int, str], int] = {}
    for row_no, (rid, code, age, gender, n) in _open_rows(path, COUNTS_HEADER):
        key = (
            _region_id(ids, rid, spath, row_no),
            codes.setdefault(code, code),
            _parse_int(age, "age_group", spath, row_no),
            genders.setdefault(gender, gender),
        )
        if key[2] not in _AGES or key[3] not in GENDERS:
            _reject_stratum(key[2], key[3], spath, row_no)
        if key in cases:
            raise IngestionError(f"duplicate counts row {key}", path=spath, row=row_no)
        n = _parse_int(n, "cases", spath, row_no)
        if n < 0:
            raise IngestionError(f"negative cases {n}", path=spath, row=row_no)
        cases[key] = n
    return cases


def read_totals(path, regions: RegionSet) -> dict[tuple[str, int, str], int]:
    """Record totals: id,age_group,gender,total (region ids must exist);
    keys share strings as in :func:`read_counts`."""
    spath = str(path)
    ids = {rid: rid for rid in regions.ids}
    genders: dict[str, str] = {}
    totals: dict[tuple[str, int, str], int] = {}
    for row_no, (rid, age, gender, n) in _open_rows(path, TOTALS_HEADER):
        key = (
            _region_id(ids, rid, spath, row_no),
            _parse_int(age, "age_group", spath, row_no),
            genders.setdefault(gender, gender),
        )
        if key[1] not in _AGES or key[2] not in GENDERS:
            _reject_stratum(key[1], key[2], spath, row_no)
        if key in totals:
            raise IngestionError(f"duplicate totals row {key}", path=spath, row=row_no)
        n = _parse_int(n, "total", spath, row_no)
        if n < 0:
            raise IngestionError(f"negative total {n}", path=spath, row=row_no)
        totals[key] = n
    return totals


def build_stratified_counts(
    counts_path, totals_path, regions: RegionSet
) -> StratifiedCounts:
    cases = read_counts(counts_path, regions)
    totals = read_totals(totals_path, regions)
    try:
        return StratifiedCounts(cases=cases, totals=totals)
    except ValueError as exc:  # the readers leave only cases above their total
        rows = _open_rows(counts_path, COUNTS_HEADER)
        row = next((r for r, (rid, _, age, gender, n) in rows
                    if int(n) > totals.get((rid, int(age), gender), 0)), None)
        raise IngestionError(str(exc), path=str(counts_path), row=row) from None


def read_fields(path, regions: RegionSet | None = None) -> list[RateField]:
    """Long-format field file: id,code,log_rate; one field per code."""
    spath = str(path)
    values: dict[str, dict[str, float]] = {}
    for row_no, (rid, code, log_rate) in _open_rows(path, FIELDS_HEADER):
        if regions is not None and rid not in regions:
            raise IngestionError(f"unknown region id {rid!r}", path=spath, row=row_no)
        per = values.setdefault(code, {})
        if rid in per:
            raise IngestionError(
                f"duplicate value for region {rid!r} code {code!r}", path=spath, row=row_no
            )
        per[rid] = _parse_float(log_rate, "log_rate", spath, row_no)
    try:
        return [RateField(code, values[code]) for code in sorted(values)]
    except ValueError as exc:
        raise IngestionError(str(exc), path=spath) from None


def read_code_metadata(path) -> tuple[dict[str, str], dict[str, str]]:
    """Optional code metadata: code,name,category -> (names, categories)."""
    spath = str(path)
    names: dict[str, str] = {}
    categories: dict[str, str] = {}
    for row_no, (code, name, category) in _open_rows(path, CODE_META_HEADER):
        if code in names:
            raise IngestionError(f"duplicate code {code!r}", path=spath, row=row_no)
        names[code] = name
        if category:
            categories[code] = category
    return names, categories


def read_statistics(results_dir) -> dict[str, dict[str, float]]:
    """Statistics of a results directory, keyed by ranking method then code,
    from its ``nb2.csv`` and ``moran.csv`` (a missing file adds nothing)."""
    results_dir = Path(results_dir)
    statistics: dict[str, dict[str, float]] = {}
    path = results_dir / "nb2.csv"
    if path.exists():
        for row_no, (code, variant, statistic, *_) in _open_rows(path, NB2_HEADER):
            method = NB2_METHODS.get(variant)
            if method is None:
                raise IngestionError(f"unknown variant {variant!r}", path=str(path), row=row_no)
            value = _parse_float(statistic, "statistic", str(path), row_no, infinite=True)
            _set_once(statistics.setdefault(method, {}), code, value,
                      f"duplicate row for code {code!r} variant {variant!r}", path, row_no)
    path = results_dir / "moran.csv"
    if path.exists():
        for row_no, (code, i, *_) in _open_rows(path, MORAN_HEADER):
            value = _parse_float(i, "I", str(path), row_no)
            _set_once(statistics.setdefault(METHOD_MORAN, {}), code, value,
                      f"duplicate code {code!r}", path, row_no)
    if not statistics:
        raise IngestionError(f"no statistics files found in {results_dir}")
    return statistics


def read_variogram_models(path) -> dict[str, VariogramModel]:
    """Fitted models keyed by code, as :func:`write_variogram_models` wrote them."""
    spath = str(path)
    models = {}
    for row_no, (code, nugget, sill, length, practical, converged, rss) in _open_rows(
        path, VARIOGRAM_HEADER
    ):
        if converged not in ("true", "false"):
            raise IngestionError(
                f"converged: not true or false: {converged!r}", path=spath, row=row_no
            )
        try:
            model = VariogramModel(
                code=code,
                nugget=_parse_float(nugget, "nugget", spath, row_no),
                sill=_parse_float(sill, "sill", spath, row_no),
                length_km=_parse_float(length, "length_param_km", spath, row_no),
                practical_range_km=_parse_float(practical, "practical_range_km", spath, row_no),
                converged=converged == "true",
                rss=_parse_float(rss, "rss", spath, row_no, infinite=True),  # a sum may overflow
            )
        except ValueError as exc:
            raise IngestionError(str(exc), path=spath, row=row_no) from None
        _set_once(models, code, model, f"duplicate code {code!r}", path, row_no)
    return models


def _set_once(table: dict, key, value, duplicate: str, path, row: int) -> None:
    """``table[key] = value``; a key already there is the input error ``duplicate``."""
    if key in table:
        raise IngestionError(duplicate, path=str(path), row=row)
    table[key] = value


# ---------------------------------------------------------------------------
# Writers


def _write(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_regions(path, regions: RegionSet) -> None:
    _write(
        path,
        REGIONS_HEADER + ["category"],
        ((r.id, r.lat, r.lon, r.population, r.category) for r in regions),
    )


def write_edges(path, graph: NeighborGraph) -> None:
    rows = []
    for rid in graph.ids:
        for nb in graph.neighbors(rid):
            if rid < nb:
                rows.append((rid, nb))
    _write(path, EDGES_HEADER, rows)


def write_fields(path, fields: Sequence[RateField]) -> None:
    rows = []
    for field in sorted(fields, key=lambda f: f.code):
        for rid in sorted(field.values):
            rows.append((rid, field.code, field.values[rid]))
    _write(path, FIELDS_HEADER, rows)


def write_nb2_results(path, results: Sequence[BootstrapResult]) -> None:
    _write(
        path,
        NB2_HEADER,
        (
            (
                r.code,
                r.variant,
                r.statistic,
                r.n_effective,
                r.repetitions,
                r.master_seed,
                ";".join(r.flags),
            )
            for r in sorted(results, key=lambda r: (r.code, r.variant))
        ),
    )


def write_nb2_repetitions(path, results: Sequence[BootstrapResult]) -> None:
    """Audit dump for a single variant's results."""
    variants = {r.variant for r in results}
    if len(variants) > 1:
        raise ValueError("write one repetition dump per variant")
    rows = []
    for r in sorted(results, key=lambda r: r.code):
        for i, v in enumerate(r.per_repetition):
            rows.append((r.code, i, v))
    _write(path, NB2_REPS_HEADER, rows)


def write_moran_results(path, results: Sequence[MoranResult]) -> None:
    _write(
        path,
        MORAN_HEADER,
        ((r.code, r.i, r.n, r.weight_scheme) for r in sorted(results, key=lambda r: r.code)),
    )


def write_variogram_models(path, models: Sequence[VariogramModel]) -> None:
    _write(
        path,
        VARIOGRAM_HEADER,
        (
            (
                m.code,
                m.nugget,
                m.sill,
                m.length_km,
                m.practical_range_km,
                str(m.converged).lower(),
                m.rss,
            )
            for m in sorted(models, key=lambda m: m.code)
        ),
    )


def write_empirical_variograms(path, variograms: Sequence[EmpiricalVariogram]) -> None:
    rows = []
    for emp in sorted(variograms, key=lambda e: e.code):
        for lag, gamma, pairs in emp.bins:
            rows.append((emp.code, lag, gamma, pairs))
    _write(path, VARIOGRAM_EMP_HEADER, rows)


def write_ranking_table(path, table: RankingTable) -> None:
    _write(
        path,
        RANKING_HEADER,
        (
            (row.code, row.name, *map(row.ranks.get, METHODS), row.practical_range_km, row.sill)
            for row in table.rows
        ),
    )


def write_curves(path, curves: Mapping[str, Sequence[tuple[int, float, float]]]) -> None:
    rows = []
    for method in sorted(curves):
        for n, mean_range, mean_sill in curves[method]:
            rows.append((method, n, mean_range, mean_sill))
    _write(path, CURVES_HEADER, rows)


def write_category_summaries(path, summaries: Sequence[CategorySummary]) -> None:
    _write(
        path,
        CATEGORIES_HEADER,
        (
            (
                s.category,
                s.count,
                s.mean_range_km,
                s.q1,
                s.median,
                s.q3,
                ";".join(repr(v) for v in s.outliers),
            )
            for s in summaries
        ),
    )


def write_failures(path, failures: Sequence[tuple[str, str, str]]) -> None:
    _write(path, FAILURES_HEADER, sorted(failures))
