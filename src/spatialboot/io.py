"""Delimited-text readers and writers for every file the pipeline touches.

All files are comma-separated with a fixed header row.  Readers validate
schema and referential integrity and raise :class:`IngestionError` with the
offending file and 1-based row number.  Writers write UTF-8, which the
readers decode in any locale, and pass Python scalars to the csv module,
which formats the cells: floats by ``repr`` (shortest round-trip
form, keeping outputs byte-stable across runs) and ``None`` as an empty cell.
Only this module knows a file's header and layout: the command line and
:mod:`.pipeline` read and write every file through its public functions.
A counts and a totals file become the column arrays of one
:class:`StratifiedCounts`, parsed from the bytes of plain files and read
row by row otherwise, each path ending in the same constructor call.
"""

from __future__ import annotations

import codecs
import configparser
import csv
import json
import math
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IngestionError
from .fields import RateField
from .graph import NeighborGraph, Region, RegionSet
from .moran import MoranResult
from .nb2 import BootstrapResult, prefix_statistic
from .ranking import METHOD_MORAN, METHODS, NB2_METHODS, CategorySummary, RankingTable
from .rates import (STRATUM_KEYS, StandardPopulation, StratifiedCounts, stratum_key,
                    validate_stratum)
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
DIAGNOSTICS_HEADER = ["code", "observed", "n_effective", "isolates_dropped", "components",
                      "t_nonfinite_reps", "odds_tie_frac"]
CODE_META_HEADER = ["code", "name", "category"]
STABILITY_HEADER = ["code", "variant", "M", "statistic", "abs_diff", "rel_diff"]

_MAX_COUNT = int(np.iinfo(np.int64).max)  # counts are held as int64


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
            also = f" (optionally {','.join(optional)})" if optional else ""
            raise IngestionError(
                f"expected header {','.join(required)}{also}, got {','.join(header)}",
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


def _region_position(regions: RegionSet, rid: str, path: str, row: int) -> int:
    """The position of an id field's region."""
    try:
        return regions.position(rid)
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
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise IngestionError("expected a FeatureCollection", path=spath)
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise IngestionError("features must be a list", path=spath)
    polygons: dict[str, dict] = {}
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise IngestionError(f"feature {i} is not an object", path=spath)
        props = feature.get("properties") or {}
        if not isinstance(props, dict):
            raise IngestionError(f"feature {i}: properties must be an object", path=spath)
        rid = props.get(id_property, feature.get("id"))
        if rid is None:
            raise IngestionError(
                f"feature {i} has no {id_property!r} property", path=spath
            )
        rid = str(rid)
        if rid in polygons:
            raise IngestionError(f"duplicate feature id {rid!r}", path=spath)
        geometry = feature.get("geometry")
        gtype = geometry.get("type") if isinstance(geometry, dict) else None
        if gtype not in ("Polygon", "MultiPolygon"):
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
        if key not in STRATUM_KEYS:
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


def _read_stratum_rows(path, regions: RegionSet, header, rows_noun: str, count_noun: str,
                       codes: dict[str, int] | None = None) -> list[np.ndarray]:
    """The (region position, [code index,] stratum key, count) arrays of a
    counts file (``codes`` given, and extended in first-seen order) or totals
    file, as :func:`_read_columns` builds them, read row by row with every
    check at its row; ``rows_noun`` and ``count_noun`` name the file's rows
    and its last column in the messages."""
    spath = str(path)
    columns: list[list[int]] = [[] for _ in header[1:]]  # one per field after the id
    seen: set[tuple] = set()
    for row_no, (rid, *code, age, gender, n) in _open_rows(path, header):
        position = _region_position(regions, rid, spath, row_no)
        if code == [""]:
            raise IngestionError("empty code", path=spath, row=row_no)
        age = _parse_int(age, "age_group", spath, row_no)
        if (age, gender) not in STRATUM_KEYS:
            _reject_stratum(age, gender, spath, row_no)
        key = (rid, *code, age, gender)
        if key in seen:
            raise IngestionError(f"duplicate {rows_noun} row {key}", path=spath, row=row_no)
        seen.add(key)
        n = _parse_int(n, count_noun, spath, row_no)
        if n < 0:
            raise IngestionError(f"negative {count_noun} {n}", path=spath, row=row_no)
        if n > _MAX_COUNT:
            raise IngestionError(f"{count_noun} {n} above the largest count {_MAX_COUNT}",
                                 path=spath, row=row_no)
        entry = (position, *(codes.setdefault(c, len(codes)) for c in code),
                 STRATUM_KEYS[age, gender], n)
        for column, value in zip(columns, entry):
            column.append(value)
    dtypes = (np.int32, np.int32, np.int16, np.int64)[-len(columns):]  # totals: no code index
    return [np.array(column, dtype) for column, dtype in zip(columns, dtypes)]


def build_stratified_counts(
    counts_path, totals_path, regions: RegionSet
) -> StratifiedCounts:
    """Counts and totals files as one :class:`StratifiedCounts`.

    Plain files are parsed into column arrays and checked in bulk
    (:func:`_counts_from_columns`).  Anything else, every input error
    included, is reread row by row (:func:`_counts_from_rows`) into the
    same columns, which gives the result or the exact message and row.
    """
    try:
        return _counts_from_columns(counts_path, totals_path, regions)
    except (OSError, LookupError, ValueError, OverflowError):
        pass
    return _counts_from_rows(counts_path, totals_path, regions)


def _counts_from_rows(counts_path, totals_path, regions: RegionSet) -> StratifiedCounts:
    """The counts of two files read row by row: the reference path."""
    codes: dict[str, int] = {}
    cases = _read_stratum_rows(counts_path, regions, COUNTS_HEADER, "counts", "cases", codes)
    totals = _read_stratum_rows(totals_path, regions, TOTALS_HEADER, "totals", "total")
    try:
        return _counts_table(regions, codes, cases, totals)
    except ValueError as exc:  # the row checks leave only cases above their total
        total_of = dict(zip(zip(totals[0].tolist(), totals[1].tolist()), totals[2].tolist()))
        rows = _open_rows(counts_path, COUNTS_HEADER)
        row = next((r for r, (rid, _, age, gender, n) in rows if int(n) > total_of.get(
            (regions.position(rid), STRATUM_KEYS[int(age), gender]), 0)), None)
        raise IngestionError(str(exc), path=str(counts_path), row=row) from None


def _counts_table(regions: RegionSet, codes: dict[str, int], cases, totals) -> StratifiedCounts:
    """The table of a reader's columns, its code indices (``codes``: code ->
    index in first-read order) renumbered in sorted code order."""
    names = sorted(codes)
    rank = np.zeros(len(names), np.int32)
    rank[[codes[code] for code in names]] = np.arange(len(names))
    cases[1] = rank[cases[1]]
    return StratifiedCounts(regions.ids, names, cases, totals)


_BLOCK_BYTES = 1 << 20  # the columnar reader parses about this much at a time
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # k bytes' mask


def _counts_from_columns(counts_path, totals_path, regions: RegionSet) -> StratifiedCounts:
    """The counts of two plain files, parsed block by block into column arrays.

    Region ids are looked up as they stand; codes, strata and counts are
    parsed once per distinct text, stripped as the row reader strips them.
    Any file the row readers could read differently or reject raises
    ``ValueError``, ``LookupError``, ``OSError`` or ``OverflowError``.
    """
    codes: dict[str, int] = {}  # code -> index in first-parsed order
    cases = _read_columns(counts_path, COUNTS_HEADER, regions.position, codes)
    totals = _read_columns(totals_path, TOTALS_HEADER, regions.position)
    return _counts_table(regions, codes, cases, totals)


def _read_columns(path, header, position, codes=None) -> list[np.ndarray]:
    """(region position, [code index,] stratum key, count) arrays of a plain
    counts file (``codes`` given, and extended) or totals file; ``position``
    looks up a region id.  The stratum is one field, ``age_group,gender``;
    a count beyond int64 raises ``OverflowError``."""
    # (parse, dtype, first, last): the field spans bounds columns first..last
    fields = [(position, np.int32, 0, 1), (_plain_stratum, np.int16, -4, -2),
              (int, np.int64, -2, -1)]
    if codes is not None:
        fields.insert(1, (lambda raw: codes.setdefault(_plain_code(raw), len(codes)),
                          np.int32, 1, 2))
    blocks = [[np.zeros(0, dtype) for _, dtype, _, _ in fields]]
    for block, bounds in _field_blocks(path, header):
        # words[i] is the block's 8 bytes from byte i on, as one little-endian word
        words = np.ndarray(len(block), "<u8", block + bytes(7), strides=(1,))
        blocks.append([_parsed(parse, dtype, block, words, bounds[:, first] + 1, bounds[:, last])
                       for parse, dtype, first, last in fields])
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _parsed(parse, dtype, block: bytes, words: np.ndarray, starts, stops) -> np.ndarray:
    """``parse`` of each field ``block[starts[i]:stops[i]]`` as ``dtype``,
    called once per distinct text.  A text's key is its bytes and the
    separator after them, zero-padded to whole words.  A text holds no
    separator, or, as the stratum text does, exactly one comma, so two texts
    of different lengths (``a`` and ``a\\0``) differ at or before the shorter
    one's separator: the key is injective."""
    keyed = stops - starts + 1
    last = len(words) - 1  # a word past a key's end is masked to 0 wherever it is read
    parts = [words[np.minimum(starts + j, last)] & _LOW_BYTES[np.clip(keyed - j, 0, 8)]
             for j in range(0, int(keyed.max()), 8)]
    keys = parts[0] if len(parts) == 1 else np.stack(parts, 1).view(f"V{8 * len(parts)}")[:, 0]
    distinct, inverse = np.unique(keys, return_inverse=True)
    at = np.empty(len(distinct), np.intp)  # a field of each distinct text
    at[inverse] = np.arange(len(keys))
    texts = map(block.__getitem__, map(slice, starts[at].tolist(), stops[at].tolist()))
    return np.array([parse(text.decode()) for text in texts], dtype)[inverse]


def _plain_code(raw: str) -> str:
    code = raw.strip()
    if not code:
        raise ValueError("empty code")
    return code


def _plain_stratum(raw: str) -> int:
    """The stratum key of an ``age_group,gender`` text."""
    age, gender = raw.split(",")
    return stratum_key((int(age), gender.strip()))


def _field_blocks(path, header: Sequence[str]):
    """Yield each block of about ``_BLOCK_BYTES`` of a file's lines as its
    bytes and the int32 offsets of each line's separators, one row per line
    with the previous line's end first: field k of line i is
    ``block[bounds[i, k] + 1 : bounds[i, k + 1]]``.

    A UTF-8 BOM, CRLF line ends and empty lines are read as the row reader
    reads them.  What it treats otherwise raises ``ValueError``: another
    header, a quote, a lone CR, a line of spaces or a line of another width.
    """
    width = len(header)
    separators = np.array([ord(",")] * (width - 1) + [ord("\n")], np.uint8)
    with open(path, "rb") as fh:
        line = fh.readline().removeprefix(codecs.BOM_UTF8)
        if line.removesuffix(b"\n").removesuffix(b"\r") != ",".join(header).encode():
            raise ValueError("not the plain header")
        while block := fh.read(_BLOCK_BYTES):
            block += fh.readline()
            if b'"' in block:
                raise ValueError("quoted field")
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n")
                if b"\r" in block:
                    raise ValueError("lone CR")
            while b"\n\n" in block:  # empty lines, as at the end of many files
                block = block.replace(b"\n\n", b"\n")
            block = block.lstrip(b"\n")
            if not block:
                continue
            if not block.endswith(b"\n"):
                block += b"\n"
            chars = np.frombuffer(block, np.uint8)
            at = np.flatnonzero((chars == ord(",")) | (chars == ord("\n"))).astype(np.int32)
            if at.size % width or (chars[at].reshape(-1, width) != separators).any():
                raise ValueError("line of another width")
            bounds = np.empty((at.size // width, width + 1), np.int32)
            bounds[:, 1:] = at.reshape(-1, width)
            bounds[0, 0] = -1
            bounds[1:, 0] = bounds[:-1, -1]
            yield block, bounds


def read_fields(path, regions: RegionSet | None = None) -> list[RateField]:
    """Long-format field file: id,code,log_rate; one field per code."""
    spath = str(path)
    values: dict[str, dict[str, float]] = {}
    for row_no, (rid, code, log_rate) in _open_rows(path, FIELDS_HEADER):
        if regions is not None and rid not in regions:
            raise IngestionError(f"unknown region id {rid!r}", path=spath, row=row_no)
        if not code:
            raise IngestionError("empty code", path=spath, row=row_no)
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
        if not code:
            raise IngestionError("empty code", path=spath, row=row_no)
        if code in names:
            raise IngestionError(f"duplicate code {code!r}", path=spath, row=row_no)
        names[code] = name
        if category:
            categories[code] = category
    return names, categories


def write_code_metadata(path, names: Mapping[str, str], categories: Mapping[str, str]) -> None:
    """One row per code with a name or a category, as
    :func:`read_code_metadata` reads them back."""
    _write(path, CODE_META_HEADER, ((code, names.get(code, ""), categories.get(code, ""))
                                    for code in sorted({*names, *categories})))


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
        files = [name for name in ("nb2.csv", "moran.csv") if (results_dir / name).exists()]
        if files:  # as after a run in which every code failed
            raise IngestionError(f"statistics files in {results_dir} hold no rows: "
                                 + ", ".join(files))
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


def read_diagnosed_codes(path) -> set[str]:
    """The codes with a ``diagnostics.csv`` row."""
    return {code for _, (code, *_) in _open_rows(path, DIAGNOSTICS_HEADER)}


def read_failures(path) -> list[tuple[str, str, str]]:
    """``failures.csv``'s records, as :func:`write_failures` wrote them."""
    return [tuple(row) for _, row in _open_rows(path, FAILURES_HEADER)]


def _set_once(table: dict, key, value, duplicate: str, path, row: int) -> None:
    """``table[key] = value``; a key already there is the input error ``duplicate``."""
    if key in table:
        raise IngestionError(duplicate, path=str(path), row=row)
    table[key] = value


# ---------------------------------------------------------------------------
# Writers


def _write(path, header: Sequence[str], rows: Iterable[Sequence], text: Iterable[str] = ()) -> None:
    """The header and ``rows`` through the csv writer, then ``text`` in its format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(text)


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


_WRITE_ROWS = 1 << 16  # the counts writer formats this many rows at a time


def write_counts(path, counts: StratifiedCounts) -> None:
    """``counts.csv``: the table's case entries in key order (id, code,
    age_group, gender), the bytes of the csv writer over those rows."""
    _write(path, COUNTS_HEADER, (), _key_order_lines(counts, counts.case_columns))


def write_totals(path, counts: StratifiedCounts) -> None:
    """``totals.csv``: the table's totals entries in key order (id,
    age_group, gender)."""
    _write(path, TOTALS_HEADER, (), _key_order_lines(counts, counts.total_columns))


def _key_order_lines(counts: StratifiedCounts, columns):
    """The lines of the column entries in key order, ``_WRITE_ROWS`` at a
    time, each distinct cell formatted once: an id or a code by the csv
    writer, a stratum as ``age_group,gender`` and a count once a block."""
    rows, *code, strata, values = columns
    ids = counts.region_ids
    id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))
    order = np.lexsort((strata, *code, id_rank[rows]))
    stratum_cells = np.empty(max(STRATUM_KEYS.values()) + 1, object)
    stratum_cells[list(STRATUM_KEYS.values())] = [f"{a},{g}," for a, g in STRATUM_KEYS]
    key_cells = [(_csv_cells(ids), rows), *((_csv_cells(counts.codes()), c) for c in code),
                 (stratum_cells, strata)]
    for start in range(0, order.size, _WRITE_ROWS):
        at = order[start:start + _WRITE_ROWS]
        distinct, inverse = np.unique(values[at], return_inverse=True)
        count_cells = np.array([f"{n}\n" for n in distinct.tolist()], object)
        cells = [text[index[at]] for text, index in key_cells] + [count_cells[inverse]]
        yield "".join(np.column_stack(cells).ravel().tolist())


def _csv_cells(values: Sequence[str]) -> np.ndarray:
    """Each value as the csv writer writes it in a row, with the separator
    after it (from a two-cell row, so no rule for a lone cell applies)."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerows((value, "") for value in values)
    return np.array([line[:-1] for line in lines], object)


def write_standard_population(path, std: StandardPopulation) -> None:
    """``stdpop.csv``: one row per stratum, in stratum order."""
    _write(path, STDPOP_HEADER,
           ((age, gender, pop) for (age, gender), pop in sorted(std.populations.items())))


def write_coverage(path, counts: StratifiedCounts) -> None:
    """``coverage.csv``: per code, its regions with a positive case count and their share."""
    observed, regions = counts.observed_counts(), len(counts.region_ids)
    _write(path, ["code", "observed", "fraction"],
           ((code, n, n / regions) for code, n in observed.items()))


def write_labels(path, specs) -> None:
    """``labels.csv``: the kind and seed of each synthetic field's spec."""
    _write(path, ["code", "kind", "seed"], ((spec.code, spec.kind, spec.seed) for spec in specs))


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


def write_diagnostics(path, diagnostics: Mapping[str, Mapping]) -> None:
    """One row per code of ``diagnostics`` (code -> column -> value), a
    missing column empty."""
    _write(path, DIAGNOSTICS_HEADER, ((code, *map(diagnostics[code].get, DIAGNOSTICS_HEADER[1:]))
                                      for code in sorted(diagnostics)))


def write_stability(path, nb2_results: Sequence[BootstrapResult]) -> None:
    """Each NB2 result's statistic over its first M repetitions, for each M
    in 10, 100, 1000, ... below its own M and for its M, with its absolute
    and relative differences from its full statistic (each empty where it
    is not finite)."""
    rows = []
    for br in sorted(nb2_results, key=lambda br: (br.code, br.variant)):
        full = br.repetitions
        for m in [*(10**k for k in range(1, len(str(full))) if 10**k < full), full]:
            statistic = prefix_statistic(br, m)
            diff = abs(statistic - br.statistic)
            rel = diff / abs(br.statistic) if br.statistic else math.nan
            rows.append((br.code, br.variant, m, statistic,
                         *(d if math.isfinite(d) else None for d in (diff, rel))))
    _write(path, STABILITY_HEADER, rows)


def write_validation(path, graph: NeighborGraph, codes: int) -> None:
    """``ingest``'s ``validation.txt``: the bundle's numbers of regions,
    edges, isolates, components and ``codes``."""
    parser = configparser.ConfigParser()
    parser["ingest"] = {"regions": len(graph.regions), "edges": graph.edge_count,
                        "isolates": len(graph.isolated_ids()),
                        "components": graph.component_count(), "codes": codes}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
