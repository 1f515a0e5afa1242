"""Command-line pipeline.

Subcommands: ``ingest`` validates raw inputs into a normalized bundle;
``synth`` generates synthetic field corpora; ``run`` executes the full
analysis (bootstrap statistics, Moran's I, variograms, rankings, curves,
category summaries); ``bench`` times the bootstrap engine over a grid of
repetition counts and worker counts; ``rank`` and ``variogram`` re-derive
reports from an existing results directory.

Every run writes a manifest echoing the fully resolved configuration; a run
started from that manifest reproduces the outputs byte for byte.  All
randomness flows from the single master seed (no wall-clock entropy).  The
one parallel layer is a process pool over work units (``--threads``): each
code's subgraph stage and Moran's I run in this process, then the code is
one variogram unit (``variogram`` runs these alone) plus one unit per
fixed-size chunk of NB2 repetitions.  Chunks join exactly and codes reduce
in code order, so outputs are identical for any worker count.  A code whose
analysis raises, or whose worker process dies, gets one ``internal``
failure record and no other output, not even a ``diagnostics.csv`` row;
the rest of the batch goes on.

Exit codes: 0 success, 1 structural failure, 2 input validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import platform
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import io as sbio
from .errors import (
    EmptyVariogramError,
    GeometryError,
    IngestionError,
    InsufficientDataError,
    SpatialBootError,
    UndefinedStatisticError,
)
from .fields import RateField
from .graph import NeighborGraph, RegionSet, observed_subgraph, queen_contiguity
from .moran import SCHEME_BINARY, SCHEME_ROW, morans_i
from .nb2 import (
    COMPARATOR_MATCHED,
    COMPARATORS,
    SEED_SCHEME,
    VARIANT_ODDS,
    VARIANT_TTEST,
    VARIANTS,
    BootstrapConfig,
    join_results,
    nb2,
)
from .ranking import METHOD_MORAN, NB2_METHODS, category_summary, rank, top_n_curve
from .rates import (
    CoverageRejection,
    DEFAULT_COVERAGE,
    DEFAULT_YEARS,
    build_rate_field,
    coverage_outcome,
)
from .synth import corpus, grid_graph, parse_spec_file
from .variogram import WEIGHTINGS, empirical_variogram, fit_exponential

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_VALIDATION = 2

_WEIGHT_SCHEMES = {"binary": SCHEME_BINARY, "row": SCHEME_ROW}


@dataclass
class RunSettings:
    """Fully resolved configuration for ``run`` (and the manifest schema)."""

    mode: str = ""  # counts | fields | synth
    out: str = ""
    regions: str = ""
    edges: str = ""
    geojson: str = ""
    id_property: str = "id"
    counts: str = ""
    totals: str = ""
    stdpop: str = ""
    fields: str = ""
    synth_spec: str = ""
    grid: str = ""  # ROWSxCOLS for synth mode without region files
    cell_km: float = 30.0
    grid_n: int = 0  # 0 = full grid
    coverage: float = DEFAULT_COVERAGE
    years: float = DEFAULT_YEARS
    zero_offset: float = 0.0
    renormalize: bool = False
    reps: int = 1000
    seed: int = 0
    variant: str = "both"
    comparator: str = COMPARATOR_MATCHED
    signed_differences: bool = False
    ties_win: bool = False
    weights: str = "binary"
    bin_width_km: float = 0.0  # 0 = auto
    max_lag_km: float = 0.0  # 0 = auto
    vario_weighting: str = "pairs_over_h2"
    top_n: str = "5,10,25,50,100"
    threads: str = "1"
    min_observed: int = 10
    dump_reps: bool = False
    code_meta: str = ""

    def bootstrap_config(self) -> BootstrapConfig:
        variants = VARIANTS if self.variant == "both" else (self.variant,)
        return BootstrapConfig(
            repetitions=self.reps,
            master_seed=self.seed,
            variants=variants,
            comparator=self.comparator,
            signed_differences=self.signed_differences,
            ties_win=self.ties_win,
        )

    def worker_count(self) -> int:
        if self.threads == "auto":
            import os

            return os.cpu_count() or 1
        return int(self.threads)

    def top_n_values(self) -> list[int]:
        return [int(v) for v in self.top_n.split(",") if v.strip()]


def _write_manifest(path, settings: RunSettings) -> None:
    """``[run]`` holds the resolved settings (the only section ``--config``
    reads); ``[provenance]`` names the random stream and library versions
    that made the results, with no wall-clock values."""
    parser = configparser.ConfigParser()
    parser["run"] = {
        f.name: str(getattr(settings, f.name)) for f in dataclass_fields(RunSettings)
    }
    parser["provenance"] = {
        "seed_scheme": SEED_SCHEME,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    with open(path, "w") as fh:
        parser.write(fh)


def _read_config(path) -> dict[str, str]:
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8-sig")
    if not read:
        raise IngestionError("cannot read config file", path=str(path))
    if "run" not in parser:
        raise IngestionError("config file has no [run] section", path=str(path))
    return dict(parser["run"])


# field name -> annotation ("str", "int", "float" or "bool")
_FIELD_TYPES = {f.name: f.type for f in dataclass_fields(RunSettings)}
_PARSERS = {
    "bool": lambda value: configparser.ConfigParser.BOOLEAN_STATES[str(value).strip().lower()],
    "int": int,
    "float": float,
    "str": str,
}

# setting -> the values it may take (also the command line's choices)
_CHOICES = {
    "variant": (*VARIANTS, "both"),
    "comparator": COMPARATORS,
    "weights": tuple(_WEIGHT_SCHEMES),
    "vario_weighting": WEIGHTINGS,
}

# setting -> (check, what the value must be); a check that raises ValueError fails
_CHECKS = {
    "mode": (lambda s: s.mode in ("", "counts", "fields", "synth"), "counts, fields or synth"),
    **{
        key: (lambda s, key=key: getattr(s, key) in _CHOICES[key], "one of " + ", ".join(values))
        for key, values in _CHOICES.items()
    },
    "cell_km": (lambda s: 0.0 < s.cell_km < np.inf, "positive and finite"),
    "coverage": (lambda s: 0.0 < s.coverage <= 1.0, "in (0, 1]"),
    "years": (lambda s: 0.0 < s.years < np.inf, "positive and finite"),
    "zero_offset": (lambda s: 0.0 <= s.zero_offset < np.inf, "finite, at least 0"),
    "reps": (lambda s: s.reps >= 1, "at least 1"),
    "bin_width_km": (lambda s: 0.0 <= s.bin_width_km < np.inf, "finite, at least 0 (0 = auto)"),
    "max_lag_km": (lambda s: 0.0 <= s.max_lag_km < np.inf, "finite, at least 0 (0 = auto)"),
    "top_n": (lambda s: min(s.top_n_values(), default=1) >= 1, "positive integers"),
    "threads": (lambda s: s.worker_count() >= 1, "'auto' or an integer of at least 1"),
    "min_observed": (lambda s: s.min_observed >= 1, "at least 1"),
}


def _settings_from(args, config: dict[str, str] | None = None) -> RunSettings:
    """Settings from a ``[run]`` config section, overridden by every set
    command-line argument that names a :class:`RunSettings` field.  Every
    value, from either source, is parsed here and checked by
    :func:`_check_settings`, before any work starts."""
    settings = RunSettings()
    overrides = {name: getattr(args, name, None) for name in _FIELD_TYPES}
    for src in (config or {}, overrides):
        for key, value in src.items():
            if key not in _FIELD_TYPES:
                raise IngestionError(f"unknown config key {key!r}")
            if value is not None:
                try:
                    setattr(settings, key, _PARSERS[_FIELD_TYPES[key]](value))
                except (KeyError, ValueError):
                    raise IngestionError(f"{key}: cannot parse {value!r}") from None
    _check_settings(settings)
    return settings


def _check_settings(settings: RunSettings) -> None:
    """Rejects the first setting outside its choices or its range, by name."""
    for key, (check, rule) in _CHECKS.items():
        try:
            ok = check(settings)
        except ValueError:
            ok = False
        if not ok:
            raise IngestionError(f"{key} must be {rule}, got {getattr(settings, key)!r}")


# ---------------------------------------------------------------------------
# Input loading


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        rows, cols = spec.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise IngestionError(f"grid must look like 40x60, got {spec!r}") from None


def _load_graph(settings: RunSettings) -> NeighborGraph:
    if settings.regions:
        regions = sbio.read_regions(settings.regions)
        if settings.edges:
            return sbio.load_adjacency(settings.edges, regions)
        if settings.geojson:
            polygons = sbio.load_geojson_polygons(settings.geojson, settings.id_property)
            missing = [rid for rid in regions.ids if rid not in polygons]
            try:
                if missing:
                    raise GeometryError(f"regions without polygons: {missing[:5]}")
                return queen_contiguity(polygons, regions)
            except (GeometryError, ValueError) as exc:  # unknown ids, degenerate rings
                raise IngestionError(str(exc), path=settings.geojson) from None
        raise IngestionError("need --edges or --geojson alongside --regions")
    if settings.grid:
        rows, cols = _parse_grid(settings.grid)
        try:
            return grid_graph(rows, cols, cell_km=settings.cell_km, n=settings.grid_n or None)
        except ValueError as exc:
            message = f"grid {settings.grid!r}, grid_n {settings.grid_n}: {exc}"
            raise IngestionError(message) from None
    raise IngestionError("need --regions or --grid to define the region set")


def _load_fields(settings: RunSettings, graph: NeighborGraph):
    """Returns (fields, categories, failures) for the configured mode."""
    categories: dict[str, str] = {}
    if settings.mode == "counts":
        std = sbio.read_standard_population(settings.stdpop)
        counts = sbio.build_stratified_counts(settings.counts, settings.totals, graph.regions)
        outcomes = [
            build_rate_field(
                counts,
                std,
                code,
                graph,
                coverage_threshold=settings.coverage,
                years=settings.years,
                zero_offset=settings.zero_offset,
                renormalize_missing=settings.renormalize,
            )
            for code in counts.codes()
        ]
    else:
        if settings.mode == "fields":
            fields = sbio.read_fields(settings.fields, graph.regions)
        else:  # synth
            specs, fields = _synth_corpus(settings.synth_spec, graph.regions)
            categories = {spec.code: spec.kind for spec in specs}
        outcomes = [coverage_outcome(f, graph, settings.coverage) for f in fields]
    failures = [
        (
            o.code,
            "coverage",
            f"observed {o.observed_count}/{o.region_count} "
            f"(fraction {o.fraction:.4f} < {o.threshold:.4f})",
        )
        for o in outcomes
        if isinstance(o, CoverageRejection)
    ]
    return [o for o in outcomes if isinstance(o, RateField)], categories, failures


# ---------------------------------------------------------------------------
# Work units over a process pool

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> None:
    """Keeps freed heap memory in this process for reuse.

    Each NB2 repetition allocates about ten arrays of ~186 KB at 3,109
    regions, above glibc's default 128 KB mmap threshold, so every
    repetition faulted them in afresh.  Blocks below 16 MiB (a variogram
    distance block is 6.4 MB) now come from the heap, and up to 256 MiB of
    it stays mapped; larger blocks, such as the counts row readers' biggest
    dict tables, are still returned, which keeps a counts run's peak
    resident set.  A no-op where the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 16 << 20)
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


# repetitions per NB2 unit; fixed, so the units, and with them the bytes of
# every output, are the same for any worker count
CHUNK_REPS = 250

# the pool worker's shared state: (regions, settings, subjects)
_WORKER: list = []


def _chunks(m: int) -> list[range]:
    return [range(start, min(start + CHUNK_REPS, m)) for start in range(0, m, CHUNK_REPS)]


def _init_worker(regions: RegionSet, settings: RunSettings, subjects) -> None:
    _retain_freed_heap()
    _WORKER[:] = regions, settings, subjects


def _worker_unit(unit) -> tuple:
    return _run_unit(unit, *_WORKER)


def _run_unit(unit, regions: RegionSet, settings: RunSettings, subjects) -> tuple:
    """``(value, failures)`` of one work unit ``(k, reps)`` of ``subjects[k]
    = (field, subgraph)``: with ``reps`` a repetition range, the value is
    ``nb2`` over it; with ``reps`` None, the field's variogram over
    ``regions``, ``(empirical, model)``, None where a stage failed.  An
    unexpected exception gives no value and an ``internal`` failure record
    instead of aborting the batch.  Numeric stages other than scipy's
    optimizer raise on overflow or invalid results, so a non-finite
    intermediate is recorded at the stage where it first appears."""
    k, reps = unit
    field, sub = subjects[k]
    failures: list = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            if reps is not None:
                return _stage(failures, field.code, "nb2", nb2, field, sub,
                              settings.bootstrap_config(), reps=reps), failures
            emp = _stage(failures, field.code, "variogram", empirical_variogram, field, regions,
                         bin_width_km=settings.bin_width_km or None,
                         max_lag_km=settings.max_lag_km or None)
        model = emp and _stage(failures, field.code, "variogram", fit_exponential, emp,
                               weighting=settings.vario_weighting)
        if model is not None and not model.converged:
            failures.append((field.code, "variogram", "fit did not move from initial parameters"))
        return (emp, model), failures
    except Exception as exc:
        return None, failures + _internal_error(field.code, exc)


def _run_units(subjects, units, regions: RegionSet, settings: RunSettings) -> list[list]:
    """The ``(value, failures)`` output of each unit, grouped by subject,
    each group in unit order.

    Runs in-process for one worker, else over a process pool of
    ``min(--threads, units)`` workers.  A dead worker process breaks the
    whole pool, so the units whose outputs never came back are retried
    together in one fresh pool, and any still missing after that each
    alone in a one-worker pool; a unit whose worker dies there too gets no
    value and an ``internal`` ``BrokenProcessPool`` failure record.
    """
    workers = min(settings.worker_count(), len(units))
    if workers <= 1:
        outs = [_run_unit(unit, regions, settings, subjects) for unit in units]
    else:
        outs = _pool_results(units, workers, regions, settings, subjects)

        def missing() -> list[int]:
            return [i for i, out in enumerate(outs) if isinstance(out, BrokenProcessPool)]

        def retry(batch: list[int]) -> None:
            retried = _pool_results([units[i] for i in batch], min(workers, len(batch)),
                                    regions, settings, subjects)
            for i, out in zip(batch, retried):
                outs[i] = out

        if len(missing()) > 1:
            retry(missing())
        for i in missing():
            retry([i])
            if isinstance(outs[i], BrokenProcessPool):
                outs[i] = None, _internal_error(subjects[units[i][0]][0].code, outs[i])
    groups = [[] for _ in subjects]
    for (k, _reps), out in zip(units, outs):
        groups[k].append(out)
    return groups


def _pool_results(units, workers: int, regions, settings, subjects) -> list:
    """Outputs of one process pool in unit order, with the pool's
    ``BrokenProcessPool`` in place of each output lost to a dead worker."""
    outs = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(regions, settings, subjects)
    ) as pool:
        futures = [pool.submit(_worker_unit, unit) for unit in units]
        for future in futures:
            try:
                outs.append(future.result())
            except BrokenProcessPool as exc:
                outs.append(exc)
    return outs


def _internal_error(code: str, exc: BaseException) -> list:
    """Reports an unexpected exception, with its traceback, as the code's
    ``internal`` failure record."""
    print(f"code {code!r}: internal error", file=sys.stderr)
    traceback.print_exception(exc)
    return [(code, "internal", f"{type(exc).__name__}: {exc}")]


# a stage's data failures: the stage's result is left out and recorded as a
# failure of that stage; any other exception is an ``internal`` failure
_STAGE_ERRORS = (InsufficientDataError, EmptyVariogramError, UndefinedStatisticError,
                 FloatingPointError)


def _stage(failures: list, code: str, stage: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None with the failure record
    ``(code, stage, reason)`` when it raises one of ``_STAGE_ERRORS``."""
    try:
        return fn(*args, **kwargs)
    except _STAGE_ERRORS as exc:
        failures.append((code, stage, str(exc)))
        return None


def _analyze(fields, graph: NeighborGraph, settings: RunSettings) -> list[dict]:
    """Every code's analysis, in field order.

    This process runs each code's subgraph stage and Moran's I; the code's
    units then run over :func:`_run_units`: its variogram, submitted first
    because it is the longest, then its NB2 repetition chunks.
    """
    prepared = [_subgraph_stage(field, graph, settings) for field in fields]
    units = [(k, reps) for k, (_res, sub) in enumerate(prepared) if sub is not None
             for reps in (None, *_chunks(settings.reps))]
    subjects = [(field, sub) for field, (_res, sub) in zip(fields, prepared)]
    outs = _run_units(subjects, units, graph.regions, settings)
    return [_joined(res, parts) if parts else res for (res, _sub), parts in zip(prepared, outs)]


def _subgraph_stage(field: RateField, graph: NeighborGraph, settings: RunSettings):
    """(result with Moran's I, observed subgraph) of one code; the subgraph
    is None when the code failed here, and the result then holds the record."""
    res = {"code": field.code, "nb2": [], "moran": None, "empirical": None, "model": None,
           "failures": [], "diagnostics": {}}
    try:
        with np.errstate(over="raise", invalid="raise"):
            sub = _stage(res["failures"], field.code, "subgraph", observed_subgraph, graph,
                         field, min_observed=settings.min_observed)
            if sub is not None:
                observed = int(field.observed_mask(graph.ids).sum())
                res["diagnostics"] = {
                    "observed": observed,
                    "n_effective": sub.n,
                    "isolates_dropped": observed - sub.n,
                    "components": sub.component_count(),
                }
                res["moran"] = _stage(res["failures"], field.code, "moran", morans_i, field,
                                      sub, scheme=_WEIGHT_SCHEMES[settings.weights])
    except Exception as exc:
        res["failures"] += _internal_error(field.code, exc)
        res["diagnostics"] = {}
        return res, None
    return res, sub


def _joined_nb2(chunks: list) -> tuple:
    """``(NB2 results by variant, failures)`` of one code from the outputs
    of its NB2 chunks in repetition order: the joined results, or None and
    the first failing chunk's failures."""
    for _value, failures in chunks:
        if failures:
            return None, failures
    return join_results([value for value, _failures in chunks]), []


def _joined(res: dict, parts: list) -> dict:
    """A code's result from the outputs of its units (the variogram first,
    then the NB2 chunks), as one serial run of its stages Moran's I (already
    in ``res``), nb2, variogram would give it: an ``internal`` failure stops
    the stages after it and drops all of the code's results, its Moran's I
    and diagnostics too."""
    (vario, vario_failures), *chunks = parts
    joined, nb2_failures = _joined_nb2(chunks)
    for failures in (nb2_failures, vario_failures):
        res["failures"].extend(failures)
        if any(stage == "internal" for _code, stage, _reason in failures):
            res["moran"], res["diagnostics"] = None, {}
            return res
    if joined is not None:
        res["nb2"] = list(joined.values())
        if VARIANT_TTEST in joined:
            t_values = joined[VARIANT_TTEST].per_repetition
            res["diagnostics"]["t_nonfinite_reps"] = int(np.count_nonzero(~np.isfinite(t_values)))
        if VARIANT_ODDS in joined:
            odds = joined[VARIANT_ODDS]
            res["diagnostics"]["odds_tie_frac"] = odds.ties / (odds.repetitions * odds.n_effective)
    res["empirical"], res["model"] = vario
    return res


# ---------------------------------------------------------------------------
# run


def _write_reports(out_dir: Path, statistics, variograms, names, categories, top_n) -> int:
    """ranking.csv, curves.csv and, with categories, categories.csv;
    returns the number of ranked codes."""
    table = rank(statistics, variograms=variograms, names=names, categories=categories)
    sbio.write_ranking_table(out_dir / "ranking.csv", table)
    k = len(table.rows)
    n_values = [n for n in top_n if n <= k] or [k]
    curves = {method: top_n_curve(table, method, n_values) for method in statistics}
    sbio.write_curves(out_dir / "curves.csv", curves)
    if categories:
        sbio.write_category_summaries(out_dir / "categories.csv", category_summary(table))
    return k


def _write_diagnostics(path, results: list[dict]) -> None:
    columns = ["observed", "n_effective", "isolates_dropped", "components",
               "t_nonfinite_reps", "odds_tie_frac"]
    rows = [
        (res["code"], *(res["diagnostics"].get(column) for column in columns))
        for res in sorted(results, key=lambda r: r["code"])
        if res["diagnostics"]
    ]
    sbio._write(path, ["code", *columns], rows)


def cmd_run(args) -> int:
    settings = _settings_from(args, _read_config(args.config) if args.config else {})
    if args.bundle:
        bundle = Path(args.bundle)
        settings.mode = "counts"
        for name in ("regions", "edges", "counts", "totals", "stdpop"):
            setattr(settings, name, str(bundle / f"{name}.csv"))
    if not settings.mode:
        if settings.synth_spec:
            settings.mode = "synth"
        elif settings.fields:
            settings.mode = "fields"
        elif settings.counts:
            settings.mode = "counts"
        else:
            raise IngestionError("cannot infer run mode; pass inputs or --config")
    if not settings.out:
        raise IngestionError("missing output directory (--out)")

    graph = _load_graph(settings)
    fields, categories, failures = _load_fields(settings, graph)
    names = {}
    if settings.code_meta:
        names, meta_categories = sbio.read_code_metadata(settings.code_meta)
        categories = {**categories, **meta_categories}

    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every code ends in a variogram fit, so the optimizer is imported once,
    # before any pool worker forks: a worker that imported its own at its
    # first fit had a ~9 MB larger peak resident set
    import scipy.optimize  # noqa: F401

    results = _analyze(fields, graph, settings)
    results.sort(key=lambda r: r["code"])
    statistics: dict[str, dict[str, float]] = {}
    for res in results:
        failures.extend(res["failures"])
        for br in res["nb2"]:
            statistics.setdefault(NB2_METHODS[br.variant], {})[br.code] = br.statistic
        if res["moran"] is not None:
            statistics.setdefault(METHOD_MORAN, {})[res["code"]] = res["moran"].i
    models = [res["model"] for res in results if res["model"] is not None]

    sbio.write_regions(out_dir / "regions.csv", graph.regions)
    sbio.write_edges(out_dir / "edges.csv", graph)
    sbio.write_fields(out_dir / "fields.csv", fields)
    nb2_results = [br for res in results for br in res["nb2"]]
    sbio.write_nb2_results(out_dir / "nb2.csv", nb2_results)
    if settings.dump_reps:
        for variant in sorted({br.variant for br in nb2_results}):
            sbio.write_nb2_repetitions(
                out_dir / f"nb2_reps_{variant}.csv",
                [br for br in nb2_results if br.variant == variant],
            )
    sbio.write_moran_results(
        out_dir / "moran.csv", [res["moran"] for res in results if res["moran"] is not None]
    )
    sbio.write_variogram_models(out_dir / "variogram.csv", models)
    sbio.write_empirical_variograms(
        out_dir / "variogram_empirical.csv",
        [res["empirical"] for res in results if res["empirical"] is not None],
    )
    if statistics:
        _write_reports(
            out_dir,
            statistics,
            {m.code: m for m in models},
            names,
            categories,
            settings.top_n_values(),
        )
    else:
        failures.append(
            ("", "ranking", "no code has a statistic; ranking.csv and curves.csv not written")
        )
    _write_diagnostics(out_dir / "diagnostics.csv", results)
    sbio.write_failures(out_dir / "failures.csv", failures)
    _write_manifest(out_dir / "manifest.ini", settings)
    analyzed = {code for per_code in statistics.values() for code in per_code}
    print(
        f"run complete: {len(analyzed)} codes analyzed, {len(failures)} failure records "
        f"-> {out_dir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    settings = _settings_from(args)
    graph = _load_graph(settings)
    regions = graph.regions
    std = sbio.read_standard_population(settings.stdpop)
    counts = sbio.build_stratified_counts(settings.counts, settings.totals, regions)

    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sbio.write_regions(out_dir / "regions.csv", regions)
    sbio.write_edges(out_dir / "edges.csv", graph)
    sbio._write(out_dir / "counts.csv", sbio.COUNTS_HEADER, counts.case_rows())
    sbio._write(out_dir / "totals.csv", sbio.TOTALS_HEADER, counts.total_rows())
    sbio._write(
        out_dir / "stdpop.csv",
        sbio.STDPOP_HEADER,
        ((age, gender, pop) for (age, gender), pop in sorted(std.populations.items())),
    )

    codes = counts.codes()
    if not codes:
        print("warning: counts file has no case rows; bundle has zero codes", file=sys.stderr)
    observed = counts.observed_counts()
    sbio._write(
        out_dir / "coverage.csv",
        ["code", "observed", "fraction"],
        ((code, observed[code], observed[code] / len(regions)) for code in codes),
    )
    parser = configparser.ConfigParser()
    parser["ingest"] = {
        "regions": str(len(regions)),
        "edges": str(graph.edge_count),
        "isolates": str(len(graph.isolated_ids())),
        "components": str(graph.component_count()),
        "codes": str(len(codes)),
    }
    with open(out_dir / "validation.txt", "w") as fh:
        parser.write(fh)
    print(
        f"ingested {len(regions)} regions, {graph.edge_count} edges, "
        f"{len(codes)} codes -> {out_dir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def _synth_corpus(source, regions, specs=None) -> tuple[list, list[RateField]]:
    """The specs, read from the spec file ``source`` unless given, and their
    fields; any defect of them is an input error that names ``source``."""
    try:
        specs = parse_spec_file(source) if specs is None else specs
        return specs, corpus(specs, regions)
    except (ValueError, configparser.Error, OSError) as exc:
        raise IngestionError(str(exc), path=str(source)) from None


def cmd_synth(args) -> int:
    settings = _settings_from(args)
    if settings.regions and not settings.edges:  # no graph: fields only
        graph, regions = None, sbio.read_regions(settings.regions)
    else:
        graph = _load_graph(settings)
        regions = graph.regions
    specs, fields = _synth_corpus(args.spec, regions)
    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sbio.write_regions(out_dir / "regions.csv", regions)
    if graph is not None:
        sbio.write_edges(out_dir / "edges.csv", graph)
    sbio.write_fields(out_dir / "fields.csv", fields)
    sbio._write(
        out_dir / "labels.csv",
        ["code", "kind", "seed"],
        ((spec.code, spec.kind, spec.seed) for spec in specs),
    )
    print(f"generated {len(fields)} fields over {len(regions)} regions -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    settings = _settings_from(args)
    if args.codes < 1:
        raise IngestionError(f"--codes must be at least 1, got {args.codes}")
    m_values = sorted(set(_bench_grid(args, "m_grid", "reps")))
    worker_values = _bench_grid(args, "workers_grid", "threads")
    graph = _load_graph(settings)
    from .synth import FieldSpec

    specs = [
        FieldSpec(
            f"bench{i:02d}",
            "exponential_gp",
            seed=1000 + i,
            params={"length_km": 120.0, "sill": 1.0, "nugget": 0.1},
        )
        for i in range(args.codes)
    ]
    _specs, fields = _synth_corpus(f"--grid {settings.grid}", graph.regions, specs)
    stats_by_m: dict[int, list[float]] = {}
    timings = []
    for m in m_values:
        for threads in worker_values:
            point = replace(settings, reps=m, threads=threads)
            workers = point.worker_count()
            start = time.perf_counter()
            stats_by_m[m] = _bench_statistics(fields, graph, point)
            elapsed = time.perf_counter() - start
            timings.append((m, workers, elapsed))
            print(
                f"M={m} workers={workers}: {elapsed:.2f}s total, "
                f"{elapsed / len(fields):.3f}s/code"
            )
    # statistic drift vs the largest M, mirroring the bootstrap-count
    # stability table: per-code relative difference, averaged over codes
    ref = stats_by_m[m_values[-1]]
    drift = {
        m: sum(abs(c - r) / abs(r) for c, r in zip(stats_by_m[m], ref) if r != 0) / len(ref)
        for m in m_values
    }
    out_rows = [
        (m, workers, len(fields), elapsed / len(fields), drift[m])
        for m, workers, elapsed in timings
    ]
    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sbio._write(
        out_dir / "bench.csv",
        ["M", "workers", "codes", "seconds_per_code", "mean_rel_diff_vs_max_m"],
        out_rows,
    )
    return EXIT_OK


def _bench_grid(args, flag: str, key: str) -> list:
    """Each comma-separated value of a ``bench`` grid flag, parsed and
    checked as the setting ``key`` like any other setting."""
    text = getattr(args, flag)
    try:
        return [getattr(_settings_from(args, {key: v}), key) for v in text.split(",")]
    except IngestionError as exc:
        raise IngestionError(f"--{flag.replace('_', '-')} {text!r}: {exc}") from None


def _bench_statistics(fields, graph: NeighborGraph, settings: RunSettings) -> list[float]:
    """Each field's ttest statistic over the whole ``graph``, from the NB2
    units ``run`` would give it."""
    units = [(k, reps) for k in range(len(fields)) for reps in _chunks(settings.reps)]
    outs = _run_units([(field, graph) for field in fields], units, graph.regions, settings)
    statistics = []
    for field, chunks in zip(fields, outs):
        joined, failures = _joined_nb2(chunks)
        if failures:
            raise SpatialBootError(f"bench: code {field.code!r}: {failures[0][2]}")
        statistics.append(joined[VARIANT_TTEST].statistic)
    return statistics


# ---------------------------------------------------------------------------
# rank / variogram (re-derivation from a results directory)


def cmd_rank(args) -> int:
    settings = _settings_from(args)
    results_dir = Path(args.results)
    statistics = sbio.read_statistics(results_dir)
    variogram_path = results_dir / "variogram.csv"
    variograms = sbio.read_variogram_models(variogram_path) if variogram_path.exists() else {}
    names, categories = {}, {}
    if settings.code_meta:
        names, categories = sbio.read_code_metadata(settings.code_meta)
    k = _write_reports(
        results_dir, statistics, variograms, names, categories, settings.top_n_values()
    )
    print(f"reranked {k} codes -> {results_dir}")
    return EXIT_OK


def cmd_variogram(args) -> int:
    settings = _settings_from(args)
    results_dir = Path(args.results)
    regions = sbio.read_regions(results_dir / "regions.csv")
    fields = sbio.read_fields(results_dir / "fields.csv", regions)
    # one variogram unit per field, as in run; the settings give one worker
    outs = _run_units([(field, None) for field in fields],
                      [(k, None) for k in range(len(fields))], regions, settings)
    failures = [failure for ((_fit, unit_failures),) in outs for failure in unit_failures]
    fits = [fit for ((fit, _failures),) in outs if fit is not None]
    models = [model for _emp, model in fits if model is not None]
    sbio.write_variogram_models(results_dir / "variogram.csv", models)
    sbio.write_empirical_variograms(
        results_dir / "variogram_empirical.csv", [emp for emp, _model in fits if emp is not None]
    )
    if failures:
        sbio.write_failures(results_dir / "variogram_failures.csv", failures)
    print(f"fitted {len(models)} variograms -> {results_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


# flag spellings other than "--" plus the field name with dashes
_FLAGS = {"bin_width_km": "--bin-width", "max_lag_km": "--max-lag"}


def _add_settings(parser, names: str, required: str = "", flags=None, helps=None) -> None:
    """One option per named :class:`RunSettings` field, with no type or
    default: an unset option leaves the field to the config file or the
    dataclass default, and :func:`_settings_from` parses and checks every
    value.  ``flags`` and ``helps`` (field -> text) apply to this parser."""
    flags, helps = {**_FLAGS, **(flags or {})}, helps or {}
    for name in names.split():
        flag = flags.get(name, "--" + name.replace("_", "-"))
        if _FIELD_TYPES[name] == "bool":
            parser.add_argument(flag, dest=name, action="store_const", const=True)
        else:
            parser.add_argument(flag, dest=name, required=name in required.split(),
                                choices=_CHOICES.get(name), help=helps.get(name))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialboot",
        description="Neighbor-based bootstrap ranking of spatial autocorrelation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate raw inputs into a normalized bundle")
    _add_settings(p, "regions edges geojson id_property counts totals stdpop out",
                  required="regions counts totals stdpop out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic fields from a spec file")
    p.add_argument("--spec", required=True)
    _add_settings(p, "grid cell_km grid_n regions edges out", required="out",
                  flags={"grid_n": "--n"},
                  helps={"grid": "ROWSxCOLS lattice, e.g. 40x60",
                         "grid_n": "truncate lattice to first N cells"})
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run the full analysis pipeline")
    p.add_argument("--config", help="config or manifest file with a [run] section")
    p.add_argument("--bundle", help="ingested bundle directory (counts mode)")
    _add_settings(p, " ".join(name for name in _FIELD_TYPES if name != "mode"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="time the bootstrap engine")
    _add_settings(p, "grid cell_km grid_n", required="grid", flags={"grid_n": "--n"})
    p.add_argument("--codes", type=int, default=8)
    p.add_argument("--m-grid", default="10,100,1000", dest="m_grid")
    p.add_argument("--workers-grid", default="1", dest="workers_grid")
    _add_settings(p, "seed out", required="out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rank", help="re-derive rankings from a results directory")
    p.add_argument("--results", required=True)
    _add_settings(p, "top_n code_meta")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("variogram", help="re-derive variograms from a results directory")
    p.add_argument("--results", required=True)
    _add_settings(p, "bin_width_km max_lag_km vario_weighting")
    p.set_defaults(func=cmd_variogram)

    return parser


def main(argv=None) -> int:
    _retain_freed_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IngestionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SpatialBootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
