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
one parallel layer is a process pool over codes (``--threads``); results
are reduced in code order, so outputs are identical for any worker count.
A code whose analysis raises, or whose worker process dies, becomes an
``internal`` failure record and the rest of the batch goes on.

Exit codes: 0 success, 1 structural failure, 2 input validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import platform
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np
import scipy

from . import io as sbio
from .errors import (
    EmptyVariogramError,
    IngestionError,
    InsufficientDataError,
    SpatialBootError,
    UndefinedStatisticError,
)
from .fields import RateField
from .graph import NeighborGraph, observed_subgraph, queen_contiguity
from .moran import SCHEME_BINARY, SCHEME_ROW, morans_i
from .nb2 import COMPARATOR_MATCHED, COMPARATORS, SEED_SCHEME, BootstrapConfig, nb2
from .ranking import METHOD_MORAN, NB2_METHODS, category_summary, rank, top_n_curve
from .rates import (
    CoverageRejection,
    DEFAULT_COVERAGE,
    DEFAULT_YEARS,
    build_rate_field,
    coverage_outcome,
)
from .synth import corpus, grid_graph, parse_spec_file
from .variogram import empirical_variogram, fit_exponential

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_VALIDATION = 2

VARIANT_CHOICES = ("ttest", "odds", "both")
WEIGHT_CHOICES = ("binary", "row")

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
        variants = ("ttest", "odds") if self.variant == "both" else (self.variant,)
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
    "bool": lambda value: str(value).strip().lower() in ("1", "true", "yes", "on"),
    "int": int,
    "float": float,
    "str": str,
}


def _settings_from(args, config: dict[str, str] | None = None) -> RunSettings:
    """Settings from a ``[run]`` config section, overridden by every set
    command-line argument that names a :class:`RunSettings` field."""
    settings = RunSettings()
    overrides = {name: getattr(args, name, None) for name in _FIELD_TYPES}
    for src in (config or {}, overrides):
        for key, value in src.items():
            if key not in _FIELD_TYPES:
                raise IngestionError(f"unknown config key {key!r}")
            if value is not None:
                setattr(settings, key, _PARSERS[_FIELD_TYPES[key]](value))
    return settings


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
            if missing:
                raise IngestionError(
                    f"regions without polygons: {missing[:5]}", path=settings.geojson
                )
            return queen_contiguity(polygons, regions)
        raise IngestionError("need --edges or --geojson alongside --regions")
    if settings.grid:
        rows, cols = _parse_grid(settings.grid)
        return grid_graph(
            rows, cols, cell_km=settings.cell_km, n=settings.grid_n or None
        )
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
        elif settings.mode == "synth":
            specs = parse_spec_file(settings.synth_spec)
            fields = corpus(specs, graph.regions)
            categories = {spec.code: spec.kind for spec in specs}
        else:
            raise IngestionError(f"unknown run mode {settings.mode!r}")
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
# Per-code work over a process pool

_WORKER: dict = {}


def _init_worker(task, graph: NeighborGraph, settings: RunSettings) -> None:
    _WORKER.update(task=task, graph=graph, settings=settings)


def _run_task(field: RateField):
    return _WORKER["task"](field, _WORKER["graph"], _WORKER["settings"])


def _per_code(task, fields, graph, settings, lost) -> list:
    """``task(field, graph, settings)`` for each field, in field order.

    Runs in-process for one worker or one code, else over a process pool
    (``--threads`` workers, one code per task).  A dead worker process
    breaks the whole pool, so the codes whose results never came back are
    retried together in one fresh pool, and any still missing after that
    each alone in a one-worker pool; a code whose worker dies there too
    gets ``lost(field, exc)``.
    """
    workers = min(settings.worker_count(), len(fields))
    if workers <= 1:
        return [task(f, graph, settings) for f in fields]
    results = _pool_results(task, fields, graph, settings, workers)

    def missing() -> list[int]:
        return [k for k, r in enumerate(results) if isinstance(r, BrokenProcessPool)]

    def retry(batch: list[int]) -> None:
        retried = _pool_results(
            task, [fields[k] for k in batch], graph, settings, min(workers, len(batch))
        )
        for k, result in zip(batch, retried):
            results[k] = result

    if len(missing()) > 1:
        retry(missing())
    for k in missing():
        retry([k])
    for k in missing():
        results[k] = lost(fields[k], results[k])
    return results


def _pool_results(task, fields, graph, settings, workers: int) -> list:
    """Results of one process pool in field order, with the pool's
    ``BrokenProcessPool`` in place of each result lost to a dead worker."""
    results = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(task, graph, settings)
    ) as pool:
        futures = [pool.submit(_run_task, f) for f in fields]
        for future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(exc)
    return results


def _new_result(code: str) -> dict:
    return {
        "code": code,
        "nb2": [],
        "moran": None,
        "model": None,
        "empirical": None,
        "failures": [],
        "diagnostics": {},
    }


def _record_internal(out: dict, exc: BaseException) -> dict:
    """Drops the code's partial results and records the exception as an
    ``internal`` failure."""
    out.update(nb2=[], moran=None, model=None, empirical=None)
    out["failures"].append((out["code"], "internal", f"{type(exc).__name__}: {exc}"))
    return out


def _analyze_code(field: RateField, graph: NeighborGraph, settings: RunSettings) -> dict:
    """One code's analysis; an unexpected exception becomes an ``internal``
    failure record instead of aborting the batch."""
    out = _new_result(field.code)
    try:
        _analyze_stages(field, graph, settings, out)
    except Exception as exc:
        print(f"code {field.code!r}: internal error, recorded in failures.csv", file=sys.stderr)
        traceback.print_exc()
        _record_internal(out, exc)
    return out


def _lost_code(field: RateField, exc: BaseException) -> dict:
    print(f"code {field.code!r}: worker process died, recorded in failures.csv", file=sys.stderr)
    return _record_internal(_new_result(field.code), exc)


def _analyze_stages(
    field: RateField, graph: NeighborGraph, settings: RunSettings, out: dict
) -> None:
    """Numeric stages raise on overflow or invalid results, so a non-finite
    intermediate is recorded at the stage where it first appears."""
    observed = sum(1 for rid in field.values if rid in graph.regions)
    try:
        sub = observed_subgraph(graph, field, min_observed=settings.min_observed)
    except InsufficientDataError as exc:
        out["failures"].append((field.code, "subgraph", str(exc)))
        return
    out["diagnostics"] = {
        "observed": observed,
        "n_effective": sub.n,
        "isolates_dropped": observed - sub.n,
        "components": sub.component_count(),
    }
    try:
        with np.errstate(over="raise", invalid="raise"):
            out["nb2"] = list(nb2(field, sub, settings.bootstrap_config()).values())
    except FloatingPointError as exc:
        out["failures"].append((field.code, "nb2", str(exc)))
    try:
        with np.errstate(over="raise", invalid="raise"):
            out["moran"] = morans_i(field, sub, scheme=_WEIGHT_SCHEMES[settings.weights])
    except (UndefinedStatisticError, FloatingPointError) as exc:
        out["failures"].append((field.code, "moran", str(exc)))
    out["empirical"], out["model"] = _fit_variogram(
        field, graph.regions, settings, out["failures"]
    )


def _fit_variogram(field: RateField, regions, settings: RunSettings, failures: list):
    """(empirical variogram, exponential fit) of one code; what a failed
    stage did not produce is None, with a ``variogram`` failure record.
    scipy's optimizer runs under numpy's default error handling."""
    emp = model = None
    try:
        with np.errstate(over="raise", invalid="raise"):
            emp = empirical_variogram(
                field,
                regions,
                bin_width_km=settings.bin_width_km or None,
                max_lag_km=settings.max_lag_km or None,
            )
        model = fit_exponential(emp, weighting=settings.vario_weighting)
        if not model.converged:
            failures.append((field.code, "variogram", "fit did not move from initial parameters"))
    except (InsufficientDataError, EmptyVariogramError, FloatingPointError) as exc:
        failures.append((field.code, "variogram", str(exc)))
    return emp, model


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
    rows = []
    for res in sorted(results, key=lambda r: r["code"]):
        diag = res["diagnostics"]
        if diag:
            rows.append(
                (
                    res["code"],
                    diag["observed"],
                    diag["n_effective"],
                    diag["isolates_dropped"],
                    diag["components"],
                )
            )
    sbio._write(
        path,
        ["code", "observed", "n_effective", "isolates_dropped", "components"],
        rows,
    )


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
    try:
        settings.bootstrap_config()  # fail fast on bad statistic options
    except ValueError as exc:
        raise IngestionError(str(exc)) from None

    graph = _load_graph(settings)
    fields, categories, failures = _load_fields(settings, graph)
    names = {}
    if settings.code_meta:
        names, meta_categories = sbio.read_code_metadata(settings.code_meta)
        categories = {**categories, **meta_categories}

    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _per_code(_analyze_code, fields, graph, settings, _lost_code)
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
    graph = _load_graph(_settings_from(args))
    regions = graph.regions
    std = sbio.read_standard_population(args.stdpop)
    counts = sbio.build_stratified_counts(args.counts, args.totals, regions)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sbio.write_regions(out_dir / "regions.csv", regions)
    sbio.write_edges(out_dir / "edges.csv", graph)
    sbio._write(
        out_dir / "counts.csv",
        sbio.COUNTS_HEADER,
        ((*key, n) for key, n in sorted(counts.cases.items())),
    )
    sbio._write(
        out_dir / "totals.csv",
        sbio.TOTALS_HEADER,
        ((*key, n) for key, n in sorted(counts.totals.items())),
    )
    sbio._write(
        out_dir / "stdpop.csv",
        sbio.STDPOP_HEADER,
        ((age, gender, pop) for (age, gender), pop in sorted(std.populations.items())),
    )

    codes = counts.codes()
    if not codes:
        print("warning: counts file has no case rows; bundle has zero codes", file=sys.stderr)
    observed_by_code: dict[str, set[str]] = {code: set() for code in codes}
    for (rid, code, _age, _gender), n in counts.cases.items():
        if n > 0:
            observed_by_code[code].add(rid)
    sbio._write(
        out_dir / "coverage.csv",
        ["code", "observed", "fraction"],
        (
            (code, len(observed_by_code[code]), len(observed_by_code[code]) / len(regions))
            for code in codes
        ),
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


def cmd_synth(args) -> int:
    specs = parse_spec_file(args.spec)
    if args.regions and not args.edges:  # no graph: fields only
        graph, regions = None, sbio.read_regions(args.regions)
    else:
        graph = _load_graph(_settings_from(args))
        regions = graph.regions
    fields = corpus(specs, regions)
    out_dir = Path(args.out)
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
    graph = _load_graph(_settings_from(args))
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
    fields = corpus(specs, graph.regions)
    m_values = sorted({int(v) for v in args.m_grid.split(",")})
    worker_values = [int(v) for v in args.workers_grid.split(",")]
    stats_by_m: dict[int, list[float]] = {}
    timings = []
    for m in m_values:
        for workers in worker_values:
            settings = RunSettings(
                mode="synth", reps=m, seed=args.seed, threads=str(workers)
            )
            start = time.perf_counter()
            stats_by_m[m] = _per_code(_bench_nb2, fields, graph, settings, _bench_lost)
            elapsed = time.perf_counter() - start
            timings.append((m, workers, elapsed))
            print(
                f"M={m} workers={workers}: {elapsed:.2f}s total, "
                f"{elapsed / len(fields):.3f}s/code"
            )
    # statistic drift vs the largest M, mirroring the bootstrap-count
    # stability table: per-code relative difference, averaged over codes
    m_max = m_values[-1]
    ref = stats_by_m[m_max]
    drift = {}
    for m in m_values:
        cur = stats_by_m[m]
        drift[m] = sum(
            abs(c - r) / abs(r) for c, r in zip(cur, ref) if r != 0
        ) / max(len(ref), 1)
    out_rows = [
        (m, workers, len(fields), elapsed / len(fields), drift[m])
        for m, workers, elapsed in timings
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sbio._write(
        out_dir / "bench.csv",
        ["M", "workers", "codes", "seconds_per_code", "mean_rel_diff_vs_max_m"],
        out_rows,
    )
    return EXIT_OK


def _bench_nb2(field: RateField, graph: NeighborGraph, settings: RunSettings) -> float:
    return nb2(field, graph, settings.bootstrap_config())["ttest"].statistic


def _bench_lost(field: RateField, exc: BaseException):
    raise SpatialBootError(f"bench: worker process died on code {field.code!r}: {exc}")


# ---------------------------------------------------------------------------
# rank / variogram (re-derivation from a results directory)


def cmd_rank(args) -> int:
    results_dir = Path(args.results)
    statistics = sbio.read_statistics(results_dir)
    variogram_path = results_dir / "variogram.csv"
    variograms = sbio.read_variogram_models(variogram_path) if variogram_path.exists() else {}
    names, categories = {}, {}
    if args.code_meta:
        names, categories = sbio.read_code_metadata(args.code_meta)
    settings = _settings_from(args)
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
    failures: list[tuple[str, str, str]] = []
    fits = [_fit_variogram(field, regions, settings, failures) for field in fields]
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialboot",
        description="Neighbor-based bootstrap ranking of spatial autocorrelation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate raw inputs into a normalized bundle")
    p.add_argument("--regions", required=True)
    p.add_argument("--edges")
    p.add_argument("--geojson")
    p.add_argument("--id-property", default="id", dest="id_property")
    p.add_argument("--counts", required=True)
    p.add_argument("--totals", required=True)
    p.add_argument("--stdpop", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic fields from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", help="ROWSxCOLS lattice, e.g. 40x60")
    p.add_argument("--cell-km", type=float, default=30.0, dest="cell_km")
    p.add_argument("--n", type=int, default=0, dest="grid_n",
                   help="truncate lattice to first N cells")
    p.add_argument("--regions")
    p.add_argument("--edges")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run the full analysis pipeline")
    p.add_argument("--config", help="config or manifest file with a [run] section")
    p.add_argument("--bundle", help="ingested bundle directory (counts mode)")
    p.add_argument("--out")
    p.add_argument("--regions")
    p.add_argument("--edges")
    p.add_argument("--geojson")
    p.add_argument("--id-property", dest="id_property")
    p.add_argument("--counts")
    p.add_argument("--totals")
    p.add_argument("--stdpop")
    p.add_argument("--fields")
    p.add_argument("--synth-spec", dest="synth_spec")
    p.add_argument("--grid")
    p.add_argument("--cell-km", type=float, dest="cell_km")
    p.add_argument("--grid-n", type=int, dest="grid_n")
    p.add_argument("--coverage", type=float)
    p.add_argument("--years", type=float)
    p.add_argument("--zero-offset", type=float, dest="zero_offset")
    p.add_argument("--renormalize", action="store_const", const=True)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--variant", choices=VARIANT_CHOICES)
    p.add_argument("--comparator", choices=COMPARATORS)
    p.add_argument("--signed-differences", action="store_const", const=True,
                   dest="signed_differences")
    p.add_argument("--ties-win", action="store_const", const=True, dest="ties_win")
    p.add_argument("--weights", choices=WEIGHT_CHOICES)
    p.add_argument("--bin-width", type=float, dest="bin_width_km")
    p.add_argument("--max-lag", type=float, dest="max_lag_km")
    p.add_argument("--vario-weighting", choices=("pairs_over_h2", "pairs"),
                   dest="vario_weighting")
    p.add_argument("--top-n", dest="top_n")
    p.add_argument("--threads")
    p.add_argument("--min-observed", type=int, dest="min_observed")
    p.add_argument("--dump-reps", action="store_const", const=True, dest="dump_reps")
    p.add_argument("--code-meta", dest="code_meta")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="time the bootstrap engine")
    p.add_argument("--grid", required=True)
    p.add_argument("--cell-km", type=float, default=30.0, dest="cell_km")
    p.add_argument("--n", type=int, default=0, dest="grid_n")
    p.add_argument("--codes", type=int, default=8)
    p.add_argument("--m-grid", default="10,100,1000", dest="m_grid")
    p.add_argument("--workers-grid", default="1", dest="workers_grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rank", help="re-derive rankings from a results directory")
    p.add_argument("--results", required=True)
    p.add_argument("--top-n", default="5,10,25,50,100", dest="top_n")
    p.add_argument("--code-meta", dest="code_meta")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("variogram", help="re-derive variograms from a results directory")
    p.add_argument("--results", required=True)
    p.add_argument("--bin-width", type=float, default=0.0, dest="bin_width_km")
    p.add_argument("--max-lag", type=float, default=0.0, dest="max_lag_km")
    p.add_argument("--vario-weighting", choices=("pairs_over_h2", "pairs"),
                   default="pairs_over_h2", dest="vario_weighting")
    p.set_defaults(func=cmd_variogram)

    return parser


def main(argv=None) -> int:
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
