"""Command-line pipeline.

Subcommands: ``ingest`` validates raw inputs into a normalized bundle;
``synth`` generates synthetic field corpora; ``run`` executes the full
analysis (bootstrap statistics, Moran's I, variograms, rankings, curves,
category summaries); ``bench`` times the bootstrap engine over a grid of
repetition counts and worker counts; ``rank`` and ``variogram`` re-derive
reports from an existing results directory.

Every run writes a manifest echoing the fully resolved configuration; a run
started from that manifest reproduces the outputs byte for byte.  All
randomness flows from the single master seed (no wall-clock entropy), and
per-code work is distributed over a process pool with results reduced in
code order, so outputs are identical for any worker count.

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
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy
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
from .ranking import category_summary, rank, top_n_curve
from .rates import (
    CoverageRejection,
    DEFAULT_COVERAGE,
    DEFAULT_YEARS,
    build_rate_field,
    meets_coverage,
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
            workers=1,  # code-level processes own the parallelism
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
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(path, "w") as fh:
        parser.write(fh)


def _read_config(path) -> dict[str, str]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise IngestionError("cannot read config file", path=str(path))
    if "run" not in parser:
        raise IngestionError("config file has no [run] section", path=str(path))
    return dict(parser["run"])


_BOOL_FIELDS = {"renormalize", "signed_differences", "ties_win", "dump_reps"}
_INT_FIELDS = {"reps", "seed", "grid_n", "min_observed"}
_FLOAT_FIELDS = {"coverage", "years", "zero_offset", "cell_km", "bin_width_km", "max_lag_km"}


def _settings_from(config: dict[str, str], overrides: dict[str, object]) -> RunSettings:
    settings = RunSettings()
    known = {f.name for f in dataclass_fields(RunSettings)}
    for src in (config, overrides):
        for key, value in src.items():
            if key not in known:
                raise IngestionError(f"unknown config key {key!r}")
            if value is None:
                continue
            if key in _BOOL_FIELDS:
                value = str(value).strip().lower() in ("1", "true", "yes", "on")
            elif key in _INT_FIELDS:
                value = int(value)
            elif key in _FLOAT_FIELDS:
                value = float(value)
            else:
                value = str(value)
            setattr(settings, key, value)
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
    failures: list[tuple[str, str, str]] = []
    categories: dict[str, str] = {}
    if settings.mode == "fields":
        fields = sbio.read_fields(settings.fields, graph.regions)
    elif settings.mode == "synth":
        specs = parse_spec_file(settings.synth_spec)
        fields = corpus(specs, graph.regions)
        categories = {spec.code: spec.kind for spec in specs}
    elif settings.mode == "counts":
        std = sbio.read_standard_population(settings.stdpop)
        counts = sbio.build_stratified_counts(settings.counts, settings.totals, graph.regions)
        fields = []
        for code in counts.codes():
            outcome = build_rate_field(
                counts,
                std,
                code,
                graph,
                coverage_threshold=settings.coverage,
                years=settings.years,
                zero_offset=settings.zero_offset,
                renormalize_missing=settings.renormalize,
            )
            if isinstance(outcome, CoverageRejection):
                failures.append(
                    (
                        code,
                        "coverage",
                        f"observed {outcome.observed_count}/{outcome.region_count} "
                        f"(fraction {outcome.fraction:.4f} < {outcome.threshold:.4f})",
                    )
                )
            else:
                fields.append(outcome)
        return fields, categories, failures
    else:
        raise IngestionError(f"unknown run mode {settings.mode!r}")
    # fields and synth modes: apply the same coverage filter
    kept = []
    for field in fields:
        observed = sum(1 for rid in field.values if rid in graph.regions)
        if not meets_coverage(observed, graph.n, settings.coverage):
            failures.append(
                (
                    field.code,
                    "coverage",
                    f"observed {observed}/{graph.n} "
                    f"(fraction {observed / graph.n:.4f} < {settings.coverage:.4f})",
                )
            )
        else:
            kept.append(field)
    return kept, categories, failures


# ---------------------------------------------------------------------------
# Per-code analysis (process-pool worker)

_WORKER: dict = {}


def _init_worker(graph: NeighborGraph, settings: RunSettings) -> None:
    _WORKER["graph"] = graph
    _WORKER["settings"] = settings


def _analyze_code(field: RateField) -> dict:
    return _analyze_code_with(field, _WORKER["graph"], _WORKER["settings"])


def _analyze_code_with(field: RateField, graph: NeighborGraph, settings: RunSettings) -> dict:
    """One code's analysis; an unexpected exception becomes an ``internal``
    failure record (and drops the code's partial results) instead of
    aborting the batch."""
    out: dict = {
        "code": field.code,
        "nb2": [],
        "moran": None,
        "model": None,
        "empirical": None,
        "failures": [],
        "diagnostics": {},
    }
    try:
        _analyze_stages(field, graph, settings, out)
    except Exception as exc:
        print(f"code {field.code!r}: internal error, recorded in failures.csv", file=sys.stderr)
        traceback.print_exc()
        out.update(nb2=[], moran=None, model=None, empirical=None)
        out["failures"].append((field.code, "internal", f"{type(exc).__name__}: {exc}"))
    return out


def _analyze_stages(
    field: RateField, graph: NeighborGraph, settings: RunSettings, out: dict
) -> None:
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
    out["nb2"] = list(nb2(field, sub, settings.bootstrap_config()).values())
    try:
        out["moran"] = morans_i(field, sub, scheme=_WEIGHT_SCHEMES[settings.weights])
    except UndefinedStatisticError as exc:
        out["failures"].append((field.code, "moran", str(exc)))
    try:
        emp = empirical_variogram(
            field,
            graph.regions,
            bin_width_km=settings.bin_width_km or None,
            max_lag_km=settings.max_lag_km or None,
        )
        out["empirical"] = emp
        out["model"] = fit_exponential(emp, weighting=settings.vario_weighting)
        if not out["model"].converged:
            out["failures"].append(
                (field.code, "variogram", "fit did not move from initial parameters")
            )
    except (InsufficientDataError, EmptyVariogramError) as exc:
        out["failures"].append((field.code, "variogram", str(exc)))


def _analyze_all(fields, graph, settings) -> list[dict]:
    workers = settings.worker_count()
    if workers <= 1 or len(fields) <= 1:
        return [_analyze_code_with(f, graph, settings) for f in fields]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(fields)),
        initializer=_init_worker,
        initargs=(graph, settings),
    ) as pool:
        results = list(pool.map(_analyze_code, fields, chunksize=1))
    return results


# ---------------------------------------------------------------------------
# run


def _write_reports(out_dir: Path, results: list[dict], names, categories, settings) -> None:
    statistics: dict[str, dict[str, float]] = {}
    variograms = {}
    for res in results:
        for br in res["nb2"]:
            method = "nb2_t" if br.variant == "ttest" else "nb2_odds"
            statistics.setdefault(method, {})[br.code] = br.statistic
        if res["moran"] is not None:
            statistics.setdefault("moran", {})[res["code"]] = res["moran"].i
        if res["model"] is not None:
            variograms[res["code"]] = res["model"]
    if not statistics:
        return
    table = rank(statistics, variograms=variograms, names=names, categories=categories)
    sbio.write_ranking_table(out_dir / "ranking.csv", table)
    k = len(table.rows)
    n_values = [n for n in settings.top_n_values() if n <= k] or [k]
    curves = {}
    for method in statistics:
        curves[method] = top_n_curve(table, method, n_values)
    sbio.write_curves(out_dir / "curves.csv", curves)
    if categories:
        sbio.write_category_summaries(out_dir / "categories.csv", category_summary(table))


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
    config = _read_config(args.config) if args.config else {}
    overrides = {
        key: getattr(args, key)
        for key in (f.name for f in dataclass_fields(RunSettings))
        if getattr(args, key, None) is not None
    }
    settings = _settings_from(config, overrides)
    if args.bundle:
        bundle = Path(args.bundle)
        settings.mode = "counts"
        settings.regions = str(bundle / "regions.csv")
        settings.edges = str(bundle / "edges.csv")
        settings.counts = str(bundle / "counts.csv")
        settings.totals = str(bundle / "totals.csv")
        settings.stdpop = str(bundle / "stdpop.csv")
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
    results = _analyze_all(fields, graph, settings)
    results.sort(key=lambda r: r["code"])
    for res in results:
        failures.extend(res["failures"])

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
    sbio.write_variogram_models(
        out_dir / "variogram.csv", [res["model"] for res in results if res["model"] is not None]
    )
    sbio.write_empirical_variograms(
        out_dir / "variogram_empirical.csv",
        [res["empirical"] for res in results if res["empirical"] is not None],
    )
    _write_reports(out_dir, results, names, categories, settings)
    _write_diagnostics(out_dir / "diagnostics.csv", results)
    sbio.write_failures(out_dir / "failures.csv", failures)
    _write_manifest(out_dir / "manifest.ini", settings)
    print(
        f"run complete: {len(fields)} codes analyzed, {len(failures)} failure records "
        f"-> {out_dir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    regions = sbio.read_regions(args.regions)
    if args.edges:
        graph = sbio.load_adjacency(args.edges, regions)
    elif args.geojson:
        polygons = sbio.load_geojson_polygons(args.geojson, args.id_property)
        missing = [rid for rid in regions.ids if rid not in polygons]
        if missing:
            raise IngestionError(
                f"regions without polygons: {missing[:5]}", path=args.geojson
            )
        graph = queen_contiguity(polygons, regions)
    else:
        raise IngestionError("need --edges or --geojson")
    std = sbio.read_standard_population(args.stdpop)
    counts = sbio.build_stratified_counts(args.counts, args.totals, regions)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sbio.write_regions(out_dir / "regions.csv", regions)
    sbio.write_edges(out_dir / "edges.csv", graph)
    sbio._write(
        out_dir / "counts.csv",
        sbio.COUNTS_HEADER,
        (
            (rid, code, age, gender, n)
            for (rid, code, age, gender), n in sorted(counts.cases.items())
        ),
    )
    sbio._write(
        out_dir / "totals.csv",
        sbio.TOTALS_HEADER,
        ((rid, age, gender, n) for (rid, age, gender), n in sorted(counts.totals.items())),
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
    if args.regions:
        regions = sbio.read_regions(args.regions)
        graph = sbio.load_adjacency(args.edges, regions) if args.edges else None
    else:
        rows, cols = _parse_grid(args.grid)
        graph = grid_graph(rows, cols, cell_km=args.cell_km, n=args.n or None)
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
    rows, cols = _parse_grid(args.grid)
    graph = grid_graph(rows, cols, cell_km=args.cell_km, n=args.n or None)
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
            stats_by_m[m] = _analyze_bench(fields, graph, settings)
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


def _bench_one(field: RateField) -> float:
    res = nb2(field, _WORKER["graph"], _WORKER["settings"].bootstrap_config())
    return res["ttest"].statistic


def _analyze_bench(fields, graph, settings) -> list[float]:
    workers = settings.worker_count()
    if workers <= 1:
        cfg = settings.bootstrap_config()
        return [nb2(f, graph, cfg)["ttest"].statistic for f in fields]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(fields)),
        initializer=_init_worker,
        initargs=(graph, settings),
    ) as pool:
        return list(pool.map(_bench_one, fields, chunksize=1))


# ---------------------------------------------------------------------------
# rank / variogram (re-derivation from a results directory)


def _read_results_statistics(results_dir: Path) -> dict[str, dict[str, float]]:
    statistics: dict[str, dict[str, float]] = {}
    nb2_path = results_dir / "nb2.csv"
    if nb2_path.exists():
        for _row_no, row in sbio._open_rows(nb2_path, sbio.NB2_HEADER):
            method = "nb2_t" if row["variant"] == "ttest" else "nb2_odds"
            statistics.setdefault(method, {})[row["code"]] = float(row["statistic"])
    moran_path = results_dir / "moran.csv"
    if moran_path.exists():
        for _row_no, row in sbio._open_rows(moran_path, sbio.MORAN_HEADER):
            statistics.setdefault("moran", {})[row["code"]] = float(row["I"])
    if not statistics:
        raise IngestionError(f"no statistics files found in {results_dir}")
    return statistics


def _read_results_variograms(results_dir: Path) -> dict:
    from .variogram import VariogramModel

    models = {}
    path = results_dir / "variogram.csv"
    if not path.exists():
        return models
    for _row_no, row in sbio._open_rows(path, sbio.VARIOGRAM_HEADER):
        models[row["code"]] = VariogramModel(
            code=row["code"],
            nugget=float(row["nugget"]),
            sill=float(row["sill"]),
            length_km=float(row["length_param_km"]),
            practical_range_km=float(row["practical_range_km"]),
            converged=row["converged"] == "true",
            rss=float(row["rss"]),
        )
    return models


def cmd_rank(args) -> int:
    results_dir = Path(args.results)
    statistics = _read_results_statistics(results_dir)
    variograms = _read_results_variograms(results_dir)
    names, categories = {}, {}
    if args.code_meta:
        names, categories = sbio.read_code_metadata(args.code_meta)
    table = rank(statistics, variograms=variograms, names=names, categories=categories)
    sbio.write_ranking_table(results_dir / "ranking.csv", table)
    k = len(table.rows)
    n_values = [int(v) for v in args.top_n.split(",") if v.strip()]
    n_values = [n for n in n_values if n <= k] or [k]
    curves = {method: top_n_curve(table, method, n_values) for method in statistics}
    sbio.write_curves(results_dir / "curves.csv", curves)
    if categories:
        sbio.write_category_summaries(results_dir / "categories.csv", category_summary(table))
    print(f"reranked {k} codes -> {results_dir}")
    return EXIT_OK


def cmd_variogram(args) -> int:
    results_dir = Path(args.results)
    regions = sbio.read_regions(results_dir / "regions.csv")
    fields = sbio.read_fields(results_dir / "fields.csv", regions)
    models = []
    empiricals = []
    failures: list[tuple[str, str, str]] = []
    for field in fields:
        try:
            emp = empirical_variogram(
                field,
                regions,
                bin_width_km=args.bin_width_km or None,
                max_lag_km=args.max_lag_km or None,
            )
            empiricals.append(emp)
            model = fit_exponential(emp, weighting=args.vario_weighting)
            models.append(model)
            if not model.converged:
                failures.append(
                    (field.code, "variogram", "fit did not move from initial parameters")
                )
        except (InsufficientDataError, EmptyVariogramError) as exc:
            failures.append((field.code, "variogram", str(exc)))
    sbio.write_variogram_models(results_dir / "variogram.csv", models)
    sbio.write_empirical_variograms(results_dir / "variogram_empirical.csv", empiricals)
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
    p.add_argument("--n", type=int, default=0, help="truncate lattice to first N cells")
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
    p.add_argument("--n", type=int, default=0)
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
