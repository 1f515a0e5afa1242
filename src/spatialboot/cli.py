"""Command line: argument parsing, settings checks and dispatch.

Subcommands: ``ingest`` validates raw inputs into a normalized bundle;
``synth`` generates synthetic field corpora; ``run`` executes the full
analysis of :mod:`spatialboot.pipeline`; ``bench`` times the bootstrap
engine over a grid of repetition counts and worker counts; ``rank``
re-derives the reports of an existing results directory from its files
alone, and ``variogram`` refits its variograms, then reranks as ``rank`` does.
Every run writes a manifest echoing the fully resolved configuration; a run
started from that manifest reproduces the outputs byte for byte.  All
randomness flows from the single master seed (no wall-clock entropy).

Exit codes: 0 success, 1 structural failure, 2 input validation failure.
"""

from __future__ import annotations

import argparse
import codecs
import configparser
import os
import platform
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import io as sbio
from . import pipeline
from .errors import GeometryError, IngestionError, SpatialBootError
from .graph import NeighborGraph, queen_contiguity
from .nb2 import COMPARATOR_MATCHED, COMPARATORS, SEED_SCHEME, VARIANTS, BootstrapConfig
from .rates import DEFAULT_COVERAGE, DEFAULT_YEARS
from .synth import grid_graph
from .variogram import WEIGHTINGS

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_VALIDATION = 2


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
            return os.cpu_count() or 1
        return int(self.threads)

    def top_n_values(self) -> list[int]:
        return [int(v) for v in self.top_n.split(",") if v.strip()]


def _write_manifest(path, settings: RunSettings) -> None:
    """``[run]`` holds the resolved settings (the only section ``--config``
    reads), each ``%`` written as the ``%%`` that :func:`_read_config` reads
    back as ``%``; ``[provenance]`` names the random stream and library
    versions that made the results, with no wall-clock values."""
    parser = configparser.ConfigParser()
    parser["run"] = {
        f.name: str(getattr(settings, f.name)).replace("%", "%%")
        for f in dataclass_fields(RunSettings)
    }
    parser["provenance"] = {
        "seed_scheme": SEED_SCHEME,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    # UTF-8, as _read_config reads it; a path that an ASCII locale decoded
    # with escapes is written back as its own bytes
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
        parser.write(fh)


def _read_config(path) -> dict[str, str]:
    """The ``[run]`` section of a config file, decoded as
    :func:`_write_manifest` encodes it (a path keeps its own bytes in any
    locale); a file that cannot be read or parsed is an input error."""
    parser = configparser.ConfigParser()
    try:
        text = os.fsdecode(Path(path).read_bytes().removeprefix(codecs.BOM_UTF8))
        parser.read_string(text, source=str(path))
        if "run" not in parser:
            raise IngestionError("config file has no [run] section", path=str(path))
        return dict(parser["run"])  # a bad "%" interpolation raises here
    except (OSError, configparser.Error) as exc:
        raise IngestionError(f"cannot read config file: {exc}", path=str(path)) from None


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
    "weights": tuple(pipeline.WEIGHT_SCHEMES),
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
    "seed": (lambda s: 0 <= s.seed < 2**64, "in [0, 2**64)"),
    "bin_width_km": (lambda s: 0.0 <= s.bin_width_km < np.inf, "finite, at least 0 (0 = auto)"),
    "max_lag_km": (lambda s: 0.0 <= s.max_lag_km < np.inf, "finite, at least 0 (0 = auto)"),
    "top_n": (lambda s: min(s.top_n_values(), default=1) >= 1, "positive integers"),
    "threads": (lambda s: s.worker_count() >= 1, "'auto' or an integer of at least 1"),
    "min_observed": (lambda s: s.min_observed >= 1, "at least 1"),
    "out": (lambda s: _can_be_directory(s.out), "a directory or a path that can become one"),
}


def _can_be_directory(out: str) -> bool:
    """Whether the nearest existing path of ``out`` (itself or a parent) is a
    directory; an empty ``out`` is checked by the command that needs one."""
    path = Path(out)
    return next(p for p in (path, *path.parents) if p.exists()).is_dir()


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
# Region graph loading


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


# ---------------------------------------------------------------------------
# run


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
    fields, categories, failures = pipeline.load_fields(settings, graph)
    names = {}
    if settings.code_meta:
        names, meta_categories = sbio.read_code_metadata(settings.code_meta)
        categories = {**categories, **meta_categories}

    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = pipeline.analyze(fields, graph, settings)
    analyzed, failed = pipeline.write_results(out_dir, graph, fields, results, failures, names,
                                              categories, settings)
    _write_manifest(out_dir / "manifest.ini", settings)
    print(f"run complete: {analyzed} codes analyzed, {failed} failure records -> {out_dir}")
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


def cmd_synth(args) -> int:
    settings = _settings_from(args)
    if settings.regions and not settings.edges:  # no graph: fields only
        graph, regions = None, sbio.read_regions(settings.regions)
    else:
        graph = _load_graph(settings)
        regions = graph.regions
    specs, fields = pipeline.synth_corpus(args.spec, regions)
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
    _specs, fields = pipeline.synth_corpus(f"--grid {settings.grid}", graph.regions, specs)
    stats_by_m: dict[int, list[float]] = {}
    timings = []
    for m in m_values:
        for threads in worker_values:
            point = replace(settings, reps=m, threads=threads)
            workers = point.worker_count()
            start = time.perf_counter()
            stats_by_m[m] = pipeline.nb2_statistics(fields, graph, point)
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


# ---------------------------------------------------------------------------
# rank / variogram (re-derivation from a results directory)


def cmd_rank(args) -> int:
    settings = _settings_from(args)
    k = pipeline.write_reports(args.results, settings.top_n_values(), settings.code_meta)
    print(f"reranked {k} codes -> {Path(args.results)}")
    return EXIT_OK


def cmd_variogram(args) -> int:
    settings = _settings_from(args)
    results_dir = Path(args.results)
    regions = sbio.read_regions(results_dir / "regions.csv")
    fields = sbio.read_fields(results_dir / "fields.csv", regions)
    # one variogram unit per field, as in run, in a one-worker pool (the
    # variogram command has no --threads)
    fits, failures = pipeline.fit_variograms(fields, regions, settings)
    models = pipeline.write_variograms(results_dir, fits)
    sbio.write_failures(results_dir / "variogram_failures.csv", failures)
    # the reports of the new fits, as a plain ``rank --results`` writes them
    k = pipeline.write_reports(results_dir, RunSettings().top_n_values())
    print(f"fitted {len(models)} variograms, reranked {k} codes -> {results_dir}")
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
    pipeline._retain_freed_heap()
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
