"""The per-code analysis behind the command line, and its results files.

Each code runs rates, its observed subgraph and Moran's I in this process,
then one variogram unit plus one unit per fixed-size chunk of NB2
repetitions in the workers of a process pool (``--threads``, one worker
too).  A worker bins the empirical variogram; this process fits it as the
unit's output comes back, so no worker imports scipy's optimizer.  Chunks
join exactly and codes reduce in code order, so outputs are identical for
any worker count.  A code whose analysis raises, or whose worker dies,
gets one ``internal`` failure record and no other output, not even a
``diagnostics.csv`` row; the rest of the batch goes on.
:func:`write_reports` derives the reports of ``run``, ``rank`` and
``variogram`` alike from the results files alone.
``settings`` is the command line's resolved ``RunSettings``, read by field;
this module does not import the command line.
"""

from __future__ import annotations

import configparser
import ctypes
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import io as sbio
from .errors import (
    EmptyVariogramError,
    IngestionError,
    InsufficientDataError,
    SpatialBootError,
    UndefinedStatisticError,
)
from .fields import RateField
from .graph import NeighborGraph, RegionSet, observed_subgraph
from .moran import SCHEME_BINARY, SCHEME_ROW, morans_i
from .nb2 import VARIANT_ODDS, VARIANT_TTEST, join_results, nb2
from .ranking import category_summary, rank, top_n_curve
from .rates import CoverageRejection, build_rate_field, coverage_outcome
from .synth import corpus, parse_spec_file
from .variogram import empirical_variogram, fit_exponential

WEIGHT_SCHEMES = {"binary": SCHEME_BINARY, "row": SCHEME_ROW}


# ---------------------------------------------------------------------------
# Fields


def load_fields(settings, graph: NeighborGraph):
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
        # the counts table and the columnar parse's blocks, all below the
        # mmap threshold (see _retain_freed_heap), leave ~40 MB of free heap
        # resident; returned here, before any pool forks, the parent stays
        # below its workers' peak resident set
        del counts
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc's
        if trim is not None:
            trim(0)
    else:
        if settings.mode == "fields":
            fields = sbio.read_fields(settings.fields, graph.regions)
        else:  # synth
            specs, fields = synth_corpus(settings.synth_spec, graph.regions)
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


def synth_corpus(source, regions, specs=None) -> tuple[list, list[RateField]]:
    """The specs, read from the spec file ``source`` unless given, and their
    fields; any defect of them is an input error that names ``source``."""
    try:
        specs = parse_spec_file(source) if specs is None else specs
        return specs, corpus(specs, regions)
    except (ValueError, configparser.Error, OSError) as exc:
        raise IngestionError(str(exc), path=str(source)) from None


# ---------------------------------------------------------------------------
# Work units over a process pool

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> None:
    """Keeps freed heap memory in this process for reuse.

    Each NB2 repetition allocates about ten arrays of ~186 KB at 3,109
    regions, above glibc's default 128 KB mmap threshold, so every
    repetition faulted them in afresh.  Blocks below 16 MiB (the largest
    the variogram allocates again and again is a pair index build's 1.6 MB
    distance chunk) now come from the heap, and up to 256 MiB of it stays
    mapped; larger blocks, such as the counts row readers' biggest dict
    tables, are still returned, which keeps a counts run's peak resident
    set.  A no-op where the C library has no ``mallopt``."""
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


def _init_worker(regions: RegionSet, settings, subjects) -> None:
    _retain_freed_heap()
    _WORKER[:] = regions, settings, subjects


def _run_unit(unit) -> tuple:
    """``(value, failures)`` of one work unit ``(k, reps)`` of ``subjects[k]
    = (field, subgraph)``, run in a pool worker over its ``_WORKER`` state:
    with ``reps`` a repetition range, the value is ``nb2`` over it; with
    ``reps`` None, the field's empirical variogram over ``regions``, None
    where its stage failed (:func:`_pool_results` fits it in the main
    process).  An unexpected exception gives no value and an ``internal``
    failure record, made here because an exception that cannot be unpickled
    in the main process would break the whole pool.  Every stage here
    raises on overflow or invalid results, so a non-finite intermediate is
    recorded at the stage where it first appears."""
    k, reps = unit
    regions, settings, subjects = _WORKER
    field, sub = subjects[k]
    failures: list = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            if reps is not None:
                return _stage(failures, field.code, "nb2", nb2, field, sub,
                              settings.bootstrap_config(), reps=reps), failures
            return _stage(failures, field.code, "variogram", empirical_variogram, field, regions,
                          bin_width_km=settings.bin_width_km or None,
                          max_lag_km=settings.max_lag_km or None), failures
    except Exception as exc:
        return None, failures + _internal_error(field.code, exc)


def _run_units(subjects, units, regions: RegionSet, settings) -> list[list]:
    """The ``(value, failures)`` output of each unit, grouped by subject,
    each group in unit order, its variogram fitted by :func:`_pool_results`.

    Every unit runs in a process pool of ``min(--threads, units)`` workers;
    no pool starts without units.  A dead worker process breaks the whole
    pool, so the units whose outputs never came back are retried together
    in one fresh pool, and any still missing after that each alone in a
    one-worker pool; a unit whose worker dies there too gets no value and
    an ``internal`` ``BrokenProcessPool`` failure record.
    """
    workers = min(settings.worker_count(), len(units))
    outs = _pool_results(units, workers, regions, settings, subjects) if units else []

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
    ``BrokenProcessPool`` in place of each output lost to a dead worker.

    A variogram unit's ``(empirical, failures)`` is fitted here as it comes
    back, so scipy's optimizer is imported after the workers have forked
    and never in a worker: it becomes ``((empirical, model), failures)``,
    either None where a stage failed, fitted outside the raise error state
    (:func:`fit_exponential` checks its starting cost itself).  The output
    of a unit that failed internally passes through unfitted."""
    outs = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(regions, settings, subjects)
    ) as pool:
        futures = [pool.submit(_run_unit, unit) for unit in units]
        for (k, reps), future in zip(units, futures):
            try:
                value, failures = future.result()
            except BrokenProcessPool as exc:
                outs.append(exc)
                continue
            if reps is None and not _failed_internally(failures):
                code = subjects[k][0].code
                try:
                    model = value and _stage(failures, code, "variogram", fit_exponential, value,
                                             weighting=settings.vario_weighting)
                    if model is not None and not model.converged:
                        failures.append((code, "variogram",
                                         "fit did not move from initial parameters"))
                    value = value, model
                except Exception as exc:
                    value, failures = None, failures + _internal_error(code, exc)
            outs.append((value, failures))
    return outs


def _internal_error(code: str, exc: BaseException) -> list:
    """Reports an unexpected exception, with its traceback, as the code's
    ``internal`` failure record."""
    print(f"code {code!r}: internal error", file=sys.stderr)
    traceback.print_exception(exc)
    return [(code, "internal", f"{type(exc).__name__}: {exc}")]


def _failed_internally(failures: list) -> bool:
    return any(stage == "internal" for _code, stage, _reason in failures)


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


# ---------------------------------------------------------------------------
# The analyses of run, variogram and bench


def analyze(fields, graph: NeighborGraph, settings) -> list[dict]:
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


def _subgraph_stage(field: RateField, graph: NeighborGraph, settings):
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
                                      sub, scheme=WEIGHT_SCHEMES[settings.weights])
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
        if _failed_internally(failures):
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


def fit_variograms(fields, regions: RegionSet, settings) -> tuple[list, list]:
    """``(fits, failures)`` of each field's variogram unit, as ``run`` runs
    it: a fit is ``(empirical, model)``, None where a stage failed, and a
    code with an internal error has no fit."""
    outs = _run_units([(field, None) for field in fields],
                      [(k, None) for k in range(len(fields))], regions, settings)
    failures = [failure for ((_fit, unit_failures),) in outs for failure in unit_failures]
    return [fit for ((fit, _failures),) in outs if fit is not None], failures


def nb2_statistics(fields, graph: NeighborGraph, settings) -> list[float]:
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
# Results files


def write_results(out_dir: Path, graph: NeighborGraph, fields, results: list[dict],
                  failures: list, names, categories, settings) -> tuple[int, int]:
    """Every file of a results directory but its manifest, from ``analyze``'s
    ``results`` and the ``failures`` found before it; returns the numbers of
    analyzed codes and of failure records.  The reports are derived from the
    files written here, as ``rank`` derives them."""
    results = sorted(results, key=lambda r: r["code"])
    failures = [*failures, *(failure for res in results for failure in res["failures"])]
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
    morans = [res["moran"] for res in results if res["moran"] is not None]
    sbio.write_moran_results(out_dir / "moran.csv", morans)
    write_variograms(out_dir, [(res["empirical"], res["model"]) for res in results])
    sbio.write_code_metadata(out_dir / "code_meta.csv", names, categories)
    if nb2_results or morans:
        analyzed = write_reports(out_dir, settings.top_n_values())
    else:
        analyzed = 0
        failures.append(
            ("", "ranking", "no code has a statistic; ranking.csv and curves.csv not written")
        )
    _write_diagnostics(out_dir / "diagnostics.csv", results)
    sbio.write_failures(out_dir / "failures.csv", failures)
    return analyzed, len(failures)


def write_variograms(out_dir: Path, fits) -> list:
    """variogram.csv and variogram_empirical.csv from ``(empirical, model)``
    fits, either of them possibly None; returns the models written."""
    models = [model for _emp, model in fits if model is not None]
    sbio.write_variogram_models(out_dir / "variogram.csv", models)
    sbio.write_empirical_variograms(
        out_dir / "variogram_empirical.csv", [emp for emp, _model in fits if emp is not None]
    )
    return models


def write_reports(results_dir, top_n, code_meta="") -> int:
    """A results directory's ranking.csv, curves.csv and categories.csv
    (header only without categories) from its nb2.csv, moran.csv,
    variogram.csv and the file ``code_meta``, else its own code_meta.csv if
    any; returns the number of ranked codes."""
    results_dir = Path(results_dir)
    statistics = sbio.read_statistics(results_dir)
    path = results_dir / "variogram.csv"
    variograms = sbio.read_variogram_models(path) if path.exists() else {}
    path = Path(code_meta or results_dir / "code_meta.csv")
    names, categories = sbio.read_code_metadata(path) if code_meta or path.exists() else ({}, {})
    table = rank(statistics, variograms=variograms, names=names, categories=categories)
    sbio.write_ranking_table(results_dir / "ranking.csv", table)
    k = len(table.rows)
    n_values = [n for n in top_n if n <= k] or [k]
    curves = {method: top_n_curve(table, method, n_values) for method in statistics}
    sbio.write_curves(results_dir / "curves.csv", curves)
    sbio.write_category_summaries(results_dir / "categories.csv", category_summary(table))
    return k


def _write_diagnostics(path, results: list[dict]) -> None:
    columns = ["observed", "n_effective", "isolates_dropped", "components",
               "t_nonfinite_reps", "odds_tie_frac"]
    rows = [
        (res["code"], *(res["diagnostics"].get(column) for column in columns))
        for res in results
        if res["diagnostics"]
    ]
    sbio._write(path, ["code", *columns], rows)
