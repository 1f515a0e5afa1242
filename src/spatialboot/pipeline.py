"""The per-code analysis behind the command line, and its results files.

:func:`load_graph` and :func:`load_fields` give a run's region graph and
fields.  Each code runs rates, its observed subgraph and Moran's I in this
process, then one variogram unit in the workers of a process pool
(``--threads``, one worker too).  Codes whose observed subgraphs hold the
same regions form one group, which holds one subgraph and shares its NB2
draws (:mod:`.nb2`), and :func:`_chunks` splits its NB2 repetitions into
units; a group's unit is one draw block, drawn once for all of its codes
and held as the same int64 indices that a code alone draws in its unit.
A worker bins the empirical variogram; this process fits it as the unit's
output comes back, so no worker imports scipy's optimizer.  Units join
exactly, a code's bytes are the same in any group, and codes reduce in
code order, so outputs are identical for any worker count.  :func:`_stage`
makes every failure record of a stage, in the process that runs it.  A
code whose analysis raises unexpectedly, or whose worker dies, gets one
``internal`` failure record and no other output, not even a
``diagnostics.csv`` row; the rest of the batch goes on.
:func:`refit_variograms` reruns the variogram units of a results
directory, and :func:`write_reports` derives the reports of ``run``,
``rank`` and ``variogram`` alike from the results files alone, each file
read and written through :mod:`.io`.  ``settings`` is the command line's
resolved ``RunSettings``, read by field; this module does not import the
command line.
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
    GeometryError,
    IngestionError,
    InsufficientDataError,
    UndefinedStatisticError,
)
from .fields import RateField
from .graph import NeighborGraph, RegionSet, observed_subgraph, queen_contiguity
from .moran import SCHEME_BINARY, SCHEME_ROW, morans_i
from .nb2 import (VARIANT_ODDS, VARIANT_TTEST, VARIANTS, block_reps, draw_block, join_results,
                  nb2)
from .ranking import category_summary, rank, top_n_curve
from .rates import CoverageRejection, build_rate_field, coverage_outcome
from .synth import corpus, grid_graph, parse_spec_file
from .variogram import empirical_variogram, fit_exponential

WEIGHT_SCHEMES = {"binary": SCHEME_BINARY, "row": SCHEME_ROW}


# ---------------------------------------------------------------------------
# Region graph and fields


def load_graph(settings) -> NeighborGraph:
    """The region graph of ``regions`` with ``edges`` or ``geojson``, else
    the ``grid`` lattice; every defect of them is an input error."""
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
        try:
            rows, cols = map(int, settings.grid.lower().split("x"))
        except ValueError:
            raise IngestionError(f"grid must look like 40x60, got {settings.grid!r}") from None
        try:
            return grid_graph(rows, cols, cell_km=settings.cell_km, n=settings.grid_n or None)
        except ValueError as exc:
            message = f"grid {settings.grid!r}, grid_n {settings.grid_n}: {exc}"
            raise IngestionError(message) from None
    raise IngestionError("need --regions or --grid to define the region set")


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
        # the counts table and the columnar parse's blocks leave freed heap
        # resident that glibc does not return on its own.  This process is
        # the largest of a run, because it imports scipy.optimize after the
        # load to fit the variograms; returned here, before any pool forks,
        # it peaked at 88.4-88.8 MB on a national_counts run of input set 5,
        # against 100.9-106.6 MB without the trim
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


def synth_corpus(source, regions) -> tuple[list, list[RateField]]:
    """The specs of the spec file ``source`` and their fields; any defect of
    them is an input error that names ``source``."""
    try:
        specs = parse_spec_file(source)
        return specs, corpus(specs, regions)
    except (ValueError, configparser.Error, OSError) as exc:
        raise IngestionError(str(exc), path=str(source)) from None


# ---------------------------------------------------------------------------
# Work units over a process pool

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> None:
    """Keeps freed heap memory in this process for reuse; each pool worker
    calls it as it starts, under every start method.

    Each NB2 repetition allocates about ten arrays of ~186 KB at 3,109
    regions, above glibc's default 128 KB mmap threshold, so every
    repetition faulted them in afresh.  Blocks below 16 MiB (the largest
    the variogram allocates again and again is a pair index build's 1.6 MB
    distance chunk) now come from the heap, and up to 256 MiB of it stays
    mapped.  The main process runs no repetition and keeps glibc's
    defaults.  A no-op where the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 16 << 20)
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


# the most repetitions of an NB2 unit; fixed, so that the units are the same
# for any worker count
CHUNK_REPS = 250

# the pool worker's shared state: (regions, settings, subjects)
_WORKER: list = []


def _chunks(m: int, graph: NeighborGraph, codes: int) -> list[range]:
    """The repetition ranges of the NB2 units of ``m`` repetitions of ``codes``
    codes on the observed subgraph ``graph``: ``CHUNK_REPS`` each for a code
    alone, drawn one at a time, and one draw block's for a group, at most
    ``CHUNK_REPS`` (12 repetitions at 3,109 regions)."""
    size = CHUNK_REPS if codes == 1 else min(CHUNK_REPS, block_reps(graph))
    return [range(start, min(start + size, m)) for start in range(0, m, size)]


def _init_worker(regions: RegionSet, settings, subjects) -> None:
    _retain_freed_heap()
    _WORKER[:] = regions, settings, subjects


def _run_unit(unit) -> list:
    """The ``(value, failures)`` of each code ``k`` of one work unit ``(ks,
    reps)``, with ``subjects[k] = (field, subgraph)``, run in a pool worker
    over its ``_WORKER`` state: with ``reps`` a repetition range, the
    codes' NB2 over it (:func:`_group_nb2`), else the one code's empirical
    variogram over ``regions`` (:func:`_pool_results` fits it); None where
    :func:`_stage` recorded a failure, here, because an exception the main
    process cannot unpickle would break the whole pool.  Every stage here
    raises on overflow or invalid results, so a non-finite intermediate is
    recorded at the stage where it first appears."""
    ks, reps = unit
    regions, settings, subjects = _WORKER
    with np.errstate(over="raise", invalid="raise"):
        if reps is not None:
            return _group_nb2([subjects[k] for k in ks], reps, settings.bootstrap_config())
        ((field, _sub),) = (subjects[k] for k in ks)
        failures: list = []
        return [(_stage(failures, field.code, "variogram", empirical_variogram, field, regions,
                        bin_width_km=settings.bin_width_km or None,
                        max_lag_km=settings.max_lag_km or None), failures)]


def _group_nb2(group: list, reps: range, config) -> list:
    """``(value, failures)`` of NB2 over ``reps`` for each ``(field,
    subgraph)`` of ``group``, whose subgraphs hold the same regions.  A
    group of several codes draws ``reps`` once, under its first code's
    stage, and runs each code's ``nb2`` over the draws.  A code alone draws
    its repetitions inside ``nb2``, one at a time, and so does every other
    code of a group whose draw failed."""
    (first, graph), outs, draws = group[0], [], None
    if len(group) > 1:
        failures: list = []
        draws = _stage(failures, first.code, "nb2", draw_block, graph, config, reps)
        if failures:
            outs, group = [(None, failures)], group[1:]
    for field, sub in group:
        failures = []
        outs.append((_stage(failures, field.code, "nb2", nb2, field, sub, config, reps=reps,
                            draws=draws), failures))
    return outs


def _run_units(subjects, units, regions: RegionSet, settings) -> list[list]:
    """The ``(value, failures)`` of each code of each unit ``(ks, reps)``,
    grouped by subject, each group in unit order, its variogram fitted by
    :func:`_pool_results`.

    Every unit runs in a process pool of ``min(--threads, units)`` workers;
    no pool starts without units.  A dead worker process breaks the whole
    pool, so the units whose outputs never came back are retried together
    in one fresh pool; each unit still missing after that is split into
    one unit per code, and each of those runs alone in a one-worker pool.
    A code whose worker dies there too gets no value and an ``internal``
    ``BrokenProcessPool`` failure record, and the codes it shared a unit
    with keep their outputs.
    """
    workers = min(settings.worker_count(), len(units))
    outs = _pool_results(units, workers, regions, settings, subjects) if units else []

    def missing() -> list[int]:
        return [i for i, out in enumerate(outs) if isinstance(out, BrokenProcessPool)]

    if len(missing()) > 1:
        batch = missing()
        retried = _pool_results([units[i] for i in batch], min(workers, len(batch)),
                                regions, settings, subjects)
        for i, out in zip(batch, retried):
            outs[i] = out
    for i in missing():
        ks, reps = units[i]
        outs[i] = []
        for k in ks:
            (out,) = _pool_results([((k,), reps)], 1, regions, settings, subjects)
            lost = isinstance(out, BrokenProcessPool)
            outs[i] += [(None, _internal_error(subjects[k][0].code, out))] if lost else out
    groups = [[] for _ in subjects]
    for (ks, _reps), out in zip(units, outs):
        for k, code_out in zip(ks, out):
            groups[k].append(code_out)
    return groups


def _pool_results(units, workers: int, regions, settings, subjects) -> list:
    """Outputs of one process pool in unit order, with the pool's
    ``BrokenProcessPool`` in place of each output lost to a dead worker.

    A variogram unit's ``(empirical, failures)`` is fitted here, outside the
    raise error state (:func:`fit_exponential` checks its starting cost
    itself), so scipy's optimizer is imported after the workers have forked
    and never in a worker.  The value becomes ``(empirical, model)``, or
    None where the fit failed internally."""
    outs = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(regions, settings, subjects)
    ) as pool:
        futures = [pool.submit(_run_unit, unit) for unit in units]
        for (ks, reps), future in zip(units, futures):
            try:
                out = future.result()
            except BrokenProcessPool as exc:
                outs.append(exc)
                continue
            value, failures = out[0]
            if reps is None and value is not None:
                code = subjects[ks[0]][0].code
                model = _stage(failures, code, "variogram", fit_exponential, value,
                               weighting=settings.vario_weighting)
                if model is not None and not model.converged:
                    failures.append((code, "variogram", "fit did not move from initial parameters"))
                out = [(None if _failed_internally(failures) else (value, model), failures)]
            outs.append(out)
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
# failure of that stage
_STAGE_ERRORS = (InsufficientDataError, EmptyVariogramError, UndefinedStatisticError,
                 FloatingPointError)


def _stage(failures: list, code: str, stage: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None with the record ``(code, stage,
    reason)`` for one of ``_STAGE_ERRORS`` and the code's ``internal``
    record for any other exception, which no other code catches."""
    try:
        return fn(*args, **kwargs)
    except _STAGE_ERRORS as exc:
        failures.append((code, stage, str(exc)))
    except Exception as exc:
        failures.extend(_internal_error(code, exc))
    return None


# ---------------------------------------------------------------------------
# The analyses of run and variogram


def analyze(fields, graph: NeighborGraph, settings) -> list[dict]:
    """Every code's analysis, in field order.

    This process runs each code's subgraph stage and Moran's I.  The codes
    whose subgraphs hold the same regions form a group, in field order, and
    each group's units then run over :func:`_run_units`: each code's
    variogram, submitted first because it is the longest, then the group's
    NB2 units (:func:`_chunks`).  A group's codes hold its first code's
    subgraph, not their own: equal regions, all observed, have equal edges.
    """
    results, subjects, groups = [], [], {}
    for k, field in enumerate(fields):
        res, sub = _subgraph_stage(field, graph, settings)
        if sub is not None:
            sub, ks = groups.setdefault(sub.ids, (sub, []))
            ks.append(k)
        results.append(res)
        subjects.append((field, sub))
    units = []
    for sub, ks in groups.values():
        units += [((k,), None) for k in ks]
        units += [(tuple(ks), reps) for reps in _chunks(settings.reps, sub, len(ks))]
    outs = _run_units(subjects, units, graph.regions, settings)
    return [_joined(res, parts) if parts else res for res, parts in zip(results, outs)]


def _subgraph_stage(field: RateField, graph: NeighborGraph, settings):
    """(result with Moran's I, observed subgraph) of one code; the subgraph
    is None when the code failed here, and the result then holds the record."""
    res = {"code": field.code, "nb2": [], "moran": None, "empirical": None, "model": None,
           "failures": [], "diagnostics": {}}
    with np.errstate(over="raise", invalid="raise"):
        sub = _stage(res["failures"], field.code, "subgraph", observed_subgraph, graph,
                     field, min_observed=settings.min_observed)
        if sub is not None:
            res["moran"] = _stage(res["failures"], field.code, "moran", morans_i, field,
                                  sub, scheme=WEIGHT_SCHEMES[settings.weights])
    if sub is None or _failed_internally(res["failures"]):
        return res, None
    observed = int(field.observed_mask(graph.ids).sum())
    res["diagnostics"] = {
        "observed": observed,
        "n_effective": sub.n,
        "isolates_dropped": observed - sub.n,
        "components": sub.component_count(),
    }
    return res, sub


def _joined(res: dict, parts: list) -> dict:
    """A code's result from the outputs of its units (the variogram first,
    then the NB2 units in repetition order), as one serial run of its
    stages Moran's I (already in ``res``), nb2, variogram would give it: its
    NB2 units' results joined, or the first failing unit's failures; an
    ``internal`` failure stops the stages after it and drops all of the
    code's results, its Moran's I and diagnostics too."""
    (vario, vario_failures), *units = parts
    nb2_failures = next((failures for _value, failures in units if failures), [])
    for failures in (nb2_failures, vario_failures):
        res["failures"].extend(failures)
        if _failed_internally(failures):
            res["moran"], res["diagnostics"] = None, {}
            return res
    if not nb2_failures:
        joined = join_results([value for value, _failures in units])
        res["nb2"] = list(joined.values())
        if VARIANT_TTEST in joined:
            t_values = joined[VARIANT_TTEST].per_repetition
            res["diagnostics"]["t_nonfinite_reps"] = int(np.count_nonzero(~np.isfinite(t_values)))
        if VARIANT_ODDS in joined:
            odds = joined[VARIANT_ODDS]
            res["diagnostics"]["odds_tie_frac"] = odds.ties / (odds.repetitions * odds.n_effective)
    if vario is not None:
        res["empirical"], res["model"] = vario
    return res


def refit_variograms(results_dir, settings) -> int:
    """Reruns ``run``'s variogram unit of each code with a row in the results
    directory's ``diagnostics.csv`` and rewrites its variogram.csv,
    variogram_empirical.csv and failures.csv; returns the number of models."""
    results_dir = Path(results_dir)
    regions = sbio.read_regions(results_dir / "regions.csv")
    codes = sbio.read_diagnosed_codes(results_dir / "diagnostics.csv")
    fields = [f for f in sbio.read_fields(results_dir / "fields.csv", regions) if f.code in codes]
    # the refit's records replace its codes' variogram records, and their
    # internal ones, which run gives no code with a diagnostics row
    failures = [record for record in sbio.read_failures(results_dir / "failures.csv")
                if not (record[0] in codes and record[1] in ("variogram", "internal"))]
    outs = _run_units([(field, None) for field in fields],
                      [((k,), None) for k in range(len(fields))], regions, settings)
    failures += [failure for ((_fit, unit_failures),) in outs for failure in unit_failures]
    models = write_variograms(results_dir, [fit for ((fit, _failures),) in outs if fit is not None])
    sbio.write_failures(results_dir / "failures.csv", failures)
    return len(models)


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
    sbio.write_stability(out_dir / "stability.csv", nb2_results)
    # results files of an earlier run or refit into this directory that this
    # run does not rewrite are removed, so the directory cannot contradict itself
    stale = ["variogram_failures.csv"]
    for variant in VARIANTS:
        dump = [br for br in nb2_results if br.variant == variant]
        if settings.dump_reps and dump:
            sbio.write_nb2_repetitions(out_dir / f"nb2_reps_{variant}.csv", dump)
        else:
            stale.append(f"nb2_reps_{variant}.csv")
    morans = [res["moran"] for res in results if res["moran"] is not None]
    sbio.write_moran_results(out_dir / "moran.csv", morans)
    write_variograms(out_dir, [(res["empirical"], res["model"]) for res in results])
    sbio.write_code_metadata(out_dir / "code_meta.csv", names, categories)
    if nb2_results or morans:
        analyzed = write_reports(out_dir, settings.top_n_values())
    else:
        analyzed = 0
        stale += ["ranking.csv", "curves.csv", "categories.csv"]
        failures.append(
            ("", "ranking", "no code has a statistic; ranking.csv, curves.csv and "
                            "categories.csv not written")
        )
    diagnostics = {res["code"]: res["diagnostics"] for res in results if res["diagnostics"]}
    sbio.write_diagnostics(out_dir / "diagnostics.csv", diagnostics)
    sbio.write_failures(out_dir / "failures.csv", failures)
    for name in stale:
        (out_dir / name).unlink(missing_ok=True)
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

