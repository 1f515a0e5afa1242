"""Outside-in span tracer for the spatialboot layers.

The tracer wraps the public functions at each layer boundary of the
package from outside: it finds every loaded ``spatialboot.*`` module (and
the classes they define) that holds a reference to a target function and
rebinds that reference to a wrapper, matching by object identity.  The
package source is never edited, and spans survive stage code moving to a
new module as long as it calls the layer functions.

Each wrapper records one span: layer, function name, process, parent span,
start and end (``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux
and so comparable across forked processes) and a few counts derived from
arguments and results.  Spans stay in memory.  The launcher process writes
its spans when the traced command returns; a forked pool worker inherits
the wrappers and appends its spans to its own file each time its outermost
span (one layer call of a task) ends.  :func:`summarize` merges the files
and turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pkgutil
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("io", "rates", "graph", "nb2", "moran", "variogram", "ranking", "synth")


@dataclass
class Span:
    id: int
    layer: str
    name: str
    pid: int
    parent: int | None
    t0: float
    t1: float = math.nan
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Span store of one process; forked children start with an empty one."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.local = threading.local()
        self.lock = threading.Lock()
        self.next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        with self.lock:
            self.next_id += 1
            span_id = self.next_id
        span = Span(span_id, layer, name, self.pid, stack[-1].id if stack else None, 0.0)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        stack = self._stack()
        stack.pop()
        with self.lock:
            self.spans.append(span)
        if not stack and self.pid != self.root_pid:
            self.flush()

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        with self.lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.trace_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# Counts taken at the boundary.  They run after the span's end time is
# taken, so their cost shows as tracing overhead, not as layer time.


def _paths(args, kwargs) -> list[str]:
    out = []
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            out.append(os.fspath(value))
    return out


def _count_io(span: Span, args, kwargs, result, outer: Span | None) -> None:
    if outer is not None and outer.layer == "io":
        return  # the outermost io call accounts for its files
    paths = _paths(args, kwargs)
    if span.name.startswith(("read_", "load_", "build_")):
        span.attrs["bytes_read"] = sum(os.path.getsize(p) for p in paths)
        rows = 0
        for p in paths:
            with open(p, "rb") as fh:
                rows += max(fh.read().count(b"\n") - 1, 0)  # minus the header
        span.attrs["rows_read"] = rows
    else:
        span.attrs["bytes_written"] = sum(os.path.getsize(p) for p in paths)


def _count_nb2(span, args, kwargs, result, outer) -> None:
    first = next(iter(result.values()))
    span.attrs["reps"] = first.repetitions
    span.attrs["anchor_evals"] = first.repetitions * first.n_effective


def _count_subgraph(span, args, kwargs, result, outer) -> None:
    field_ = args[1] if len(args) > 1 else kwargs["field"]
    span.attrs["isolates_dropped"] = len(field_.values) - result.n


def _count_rates(span, args, kwargs, result, outer) -> None:
    std = args[1] if len(args) > 1 else kwargs["std"]
    graph = args[3] if len(args) > 3 else kwargs["graph"]
    span.attrs["stratum_evals"] = graph.n * len(std.strata())
    span.attrs["coverage_rejected"] = int(type(result).__name__ == "CoverageRejection")


def _count_empirical(span, args, kwargs, result, outer) -> None:
    span.attrs["pairs_binned"] = int(sum(b[2] for b in result.bins))


def _count_fit(span, args, kwargs, result, outer) -> None:
    span.attrs["not_converged"] = int(not result.converged)


def _count_corpus(span, args, kwargs, result, outer) -> None:
    span.attrs["fields"] = len(result)


_COUNTERS = {
    "nb2": _count_nb2,
    "observed_subgraph": _count_subgraph,
    "build_rate_field": _count_rates,
    "empirical_variogram": _count_empirical,
    "fit_exponential": _count_fit,
    "corpus": _count_corpus,
}


def _wrap(fn, layer: str, recorder: Recorder):
    name = fn.__name__
    counter = _count_io if layer == "io" else _COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = recorder.current()
        span = recorder.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.t1 = time.perf_counter()
            span.attrs["error"] = type(exc).__name__
            recorder.close(span)
            raise
        span.t1 = time.perf_counter()
        if counter is not None:
            counter(span, args, kwargs, result, outer)
        recorder.close(span)
        return result

    return wrapper


def _count_distances(fn, recorder: Recorder):
    """Counts great-circle evaluations made inside a variogram span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        span = recorder.current()
        if span is not None and span.layer == "variogram":
            span.attrs["distance_evals"] = span.attrs.get("distance_evals", 0) + int(
                getattr(result, "size", 1)
            )
        return result

    return wrapper


# ---------------------------------------------------------------------------
# Installation


def _is_target(layer: str, name: str) -> bool:
    if layer == "io":
        return name.startswith(("read_", "write_", "load_")) or name in (
            "build_stratified_counts",
            "_write",
        )
    if layer == "ranking":
        return not name.startswith("_")
    return name in {
        "rates": ("build_rate_field",),
        "graph": ("observed_subgraph", "component_count"),
        "nb2": ("nb2",),
        "moran": ("morans_i",),
        "variogram": ("empirical_variogram", "fit_exponential"),
        "synth": ("corpus",),
    }[layer]


def _loaded_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == package or name.startswith(package + ".")) and m is not None]


def _targets(package: str) -> dict:
    """Map each layer function to (layer, whether it only gets a counter)."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{package}.{layer}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                if isinstance(obj, type):
                    for attr, member in vars(obj).items():
                        if callable(member) and _is_target(layer, attr):
                            targets[member] = (layer, False)
                elif _is_target(layer, name):
                    targets[obj] = (layer, False)
        haversine = vars(module).get("haversine_km") if layer == "variogram" else None
        if haversine is not None:
            targets[haversine] = (layer, True)
    return targets


def install(recorder: Recorder, package: str = "spatialboot") -> int:
    """Import every submodule of ``package`` and rebind its layer functions.

    Returns the number of references rebound.
    """
    root = __import__(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        __import__(info.name)
    wrappers = {
        id(fn): (fn, _count_distances(fn, recorder) if counter else _wrap(fn, layer, recorder))
        for fn, (layer, counter) in _targets(package).items()
    }
    rebound = 0
    for module in _loaded_modules(package):
        namespaces = [module] + [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__.startswith(package)
        ]
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is not None and value is original:
                    setattr(ns, name, wrapper)
                    rebound += 1
    return rebound


# ---------------------------------------------------------------------------
# Analysis


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Span duration minus the part of it covered by its child spans.

    Keyed by (pid, span id): span ids are unique within a process only.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append((span.t0, span.t1))
    return {
        (span.pid, span.id): (span.t1 - span.t0)
        - union_length(children.get((span.pid, span.id), ()), span.t0, span.t1)
        for span in spans
    }


def load_spans(trace_dir: Path) -> list[Span]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(Span(**json.loads(line)) for line in fh if line.strip())
    return spans


_SELF_TIME_METRICS = {
    # metric: (layer, predicate on the function name)
    "nb2.s": ("nb2", lambda n: True),
    "variogram.empirical_s": ("variogram", lambda n: n == "empirical_variogram"),
    "variogram.fit_s": ("variogram", lambda n: n == "fit_exponential"),
    "io.read_s": ("io", lambda n: n.startswith(("read_", "load_", "build_"))),
    "io.write_s": ("io", lambda n: not n.startswith(("read_", "load_", "build_"))),
    "rates.build_s": ("rates", lambda n: True),
    "graph.subgraph_s": ("graph", lambda n: n == "observed_subgraph"),
    "graph.components_s": ("graph", lambda n: n == "component_count"),
    "moran.s": ("moran", lambda n: True),
    "ranking.s": ("ranking", lambda n: True),
    "synth.corpus_s": ("synth", lambda n: True),
}

_COUNT_METRICS = {
    # metric: (function name, attribute summed over its spans)
    "nb2.reps": ("nb2", "reps"),
    "nb2.anchor_evals": ("nb2", "anchor_evals"),
    "variogram.distance_evals": ("empirical_variogram", "distance_evals"),
    "variogram.pairs_binned": ("empirical_variogram", "pairs_binned"),
    "variogram.fits_not_converged": ("fit_exponential", "not_converged"),
    "io.rows_read": (None, "rows_read"),
    "io.bytes_read": (None, "bytes_read"),
    "io.bytes_written": (None, "bytes_written"),
    "rates.stratum_evals": ("build_rate_field", "stratum_evals"),
    "rates.coverage_rejections": ("build_rate_field", "coverage_rejected"),
    "graph.isolates_dropped": ("observed_subgraph", "isolates_dropped"),
    "synth.fields": ("corpus", "fields"),
}


def summarize(spans: list[Span], parent_pid: int, wall_s: float, workers: int) -> dict:
    """Per-layer metrics of one traced process tree.

    ``wall_s`` is the launcher's own wall time, measured from its first
    statement to the traced command's return; ``parent_pid`` is its pid.
    """
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    for metric, (layer, pred) in _SELF_TIME_METRICS.items():
        metrics[metric] = sum(selfs[s.pid, s.id] for s in spans if s.layer == layer and pred(s.name))
    for metric, (name, attr) in _COUNT_METRICS.items():
        metrics[metric] = sum(
            s.attrs.get(attr, 0) for s in spans if name is None or s.name == name
        )
    metrics["nb2.calls"] = sum(1 for s in spans if s.name == "nb2")
    metrics["nb2.ms_per_rep"] = (
        1000.0 * metrics["nb2.s"] / metrics["nb2.reps"] if metrics["nb2.reps"] else 0.0
    )
    metrics["variogram.useful_pair_frac"] = (
        metrics["variogram.pairs_binned"] / metrics["variogram.distance_evals"]
        if metrics["variogram.distance_evals"] else 0.0
    )
    metrics["moran.undefined"] = sum(
        1 for s in spans
        if s.layer == "moran" and s.attrs.get("error") == "UndefinedStatisticError"
    )

    # time accounting of the launcher process: its layer self times plus
    # cli.serial_s make up cli.wall_s exactly
    top = {}
    for s in spans:
        if s.parent is None:
            top.setdefault(s.pid, []).append((s.t0, s.t1))
    parent_top = top.get(parent_pid, [])
    parent_busy = union_length(parent_top)
    worker_top = [iv for pid, ivs in top.items() if pid != parent_pid for iv in ivs]
    metrics["cli.wall_s"] = wall_s
    metrics["cli.serial_s"] = wall_s - parent_busy
    metrics["cli.pool_wait_s"] = union_length(worker_top) - _overlap(worker_top, parent_top)
    busy = sum(union_length(ivs) for ivs in top.values())
    metrics["cli.worker_idle_frac"] = max(0.0, 1.0 - busy / (wall_s * workers))
    metrics["cli.parent_layer_s"] = sum(selfs[s.pid, s.id] for s in spans if s.pid == parent_pid)
    return metrics


def _overlap(a, b) -> float:
    """Length of the intersection of the unions of two interval lists."""
    return union_length(a) + union_length(b) - union_length(list(a) + list(b))
