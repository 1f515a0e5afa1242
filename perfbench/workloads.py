"""The benchmark's workloads and their input generator.

Every workload is a closed loop: one client runs one ``spatialboot``
process at a time.  Each has a setup step (``synth`` or ``ingest``) that
turns generated files into the inputs of ``spatialboot run``.  The
benchmark's ``--seed`` selects one of ``VARIANTS`` input sets, and the same
seed always gives the same inputs; the recorded reference statistics in
``references.json`` are kept per input set.

Sizes: ``national`` is the measured one (a 56x56 lattice of 30 km cells cut
to 3,109 regions, Queen adjacency); ``tiny`` (24x24 cut to 560) exists for
the benchmark's own smoke tests.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8
MASTER_SEED = 42
THREADS = 2


@dataclass(frozen=True)
class Size:
    rows: int
    cols: int
    n: int
    reps: dict  # workload name -> bootstrap repetitions M

    @property
    def grid(self) -> str:
        return f"{self.rows}x{self.cols}"


SIZES = {
    "national": Size(
        56, 56, 3109, {"national_matched": 1000, "national_counts": 100, "single_code": 2000}
    ),
    "tiny": Size(
        24, 24, 560, {"national_matched": 50, "national_counts": 50, "single_code": 50}
    ),
}


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    setup: str  # "synth" or "ingest"
    comparator: str
    null_code: str | None = None  # must rank last on nb2_t and Moran
    split_code: str | None = None  # observed mask splits the graph


WORKLOADS = {
    w.name: w
    for w in (
        # README spec plus a gradient code, M=1000: nb2 and its matched-pool
        # sampler do most of the work, variogram most of the rest
        Workload(
            "national_matched",
            setup="synth",
            comparator="matched",
            null_code="no_structure",
        ),
        # 8 codes of raw stratified counts at partial coverage, M=100, direct
        # comparator: io, rates and variogram do the work, nb2 stays small
        Workload(
            "national_counts",
            setup="ingest",
            comparator="direct",
            split_code="c03",
        ),
        # one exponential_gp code, M=2000: the process pool is skipped and nb2
        # is pinned to 1 worker, so one of the two cores idles.  The direct
        # comparator keeps run-to-run spread at half that of matched (0.057
        # against 0.113 in an interleaved A/B on a 2-CPU VM); the matched
        # sampler is measured by national_matched
        Workload(
            "single_code",
            setup="synth",
            comparator="direct",
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# Synthetic-field workloads: the setup step is ``spatialboot synth``


def _spec_sections(workload: str, variant: int) -> dict[str, dict[str, object]]:
    off = 1000 * variant  # variant 0 keeps the README's seeds
    if workload == "single_code":
        return {
            "gp_single": {
                "kind": "exponential_gp", "seed": 21 + off,
                "length_km": 150, "sill": 1.0, "nugget": 0.1,
            }
        }
    return {
        "tight_clusters": {
            "kind": "gaussian_blobs", "seed": 1 + off, "count": 5,
            "width_km": 40, "amplitude": 10, "cutoff_widths": 3,
        },
        "broad_pattern": {
            "kind": "exponential_gp", "seed": 2 + off,
            "length_km": 400, "sill": 0.2, "nugget": 0.25,
        },
        "no_structure": {
            "kind": "permuted", "seed": 3 + off, "base_kind": "exponential_gp",
            "base_seed": 13 + off, "base_length_km": 100, "base_sill": 1.0,
        },
        "gradient": {
            "kind": "gradient", "seed": 4 + off, "axis": "lat",
            "amplitude": 1.0, "noise": 0.5,
        },
    }


# ---------------------------------------------------------------------------
# Counts workload: raw files, the setup step is ``spatialboot ingest``

# (code, field kind, field params, coverage fraction); c08 stays below the
# two-thirds coverage threshold, c03 additionally loses a band of rows
_COUNT_CODES = (
    ("c01", "gaussian_blobs", {"count": 6, "width_km": 80, "amplitude": 1.0, "noise": 0.2}, 0.98),
    ("c02", "gaussian_blobs", {"count": 4, "width_km": 200, "amplitude": 1.0, "noise": 0.2}, 0.95),
    ("c03", "gradient", {"axis": "lat", "amplitude": 1.5, "noise": 0.3}, 0.92),
    ("c04", "gradient", {"axis": "lon", "amplitude": 1.0, "noise": 0.5}, 0.88),
    ("c05", "permuted", {"base_kind": "gaussian_blobs", "base_count": 6, "base_width_km": 80,
                         "base_amplitude": 1.0}, 0.84),
    ("c06", "gaussian_blobs", {"count": 8, "width_km": 40, "amplitude": 1.5, "noise": 0.2}, 0.80),
    ("c07", "checkerboard", {}, 0.75),
    ("c08", "gaussian_blobs", {"count": 3, "width_km": 120, "amplitude": 1.0}, 0.55),
)
BELOW_COVERAGE = "c08"
_ISOLATES_PER_CODE = 3
_BASE_RATE = 300.0  # per 100,000 person-years


def _mask(size: Size, rng, coverage: float, split: bool):
    """Observed flags per region: a few forced isolates, an optional band
    of missing rows that splits the graph, then random misses."""
    import numpy as np

    n, cols = size.n, size.cols
    full_rows = n // cols
    observed = np.ones(n, dtype=bool)
    protected = np.zeros(n, dtype=bool)
    if split:
        band = full_rows // 2
        observed[band * cols:(band + 2) * cols] = False
    centers = []
    while len(centers) < _ISOLATES_PER_CODE:
        r = int(rng.integers(2, full_rows - 2))
        c = int(rng.integers(2, cols - 2))
        if any(abs(r - r2) <= 3 and abs(c - c2) <= 3 for r2, c2 in centers):
            continue
        if split and full_rows // 2 - 2 <= r <= full_rows // 2 + 3:
            continue
        centers.append((r, c))
        protected[r * cols + c] = True
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                j = (r + dr) * cols + (c + dc)
                if (dr, dc) != (0, 0):
                    observed[j] = False
                    protected[j] = True
    target = round(coverage * n)
    candidates = np.flatnonzero(observed & ~protected)
    drop = int(observed.sum()) - target
    if drop > 0:
        observed[rng.choice(candidates, size=drop, replace=False)] = False
    return observed


def _standard_population() -> list[tuple[int, str, int]]:
    return [
        (age, gender, 1000 * (25 - age) + (300 if gender == "F" else 0))
        for age in range(1, 20)
        for gender in ("F", "M")
    ]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_counts_inputs(size: Size, variant: int, dest: Path) -> None:
    import numpy as np
    from spatialboot import io as sbio
    from spatialboot.synth import FieldSpec, generate, grid_graph, synthesize_counts

    graph = grid_graph(size.rows, size.cols, cell_km=30.0, n=size.n)
    regions = graph.regions
    ids = regions.ids
    rates = {}
    for k, (code, kind, params, coverage) in enumerate(_COUNT_CODES):
        spec_params = dict(params)
        if kind == "permuted":
            spec_params["base_seed"] = 500 + 100 * variant + k
        field = generate(FieldSpec(code, kind, seed=100 * variant + k, params=spec_params), regions)
        rng = np.random.default_rng((variant, k, 7))
        observed = _mask(size, rng, coverage, split=code == WORKLOADS["national_counts"].split_code)
        rates[code] = {
            ids[i]: _BASE_RATE * float(np.exp(field.values[ids[i]]))
            for i in np.flatnonzero(observed)
        }
    counts = synthesize_counts(regions, rates, seed=1000 + variant)
    sbio.write_regions(dest / "regions.csv", regions)
    sbio.write_edges(dest / "edges.csv", graph)
    _write_csv(
        dest / "counts.csv",
        ["id", "code", "age_group", "gender", "cases"],
        ((*key, n) for key, n in sorted(counts.cases.items())),
    )
    _write_csv(
        dest / "totals.csv",
        ["id", "age_group", "gender", "total"],
        ((*key, n) for key, n in sorted(counts.totals.items())),
    )
    _write_csv(dest / "stdpop.csv", ["age_group", "gender", "population"], _standard_population())


def write_inputs(workload: Workload, size: Size, variant: int, dest: Path) -> None:
    """Generate the workload's input files for one input set into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload.setup == "ingest":
        _write_counts_inputs(size, variant, dest)
        return
    lines = []
    for code, params in _spec_sections(workload.name, variant).items():
        lines.append(f"[{code}]")
        lines.extend(f"{key} = {value}" for key, value in params.items())
        lines.append("")
    (dest / "spec.ini").write_text("\n".join(lines))


# ---------------------------------------------------------------------------
# Command lines and expectations


def setup_args(workload: Workload, size: Size, inputs: Path, out: Path) -> list[str]:
    if workload.setup == "synth":
        return ["synth", "--spec", str(inputs / "spec.ini"), "--grid", size.grid,
                "--n", str(size.n), "--out", str(out)]
    return ["ingest", "--regions", str(inputs / "regions.csv"),
            "--edges", str(inputs / "edges.csv"), "--counts", str(inputs / "counts.csv"),
            "--totals", str(inputs / "totals.csv"), "--stdpop", str(inputs / "stdpop.csv"),
            "--out", str(out)]


# files of the setup step's output whose bytes are recorded and checked
SETUP_OUTPUTS = {
    "synth": ("regions.csv", "edges.csv", "fields.csv"),
    "ingest": ("regions.csv", "edges.csv", "counts.csv", "totals.csv", "stdpop.csv"),
}


def run_args(workload: Workload, size: Size, setup_out: Path, out: Path) -> list[str]:
    if workload.setup == "synth":
        inputs = ["--regions", str(setup_out / "regions.csv"),
                  "--edges", str(setup_out / "edges.csv"),
                  "--fields", str(setup_out / "fields.csv")]
    else:
        inputs = ["--bundle", str(setup_out)]
    return ["run", *inputs, "--reps", str(size.reps[workload.name]),
            "--seed", str(MASTER_SEED), "--variant", "both",
            "--comparator", workload.comparator, "--threads", str(THREADS),
            "--out", str(out)]


def expected_codes(workload: Workload) -> list[str]:
    """Codes the run must analyze (sorted)."""
    if workload.setup == "ingest":
        return sorted(code for code, *_ in _COUNT_CODES if code != BELOW_COVERAGE)
    return sorted(_spec_sections(workload.name, 0))


def expected_failures(workload: Workload) -> set[tuple[str, str]]:
    """(code, stage) rows ``failures.csv`` must hold, and no others."""
    return {(BELOW_COVERAGE, "coverage")} if workload.setup == "ingest" else set()


def sha256_files(paths) -> dict[str, str]:
    out = {}
    for path in paths:
        out[Path(path).name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return out
