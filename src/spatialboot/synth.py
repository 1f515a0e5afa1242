"""Synthetic rate fields with known spatial structure.

These generators make every qualitative behavior of the statistics testable
without any proprietary incidence data: checkerboards and gradients pin the
extremes of spatial arrangement, Gaussian blob fields mimic compact
high-peaked clusters, exponential-covariance process draws provide fields
with a known correlation length, and value permutation provides the null
model.  Fields are produced directly in log-rate space; a separate
counts-mode generator fabricates stratified case counts to exercise the
rate-standardization path end to end.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Mapping

import numpy as np

from .errors import GenerationError
from .fields import RateField
from .graph import NeighborGraph, Region, RegionSet
from .variogram import haversine_km

KINDS = ("checkerboard", "gradient", "gaussian_blobs", "exponential_gp", "permuted")

KM_PER_DEGREE_LAT = 111.19492664455873  # mean Earth radius * pi / 180

GP_MAX_REGIONS = 5000  # dense covariance factorization cap
_COV_JITTER = 1e-10


@dataclass(frozen=True)
class FieldSpec:
    """Recipe for one synthetic field.

    ``params`` is kind-specific:

    - checkerboard: (none)
    - gradient: axis ("lat" or "lon"), amplitude, noise
    - gaussian_blobs: count, width_km, amplitude, noise
    - exponential_gp: length_km, sill, nugget
    - permuted: base_* keys describing the base spec (base_kind, base_seed,
      and the base kind's own parameters with a ``base_`` prefix)
    """

    code: str
    kind: str
    seed: int = 0
    params: Mapping[str, object] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}; choose from {KINDS}")

    def param(self, name, default=None):
        return self.params.get(name, default)


def _grid_ranks(values: np.ndarray) -> np.ndarray:
    """Rank of each value among the sorted distinct values (grid row/col index)."""
    distinct = np.unique(values)
    return np.searchsorted(distinct, values)


def _checkerboard(regions: RegionSet) -> np.ndarray:
    rows = _grid_ranks(regions.lat)
    cols = _grid_ranks(regions.lon)
    return np.where((rows + cols) % 2 == 0, 1.0, -1.0)


def _gradient(spec: FieldSpec, regions: RegionSet) -> np.ndarray:
    axis = str(spec.param("axis", "lat"))
    if axis not in ("lat", "lon"):
        raise ValueError(f"gradient axis must be 'lat' or 'lon', got {axis!r}")
    coord = regions.lat if axis == "lat" else regions.lon
    span = float(coord.max() - coord.min())
    base = (coord - coord.min()) / span if span > 0 else np.zeros(len(regions))
    amplitude = float(spec.param("amplitude", 1.0))
    values = amplitude * base
    noise = float(spec.param("noise", 0.0))
    if noise > 0:
        rng = np.random.default_rng(spec.seed)
        values = values + noise * rng.standard_normal(len(regions))
    return values


def _gaussian_blobs(spec: FieldSpec, regions: RegionSet) -> np.ndarray:
    count = int(spec.param("count", 5))
    if count < 1:
        raise ValueError("blob count must be >= 1")
    width = float(spec.param("width_km", 40.0))
    if width <= 0:
        raise ValueError("blob width_km must be positive")
    amplitude = float(spec.param("amplitude", 1.0))
    # Bumps can be truncated to exactly zero beyond cutoff_widths * width_km,
    # leaving an exactly constant background between clusters.
    cutoff = float(spec.param("cutoff_widths", np.inf))
    rng = np.random.default_rng(spec.seed)
    lat_lo, lat_hi = float(regions.lat.min()), float(regions.lat.max())
    lon_lo, lon_hi = float(regions.lon.min()), float(regions.lon.max())
    centers_lat = rng.uniform(lat_lo, lat_hi, size=count)
    centers_lon = rng.uniform(lon_lo, lon_hi, size=count)
    values = np.zeros(len(regions))
    for clat, clon in zip(centers_lat, centers_lon):
        d = haversine_km(regions.lat, regions.lon, clat, clon)
        bump = amplitude * np.exp(-(d**2) / (2.0 * width**2))
        if np.isfinite(cutoff):
            bump = np.where(d <= cutoff * width, bump, 0.0)
        values += bump
    noise = float(spec.param("noise", 0.0))
    if noise > 0:
        values = values + noise * rng.standard_normal(len(regions))
    return values


def _exponential_gp(spec: FieldSpec, regions: RegionSet) -> np.ndarray:
    n = len(regions)
    if n > GP_MAX_REGIONS:
        raise ValueError(
            f"exponential_gp limited to {GP_MAX_REGIONS} regions "
            f"(dense factorization); got {n}"
        )
    length = float(spec.param("length_km", 100.0))
    sill = float(spec.param("sill", 1.0))
    nugget = float(spec.param("nugget", 0.0))
    if length <= 0:
        raise ValueError("length_km must be positive")
    if sill < 0 or nugget < 0:
        raise ValueError("sill and nugget must be nonnegative")
    d = haversine_km(
        regions.lat[:, None], regions.lon[:, None], regions.lat[None, :], regions.lon[None, :]
    )
    cov = sill * np.exp(-d / length)
    cov[np.diag_indices(n)] += nugget + _COV_JITTER
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise GenerationError(
            f"covariance for {spec.code!r} not positive definite after jitter"
        ) from exc
    rng = np.random.default_rng(spec.seed)
    return chol @ rng.standard_normal(n)


def permute_field(field: RateField, seed: int) -> RateField:
    """Randomly permute a field's values across its observed regions."""
    ids = list(field.values.keys())
    vals = field.aligned(ids)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    return RateField(field.code, {rid: float(vals[p]) for rid, p in zip(ids, perm)})


def _permuted(spec: FieldSpec, regions: RegionSet) -> RateField:
    base_params = {
        k[len("base_") :]: v
        for k, v in spec.params.items()
        if k.startswith("base_") and k not in ("base_kind", "base_seed")
    }
    base_kind = spec.param("base_kind")
    if base_kind is None:
        raise ValueError(f"permuted spec {spec.code!r} needs a base_kind parameter")
    base = FieldSpec(
        code=spec.code,
        kind=str(base_kind),
        seed=int(spec.param("base_seed", spec.seed)),
        params=base_params,
    )
    return permute_field(generate(base, regions), spec.seed)


def generate(spec: FieldSpec, regions: RegionSet) -> RateField:
    """Generate one synthetic field over the given regions."""
    if spec.kind == "permuted":
        return _permuted(spec, regions)
    if spec.kind == "checkerboard":
        values = _checkerboard(regions)
    elif spec.kind == "gradient":
        values = _gradient(spec, regions)
    elif spec.kind == "gaussian_blobs":
        values = _gaussian_blobs(spec, regions)
    elif spec.kind == "exponential_gp":
        values = _exponential_gp(spec, regions)
    else:  # pragma: no cover - guarded by FieldSpec validation
        raise ValueError(f"unknown kind {spec.kind!r}")
    return RateField(spec.code, dict(zip(regions.ids, map(float, values))))


def corpus(specs: Iterable[FieldSpec], regions: RegionSet) -> list[RateField]:
    """Generate a batch of fields; spec codes must be unique."""
    specs = list(specs)
    seen: set[str] = set()
    for spec in specs:
        if spec.code in seen:
            raise ValueError(f"duplicate code {spec.code!r} in corpus")
        seen.add(spec.code)
    return [generate(spec, regions) for spec in specs]


# ---------------------------------------------------------------------------
# Region layouts


def grid_regions(
    rows: int,
    cols: int,
    cell_km: float = 30.0,
    origin: tuple[float, float] = (36.0, -98.0),
    n: int | None = None,
    populations: float = 1000.0,
) -> RegionSet:
    """Regular lattice of region centroids spaced ~cell_km apart.

    Cells are laid out row-major from ``origin`` (lat, lon); ``n`` truncates
    to the first n cells, which lets tests hit an exact region count.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    total = rows * cols if n is None else n
    if not 1 <= total <= rows * cols:
        raise ValueError(f"n must be in [1, {rows * cols}]")
    lat0, lon0 = origin
    dlat = cell_km / KM_PER_DEGREE_LAT
    mid_lat = lat0 + dlat * (rows - 1) / 2.0
    dlon = cell_km / (KM_PER_DEGREE_LAT * float(np.cos(np.radians(mid_lat))))
    regions = []
    for i in range(total):
        r, c = divmod(i, cols)
        regions.append(
            Region(
                id=f"{i:05d}",
                lat=float(lat0 + r * dlat),
                lon=float(lon0 + c * dlon),
                population=populations,
            )
        )
    return RegionSet(regions)


def grid_graph(
    rows: int,
    cols: int,
    cell_km: float = 30.0,
    origin: tuple[float, float] = (36.0, -98.0),
    contiguity: str = "queen",
    n: int | None = None,
) -> NeighborGraph:
    """Lattice regions plus queen or rook contiguity adjacency."""
    if contiguity not in ("queen", "rook"):
        raise ValueError("contiguity must be 'queen' or 'rook'")
    regions = grid_regions(rows, cols, cell_km=cell_km, origin=origin, n=n)
    total = len(regions)
    ids = regions.ids
    if contiguity == "queen":
        steps = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        steps = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    adjacency: dict[str, list[str]] = {rid: [] for rid in ids}
    for i in range(total):
        r, c = divmod(i, cols)
        for dr, dc in steps:
            rr, cc = r + dr, c + dc
            if 0 <= rr < rows and 0 <= cc < cols:
                j = rr * cols + cc
                if j < total:
                    adjacency[ids[i]].append(ids[j])
    return NeighborGraph(regions, adjacency)


def random_regions(
    count: int,
    seed: int,
    lat_span: tuple[float, float] = (32.0, 44.0),
    lon_span: tuple[float, float] = (-112.0, -88.0),
    populations: float = 1000.0,
) -> RegionSet:
    """Uniformly scattered region centroids inside a lat/lon box."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(lat_span[0], lat_span[1], size=count)
    lons = rng.uniform(lon_span[0], lon_span[1], size=count)
    return RegionSet(
        Region(id=f"{i:05d}", lat=float(lats[i]), lon=float(lons[i]), population=populations)
        for i in range(count)
    )


# ---------------------------------------------------------------------------
# Counts-mode generation


def synthesize_counts(
    regions: RegionSet,
    rates_by_code: Mapping[str, Mapping[str, float]],
    seed: int = 0,
    years: float = 8.0,
    stratum_total: int = 400,
):
    """Fabricate stratified case counts that realize given target rates.

    ``rates_by_code[code][region_id]`` is the target rate (per 100,000
    person-years) for a region covered by that code; regions absent from a
    code's mapping get zero cases everywhere and so come out unobserved for
    it, which makes per-code coverage exact by construction.  Every region
    gets ``stratum_total`` records in each of the 38 strata; case counts are
    binomial draws around the target, with at least one case forced in the
    first stratum of covered regions so a covered region can never
    degenerate to an all-zero (unobserved) one.

    Returns a :class:`spatialboot.rates.StratifiedCounts`.
    """
    from .rates import AGE_GROUPS, GENDERS, RATE_SCALE, StratifiedCounts

    rng = np.random.default_rng(seed)
    totals = {
        (rid, age, gender): stratum_total
        for rid in regions.ids
        for age in AGE_GROUPS
        for gender in GENDERS
    }
    cases: dict[tuple[str, str, int, str], int] = {}
    for code in sorted(rates_by_code):
        per_region = rates_by_code[code]
        for rid in regions.ids:
            rate = per_region.get(rid)
            if rate is None:
                continue
            if rate <= 0:
                raise ValueError(f"target rate for {code!r}/{rid!r} must be positive")
            p = min(rate * years / RATE_SCALE, 1.0)
            for age in AGE_GROUPS:
                for gender in GENDERS:
                    n = int(rng.binomial(stratum_total, p))
                    if age == AGE_GROUPS[0] and gender == GENDERS[0]:
                        n = max(n, 1)
                    if n > 0:
                        cases[(rid, code, age, gender)] = n
    return StratifiedCounts(cases=cases, totals=totals)


# ---------------------------------------------------------------------------
# Spec files


def parse_spec_file(path) -> list[FieldSpec]:
    """Read field specs from a key = value section file (one section per code)."""
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8-sig") as fh:
        parser.read_file(fh)
    specs = []
    for code in parser.sections():
        section = parser[code]
        if "kind" not in section:
            raise ValueError(f"spec section {code!r} is missing 'kind'")
        kind = section["kind"]
        seed = section.getint("seed", fallback=0)
        params: dict[str, object] = {}
        for key, raw in section.items():
            if key in ("kind", "seed"):
                continue
            try:
                params[key] = int(raw)
            except ValueError:
                try:
                    params[key] = float(raw)
                except ValueError:
                    params[key] = raw
        specs.append(FieldSpec(code=code, kind=kind, seed=seed, params=params))
    return specs
