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
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from inspect import Parameter, signature
from typing import Iterable, Mapping

import numpy as np

from .errors import GenerationError
from .fields import RateField
from .graph import NeighborGraph, Region, RegionSet
from .variogram import haversine_km

# 6371 km * pi / 180, not variogram.EARTH_RADIUS_KM (6371.0088 km): the value
# fixes every synthetic grid's coordinates, so it stays
KM_PER_DEGREE_LAT = 111.19492664455873

GP_MAX_REGIONS = 5000  # dense covariance factorization cap
_COV_JITTER = 1e-10
_GP_BLOCK_ROWS = 64  # covariance rows per distance block; 8 to 128 time alike


# ---------------------------------------------------------------------------
# Generators: each takes (regions, seed, **its parameters) and returns one
# value per region; its keyword signature declares the parameters of its
# kind, their defaults and their types (the default's type).


def _checkerboard(regions, seed):
    # grid row and column: the rank of each latitude and longitude among the distinct ones
    rows, cols = (np.unique(coord, return_inverse=True)[1] for coord in (regions.lat, regions.lon))
    return np.where((rows + cols) % 2 == 0, 1.0, -1.0)


def _gradient(regions, seed, axis="lat", amplitude=1.0, noise=0.0):
    if axis not in ("lat", "lon"):
        raise ValueError(f"gradient axis must be 'lat' or 'lon', got {axis!r}")
    coord = regions.lat if axis == "lat" else regions.lon
    span = float(coord.max() - coord.min())
    base = (coord - coord.min()) / span if span > 0 else np.zeros(len(regions))
    values = amplitude * base
    if noise > 0:
        rng = np.random.default_rng(seed)
        values = values + noise * rng.standard_normal(len(regions))
    return values


def _gaussian_blobs(
    regions, seed, count=5, width_km=40.0, amplitude=1.0, cutoff_widths=math.inf, noise=0.0
):
    if count < 1:
        raise ValueError("blob count must be >= 1")
    if width_km <= 0:
        raise ValueError("blob width_km must be positive")
    rng = np.random.default_rng(seed)
    lat_lo, lat_hi = float(regions.lat.min()), float(regions.lat.max())
    lon_lo, lon_hi = float(regions.lon.min()), float(regions.lon.max())
    centers_lat = rng.uniform(lat_lo, lat_hi, size=count)
    centers_lon = rng.uniform(lon_lo, lon_hi, size=count)
    values = np.zeros(len(regions))
    for clat, clon in zip(centers_lat, centers_lon):
        d = haversine_km(regions.lat, regions.lon, clat, clon)
        bump = amplitude * np.exp(-(d**2) / (2.0 * width_km**2))
        # Bumps can be truncated to exactly zero beyond cutoff_widths *
        # width_km, leaving an exactly constant background between clusters.
        if math.isfinite(cutoff_widths):
            bump = np.where(d <= cutoff_widths * width_km, bump, 0.0)
        values += bump
    if noise > 0:
        values = values + noise * rng.standard_normal(len(regions))
    return values


def _exponential_gp(regions, seed, length_km=100.0, sill=1.0, nugget=0.0):
    n = len(regions)
    if n > GP_MAX_REGIONS:
        raise ValueError(
            f"exponential_gp limited to {GP_MAX_REGIONS} regions "
            f"(dense factorization); got {n}"
        )
    if length_km <= 0:
        raise ValueError("length_km must be positive")
    if sill < 0 or nugget < 0:
        raise ValueError("sill and nugget must be nonnegative")
    # cholesky reads only the lower triangle: fill it, a row block at a time
    lat, lon = regions.lat, regions.lon
    cov = np.zeros((n, n))
    for a in range(0, n, _GP_BLOCK_ROWS):
        b = min(a + _GP_BLOCK_ROWS, n)
        d = haversine_km(lat[a:b, None], lon[a:b, None], lat[:b], lon[:b])
        np.multiply(sill, np.exp(-d / length_km), out=cov[a:b, :b])
    cov[np.diag_indices(n)] += nugget + _COV_JITTER
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise GenerationError("covariance not positive definite after jitter") from exc
    rng = np.random.default_rng(seed)
    return chol @ rng.standard_normal(n)


def _permuted(regions, seed, base_kind, base_seed=None, **base_params):
    """A random permutation of a base field's values (the null model); the
    base kind's parameters carry a ``base_`` prefix, and ``base_seed``
    defaults to the spec's own seed."""
    base_params = {name[len("base_") :]: value for name, value in base_params.items()}
    base = _GENERATORS[base_kind](regions, seed if base_seed is None else base_seed, **base_params)
    return base[np.random.default_rng(seed).permutation(len(regions))]


def permute_field(field: RateField, seed: int) -> RateField:
    """Randomly permute a field's values across its observed regions."""
    ids = list(field.values.keys())
    vals = field.aligned(ids)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    return RateField(field.code, {rid: float(vals[p]) for rid, p in zip(ids, perm)})


_GENERATORS = {
    "checkerboard": _checkerboard,
    "gradient": _gradient,
    "gaussian_blobs": _gaussian_blobs,
    "exponential_gp": _exponential_gp,
    "permuted": _permuted,
}
KINDS = tuple(_GENERATORS)

_PARAMETERS = {  # kind -> {parameter: default}, from the generator signatures
    kind: {p.name: p.default for p in list(signature(generator).parameters.values())[2:]
           if p.kind is p.POSITIONAL_OR_KEYWORD}
    for kind, generator in _GENERATORS.items()
}


def _convert(code: str, name: str, value, default):
    """``value`` as its parameter's type, the type of ``default``: text is
    parsed, and an int may stand for a float, but NaN is no parameter's
    value.  A parameter without a default names a kind; a ``None`` default
    stands for an optional seed."""
    cast = str if default is Parameter.empty else int if default is None else type(default)
    if isinstance(value, (str, {float: numbers.Real, int: numbers.Integral}.get(cast, cast))):
        try:
            if (converted := cast(value)) == converted:  # only NaN is unequal to itself
                return converted
        except ValueError:
            pass
    raise ValueError(f"field spec {code!r}: {name} must be {cast.__name__}, got {value!r}")


@dataclass(frozen=True)
class FieldSpec:
    """Recipe for one synthetic field: ``params`` are keyword parameters of
    the kind's generator, checked against its signature and converted to
    their types here; ``permuted`` takes the base kind's with a ``base_``
    prefix."""

    code: str
    kind: str
    seed: int = 0
    params: Mapping[str, object] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}; choose from {KINDS}")
        declared = dict(_PARAMETERS[self.kind])
        if self.kind == "permuted":
            base_kind = self.params.get("base_kind")
            if base_kind not in KINDS[:-1]:  # any kind but permuted, the last
                raise ValueError(
                    f"field spec {self.code!r}: base_kind must name another kind "
                    f"{KINDS[:-1]}, got {base_kind!r}"
                )
            declared.update(("base_" + n, d) for n, d in _PARAMETERS[base_kind].items())
        unknown = sorted(set(self.params) - set(declared))
        if unknown:
            raise ValueError(
                f"field spec {self.code!r}: unknown parameters {unknown} for kind "
                f"{self.kind!r}; choose from {sorted(declared)}"
            )
        params = {n: _convert(self.code, n, v, declared[n]) for n, v in self.params.items()}
        object.__setattr__(self, "seed", _convert(self.code, "seed", self.seed, None))
        object.__setattr__(self, "params", params)


def generate(spec: FieldSpec, regions: RegionSet) -> RateField:
    """Generate one synthetic field over the given regions."""
    try:
        values = _GENERATORS[spec.kind](regions, spec.seed, **spec.params)
    except (ValueError, GenerationError) as exc:
        raise type(exc)(f"field spec {spec.code!r}: {exc}") from exc
    return RateField(spec.code, dict(zip(regions.ids, map(float, values))))


def corpus(specs: Iterable[FieldSpec], regions: RegionSet) -> list[RateField]:
    """Generate a batch of fields; spec codes must be unique."""
    specs = list(specs)
    codes = [spec.code for spec in specs]
    for i, code in enumerate(codes):
        if code in codes[:i]:
            raise ValueError(f"duplicate code {code!r} in corpus")
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
    return RegionSet(
        Region(f"{i:05d}", float(lat0 + i // cols * dlat), float(lon0 + i % cols * dlon),
               population=populations)
        for i in range(total)
    )


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
    steps = [  # row and column offsets of the neighbors; rook drops the diagonals
        (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
        if (dr or dc) and (contiguity == "queen" or not (dr and dc))
    ]
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
    from .rates import RATE_SCALE, STRATUM_KEYS, StratifiedCounts

    rng = np.random.default_rng(seed)
    strata = np.array(list(STRATUM_KEYS.values()), np.int16)  # age-major, F before M
    rows = np.arange(len(regions.ids), dtype=np.int32)
    totals = [np.repeat(rows, strata.size), np.tile(strata, rows.size),
              np.full(rows.size * strata.size, stratum_total, np.int64)]
    codes: list[str] = []
    covered: list[tuple[int, int]] = []  # (region row, code index) of each covered region
    draws: list[list[int]] = []  # its draw in each stratum, in the stream's call order
    for code in sorted(rates_by_code):
        per_region = rates_by_code[code]
        for row, rid in enumerate(regions.ids):
            rate = per_region.get(rid)
            if rate is None:
                continue
            if rate <= 0:
                raise ValueError(f"target rate for {code!r}/{rid!r} must be positive")
            p = min(rate * years / RATE_SCALE, 1.0)
            if code not in codes:  # the code's first covered region
                codes.append(code)
            covered.append((row, len(codes) - 1))
            draws.append([rng.binomial(stratum_total, p) for _ in range(strata.size)])
    n = np.array(draws, np.int64).reshape(-1, strata.size)
    n[:, 0] = np.maximum(n[:, 0], 1)  # a covered region has a case
    keep = (n > 0).ravel()
    region_code = np.array(covered, np.int32).reshape(-1, 2).repeat(strata.size, axis=0)[keep]
    cases = [region_code[:, 0], region_code[:, 1], np.tile(strata, len(n))[keep], n.ravel()[keep]]
    return StratifiedCounts(regions.ids, codes, cases, totals)


# ---------------------------------------------------------------------------
# Spec files


def parse_spec_file(path) -> list[FieldSpec]:
    """Read field specs from a key = value section file (one section per
    code); :class:`FieldSpec` checks and converts the parameter values."""
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8-sig") as fh:
        parser.read_file(fh)
    specs = []
    for code in parser.sections():
        params = dict(parser[code])
        if "kind" not in params:
            raise ValueError(f"spec section {code!r} is missing 'kind'")
        specs.append(FieldSpec(code, params.pop("kind"), params.pop("seed", 0), params))
    return specs
