"""Empirical semivariograms over region centroids and exponential model fits.

The empirical semivariogram bins half squared value differences by
great-circle separation of region centroids.  The fitted model is

    gamma(h) = nugget + (sill - nugget) * (1 - exp(-h / a))

whose practical range (distance at 95% of the rise to the sill) is ``3 a``.
A fit that never moves away from its starting point is returned with
``converged=False`` rather than raising; downstream summaries exclude such
models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import EmptyVariogramError, InsufficientDataError
from .fields import RateField
from .graph import RegionSet

EARTH_RADIUS_KM = 6371.0088

WEIGHT_PAIRS_OVER_H2 = "pairs_over_h2"
WEIGHT_PAIRS = "pairs"
WEIGHTINGS = (WEIGHT_PAIRS_OVER_H2, WEIGHT_PAIRS)

DEFAULT_BIN_COUNT = 40
# rows per distance block; bin sums are added block by block, so the block
# size is part of the output bytes
_BLOCK_ROWS = 256
_MOVE_TOL = 1e-7  # relative parameter movement below this = "never iterated"


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between points given in degrees.

    Accepts scalars or broadcastable arrays; uses Earth mean radius
    6371.0088 km.
    """
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Binned semivariances: (lag center km, mean semivariance, pair count).

    Only non-empty bins are stored; bins are sorted by lag.
    """

    code: str
    bins: tuple[tuple[float, float, int], ...]
    max_lag_km: float
    bin_width_km: float

    @property
    def lags(self) -> np.ndarray:
        return np.array([b[0] for b in self.bins])

    @property
    def semivariances(self) -> np.ndarray:
        return np.array([b[1] for b in self.bins])

    @property
    def pair_counts(self) -> np.ndarray:
        return np.array([b[2] for b in self.bins])


@dataclass(frozen=True)
class VariogramModel:
    """Fitted exponential semivariogram parameters.

    ``sill`` is the total sill (plateau value, nugget included);
    ``practical_range_km`` is always 3x the length parameter.
    """

    code: str
    nugget: float
    sill: float
    length_km: float
    practical_range_km: float
    converged: bool
    rss: float

    def __post_init__(self):
        if self.nugget < 0:
            raise ValueError("nugget must be nonnegative")
        if self.sill < self.nugget:
            raise ValueError("sill must be >= nugget")
        if self.length_km <= 0:
            raise ValueError("length parameter must be positive")
        if not math.isclose(self.practical_range_km, 3.0 * self.length_km, rel_tol=1e-12):
            raise ValueError("practical range must equal 3x the length parameter")

    def gamma(self, h):
        """Model semivariance at separation h (km)."""
        return exponential_gamma(h, self.nugget, self.sill - self.nugget, self.length_km)


def exponential_gamma(h, nugget, partial_sill, length_km):
    """Exponential model semivariance: nugget + psill * (1 - exp(-h/a))."""
    return nugget + partial_sill * (1.0 - np.exp(-np.asarray(h, dtype=float) / length_km))


def _distance_blocks(lat: np.ndarray, lon: np.ndarray):
    """``(a, b, d)`` per block of ``_BLOCK_ROWS`` rows: ``d`` holds the
    separations of rows a..b-1 against columns a..n-1, which include every
    pair j > i of those rows."""
    n = lat.shape[0]
    for a in range(0, n, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, n)
        yield a, b, haversine_km(lat[a:b, None], lon[a:b, None], lat[None, a:], lon[None, a:])


def empirical_variogram(
    field: RateField,
    regions: RegionSet,
    bin_width_km: float | None = None,
    max_lag_km: float | None = None,
) -> EmpiricalVariogram:
    """Binned semivariance of all observed region pairs within max lag.

    Each pair (i, j) with separation h <= max_lag contributes
    0.5 * (y_i - y_j)^2 to the bin containing h; the bin value is the mean
    contribution.  Defaults: max lag is one third of the maximum pairwise
    distance, bin width spans that with 40 bins.  Raises
    :class:`EmptyVariogramError` when no pair is binned, which includes a
    default max lag of zero (every observed region on one centroid).
    """
    observed = field.observed_mask(regions.ids)
    if observed.sum() < 2:
        raise InsufficientDataError(
            f"code {field.code!r}: need at least 2 observed regions for a variogram"
        )
    lat, lon = regions.lat[observed], regions.lon[observed]
    y = field.aligned(compress(regions.ids, observed.tolist()))

    if max_lag_km is None:
        max_lag_km = max(float(d.max()) for _a, _b, d in _distance_blocks(lat, lon)) / 3.0
        if max_lag_km == 0.0:
            raise EmptyVariogramError(
                f"code {field.code!r}: every observed region has the same centroid"
            )
    if max_lag_km <= 0:
        raise ValueError("max_lag_km must be positive")
    if bin_width_km is None:
        bin_width_km = max_lag_km / DEFAULT_BIN_COUNT
    if bin_width_km <= 0:
        raise ValueError("bin_width_km must be positive")
    nbins = max(1, int(math.ceil(max_lag_km / bin_width_km)))

    sums = np.zeros(nbins)
    counts = np.zeros(nbins, dtype=np.int64)
    n = lat.shape[0]
    for a, b, d in _distance_blocks(lat, lon):
        rows = np.arange(a, b)[:, None]
        mask = (np.arange(a, n)[None, :] > rows) & (d <= max_lag_km)
        if not mask.any():
            continue
        dv = 0.5 * (y[a:b, None] - y[None, a:]) ** 2
        bins = np.minimum((d[mask] / bin_width_km).astype(np.int64), nbins - 1)
        sums += np.bincount(bins, weights=dv[mask], minlength=nbins)
        counts += np.bincount(bins, minlength=nbins)

    if counts.sum() == 0:
        raise EmptyVariogramError(
            f"code {field.code!r}: no region pairs within {max_lag_km:.1f} km"
        )
    out = []
    for k in range(nbins):
        if counts[k] > 0:
            center = (k + 0.5) * bin_width_km
            out.append((float(center), float(sums[k] / counts[k]), int(counts[k])))
    return EmpiricalVariogram(
        code=field.code,
        bins=tuple(out),
        max_lag_km=float(max_lag_km),
        bin_width_km=float(bin_width_km),
    )


def default_initial_parameters(emp: EmpiricalVariogram) -> tuple[float, float, float]:
    """Starting (nugget, sill, length) for the exponential fit.

    Nugget starts at the first bin's semivariance, the sill at the mean of
    the top quarter of lags, and the length parameter at max_lag / 9
    (practical range, a third of the window).
    """
    gammas = emp.semivariances
    nugget0 = float(gammas[0])
    tail = max(1, len(gammas) // 4)
    sill0 = float(gammas[-tail:].mean())
    a0 = emp.max_lag_km / 9.0
    return nugget0, sill0, a0


def fit_exponential(
    emp: EmpiricalVariogram,
    init: tuple[float, float, float] | None = None,
    weighting: str = WEIGHT_PAIRS_OVER_H2,
) -> VariogramModel:
    """Weighted least-squares fit of the exponential model.

    Weights are pair count / lag^2 by default (configurable to raw pair
    counts).  Fitting never raises for a poor fit: a model whose optimizer
    stalls at the starting point is returned with ``converged=False``.
    Raises :class:`FloatingPointError` when the optimizer's starting cost,
    the weighted residual sum of squares (rss) at the start, is not finite.
    """
    # imported here: it costs ~0.15 s, which commands that fit nothing skip
    from scipy.optimize import least_squares

    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    h = emp.lags
    g = emp.semivariances
    npairs = emp.pair_counts.astype(float)
    if len(h) < 4:
        raise InsufficientDataError(
            f"code {emp.code!r}: need at least 4 non-empty bins to fit, got {len(h)}"
        )
    w = npairs / h**2 if weighting == WEIGHT_PAIRS_OVER_H2 else npairs
    sqrt_w = np.sqrt(w)

    if init is None:
        init = default_initial_parameters(emp)
    nugget0, sill0, a0 = init
    psill0 = max(sill0 - nugget0, 1e-12)
    x0 = np.array([max(nugget0, 0.0), psill0, max(a0, 1e-9)])

    def residuals(x):
        return sqrt_w * (exponential_gamma(h, x[0], x[1], x[2]) - g)

    # finite residuals can still square to inf: semivariances near 1e306
    with np.errstate(over="ignore", invalid="ignore"):
        start_rss = np.sum(residuals(x0) ** 2)
    if not np.isfinite(start_rss):
        raise FloatingPointError(f"code {emp.code!r}: weighted rss at the start is {start_rss}")

    result = least_squares(
        residuals,
        x0,
        bounds=(np.array([0.0, 0.0, 1e-9]), np.array([np.inf, np.inf, np.inf])),
        x_scale=np.maximum(np.abs(x0), 1e-6),
        method="trf",
    )
    xf = result.x
    moved = bool(
        np.any(np.abs(xf - x0) > _MOVE_TOL * np.maximum(np.abs(x0), 1e-12))
    )
    converged = bool(result.success) and moved
    rss = float(np.sum(residuals(xf) ** 2))
    return VariogramModel(
        code=emp.code,
        nugget=float(xf[0]),
        sill=float(xf[0] + xf[1]),
        length_km=float(xf[2]),
        practical_range_km=float(3.0 * xf[2]),
        converged=converged,
        rss=rss,
    )
