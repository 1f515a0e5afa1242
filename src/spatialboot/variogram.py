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
# observed rows per bincount; bin sums are added block by block, so the
# block size is part of the output bytes
_BLOCK_ROWS = 256
# rows per distance chunk of a pair index build
_BUILD_ROWS = 64
# longest pairs a pair index keeps, for the codes' default max lags
_LONGEST_PAIRS = 4096
# relative slack on the triangle-inequality bound of the largest
# separation, far above the rounding of haversine_km
_BOUND_SLACK = 1e-6
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


def _distance_blocks(lat: np.ndarray, lon: np.ndarray, rows: int = _BLOCK_ROWS):
    """``(a, b, d)`` per block of ``rows`` rows: ``d`` holds the separations
    of rows a..b-1 against columns a..n-1, which include every pair j > i of
    those rows."""
    n = lat.shape[0]
    for a in range(0, n, rows):
        b = min(a + rows, n)
        yield a, b, haversine_km(lat[a:b, None], lon[a:b, None], lat[None, a:], lon[None, a:])


class PairIndex:
    """Every region pair j > i of a region set within a lag radius, as CSR rows.

    Row i's partners are ``cols[indptr[i]:indptr[i + 1]]`` in ascending
    order, at the separations ``dist`` in the same positions, each the bytes
    :func:`haversine_km` gives for ``(i, j)``.  With ``max_lag_km`` set the
    radius is that lag.  Without it the radius bounds a third of the
    largest separation from above, by the triangle inequality through the
    regions' mean coordinates, and ``longest`` holds ``(i, j, d)`` of the
    ``_LONGEST_PAIRS`` longest pairs, longest first: no pair left out is
    longer than one kept.  One pass over the pairs, ``_BUILD_ROWS`` rows at a
    time, builds both.
    """

    def __init__(self, regions: RegionSet, max_lag_km: float | None):
        self.regions = regions
        self.max_lag_km = max_lag_km
        lat, lon = regions.lat, regions.lon
        n = lat.shape[0]
        radius = max_lag_km
        if max_lag_km is None:
            reach = np.sort(haversine_km(lat.mean(), lon.mean(), lat, lon))[-2:]
            radius = float(reach.sum()) * (1.0 + _BOUND_SLACK) / 3.0
        col_type = np.min_scalar_type(n - 1)
        counts, cols, dists = [np.zeros(1, np.int64)], [], []
        top, top_d, floor = np.zeros(0, np.int64), np.zeros(0), -math.inf  # pairs as i * n + j
        # a chunk's rows against its own first columns: True where j > i
        later = np.triu(np.ones((_BUILD_ROWS, _BUILD_ROWS), dtype=bool), 1)
        for a, b, d in _distance_blocks(lat, lon, _BUILD_ROWS):
            keep = d <= radius
            keep[:, :b - a] &= later[:b - a, :b - a]
            counts.append(keep.sum(axis=1))
            cols.append(np.broadcast_to(np.arange(a, n, dtype=col_type), d.shape)[keep])
            dists.append(d[keep])
            if max_lag_km is None:
                # the longest pairs so far; their rising floor skips most pairs
                at = np.flatnonzero(d >= floor)
                i, j = np.divmod(at, n - a)
                pair = j > i
                top = np.concatenate([top, ((i + a) * n + j + a)[pair]])
                top_d = np.concatenate([top_d, d.ravel()[at[pair]]])
                if top_d.size > 2 * _LONGEST_PAIRS:
                    kept = np.argpartition(top_d, -_LONGEST_PAIRS)[-_LONGEST_PAIRS:]
                    top, top_d, floor = top[kept], top_d[kept], float(top_d[kept].min())
        self.indptr = np.cumsum(np.concatenate(counts))
        self.cols = np.concatenate(cols)
        self.dist = np.concatenate(dists)
        order = np.argsort(-top_d, kind="stable")[:_LONGEST_PAIRS]
        self.longest = (*np.divmod(top[order], n), top_d[order])

    def max_separation(self, observed: np.ndarray) -> float:
        """Largest separation between two observed regions: the first of the
        longest pairs with both ends observed, else a full pass over the
        observed regions."""
        i, j, d = self.longest
        both = observed[i] & observed[j]
        if both.any():
            return float(d[both.argmax()])
        lat, lon = self.regions.lat[observed], self.regions.lon[observed]
        return max(float(d.max()) for _a, _b, d in _distance_blocks(lat, lon))


# the pair index this process keeps: at most one, built on first use
_PAIR_INDEX: list[PairIndex] = []


def pair_index(regions: RegionSet, max_lag_km: float | None) -> PairIndex:
    """This process's pair index of ``regions`` for ``max_lag_km``, built
    once; an index of another region set or lag is dropped first."""
    if not (_PAIR_INDEX and _PAIR_INDEX[0].regions is regions
            and _PAIR_INDEX[0].max_lag_km == max_lag_km):
        _PAIR_INDEX.clear()
        _PAIR_INDEX.append(PairIndex(regions, max_lag_km))
    return _PAIR_INDEX[0]


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
    default max lag of zero (every observed region on one centroid).  The
    pairs come from this process's :func:`pair_index` of ``regions``.
    """
    observed = field.observed_mask(regions.ids)
    if observed.sum() < 2:
        raise InsufficientDataError(
            f"code {field.code!r}: need at least 2 observed regions for a variogram"
        )
    key = max_lag_km
    if max_lag_km is None:
        max_lag_km = pair_index(regions, key).max_separation(observed) / 3.0
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

    index = pair_index(regions, key)
    y = np.zeros(len(regions))
    y[observed] = field.aligned(compress(regions.ids, observed.tolist()))
    rows = np.flatnonzero(observed)
    sums = np.zeros(nbins)
    counts = np.zeros(nbins, dtype=np.int64)
    for a in range(0, rows.size, _BLOCK_ROWS):
        # index rows lo..hi-1 are the block's observed rows and the
        # unobserved rows between them; their pairs come in row then column
        # order, the order in which the bin sums have always been added
        lo, hi = rows[a], rows[min(a + _BLOCK_ROWS, rows.size) - 1] + 1
        per_row = np.diff(index.indptr[lo:hi + 1])
        j = index.cols[index.indptr[lo]:index.indptr[hi]].astype(np.intp)
        d = index.dist[index.indptr[lo]:index.indptr[hi]]
        keep = np.repeat(observed[lo:hi], per_row) & observed[j] & (d <= max_lag_km)
        keep = np.flatnonzero(keep)
        yi, yj, d = np.repeat(y[lo:hi], per_row)[keep], y[j[keep]], d[keep]
        bins = np.minimum((d / bin_width_km).astype(np.int64), nbins - 1)
        sums += np.bincount(bins, weights=0.5 * (yi - yj) ** 2, minlength=nbins)
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
