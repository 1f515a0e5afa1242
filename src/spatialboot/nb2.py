"""Neighbor-based bootstrap (NB2) engine.

For each repetition, anchor regions are sampled with replacement from the
observed graph.  Each anchor's value is estimated twice: once by averaging
with-replacement draws from its neighbor set, and once from randomly chosen
regions (see *comparator modes* below).
The per-repetition reduction is either a paired t statistic on absolute
estimation errors ("ttest" variant) or the count of anchors where the
neighbor estimate lands closer to the true value ("odds" variant).  The
final statistic is the median over repetitions; for the odds variant the
median count ``u`` is mapped to ``log(u / (N - u))``.

Comparator modes
----------------
``matched`` (default)
    The comparison estimate for an anchor with ``d`` neighbors is built in
    two stages: draw a pool of ``d`` distinct regions uniformly from all
    observed regions except the anchor, then average ``d`` with-replacement
    draws from that pool.  Pools come from Floyd's exact sampler, run for
    all anchors at once over a ``(max_degree, N)`` block of uniforms (one
    row per pool step, one column per anchor).  This mirrors the neighbor
    estimator exactly (same pool size, same bootstrap layer), so under an
    exchangeable field the two error distributions are identical and both
    statistics are centered at zero.

``direct``
    The comparison estimate averages ``d`` with-replacement draws taken
    directly from all observed regions.  This is the single-stage scheme;
    because the neighbor pool is tiny (``d`` values) while the direct pool
    is the whole region set, the neighbor estimate carries roughly twice
    the bootstrap variance under exchangeability and both statistics drift
    negative on unstructured fields.  Kept for comparison; not the default.

Determinism
-----------
All randomness flows from a 64-bit master seed.  Repetition ``m``'s seed
is output ``m`` of the SplitMix64 stream of the master seed, and the
repetition consumes a PCG64 stream through a fixed, documented sequence of
generator calls (see :func:`_draws`).  A repetition's random indices, its
*draws*, depend on nothing but the graph and that seed: not on the code,
nor on its values.  Every code whose observed subgraph is the same set of
regions therefore shares repetition ``m``'s draws, the common-random-numbers
scheme of simulation studies: each code's repetitions stay independent and
identically distributed, the noise of the differences between codes
shrinks, and a statistic does not depend on its code's name.
:func:`draw_block` holds the draws of up to :func:`block_reps` repetitions,
as :func:`_draws` returns them, for :func:`nb2` to reuse over every code of
a region set; without it, :func:`nb2` draws them one repetition at a time.
Either way they are the same int64 indices, so :func:`nb2` can run any
range of a code's repetitions, in any process and order, and
:func:`join_results` joins consecutive ranges into exactly the result of
one call over all of them.
``SEED_SCHEME`` names the stream, including the pool sampler (``/floyd``),
and is recorded with every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy imports numpy.random, and the OpenSSL library that its `secrets`
# import loads, on first use; imported here, before the pool forks, the
# workers share them instead of each loading its own (6 MB and about 10 ms)
from numpy.random import default_rng

from .fields import RateField
from .graph import NeighborGraph

VARIANT_TTEST = "ttest"
VARIANT_ODDS = "odds"
VARIANTS = (VARIANT_TTEST, VARIANT_ODDS)

COMPARATOR_MATCHED = "matched"
COMPARATOR_DIRECT = "direct"
COMPARATORS = (COMPARATOR_MATCHED, COMPARATOR_DIRECT)

SEED_SCHEME = "splitmix64(master,rep)/pcg64/floyd"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """Output ``index`` of the SplitMix64 stream seeded with ``seed``.

    Stateless 64-bit mixing function; used to derive one independent seed
    per repetition from the master seed.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class BootstrapConfig:
    """Engine configuration for one code's serial bootstrap run.

    ``signed_differences`` switches the ttest variant from absolute
    estimation errors to signed errors (the raw difference reading); the
    odds variant always compares absolute errors.  ``ties_win`` counts
    exact ties in the odds closeness comparison as neighbor successes
    instead of failures.
    """

    repetitions: int = 1000
    master_seed: int = 0
    variants: tuple[str, ...] = VARIANTS
    comparator: str = COMPARATOR_MATCHED
    signed_differences: bool = False
    ties_win: bool = False

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must be in [0, 2**64)")
        bad = [v for v in self.variants if v not in VARIANTS]
        if bad or not self.variants:
            raise ValueError(f"unknown variants {bad}; choose from {VARIANTS}")
        if self.comparator not in COMPARATORS:
            raise ValueError(f"comparator must be one of {COMPARATORS}")


@dataclass(frozen=True)
class BootstrapResult:
    """One code's statistic for one variant, with audit trail.

    ``per_repetition`` stores the raw per-repetition values (t statistics
    for the ttest variant, neighbor-win counts for the odds variant), so
    the median reduction can be re-checked from the stored list.  ``ties``
    counts the anchors, summed over repetitions, whose two absolute errors
    are exactly equal (odds variant; 0 for ttest).
    """

    code: str
    variant: str
    statistic: float
    per_repetition: tuple[float, ...]
    n_effective: int
    repetitions: int
    master_seed: int
    seed_scheme: str
    flags: tuple[str, ...] = ()
    ties: int = 0


def paired_t_statistic(d_neighbor, d_random) -> float:
    """Paired t statistic on per-anchor error pairs.

    Differences are taken as ``d_random - d_neighbor`` so a positive value
    means the neighbor estimates sit closer to the actual values.  Uses the
    standard paired t form: mean(delta) * sqrt(l) / sd(delta) with the
    (l - 1)-denominator sample standard deviation.

    Degenerate inputs: zero spread with zero mean returns 0.0; zero spread
    with nonzero mean returns a signed infinity sentinel (callers flag it).
    """
    dn = np.asarray(d_neighbor, dtype=float)
    dr = np.asarray(d_random, dtype=float)
    if dn.shape != dr.shape or dn.ndim != 1:
        raise ValueError("d_neighbor and d_random must be 1-d arrays of equal length")
    l = dn.shape[0]
    if l < 2:
        raise ValueError("paired t statistic needs at least 2 pairs")
    delta = dr - dn
    mean = float(delta.mean())
    sd = float(delta.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0
        return math.copysign(math.inf, mean)
    return mean * math.sqrt(l) / sd


def _aligned_values(field: RateField, graph: NeighborGraph) -> np.ndarray:
    """Field values in graph order; the graph must be an observed subgraph
    of at least 2 regions, each with a neighbor."""
    z = field.aligned(graph.ids)
    if z.shape[0] < 2:
        raise ValueError("need at least 2 regions")
    if (graph.degrees == 0).any():
        raise ValueError(
            "graph contains degree-0 regions; filter with observed_subgraph first"
        )
    return z


def _build_matched_pools(anchors, deg, n, u_pool):
    """Distinct comparison pools per anchor, from a pre-drawn uniform block.

    Floyd's algorithm (Bentley & Floyd, "A sample of brilliance", CACM
    1987), vectorised over anchors: ``u_pool`` has shape
    ``(max_degree, N)`` and column ``i`` builds anchor ``i``'s pool of
    ``deg[i]`` distinct regions from the ``n - 1`` regions other than the
    anchor.  Step ``k`` draws ``t = min(floor(u * (j + 1)), j)`` with
    ``j = n - 1 - deg + k`` and takes ``j`` instead when ``t`` is already
    in the pool; the result is uniform over ``deg``-subsets.  Positions at
    or above the anchor are then shifted up by one to skip it.  Returns
    the ``(max_degree, N)`` block; rows at or beyond ``deg[i]`` of column
    ``i`` are filler and never read.
    """
    chosen = np.empty(u_pool.shape, dtype=np.int64)
    top = n - 1 - deg
    for k in range(u_pool.shape[0]):
        t = (u_pool[k] * (top + 1)).astype(np.int64)
        np.minimum(t, top, out=t)
        if k:
            np.copyto(t, top, where=(chosen[:k] == t).any(axis=0))
        chosen[k] = t
        top += 1
    chosen += chosen >= anchors
    return chosen


def _slots(degrees, anchors):
    """``(deg, per_draw_anchor)`` of a repetition's ``anchors``: each
    anchor's degree, and the anchor of each of its ``deg.sum()`` draw slots,
    in anchor-major order."""
    deg = degrees[anchors]
    return deg, np.repeat(np.arange(anchors.shape[0]), deg)


def _draws(offsets, flat, degrees, rep_seed, comparator):
    """One repetition's random indices ``(anchors, nb_idx, rd_idx)``: the N
    anchor regions, then the region of each neighbor draw and of each
    comparison draw, in slot order (see :func:`_slots`).

    Generator call order is fixed: (1) one ``integers`` call for the N
    anchor indices; (2) one ``random`` call of total-draw length for the
    neighbor bootstrap; (3, matched only) one ``random`` call of shape
    ``(max_degree, N)`` for the Floyd pool construction, where
    ``max_degree`` is the graph's largest degree and column ``i`` serves
    anchor ``i`` (see :func:`_build_matched_pools`); (4) one ``random``
    call of total-draw length for the comparison draws.  Uniforms map to
    draw indices as ``min(floor(u * size), size - 1)``.
    """
    n = degrees.shape[0]
    rng = default_rng(rep_seed)
    anchors = rng.integers(0, n, size=n)
    deg, per_draw_anchor = _slots(degrees, anchors)
    total = per_draw_anchor.shape[0]
    per_draw_deg = deg[per_draw_anchor]

    u_nb = rng.random(total)
    pick = (u_nb * per_draw_deg).astype(np.int64)
    np.minimum(pick, per_draw_deg - 1, out=pick)
    nb_idx = flat[offsets[anchors][per_draw_anchor] + pick]

    if comparator == COMPARATOR_MATCHED:
        pools = _build_matched_pools(anchors, deg, n, rng.random((int(degrees.max()), n)))
        u_rd = rng.random(total)
        pick2 = (u_rd * per_draw_deg).astype(np.int64)
        np.minimum(pick2, per_draw_deg - 1, out=pick2)
        rd_idx = pools.ravel()[pick2 * n + per_draw_anchor]
    else:
        u_rd = rng.random(total)
        rd_idx = (u_rd * n).astype(np.int64)
        np.minimum(rd_idx, n - 1, out=rd_idx)
    return anchors, nb_idx, rd_idx


def _values(z, degrees, anchors, nb_idx, rd_idx):
    """``(z_actual, z_neighbor, z_random)`` over the N anchors of one
    repetition's draws (see :func:`_draws`)."""
    n = z.shape[0]
    deg, per_draw_anchor = _slots(degrees, anchors)
    # bincount accumulates in slot order, so segment sums match a plain
    # sequential loop bit for bit (the oracle tests rely on this)
    z_neighbor = np.bincount(per_draw_anchor, weights=z[nb_idx], minlength=n) / deg
    z_random = np.bincount(per_draw_anchor, weights=z[rd_idx], minlength=n) / deg
    return z[anchors], z_neighbor, z_random


# the bytes of draws that block_reps sizes a draw block to
DRAW_BLOCK_BYTES = 5 << 20


def block_reps(graph: NeighborGraph) -> int:
    """The repetitions, at least one, of a :func:`draw_block` over ``graph`` of about
    ``DRAW_BLOCK_BYTES``: 12 at 3,109 regions (int64, 7.8 neighbors a region)."""
    # a repetition draws N anchors, then on average two regions per neighbor,
    # each an 8-byte index
    per_rep = graph.n + 2 * int(graph.degrees.sum())
    return max(1, DRAW_BLOCK_BYTES // (8 * per_rep))


def draw_block(graph: NeighborGraph, config: BootstrapConfig, reps: range) -> list[tuple]:
    """The draws of the repetitions ``reps`` over the observed graph
    ``graph``, one :func:`_draws` tuple ``(anchors, nb_idx, rd_idx)`` per
    repetition, held as drawn: the ``draws`` of :func:`nb2` for every code
    whose observed subgraph has ``graph``'s regions."""
    offsets, flat, degrees = graph.offsets, graph.flat_neighbors, graph.degrees
    return [_draws(offsets, flat, degrees, splitmix64(config.master_seed, m), config.comparator)
            for m in reps]


def bootstrap_repetition(
    field: RateField,
    graph: NeighborGraph,
    rep_seed: int,
    comparator: str = COMPARATOR_MATCHED,
):
    """Run one repetition over an observed graph (all degrees >= 1).

    Returns arrays ``(z_actual, z_neighbor, z_random)`` over the N sampled
    anchor regions.  Fully determined by ``rep_seed``.
    """
    if comparator not in COMPARATORS:
        raise ValueError(f"comparator must be one of {COMPARATORS}")
    z = _aligned_values(field, graph)
    degrees = graph.degrees
    return _values(z, degrees, *_draws(graph.offsets, graph.flat_neighbors, degrees,
                                       rep_seed, comparator))


def _odds_from_median(u_median: float, n: int) -> tuple[float, bool]:
    """Log odds of the median win count; continuity-corrected at 0 and N."""
    if u_median <= 0.0 or u_median >= n:
        return math.log((u_median + 0.5) / (n - u_median + 0.5)), True
    return math.log(u_median / (n - u_median)), False


def nb2(
    field: RateField, graph: NeighborGraph, config: BootstrapConfig, reps: range | None = None,
    draws: list[tuple] | None = None,
) -> dict[str, BootstrapResult]:
    """Bootstrap run for one code; returns one result per variant.

    ``graph`` must already be the observed subgraph for ``field`` (every
    region observed, every degree >= 1).  ``reps`` (default: all
    ``config.repetitions``) is the range of repetition indices to run; the
    results then hold those repetitions' values, their count and their
    median, and :func:`join_results` joins consecutive ranges.  ``draws``,
    the :func:`draw_block` of ``reps`` over ``graph``'s regions, spares
    drawing them one repetition at a time; the results are the same.
    """
    z = _aligned_values(field, graph)
    n = z.shape[0]
    reps = range(config.repetitions) if reps is None else reps
    want_t = VARIANT_TTEST in config.variants
    want_u = VARIANT_ODDS in config.variants
    t_vals = np.empty(len(reps)) if want_t else None
    u_vals = np.empty(len(reps)) if want_u else None
    ties = 0

    offsets, flat, degrees = graph.offsets, graph.flat_neighbors, graph.degrees
    for i, m in enumerate(reps):
        rep = draws[i] if draws is not None else _draws(
            offsets, flat, degrees, splitmix64(config.master_seed, m), config.comparator)
        zz, zn, zr = _values(z, degrees, *rep)
        abs_n = np.abs(zn - zz)
        abs_r = np.abs(zr - zz)
        if want_t:
            if config.signed_differences:
                t_vals[i] = paired_t_statistic(zn - zz, zr - zz)
            else:
                t_vals[i] = paired_t_statistic(abs_n, abs_r)
        if want_u:
            closer = np.count_nonzero(abs_n < abs_r)
            tied = int(np.count_nonzero(abs_n == abs_r))
            u_vals[i] = closer + tied if config.ties_win else closer
            ties += tied
    return _reduced(field.code, n, config.master_seed, t_vals, u_vals, ties)


def join_results(parts) -> dict[str, BootstrapResult]:
    """One code's results from :func:`nb2` results over consecutive ranges
    of its repetitions, in repetition order: the per-repetition values are
    concatenated and reduced as one call over the whole range would."""
    first = next(iter(parts[0].values()))
    values = {v: np.concatenate([p[v].per_repetition for p in parts]) for v in parts[0]}
    ties = sum(p[VARIANT_ODDS].ties for p in parts if VARIANT_ODDS in p)
    return _reduced(first.code, first.n_effective, first.master_seed,
                    values.get(VARIANT_TTEST), values.get(VARIANT_ODDS), ties)


def prefix_statistic(result: BootstrapResult, m: int) -> float:
    """The statistic of ``result``'s first ``m`` repetitions; a repetition
    depends on its index alone, so it is exactly the statistic of an
    :func:`nb2` call with ``m`` repetitions."""
    values = np.asarray(result.per_repetition[:m])
    odds = result.variant == VARIANT_ODDS
    reduced = _reduced(result.code, result.n_effective, result.master_seed,
                       None if odds else values, values if odds else None, 0)
    return reduced[result.variant].statistic


def _reduced(code: str, n: int, master_seed: int, t_vals, u_vals, ties: int):
    """Per-variant results of the per-repetition values ``t_vals`` and
    ``u_vals`` (None for a variant not run): their median and its flags."""

    def result(variant: str, statistic: float, values, flags, ties=0) -> BootstrapResult:
        return BootstrapResult(
            code=code,
            variant=variant,
            statistic=statistic,
            per_repetition=tuple(float(v) for v in values),
            n_effective=n,
            repetitions=len(values),
            master_seed=master_seed,
            seed_scheme=SEED_SCHEME,
            flags=flags,
            ties=ties,
        )

    results: dict[str, BootstrapResult] = {}
    if t_vals is not None:
        flags = () if np.isfinite(t_vals).all() else ("t_nonfinite_reps",)
        results[VARIANT_TTEST] = result(VARIANT_TTEST, float(np.median(t_vals)), t_vals, flags)
    if u_vals is not None:
        stat, clamped = _odds_from_median(float(np.median(u_vals)), n)
        flags = ("odds_clamped",) if clamped else ()
        results[VARIANT_ODDS] = result(VARIANT_ODDS, stat, u_vals, flags, ties)
    return results
