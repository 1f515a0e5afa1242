"""Regions and contiguity neighbor graphs.

A :class:`RegionSet` is an ordered, immutable collection of regions with
unique string ids and geographic centroids.  A :class:`NeighborGraph` pairs a
region set with a symmetric, self-loop-free adjacency structure (Queen
contiguity when built from polygons), stored as compressed sparse rows.
Graphs are immutable after construction and safe for shared concurrent reads.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import GeometryError, InsufficientDataError
from .fields import RateField


@dataclass(frozen=True)
class Region:
    """One spatial unit (a county in the primary use case)."""

    id: str
    lat: float
    lon: float
    population: float = 0.0
    category: str | None = None

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"region {self.id!r}: latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"region {self.id!r}: longitude {self.lon} outside [-180, 180]")
        if self.population < 0:
            raise ValueError(f"region {self.id!r}: negative population {self.population}")


class RegionSet:
    """Ordered, immutable collection of regions with unique ids, in position order."""

    def __init__(self, regions: Iterable[Region]):
        self._regions = tuple(regions)
        index: dict[str, int] = {}
        for i, r in enumerate(self._regions):
            if r.id in index:
                raise ValueError(f"duplicate region id {r.id!r}")
            index[r.id] = i
        self._index = index
        # region id -> position: the one region index, a plain dict lookup
        self.position = index.__getitem__
        self.ids: tuple[str, ...] = tuple(index)
        self.lat = np.array([r.lat for r in self._regions], dtype=float)
        self.lon = np.array([r.lon for r in self._regions], dtype=float)
        self.lat.setflags(write=False)
        self.lon.setflags(write=False)

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

    def __contains__(self, region_id: str) -> bool:
        return region_id in self._index

    def __getitem__(self, region_id: str) -> Region:
        return self._regions[self._index[region_id]]


class NeighborGraph:
    """Symmetric neighbor structure over a :class:`RegionSet`, as CSR arrays.

    The neighbors of the region at position ``i`` are at the positions
    ``flat_neighbors[offsets[i]:offsets[i + 1]]``, ``degrees[i]`` of them,
    in id (string) order: the bootstrap draws index into these rows, so
    their order is part of the random stream.  Construction from a mapping
    of region id to neighbor ids validates symmetry, absence of self-loops,
    and that all neighbor ids are known regions; regions absent from the
    mapping are retained as isolates.
    """

    def __init__(self, regions: RegionSet, adjacency: Mapping[str, Sequence[str]]):
        for rid in adjacency:
            if rid not in regions:
                raise ValueError(f"adjacency mentions unknown region {rid!r}")
        rows = [sorted(set(adjacency.get(rid, ()))) for rid in regions.ids]
        flat = []
        for rid, row in zip(regions.ids, rows):
            for nb in row:
                if nb == rid:
                    raise ValueError(f"self-loop on region {rid!r}")
                if nb not in regions:
                    raise ValueError(f"region {rid!r} lists unknown neighbor {nb!r}")
                j = regions.position(nb)
                if rid not in rows[j]:
                    raise ValueError(f"asymmetric adjacency between {rid!r} and {nb!r}")
                flat.append(j)
        self._set_csr(regions, np.fromiter(map(len, rows), np.int64), np.array(flat, np.int64))

    def _set_csr(self, regions: RegionSet, degrees: np.ndarray, flat: np.ndarray) -> None:
        """Stores the regions and their CSR rows, which must be valid already."""
        offsets = np.zeros(len(regions) + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        for arr in (degrees, offsets, flat):
            arr.setflags(write=False)
        self.regions = regions
        self.degrees = degrees
        self.offsets = offsets
        self.flat_neighbors = flat

    @property
    def n(self) -> int:
        return len(self.regions)

    @property
    def ids(self) -> tuple[str, ...]:
        return self.regions.ids

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Region id -> tuple of neighbor ids in id order, from the rows."""
        ids, flat, bounds = self.ids, self.flat_neighbors.tolist(), self.offsets.tolist()
        return {rid: tuple(ids[j] for j in flat[bounds[i] : bounds[i + 1]])
                for i, rid in enumerate(ids)}

    def degree(self, region_id: str) -> int:
        return int(self.degrees[self.regions.position(region_id)])

    def neighbors(self, region_id: str) -> tuple[str, ...]:
        return self.adjacency[region_id]

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def isolated_ids(self) -> tuple[str, ...]:
        return tuple(compress(self.ids, (self.degrees == 0).tolist()))

    def component_count(self) -> int:
        """Number of connected components (isolates count individually).

        Every region starts as its own label and takes the least label among
        its neighbors' and its own, then its label's label (pointer jumping),
        until nothing changes; each component is then labeled by its first
        region."""
        labels = np.arange(self.n)
        src = np.repeat(labels, self.degrees)
        while True:
            least = labels.copy()
            np.minimum.at(least, src, labels[self.flat_neighbors])
            least = least[least]
            if np.array_equal(least, labels):
                return int(np.count_nonzero(labels == np.arange(self.n)))
            labels = least

    def __eq__(self, other) -> bool:
        if not isinstance(other, NeighborGraph):
            return NotImplemented
        return self.ids == other.ids and self.adjacency == other.adjacency

    def __repr__(self) -> str:
        return f"NeighborGraph(n={self.n}, edges={self.edge_count})"


def _nested(value) -> bool:
    """Whether ``value`` is a GeoJSON array of arrays: a list, as json parses
    it, or a tuple, as Python code may build it."""
    return isinstance(value, (list, tuple)) and all(isinstance(v, (list, tuple)) for v in value)


def _iter_polygon_rings(rid: str, geometry: Mapping):
    """Yield the rings of region ``rid``'s GeoJSON Polygon or MultiPolygon,
    each a list of its positions' ``(x, y)``: a position's first two
    numbers, since RFC 7946 allows an altitude after them."""
    gtype = geometry.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        raise GeometryError(f"unsupported geometry type {gtype!r}")
    coords = geometry.get("coordinates")
    polygons = [coords] if gtype == "Polygon" else coords
    if not _nested(polygons):
        raise GeometryError(f"region {rid!r}: {gtype} coordinates are not lists of rings")
    for ring in (ring for polygon in polygons for ring in polygon):
        if not _nested(ring):
            raise GeometryError(f"region {rid!r}: a ring is not a list of positions")
        try:
            points = [(float(x), float(y)) for x, y, *_ in ring]
            if not np.isfinite(points).all():
                raise ValueError
        except (TypeError, ValueError):
            raise GeometryError(
                f"region {rid!r}: a position does not start with 2 finite numbers") from None
        yield points


def queen_contiguity(
    polygons: Mapping[str, Mapping],
    regions: RegionSet,
    snap_degrees: float = 1e-9,
) -> NeighborGraph:
    """Build a Queen-contiguity graph over ``regions`` from their GeoJSON
    Polygon or MultiPolygon geometries.

    Two regions are neighbors when their boundaries share at least one
    point.  The shared-point test snaps every vertex to a grid of
    ``snap_degrees`` and compares snapped coordinates exactly, which absorbs
    the floating-point jitter real shapefiles carry.  Boundary contact that
    involves no common vertex (a pure edge-interior tangency) is therefore
    not detected; county mosaics always share vertices along common borders.
    """
    if snap_degrees <= 0:
        raise ValueError("snap_degrees must be positive")
    vertex_owners: dict[tuple[int, int], set[str]] = collections.defaultdict(set)
    for rid, geometry in polygons.items():
        distinct: set[tuple[float, float]] = set()
        for ring_pts in _iter_polygon_rings(rid, geometry):
            if len(ring_pts) >= 2 and ring_pts[0] == ring_pts[-1]:
                ring_pts = ring_pts[:-1]
            ring_distinct = set(ring_pts)
            if len(ring_distinct) < 3:
                raise GeometryError(
                    f"region {rid!r}: ring with fewer than 3 distinct vertices"
                )
            distinct |= ring_distinct
            for x, y in ring_pts:
                key = (int(round(x / snap_degrees)), int(round(y / snap_degrees)))
                vertex_owners[key].add(rid)
        if len(distinct) < 3:
            raise GeometryError(f"region {rid!r}: fewer than 3 distinct vertices")
    missing = [rid for rid in polygons if rid not in regions]
    if missing:
        raise ValueError(f"polygons for unknown regions: {missing[:5]}")

    adjacency: dict[str, set[str]] = {rid: set() for rid in polygons}
    for owners in vertex_owners.values():
        if len(owners) < 2:
            continue
        olist = sorted(owners)
        for i, a in enumerate(olist):
            for b in olist[i + 1 :]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return NeighborGraph(regions, adjacency)


def observed_subgraph(
    graph: NeighborGraph, field: RateField, min_observed: int = 10
) -> NeighborGraph:
    """Restrict ``graph`` to regions observed in ``field``.

    Neighbor lists are filtered to observed regions; regions left with no
    observed neighbor are excluded entirely (the bootstrap needs at least
    one neighbor per region).  Callers can recover the dropped isolates by
    set difference against the returned graph.  Idempotent.

    Raises :class:`InsufficientDataError` when fewer than ``min_observed``
    regions survive.
    """
    observed = field.observed_mask(graph.ids)
    if observed.sum() < min_observed:
        raise InsufficientDataError(
            f"code {field.code!r}: only {observed.sum()} observed regions "
            f"(minimum {min_observed})"
        )
    # an edge lives when both ends are observed; a region stays when it has
    # a live edge, so every live edge joins two regions that stay
    src = np.repeat(np.arange(graph.n), graph.degrees)
    live = observed[src] & observed[graph.flat_neighbors]
    degrees = np.bincount(src[live], minlength=graph.n)
    keep = degrees > 0
    if keep.sum() < min_observed:
        raise InsufficientDataError(
            f"code {field.code!r}: only {keep.sum()} observed regions with an "
            f"observed neighbor (minimum {min_observed})"
        )
    sub = NeighborGraph.__new__(NeighborGraph)
    position = np.cumsum(keep, dtype=np.int64) - 1
    regions = RegionSet(compress(graph.regions, keep.tolist()))
    sub._set_csr(regions, degrees[keep], position[graph.flat_neighbors[live]])
    return sub
