"""Regions and contiguity neighbor graphs.

A :class:`RegionSet` is an ordered, immutable collection of regions with
unique string ids and geographic centroids.  A :class:`NeighborGraph` pairs a
region set with a symmetric, self-loop-free adjacency structure (Queen
contiguity when built from polygons).  Graphs are immutable after
construction and safe for shared concurrent reads.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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
    """Ordered, immutable collection of regions with unique ids."""

    def __init__(self, regions: Iterable[Region]):
        self._regions = tuple(regions)
        index: dict[str, int] = {}
        for i, r in enumerate(self._regions):
            if r.id in index:
                raise ValueError(f"duplicate region id {r.id!r}")
            index[r.id] = i
        self._index = index
        self.lat = np.array([r.lat for r in self._regions], dtype=float)
        self.lon = np.array([r.lon for r in self._regions], dtype=float)
        self.lat.setflags(write=False)
        self.lon.setflags(write=False)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

    def __contains__(self, region_id: str) -> bool:
        return region_id in self._index

    def __getitem__(self, region_id: str) -> Region:
        return self._regions[self._index[region_id]]

    def position(self, region_id: str) -> int:
        return self._index[region_id]

    def subset(self, ids: Iterable[str]) -> "RegionSet":
        """Regions with the given ids, kept in this set's order."""
        wanted = set(ids)
        return RegionSet(r for r in self._regions if r.id in wanted)


class NeighborGraph:
    """Symmetric neighbor structure over a :class:`RegionSet`.

    ``adjacency`` maps every region id to a sorted tuple of neighbor ids.
    Construction validates symmetry, absence of self-loops, and that all
    neighbor ids are known regions.  Regions absent from the input adjacency
    mapping are retained as isolates (empty neighbor list).
    """

    def __init__(self, regions: RegionSet, adjacency: Mapping[str, Sequence[str]]):
        self.regions = regions
        adj: dict[str, tuple[str, ...]] = {}
        for rid in regions.ids:
            nbrs = tuple(sorted(set(adjacency.get(rid, ()))))
            adj[rid] = nbrs
        for rid in adjacency:
            if rid not in regions:
                raise ValueError(f"adjacency mentions unknown region {rid!r}")
        for rid, nbrs in adj.items():
            for nb in nbrs:
                if nb == rid:
                    raise ValueError(f"self-loop on region {rid!r}")
                if nb not in regions:
                    raise ValueError(f"region {rid!r} lists unknown neighbor {nb!r}")
                if rid not in adj[nb]:
                    raise ValueError(f"asymmetric adjacency between {rid!r} and {nb!r}")
        self.adjacency = adj
        ids = regions.ids
        pos = {rid: i for i, rid in enumerate(ids)}
        degrees = np.array([len(adj[rid]) for rid in ids], dtype=np.int64)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        k = 0
        for rid in ids:
            for nb in adj[rid]:
                flat[k] = pos[nb]
                k += 1
        for arr in (degrees, offsets, flat):
            arr.setflags(write=False)
        self.degrees = degrees
        self.offsets = offsets
        self.flat_neighbors = flat

    @property
    def n(self) -> int:
        return len(self.regions)

    @property
    def ids(self) -> tuple[str, ...]:
        return self.regions.ids

    def degree(self, region_id: str) -> int:
        return len(self.adjacency[region_id])

    def neighbors(self, region_id: str) -> tuple[str, ...]:
        return self.adjacency[region_id]

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def isolated_ids(self) -> tuple[str, ...]:
        return tuple(rid for rid in self.ids if not self.adjacency[rid])

    def component_count(self) -> int:
        """Number of connected components (isolates count individually)."""
        adjacency = csr_matrix(
            (np.ones(self.flat_neighbors.shape[0]), self.flat_neighbors, self.offsets),
            shape=(self.n, self.n),
        )
        return int(connected_components(adjacency, directed=False, return_labels=False))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NeighborGraph):
            return NotImplemented
        return self.ids == other.ids and self.adjacency == other.adjacency

    def __repr__(self) -> str:
        return f"NeighborGraph(n={self.n}, edges={self.edge_count})"


def _iter_polygon_rings(geometry):
    """Yield coordinate rings from a GeoJSON-style geometry or bare nesting.

    Accepts geometry dicts of type Polygon / MultiPolygon, or the raw
    ``coordinates`` nesting of either.
    """
    if isinstance(geometry, Mapping):
        gtype = geometry.get("type")
        coords = geometry.get("coordinates")
        if gtype == "Polygon":
            yield from coords
            return
        if gtype == "MultiPolygon":
            for poly in coords:
                yield from poly
            return
        raise GeometryError(f"unsupported geometry type {gtype!r}")
    # Bare nesting: decide Polygon vs MultiPolygon by nesting depth.
    first = geometry[0]
    if first and isinstance(first[0][0], (int, float)):
        yield from geometry  # Polygon: list of rings
    else:
        for poly in geometry:
            yield from poly


def queen_contiguity(
    polygons: Mapping[str, object],
    regions: RegionSet | None = None,
    snap_degrees: float = 1e-9,
) -> NeighborGraph:
    """Build a Queen-contiguity graph from region polygons.

    Two regions are neighbors when their boundaries share at least one
    point.  The shared-point test snaps every vertex to a grid of
    ``snap_degrees`` and compares snapped coordinates exactly, which absorbs
    the floating-point jitter real shapefiles carry.  Boundary contact that
    involves no common vertex (a pure edge-interior tangency) is therefore
    not detected; county mosaics always share vertices along common borders.

    When ``regions`` is omitted, placeholder regions are synthesized with
    the vertex mean of each polygon as centroid.
    """
    if snap_degrees <= 0:
        raise ValueError("snap_degrees must be positive")
    vertex_owners: dict[tuple[int, int], set[str]] = collections.defaultdict(set)
    centroids: dict[str, tuple[float, float]] = {}
    for rid, geometry in polygons.items():
        distinct: set[tuple[float, float]] = set()
        xs = 0.0
        ys = 0.0
        count = 0
        for ring in _iter_polygon_rings(geometry):
            ring_pts = list(ring)
            if len(ring_pts) >= 2 and tuple(ring_pts[0]) == tuple(ring_pts[-1]):
                ring_pts = ring_pts[:-1]
            ring_distinct = {(float(x), float(y)) for x, y in ring_pts}
            if len(ring_distinct) < 3:
                raise GeometryError(
                    f"region {rid!r}: ring with fewer than 3 distinct vertices"
                )
            distinct |= ring_distinct
            for x, y in ring_pts:
                key = (int(round(x / snap_degrees)), int(round(y / snap_degrees)))
                vertex_owners[key].add(rid)
                xs += float(x)
                ys += float(y)
                count += 1
        if len(distinct) < 3:
            raise GeometryError(f"region {rid!r}: fewer than 3 distinct vertices")
        centroids[rid] = (ys / count, xs / count)  # (lat, lon) from (y, x)

    if regions is None:
        regions = RegionSet(
            Region(id=rid, lat=centroids[rid][0], lon=centroids[rid][1])
            for rid in sorted(polygons)
        )
    else:
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
    observed = [rid for rid in graph.ids if rid in field.values]
    if len(observed) < min_observed:
        raise InsufficientDataError(
            f"code {field.code!r}: only {len(observed)} observed regions "
            f"(minimum {min_observed})"
        )
    obs = set(observed)
    filtered = {
        rid: tuple(nb for nb in graph.adjacency[rid] if nb in obs) for rid in observed
    }
    keep = [rid for rid in observed if filtered[rid]]
    if len(keep) < min_observed:
        raise InsufficientDataError(
            f"code {field.code!r}: only {len(keep)} observed regions with an "
            f"observed neighbor (minimum {min_observed})"
        )
    keep_set = set(keep)
    adjacency = {rid: filtered[rid] for rid in keep}
    # Dropping isolates cannot orphan anyone else: isolates carry no edges.
    assert all(nb in keep_set for nbrs in adjacency.values() for nb in nbrs)
    return NeighborGraph(graph.regions.subset(keep), adjacency)
