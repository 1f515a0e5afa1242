import numpy as np
import pytest

from spatialboot.fields import RateField
from spatialboot.graph import NeighborGraph, Region, RegionSet
from spatialboot.rates import StratifiedCounts, stratum_key


def unit_square(x, y):
    """The coordinates of a GeoJSON Polygon: one closed unit-square ring with
    lower-left corner at (x, y)."""
    return [[(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1), (x, y)]]


def polygon(coordinates):
    return {"type": "Polygon", "coordinates": coordinates}


def square_grid_polygons(rows, cols):
    """rows x cols unit squares keyed r{r}c{c}, as GeoJSON Polygons."""
    return {
        f"r{r}c{c}": polygon(unit_square(c, r)) for r in range(rows) for c in range(cols)
    }


def polygon_regions(polygons):
    """A region at (0, 0) for each polygon id, in id order."""
    return RegionSet(Region(id=rid, lat=0.0, lon=0.0) for rid in sorted(polygons))


def counts_from_mappings(cases, totals, region_ids=None) -> StratifiedCounts:
    """The table of ``(id, code, age_group, gender) -> cases`` and ``(id,
    age_group, gender) -> total`` mappings, which its ``cases`` and
    ``totals`` give back; ``region_ids`` orders its rows (default: first
    seen in the keys), and a bad stratum raises ``stratum_key``'s error."""
    if region_ids is None:
        region_ids = dict.fromkeys(key[0] for key in (*totals, *cases))
    codes = sorted({key[1] for key in cases})
    row_of = {rid: i for i, rid in enumerate(region_ids)}
    code_of = {code: k for k, code in enumerate(codes)}

    def columns(entries, dtypes):
        table = np.array(list(entries), np.int64).reshape(-1, len(dtypes)).T
        return [column.astype(dtype) for column, dtype in zip(table, dtypes)]

    case_columns = columns(((row_of[rid], code_of[code], stratum_key((age, gender)), n)
                            for (rid, code, age, gender), n in cases.items()),
                           (np.int32, np.int32, np.int16, np.int64))
    total_columns = columns(((row_of[rid], stratum_key((age, gender)), n)
                             for (rid, age, gender), n in totals.items()),
                            (np.int32, np.int16, np.int64))
    return StratifiedCounts(region_ids, codes, case_columns, total_columns)


def path_graph(ids=("A", "B", "C")):
    """Path A - B - C ... with dummy centroids."""
    regions = RegionSet(
        Region(id=rid, lat=float(i), lon=0.0) for i, rid in enumerate(ids)
    )
    adjacency = {}
    for i, rid in enumerate(ids):
        nbrs = []
        if i > 0:
            nbrs.append(ids[i - 1])
        if i < len(ids) - 1:
            nbrs.append(ids[i + 1])
        adjacency[rid] = nbrs
    return NeighborGraph(regions, adjacency)


def ring_graph(n):
    """Cycle graph: every region has exactly two neighbors (regular)."""
    ids = [f"R{i:02d}" for i in range(n)]
    regions = RegionSet(
        Region(id=rid, lat=float(i % 10), lon=float(i // 10)) for i, rid in enumerate(ids)
    )
    adjacency = {
        ids[i]: [ids[(i - 1) % n], ids[(i + 1) % n]] for i in range(n)
    }
    return NeighborGraph(regions, adjacency)


def constant_field(graph, value=1.5, code="const"):
    return RateField(code, {rid: value for rid in graph.ids})


def random_graph(rng, n, edge_prob=0.2):
    """Random symmetric graph over n regions with at least one edge."""
    ids = [f"N{i:03d}" for i in range(n)]
    regions = RegionSet(
        Region(id=rid, lat=float(rng.uniform(-10, 10)), lon=float(rng.uniform(-10, 10)))
        for rid in ids
    )
    adjacency = {rid: set() for rid in ids}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                adjacency[ids[i]].add(ids[j])
                adjacency[ids[j]].add(ids[i])
    if not any(adjacency.values()):
        adjacency[ids[0]].add(ids[1])
        adjacency[ids[1]].add(ids[0])
    return NeighborGraph(regions, adjacency)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
