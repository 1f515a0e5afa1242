import numpy as np
import pytest

from spatialboot.errors import GeometryError, InsufficientDataError
from spatialboot.fields import RateField
from spatialboot.graph import (
    NeighborGraph,
    Region,
    RegionSet,
    observed_subgraph,
    queen_contiguity,
)

from conftest import path_graph, polygon, polygon_regions, square_grid_polygons, unit_square


def assert_valid(graph):
    """Symmetry and no-self-loop invariants over all edges."""
    for rid, nbrs in graph.adjacency.items():
        assert rid not in nbrs
        for nb in nbrs:
            assert rid in graph.adjacency[nb]
        assert graph.degree(rid) == len(nbrs)


class TestRegion:
    def test_latitude_range(self):
        with pytest.raises(ValueError):
            Region(id="x", lat=91.0, lon=0.0)
        with pytest.raises(ValueError):
            Region(id="x", lat=-90.5, lon=0.0)

    def test_longitude_range(self):
        with pytest.raises(ValueError):
            Region(id="x", lat=0.0, lon=180.5)

    def test_negative_population(self):
        with pytest.raises(ValueError):
            Region(id="x", lat=0.0, lon=0.0, population=-1)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegionSet([Region(id="a", lat=0, lon=0), Region(id="a", lat=1, lon=1)])


class TestNeighborGraph:
    def test_symmetry_enforced(self):
        regions = RegionSet([Region(id="a", lat=0, lon=0), Region(id="b", lat=1, lon=1)])
        with pytest.raises(ValueError, match="asymmetric"):
            NeighborGraph(regions, {"a": ["b"], "b": []})

    def test_self_loop_rejected(self):
        regions = RegionSet([Region(id="a", lat=0, lon=0)])
        with pytest.raises(ValueError, match="self-loop"):
            NeighborGraph(regions, {"a": ["a"]})

    def test_isolates_retained(self):
        regions = RegionSet(
            Region(id=r, lat=0, lon=i) for i, r in enumerate("abc")
        )
        graph = NeighborGraph(regions, {"a": ["b"], "b": ["a"]})
        assert graph.degree("c") == 0
        assert graph.isolated_ids() == ("c",)
        assert graph.component_count() == 2
        assert_valid(graph)

    def test_flat_arrays_match_adjacency(self):
        graph = path_graph("ABCDE")
        for rid in graph.ids:
            i = graph.regions.position(rid)
            idx = graph.flat_neighbors[graph.offsets[i] : graph.offsets[i + 1]]
            assert tuple(graph.ids[j] for j in idx) == graph.neighbors(rid)
        # positions out of id order: every row still lists its neighbors in
        # id order, which is the order the nb2 draws index into
        mapping = {"D": ["A", "E", "B"], "A": ["D", "C"], "E": ["D"], "B": ["D"], "C": ["A"]}
        regions = RegionSet(Region(id=rid, lat=0, lon=i) for i, rid in enumerate("EBDCA"))
        graph = NeighborGraph(regions, mapping)
        assert graph.degrees.tolist() == [len(mapping[rid]) for rid in "EBDCA"]
        for i, rid in enumerate("EBDCA"):
            idx = graph.flat_neighbors[graph.offsets[i] : graph.offsets[i + 1]]
            assert tuple(graph.ids[j] for j in idx) == tuple(sorted(mapping[rid]))
            assert graph.neighbors(rid) == tuple(sorted(mapping[rid]))


def queen(polygons, **kwargs):
    return queen_contiguity(polygons, polygon_regions(polygons), **kwargs)


class TestQueenContiguity:
    def test_2x2_grid_every_cell_3_neighbors(self):
        graph = queen(square_grid_polygons(2, 2))
        assert graph.n == 4
        assert all(graph.degree(rid) == 3 for rid in graph.ids)
        assert_valid(graph)

    def test_3x3_center_has_8(self):
        graph = queen(square_grid_polygons(3, 3))
        assert graph.degree("r1c1") == 8

    def test_disjoint_squares_no_neighbors(self):
        polygons = {"a": polygon(unit_square(0, 0)), "b": polygon(unit_square(2, 0))}
        graph = queen(polygons)
        assert graph.degree("a") == 0
        assert graph.degree("b") == 0

    @pytest.mark.parametrize("rows,cols", [(3, 3), (4, 5), (5, 3)])
    def test_grid_degree_profile(self, rows, cols):
        graph = queen(square_grid_polygons(rows, cols))
        for r in range(rows):
            for c in range(cols):
                on_row_edge = r in (0, rows - 1)
                on_col_edge = c in (0, cols - 1)
                expected = 3 if (on_row_edge and on_col_edge) else 5 if (on_row_edge or on_col_edge) else 8
                assert graph.degree(f"r{r}c{c}") == expected
        assert_valid(graph)

    def test_corner_touch_only(self):
        polygons = {"a": polygon(unit_square(0, 0)), "b": polygon(unit_square(1, 1))}
        graph = queen(polygons)
        assert graph.neighbors("a") == ("b",)

    def test_snapping_absorbs_jitter(self):
        jittered = [[(1 + 1e-12, 0.0), (2, 0), (2, 1), (1 + 1e-12, 1), (1 + 1e-12, 0.0)]]
        polygons = {"a": polygon(unit_square(0, 0)), "b": polygon(jittered)}
        graph = queen(polygons, snap_degrees=1e-9)
        assert graph.neighbors("a") == ("b",)

    def test_degenerate_polygon(self):
        polygons = {"bad": polygon([[(0, 0), (1, 1), (0, 0)]])}
        with pytest.raises(GeometryError, match="bad"):
            queen(polygons)

    def test_multipolygon_geometry_dict(self):
        geom = {
            "type": "MultiPolygon",
            "coordinates": [unit_square(0, 0), unit_square(5, 5)],
        }
        polygons = {"a": geom, "b": polygon(unit_square(1, 1))}
        graph = queen(polygons)
        assert graph.neighbors("a") == ("b",)


class TestObservedSubgraph:
    def test_full_field_identity(self):
        graph = path_graph([f"P{i}" for i in range(12)])
        field = RateField("c", {rid: float(i) for i, rid in enumerate(graph.ids)})
        sub = observed_subgraph(graph, field)
        assert sub == graph

    def test_filter_forced(self):
        graph = path_graph(("A", "B", "C"))
        field = RateField("c", {"A": 1.0, "B": 2.0})
        sub = observed_subgraph(graph, field, min_observed=2)
        assert sub.ids == ("A", "B")
        assert sub.adjacency == {"A": ("B",), "B": ("A",)}

    def test_insufficient_data_default_threshold(self):
        graph = path_graph(("A", "B", "C"))
        field = RateField("c", {"A": 1.0, "B": 2.0})
        with pytest.raises(InsufficientDataError):
            observed_subgraph(graph, field)

    def test_isolates_dropped_entirely(self):
        # A-B edge plus isolated-after-filter D (its only neighbor C unobserved)
        regions = RegionSet(Region(id=r, lat=0, lon=i) for i, r in enumerate("ABCD"))
        graph = NeighborGraph(
            regions, {"A": ["B"], "B": ["A"], "C": ["D"], "D": ["C"]}
        )
        field = RateField("c", {"A": 1.0, "B": 2.0, "D": 3.0})
        sub = observed_subgraph(graph, field, min_observed=2)
        assert sub.ids == ("A", "B")

    def test_idempotent(self, rng):
        from conftest import random_graph

        graph = random_graph(np.random.default_rng(7), 40, edge_prob=0.15)
        keep = [rid for i, rid in enumerate(graph.ids) if i % 3 != 0]
        field = RateField("c", {rid: float(i) for i, rid in enumerate(keep)})
        sub1 = observed_subgraph(graph, field)
        sub2 = observed_subgraph(sub1, field)
        assert sub1 == sub2

    def test_order_preserved(self):
        graph = path_graph([f"P{i}" for i in range(15)])
        field = RateField("c", {rid: 1.0 * i for i, rid in enumerate(graph.ids) if i != 3})
        sub = observed_subgraph(graph, field)
        assert list(sub.ids) == [rid for rid in graph.ids if rid != "P3"]
