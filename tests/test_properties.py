"""Hypothesis property tests: file round trips through the readers and
writers, NB2 shift invariance and Moran's I against its brute-force oracle."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from spatialboot import io as sbio
from spatialboot.cli import main
from spatialboot.fields import RateField
from spatialboot.graph import NeighborGraph, Region, RegionSet
from spatialboot.moran import SCHEME_BINARY, SCHEME_ROW, morans_i
from spatialboot.nb2 import COMPARATORS, BootstrapConfig, nb2
from spatialboot.rates import AGE_GROUPS, GENDERS, StratifiedCounts
from spatialboot.synth import grid_graph

from test_moran import naive_morans_i

# ids and codes as the readers give them back: no surrounding whitespace,
# but commas, quotes and inner spaces that the csv module must quote
names = st.text(alphabet='abcXYZ019,"- _.', min_size=1, max_size=6).filter(
    lambda s: s == s.strip()
)


@st.composite
def stratified_counts(draw, region_ids):
    strata = [(a, g) for a in AGE_GROUPS for g in GENDERS]
    codes = draw(st.lists(names, min_size=0, max_size=3, unique=True))
    totals, cases = {}, {}
    for rid in region_ids:
        for stratum in draw(st.lists(st.sampled_from(strata), max_size=4, unique=True)):
            total = draw(st.integers(0, 500))
            totals[(rid, *stratum)] = total
            for code in codes:
                if draw(st.booleans()):
                    cases[(rid, code, *stratum)] = draw(st.integers(0, total))
    return StratifiedCounts(cases=cases, totals=totals)


GRID = grid_graph(2, 3)


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@settings(max_examples=40, deadline=None)
@given(stratified_counts(GRID.ids), st.randoms(use_true_random=False))
def test_ingested_counts_read_back_equal(counts, random):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sbio.write_regions(tmp / "regions.csv", GRID.regions)
        sbio.write_edges(tmp / "edges.csv", GRID)
        case_rows = [(*key, n) for key, n in counts.cases.items()]
        total_rows = [(*key, n) for key, n in counts.totals.items()]
        random.shuffle(case_rows)
        random.shuffle(total_rows)
        _write_rows(tmp / "counts.csv", sbio.COUNTS_HEADER, case_rows)
        _write_rows(tmp / "totals.csv", sbio.TOTALS_HEADER, total_rows)
        _write_rows(tmp / "stdpop.csv", sbio.STDPOP_HEADER, [(1, "F", 10.0)])
        bundle = tmp / "bundle"
        assert main([
            "ingest", "--regions", str(tmp / "regions.csv"), "--edges", str(tmp / "edges.csv"),
            "--counts", str(tmp / "counts.csv"), "--totals", str(tmp / "totals.csv"),
            "--stdpop", str(tmp / "stdpop.csv"), "--out", str(bundle),
        ]) == 0
        back = sbio.build_stratified_counts(
            bundle / "counts.csv", bundle / "totals.csv", GRID.regions
        )
    assert back == counts
    assert back.codes() == counts.codes()


@st.composite
def rate_fields(draw):
    ids = draw(st.lists(names, min_size=1, max_size=8, unique=True))
    codes = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False)
    return [
        RateField(code, {rid: draw(values) for rid in draw(st.lists(
            st.sampled_from(ids), min_size=1, unique=True))})
        for code in codes
    ]


@settings(max_examples=100, deadline=None)
@given(rate_fields())
def test_fields_write_read_round_trip(fields):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.csv"
        sbio.write_fields(path, fields)
        back = sbio.read_fields(path)
    assert [f.code for f in back] == sorted(f.code for f in fields)
    by_code = {f.code: f.values for f in fields}
    for field in back:
        assert field.values == by_code[field.code]


@st.composite
def connected_graphs(draw):
    """A path through every region plus random extra edges."""
    n = draw(st.integers(2, 15))
    ids = [f"r{i}" for i in range(n)]
    adjacency = {rid: set() for rid in ids}
    pairs = [(i, i + 1) for i in range(n - 1)]
    region = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(region, region), max_size=2 * n))
    for i, j in pairs:
        if i != j:
            adjacency[ids[i]].add(ids[j])
            adjacency[ids[j]].add(ids[i])
    regions = RegionSet(Region(id=rid, lat=0.1 * i, lon=0.2 * i) for i, rid in enumerate(ids))
    return NeighborGraph(regions, adjacency)


@st.composite
def cycle_graphs(draw):
    """Disjoint cycles over a random order of the regions: every degree is
    2, so a neighbour mean divides by 2 and stays exact."""
    lengths = draw(st.lists(st.integers(3, 6), min_size=1, max_size=3))
    order = draw(st.permutations([f"r{i}" for i in range(sum(lengths))]))
    adjacency = {rid: [] for rid in order}
    start = 0
    for length in lengths:
        cycle = order[start:start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            adjacency[a].append(b)
            adjacency[b].append(a)
        start += length
    regions = RegionSet(Region(id=rid, lat=0.0, lon=0.1 * i) for i, rid in enumerate(order))
    return NeighborGraph(regions, adjacency)


@settings(max_examples=60, deadline=None)
@given(
    cycle_graphs(),
    st.data(),
    st.integers(-1000, 1000),
    st.sampled_from(COMPARATORS),
    st.integers(0, 2**32 - 1),
)
def test_nb2_invariant_to_shifting_the_field(graph, data, shift, comparator, seed):
    # integer values and shifts on a 2-regular graph keep every estimate
    # and difference exact, so both statistics must be equal, not just close
    values = data.draw(st.lists(st.integers(-50, 50), min_size=graph.n, max_size=graph.n))
    field = RateField("c", {rid: float(v) for rid, v in zip(graph.ids, values)})
    config = BootstrapConfig(repetitions=7, master_seed=seed, comparator=comparator)
    with np.errstate(all="ignore"):
        base = nb2(field, graph, config)
        shifted = nb2(field.shifted(float(shift)), graph, config)
    for variant in base:
        np.testing.assert_array_equal(
            shifted[variant].per_repetition, base[variant].per_repetition
        )
        np.testing.assert_array_equal(shifted[variant].statistic, base[variant].statistic)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.data(), st.sampled_from([SCHEME_BINARY, SCHEME_ROW]))
def test_morans_i_matches_brute_force_oracle(graph, data, scheme):
    values = data.draw(st.lists(
        st.integers(-800, 800).map(lambda v: v / 8.0), min_size=graph.n, max_size=graph.n
    ).filter(lambda vs: len(set(vs)) > 1))
    field = RateField("c", dict(zip(graph.ids, values)))
    got = morans_i(field, graph, scheme=scheme).i
    assert got == pytest.approx(naive_morans_i(field.values, graph, scheme), abs=1e-9)
