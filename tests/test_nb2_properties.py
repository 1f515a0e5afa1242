"""Hypothesis property tests for the matched-pool sampler and for joining
NB2 results over repetition ranges."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from spatialboot.fields import RateField
from spatialboot.graph import NeighborGraph, Region, RegionSet
from spatialboot.nb2 import COMPARATORS, BootstrapConfig, join_results, nb2
from test_nb2 import floyd_pools


@st.composite
def pool_cases(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    size = draw(st.integers(min_value=1, max_value=40))
    anchors = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    deg = draw(st.lists(st.integers(1, n - 1), min_size=size, max_size=size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, anchors, deg, seed


@settings(max_examples=200, deadline=None)
@given(pool_cases())
def test_pools_distinct_exclude_anchor_in_range(case):
    n, anchors, deg, seed = case
    pools = floyd_pools(anchors, deg, n, seed)
    for a, d, pool in zip(anchors, deg, pools):
        assert len(pool) == d
        assert len(set(pool)) == d
        assert a not in pool
        assert all(0 <= p < n for p in pool)


@st.composite
def nb2_cases(draw):
    """A small graph with every degree >= 1, a field on it, a configuration
    and a partition of ``range(M)`` into consecutive ranges."""
    n = draw(st.integers(min_value=2, max_value=12))
    ids = [f"r{i}" for i in range(n)]
    adjacency = {rid: set() for rid in ids}
    for i in range(n):  # a random neighbour for each region, plus extra edges
        j = draw(st.integers(0, n - 2))
        j += j >= i
        adjacency[ids[i]].add(ids[j])
        adjacency[ids[j]].add(ids[i])
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if i != j:
            adjacency[ids[i]].add(ids[j])
            adjacency[ids[j]].add(ids[i])
    regions = RegionSet(Region(id=rid, lat=0.0, lon=0.1 * i) for i, rid in enumerate(ids))
    graph = NeighborGraph(regions, adjacency)
    # few distinct values, so ties and constant repetitions occur
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, -3.0]), min_size=n, max_size=n))
    config = BootstrapConfig(
        repetitions=draw(st.integers(min_value=1, max_value=40)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        variants=draw(st.sampled_from([("ttest",), ("odds",), ("ttest", "odds")])),
        comparator=draw(st.sampled_from(COMPARATORS)),
        signed_differences=draw(st.booleans()),
        ties_win=draw(st.booleans()),
    )
    cuts = draw(st.sets(st.integers(1, config.repetitions - 1), max_size=6)) \
        if config.repetitions > 1 else set()
    bounds = [0, *sorted(cuts), config.repetitions]
    ranges = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    return RateField("c", dict(zip(ids, values))), graph, config, ranges


@settings(max_examples=150, deadline=None)
@given(nb2_cases())
def test_joined_ranges_equal_one_call(case):
    field, graph, config, ranges = case
    with np.errstate(all="ignore"):
        whole = nb2(field, graph, config)
        joined = join_results([nb2(field, graph, config, reps=r) for r in ranges])
    assert list(joined) == list(whole)
    for variant, result in whole.items():
        # field for field, a NaN statistic equal to a NaN one
        got, want = dict(vars(joined[variant])), dict(vars(result))
        assert np.array_equal(got.pop("statistic"), want.pop("statistic"), equal_nan=True)
        assert np.array_equal(got.pop("per_repetition"), want.pop("per_repetition"),
                              equal_nan=True)
        assert got == want
