"""Hypothesis property tests for the matched-pool sampler."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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
