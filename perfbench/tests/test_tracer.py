import math

import pytest

from tracer import Span, self_times, summarize, union_length


def span(pid, id, parent, t0, t1, layer="nb2", name="nb2", **attrs):
    return Span(id=id, layer=layer, name=name, pid=pid, parent=parent, t0=t0, t1=t1, attrs=attrs)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], lo=1.5, hi=5.5) == 2
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, 1, None, 0.0, 10.0),
        span(1, 2, 1, 1.0, 4.0),
        span(1, 3, 1, 3.0, 6.0),  # overlaps its sibling, as from two threads
        span(1, 4, 2, 2.0, 3.0),
        span(1, 5, None, 12.0, 13.0),
        # another process reuses the same span ids; it must not mix in
        span(2, 1, None, 0.0, 1.0),
        span(2, 2, 1, 0.25, 0.75),
    ]
    selfs = self_times(spans)
    assert selfs[1, 1] == pytest.approx(10.0 - 5.0)
    assert selfs[1, 2] == pytest.approx(3.0 - 1.0)
    assert selfs[1, 3] == pytest.approx(3.0)
    assert selfs[1, 4] == pytest.approx(1.0)
    assert selfs[1, 5] == pytest.approx(1.0)
    assert selfs[2, 1] == pytest.approx(0.5)
    assert selfs[2, 2] == pytest.approx(0.5)


def test_summarize_accounts_for_the_parent_wall_time():
    parent, worker = 100, 200
    spans = [
        span(parent, 1, None, 1.0, 2.0, layer="io", name="read_fields", rows_read=7),
        span(parent, 2, None, 9.0, 9.5, layer="io", name="write_nb2_results", bytes_written=3),
        span(parent, 3, 2, 9.1, 9.2, layer="io", name="_write"),
        span(worker, 1, None, 2.5, 8.5, layer="nb2", name="nb2", reps=100, anchor_evals=1000),
        span(worker, 2, None, 8.5, 8.75, layer="variogram", name="empirical_variogram",
             distance_evals=40, pairs_binned=10),
    ]
    m = summarize(spans, parent, wall_s=10.0, workers=2)
    layer_self = m["io.read_s"] + m["io.write_s"]
    assert m["cli.parent_layer_s"] == pytest.approx(layer_self)
    assert m["cli.parent_layer_s"] + m["cli.serial_s"] == pytest.approx(m["cli.wall_s"])
    assert m["cli.serial_s"] == pytest.approx(8.5)
    assert m["cli.pool_wait_s"] == pytest.approx(6.25)
    assert m["cli.worker_idle_frac"] == pytest.approx(1 - (1.5 + 6.25) / 20.0)
    assert m["nb2.s"] == pytest.approx(6.0)
    assert m["nb2.ms_per_rep"] == pytest.approx(60.0)
    assert m["variogram.useful_pair_frac"] == pytest.approx(0.25)
    assert m["io.rows_read"] == 7 and m["io.bytes_written"] == 3
    assert m["rates.build_s"] == 0 and math.isfinite(m["variogram.fit_s"])
