import math

import numpy as np
import pytest

from spatialboot.fields import RateField
from spatialboot.nb2 import (
    COMPARATOR_DIRECT,
    COMPARATOR_MATCHED,
    BootstrapConfig,
    _draws,
    bootstrap_repetition,
    draw_block,
    join_results,
    nb2,
    paired_t_statistic,
    prefix_statistic,
    splitmix64,
)
from spatialboot.synth import FieldSpec, generate, grid_graph, permute_field

from conftest import constant_field, path_graph


class TestSeedDerivation:
    def test_splitmix64_reference(self):
        # independent straight-line transcription of the SplitMix64 step
        def reference(seed, index):
            mask = (1 << 64) - 1
            z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return (z ^ (z >> 31)) & mask

        for seed in (0, 1, 42, 2**63, 2**64 - 1):
            for index in (0, 1, 999):
                assert splitmix64(seed, index) == reference(seed, index)

    def test_splitmix64_known_stream(self):
        # first outputs of the SplitMix64 stream from seed 0 (published vectors)
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
        assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
        assert splitmix64(0, 2) == 0x06C45D188009454F

    def test_repetition_seed_is_the_master_seed_stream(self):
        # repetition m of every code runs on splitmix64(master, m)
        graph = grid_graph(6, 6)
        field = generate(FieldSpec("g", "gradient", seed=0), graph.regions)
        config = BootstrapConfig(repetitions=5, master_seed=2**64 - 1, variants=("ttest",))
        t_values = nb2(field, graph, config)["ttest"].per_repetition
        for m, t in enumerate(t_values):
            zz, zn, zr = bootstrap_repetition(field, graph, splitmix64(2**64 - 1, m))
            assert t == paired_t_statistic(np.abs(zn - zz), np.abs(zr - zz))

    def test_statistic_does_not_depend_on_the_code_name(self):
        graph = grid_graph(8, 8)
        field = generate(
            FieldSpec("g", "exponential_gp", seed=3, params={"length_km": 100.0, "sill": 1.0}),
            graph.regions,
        )
        config = BootstrapConfig(repetitions=30, master_seed=7)
        base = nb2(field, graph, config)
        renamed = nb2(RateField("a much longer code name", field.values), graph, config)
        for variant, result in base.items():
            assert renamed[variant].code == "a much longer code name"
            assert renamed[variant].per_repetition == result.per_repetition
            assert renamed[variant].statistic == result.statistic

    def test_codes_with_equal_values_get_equal_statistics(self):
        graph = grid_graph(8, 8)
        values = generate(FieldSpec("g", "gradient", seed=0), graph.regions).values
        config = BootstrapConfig(repetitions=20, master_seed=11, comparator=COMPARATOR_DIRECT)
        a = nb2(RateField("101", values), graph, config)
        b = nb2(RateField("102", values), graph, config)
        assert {v: r.statistic for v, r in a.items()} == {v: r.statistic for v, r in b.items()}

    def test_master_seed_ends_give_different_streams(self):
        graph = grid_graph(6, 6)
        field = generate(FieldSpec("g", "gradient", seed=0), graph.regions)
        low, high = (nb2(field, graph, BootstrapConfig(repetitions=3, master_seed=seed))
                     for seed in (0, 2**64 - 1))
        assert low["ttest"].per_repetition != high["ttest"].per_repetition


class TestPairedT:
    def test_identical_pairs(self):
        assert paired_t_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_symmetric_deltas(self):
        assert paired_t_statistic([0.0, 1.0], [1.0, 0.0]) == 0.0

    def test_hand_computed(self):
        # deltas 0.5, 1.0, 1.5: mean 1.0, sd 0.5, t = 1.0 * sqrt(3) / 0.5
        got = paired_t_statistic([0.0, 0.0, 0.0], [0.5, 1.0, 1.5])
        assert got == pytest.approx(math.sqrt(3.0) / 0.5, rel=1e-12)
        assert got == pytest.approx(3.4641016151377544, rel=1e-12)

    def test_textbook_oracle(self, rng):
        # independent oracle: scipy's paired t-test on random pairs
        from scipy.stats import ttest_rel

        for _ in range(25):
            a = rng.normal(size=30)
            b = rng.normal(size=30)
            expected = ttest_rel(b, a).statistic
            assert paired_t_statistic(a, b) == pytest.approx(expected, rel=1e-10)

    def test_zero_spread_nonzero_mean(self):
        assert paired_t_statistic([0.0, 0.0], [1.0, 1.0]) == math.inf
        assert paired_t_statistic([1.0, 1.0], [0.0, 0.0]) == -math.inf

    def test_length_checks(self):
        with pytest.raises(ValueError):
            paired_t_statistic([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_statistic([1.0, 2.0], [1.0])


def plain_floyd_pool(anchor, d, n, u):
    """Floyd's algorithm for one anchor in plain Python; ``u[k]`` is step k's
    uniform.  Draws d distinct positions among the n - 1 non-anchor regions,
    then skips over the anchor."""
    pool = []
    for k in range(d):
        j = n - 1 - d + k
        t = min(int(u[k] * (j + 1)), j)
        pool.append(j if t in pool else t)
    return [p + 1 if p >= anchor else p for p in pool]


def oracle_repetition(z, neighbor_lists, rep_seed, comparator):
    """Straight-line re-implementation of one repetition.

    Same seed derivation and same documented generator call order as the
    engine; all index arithmetic done with plain Python loops.
    """
    n = len(z)
    rng = np.random.default_rng(rep_seed)
    anchors = [int(a) for a in rng.integers(0, n, size=n)]
    degs = [len(neighbor_lists[a]) for a in anchors]
    total = sum(degs)

    u_nb = rng.random(total)
    z_nb = []
    pos = 0
    for a, d in zip(anchors, degs):
        acc = 0.0
        for k in range(d):
            idx = min(int(u_nb[pos + k] * d), d - 1)
            acc += z[neighbor_lists[a][idx]]
        z_nb.append(acc / d)
        pos += d

    if comparator == COMPARATOR_MATCHED:
        # anchor i reads column i of the (max_degree, N) uniform block
        u_pool = rng.random((max(len(nbrs) for nbrs in neighbor_lists), n))
        pools = [
            plain_floyd_pool(a, d, n, u_pool[:, i])
            for i, (a, d) in enumerate(zip(anchors, degs))
        ]
        u_rd = rng.random(total)
        z_rd = []
        pos = 0
        for pool, d in zip(pools, degs):
            acc = 0.0
            for k in range(d):
                idx = min(int(u_rd[pos + k] * d), d - 1)
                acc += z[pool[idx]]
            z_rd.append(acc / d)
            pos += d
    else:
        u_rd = rng.random(total)
        z_rd = []
        pos = 0
        for d in degs:
            acc = 0.0
            for k in range(d):
                idx = min(int(u_rd[pos + k] * n), n - 1)
                acc += z[idx]
            z_rd.append(acc / d)
            pos += d

    return (
        np.array([z[a] for a in anchors]),
        np.array(z_nb),
        np.array(z_rd),
    )


class TestBootstrapRepetition:
    def test_constant_field_forces_constants(self):
        graph = grid_graph(4, 4)
        field = constant_field(graph, 2.5)
        zz, zn, zr = bootstrap_repetition(field, graph, rep_seed=99)
        assert np.all(zz == 2.5)
        assert np.all(zn == 2.5)
        assert np.all(zr == 2.5)

    def test_degree_zero_contract(self):
        graph = path_graph(("A", "B"))  # fine
        from spatialboot.graph import NeighborGraph, Region, RegionSet

        regions = RegionSet([Region(id="a", lat=0, lon=0), Region(id="b", lat=0, lon=1)])
        isolated = NeighborGraph(regions, {})
        field = RateField("c", {"a": 1.0, "b": 2.0})
        with pytest.raises(ValueError, match="degree-0"):
            bootstrap_repetition(field, isolated, rep_seed=1)

    @pytest.mark.parametrize("comparator", [COMPARATOR_MATCHED, COMPARATOR_DIRECT])
    def test_matches_straight_line_oracle(self, comparator):
        graph = grid_graph(10, 10)
        spec = FieldSpec("g", "gradient", seed=0, params={"axis": "lat"})
        field = generate(spec, graph.regions)
        z = np.array([field.values[rid] for rid in graph.ids])
        pos = {rid: i for i, rid in enumerate(graph.ids)}
        neighbor_lists = [
            [pos[nb] for nb in graph.neighbors(rid)] for rid in graph.ids
        ]
        for rep_seed in (splitmix64(7, 0), splitmix64(7, 1), 123456789):
            zz, zn, zr = bootstrap_repetition(field, graph, rep_seed, comparator)
            ozz, ozn, ozr = oracle_repetition(z, neighbor_lists, rep_seed, comparator)
            np.testing.assert_array_equal(zz, ozz)
            np.testing.assert_array_equal(zn, ozn)
            np.testing.assert_array_equal(zr, ozr)

    def test_gradient_neighbors_win_majority(self):
        # on a smooth gradient the neighbor estimates beat the comparison
        # draws on a majority of anchors: u > N/2
        graph = grid_graph(10, 10)
        field = generate(FieldSpec("g", "gradient", seed=0), graph.regions)
        zz, zn, zr = bootstrap_repetition(field, graph, rep_seed=splitmix64(11, 0))
        wins = int(np.count_nonzero(np.abs(zn - zz) < np.abs(zr - zz)))
        assert wins > graph.n // 2

    def test_matched_pools_exclude_anchor_and_are_distinct(self):
        # indirect check via an indicator trick: give the anchor a huge value;
        # matched pools never contain the anchor itself
        graph = grid_graph(6, 6)
        n = graph.n
        for probe in (0, 17, n - 1):
            values = {rid: 0.0 for rid in graph.ids}
            values[graph.ids[probe]] = 1e6
            field = RateField("c", values)
            zz, zn, zr = bootstrap_repetition(field, graph, rep_seed=5, comparator="matched")
            anchored = zz == 1e6
            # comparison estimate for those anchors can only contain other
            # regions' values; with a single spike the pool mean stays small
            # unless the spike region entered the pool, which exclusion forbids
            assert np.all(zr[anchored] < 1e6 / graph.degrees.min())


def sequential_pools(anchors, deg, n, u_pool):
    """The earlier sequential skip-mapping sampler, kept as a test oracle.

    ``u_pool`` is flat in anchor-major slot order.  At step k the uniform
    selects one of the ``n - 1 - k`` regions not yet chosen, mapped to a
    region index by skipping over the anchor and the regions already
    chosen (in ascending order).
    """
    pools = []
    pos = 0
    for a, d in zip(anchors, deg):
        chosen = [a]
        pool = []
        for k in range(d):
            m = n - 1 - k
            cand = min(int(u_pool[pos + k] * m), m - 1)
            for s in sorted(chosen):
                if cand >= s:
                    cand += 1
            pool.append(cand)
            chosen.append(cand)
        pools.append(pool)
        pos += d
    return pools


def floyd_pools(anchors, deg, n, seed):
    """Pools from the engine's vectorised Floyd sampler, one list per anchor."""
    from spatialboot.nb2 import _build_matched_pools

    anchors = np.asarray(anchors, dtype=np.int64)
    deg = np.asarray(deg, dtype=np.int64)
    u_pool = np.random.default_rng(seed).random((int(deg.max()), len(anchors)))
    block = _build_matched_pools(anchors, deg, n, u_pool)
    return [block[: deg[i], i].tolist() for i in range(len(anchors))]


def subset_counts(pools):
    counts = {}
    for pool in pools:
        key = tuple(sorted(pool))
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestMatchedPoolSampler:
    def test_pools_distinct_and_exclude_anchor(self):
        pools = floyd_pools([2] * 5000, [3] * 5000, 12, seed=4)
        for pool in pools:
            assert len(set(pool)) == 3
            assert 2 not in pool
            assert all(0 <= p < 12 for p in pool)

    def test_pools_uniform_over_subsets(self):
        # n=6, anchor=0, d=2: the 10 unordered pairs from {1..5} should be
        # drawn uniformly
        trials = 40000
        counts = subset_counts(floyd_pools([0] * trials, [2] * trials, 6, seed=9))
        assert len(counts) == 10
        expected = trials / 10
        for key, got in counts.items():
            assert abs(got - expected) < 0.06 * expected, (key, got)

    def test_full_degree_pool_is_whole_complement(self):
        # degree n-1: the pool must be exactly all other regions
        pools = floyd_pools([3] * 50, [5] * 50, 6, seed=2)
        for pool in pools:
            assert sorted(pool) == [0, 1, 2, 4, 5]

    def test_mixed_degrees_match_plain_floyd_loop(self):
        # n=50, degrees 1..8 side by side in one block: every column is
        # Floyd's algorithm on its own, and short columns ignore the rows
        # beyond their degree
        n = 50
        rng = np.random.default_rng(31)
        anchors = rng.integers(0, n, size=400)
        deg = rng.integers(1, 9, size=400)
        assert set(deg.tolist()) == set(range(1, 9))
        pools = floyd_pools(anchors, deg, n, seed=12)
        u_pool = np.random.default_rng(12).random((8, 400))
        for i, (a, d, pool) in enumerate(zip(anchors.tolist(), deg.tolist(), pools)):
            assert pool == plain_floyd_pool(a, d, n, u_pool[:, i])
            assert len(set(pool)) == d
            assert a not in pool
            assert all(0 <= p < n for p in pool)

    def test_same_subset_frequencies_as_sequential_sampler(self):
        # chi-square homogeneity test on the 35 3-subsets of {0..7} \ {anchor}
        # drawn by the Floyd sampler and by the earlier sequential sampler
        from scipy.stats import chi2_contingency

        n, d, trials = 8, 3, 35000
        floyd = subset_counts(floyd_pools([4] * trials, [d] * trials, n, seed=21))
        u_seq = np.random.default_rng(22).random(trials * d)
        sequential = subset_counts(sequential_pools([4] * trials, [d] * trials, n, u_seq))
        keys = sorted(set(floyd) | set(sequential))
        assert len(keys) == math.comb(n - 1, d)
        table = np.array([[floyd.get(k, 0) for k in keys], [sequential.get(k, 0) for k in keys]])
        p_value = chi2_contingency(table).pvalue
        assert p_value > 1e-3, p_value


class TestNb2:
    def setup_method(self):
        self.graph = grid_graph(8, 8)

    def test_constant_field_t_zero_odds_clamped(self):
        field = constant_field(self.graph)
        res = nb2(field, self.graph, BootstrapConfig(repetitions=11, master_seed=1))
        assert res["ttest"].statistic == 0.0
        assert not res["ttest"].flags
        odds = res["odds"]
        n = odds.n_effective
        assert all(v == 0.0 for v in odds.per_repetition)  # all ties fail
        assert odds.statistic == pytest.approx(math.log(0.5 / (n + 0.5)))
        assert "odds_clamped" in odds.flags

    def test_ties_win_flag_on_constant_field(self):
        field = constant_field(self.graph)
        cfg = BootstrapConfig(repetitions=5, master_seed=1, ties_win=True)
        odds = nb2(field, self.graph, cfg)["odds"]
        n = odds.n_effective
        assert all(v == n for v in odds.per_repetition)
        assert "odds_clamped" in odds.flags

    def test_odds_from_median_values(self):
        from spatialboot.nb2 import _odds_from_median

        assert _odds_from_median(50.0, 100) == (0.0, False)
        stat, clamped = _odds_from_median(75.0, 100)
        assert stat == pytest.approx(math.log(3.0), rel=1e-12) and not clamped
        stat, clamped = _odds_from_median(0.0, 100)
        assert clamped and stat == pytest.approx(math.log(0.5 / 100.5))
        stat, clamped = _odds_from_median(100.0, 100)
        assert clamped and stat == pytest.approx(math.log(100.5 / 0.5))

    def test_median_reduction_recheckable(self):
        field = generate(
            FieldSpec("g", "exponential_gp", seed=3, params={"length_km": 100.0, "sill": 1.0}),
            self.graph.regions,
        )
        cfg = BootstrapConfig(repetitions=24, master_seed=9)
        res = nb2(field, self.graph, cfg)
        t = res["ttest"]
        assert t.statistic == np.median(np.array(t.per_repetition))
        odds = res["odds"]
        u_med = float(np.median(np.array(odds.per_repetition)))
        n = odds.n_effective
        assert 0 < u_med < n
        assert odds.statistic == pytest.approx(math.log(u_med / (n - u_med)), rel=1e-12)
        assert all(0 <= v <= n for v in odds.per_repetition)
        assert t.repetitions == 24 and len(t.per_repetition) == 24

    def test_monotone_invariance_additive_shift(self):
        field = generate(
            FieldSpec("g", "exponential_gp", seed=5, params={"length_km": 80.0, "sill": 1.0}),
            self.graph.regions,
        )
        cfg = BootstrapConfig(repetitions=25, master_seed=3)
        base = nb2(field, self.graph, cfg)
        shifted = nb2(field.shifted(7.25), self.graph, cfg)
        assert shifted["ttest"].statistic == pytest.approx(base["ttest"].statistic, abs=1e-9)
        assert shifted["odds"].statistic == pytest.approx(base["odds"].statistic, abs=1e-9)

    def test_scale_invariance(self):
        # multiplying every value by c > 0 scales all errors by c and leaves
        # both statistics unchanged up to float noise
        field = generate(
            FieldSpec("g", "exponential_gp", seed=6, params={"length_km": 80.0, "sill": 1.0}),
            self.graph.regions,
        )
        scaled = RateField("g", {k: 3.0 * v for k, v in field.values.items()})
        cfg = BootstrapConfig(repetitions=25, master_seed=3)
        a = nb2(field, self.graph, cfg)
        b = nb2(scaled, self.graph, cfg)
        assert b["ttest"].statistic == pytest.approx(a["ttest"].statistic, rel=1e-9)
        assert b["odds"].statistic == pytest.approx(a["odds"].statistic, abs=1e-12)

    def test_sensitivity_on_gradient(self):
        # smooth gradient: both statistics positive with very high probability
        graph = grid_graph(12, 12)
        field = generate(FieldSpec("g", "gradient", seed=0), graph.regions)
        for seed in range(5):
            cfg = BootstrapConfig(repetitions=100, master_seed=seed)
            res = nb2(field, graph, cfg)
            assert res["ttest"].statistic > 0
            assert res["odds"].statistic > 0

    def test_signed_differences_mode(self):
        field = generate(
            FieldSpec("g", "exponential_gp", seed=7, params={"length_km": 80.0, "sill": 1.0}),
            self.graph.regions,
        )
        cfg_abs = BootstrapConfig(repetitions=20, master_seed=3)
        cfg_signed = BootstrapConfig(repetitions=20, master_seed=3, signed_differences=True)
        t_abs = nb2(field, self.graph, cfg_abs)["ttest"].statistic
        t_signed = nb2(field, self.graph, cfg_signed)["ttest"].statistic
        assert t_abs != t_signed
        # signed differences have mean ~0 under unbiased sampling: much smaller
        assert abs(t_signed) < abs(t_abs)

    def test_direct_comparator_runs(self):
        field = generate(
            FieldSpec("g", "exponential_gp", seed=8, params={"length_km": 80.0, "sill": 1.0}),
            self.graph.regions,
        )
        cfg = BootstrapConfig(repetitions=15, master_seed=2, comparator=COMPARATOR_DIRECT)
        res = nb2(field, self.graph, cfg)
        assert res["ttest"].statistic > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(repetitions=0)
        with pytest.raises(ValueError):
            BootstrapConfig(variants=("bogus",))
        with pytest.raises(ValueError):
            BootstrapConfig(comparator="nope")
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                BootstrapConfig(master_seed=seed)
        for seed in (0, 2**64 - 1):
            assert BootstrapConfig(master_seed=seed).master_seed == seed

    def test_single_repetition_median_is_value(self):
        field = generate(
            FieldSpec("g", "exponential_gp", seed=9, params={"length_km": 80.0, "sill": 1.0}),
            self.graph.regions,
        )
        res = nb2(field, self.graph, BootstrapConfig(repetitions=1, master_seed=0))
        assert res["ttest"].statistic == res["ttest"].per_repetition[0]

    @pytest.mark.parametrize("comparator", [COMPARATOR_MATCHED, COMPARATOR_DIRECT])
    @pytest.mark.parametrize("options", [{}, {"signed_differences": True, "ties_win": True}])
    def test_prefix_statistic_is_the_statistic_of_fewer_repetitions(self, comparator, options):
        # the odds statistic of a prefix goes through the same median log odds
        field = generate(
            FieldSpec("g", "exponential_gp", seed=4, params={"length_km": 80.0, "sill": 1.0}),
            self.graph.regions,
        )
        full = nb2(field, self.graph, BootstrapConfig(repetitions=40, master_seed=5,
                                                       comparator=comparator, **options))
        for m in (1, 2, 7, 10, 40):
            config = BootstrapConfig(repetitions=m, master_seed=5, comparator=comparator,
                                     **options)
            for variant, result in nb2(field, self.graph, config).items():
                assert prefix_statistic(full[variant], m) == result.statistic

    @pytest.mark.parametrize("comparator", [COMPARATOR_MATCHED, COMPARATOR_DIRECT])
    @pytest.mark.parametrize("rows,cols", [(8, 8), (20, 15)])
    def test_drawn_blocks_equal_streamed_draws(self, comparator, rows, cols):
        # a block holds each repetition's draws as drawn, in the type
        # _draws returns; blocks of any length join into the bits of one
        # streamed call
        graph = grid_graph(rows, cols)
        field = generate(
            FieldSpec("g", "exponential_gp", seed=2, params={"length_km": 80.0, "sill": 1.0}),
            graph.regions,
        )
        config = BootstrapConfig(repetitions=12, master_seed=6, comparator=comparator)
        blocks = [range(0, 5), range(5, 6), range(6, 12)]
        parts = []
        for block in blocks:
            draws = draw_block(graph, config, block)
            assert len(draws) == len(block)
            for m, rep in zip(block, draws):
                drawn = _draws(graph.offsets, graph.flat_neighbors, graph.degrees,
                               splitmix64(6, m), comparator)
                assert len(rep) == len(drawn) == 3
                for held, a in zip(rep, drawn):
                    assert held.dtype == a.dtype and np.array_equal(held, a)
            parts.append(nb2(field, graph, config, reps=block, draws=draws))
        assert join_results(parts) == nb2(field, graph, config)

    def test_missing_field_value_rejected(self):
        values = {rid: 1.0 * i for i, rid in enumerate(self.graph.ids)}
        del values[self.graph.ids[5]]
        field = RateField("c", values)
        with pytest.raises(ValueError, match="observed subgraph"):
            nb2(field, self.graph, BootstrapConfig(repetitions=2))


class TestNullCalibrationDeskScale:
    def test_permuted_field_centered(self):
        # desk-scale version of the null-calibration invariant
        graph = grid_graph(12, 12)
        base = generate(
            FieldSpec("b", "exponential_gp", seed=1, params={"length_km": 100.0, "sill": 1.0}),
            graph.regions,
        )
        t_stats, o_stats = [], []
        for seed in range(30):
            field = permute_field(base, seed=seed)
            res = nb2(field, graph, BootstrapConfig(repetitions=40, master_seed=seed))
            t_stats.append(res["ttest"].statistic)
            o_stats.append(res["odds"].statistic)
        t_stats = np.array(t_stats)
        o_stats = np.array(o_stats)
        assert abs(t_stats.mean()) < 3 * t_stats.std(ddof=1) / math.sqrt(len(t_stats))
        assert abs(o_stats.mean()) < 3 * o_stats.std(ddof=1) / math.sqrt(len(o_stats))
