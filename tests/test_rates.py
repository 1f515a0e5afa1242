import math

import numpy as np
import pytest

from spatialboot.rates import (
    AGE_GROUPS,
    GENDERS,
    CoverageRejection,
    StandardPopulation,
    adjusted_rate,
    build_rate_field,
    crude_rate,
    meets_coverage,
)
from spatialboot.graph import NeighborGraph, RegionSet
from spatialboot.synth import grid_graph, synthesize_counts

from conftest import counts_from_mappings

ALL_STRATA = [(a, g) for a in AGE_GROUPS for g in GENDERS]


def uniform_std():
    return StandardPopulation({s: 1000.0 for s in ALL_STRATA})


class TestCrudeRate:
    def test_zero_cases(self):
        assert crude_rate(0, 1000, 8) == 0.0

    def test_direct_substitution(self):
        assert crude_rate(5, 1000, 8) == 62.5

    def test_all_cases_boundary(self):
        assert crude_rate(1000, 1000, 8) == 12500.0

    def test_zero_total_is_missing(self):
        assert crude_rate(0, 0, 8) is None

    def test_cases_exceed_total(self):
        with pytest.raises(ValueError):
            crude_rate(5, 4, 8)

    def test_bad_years(self):
        with pytest.raises(ValueError):
            crude_rate(1, 10, 0)


class TestAdjustedRate:
    def test_equal_crude_rates_identity(self):
        std = uniform_std()
        crude = {s: 42.0 for s in ALL_STRATA}
        assert adjusted_rate(crude, std) == pytest.approx(42.0, rel=1e-12)

    def test_two_strata_weighted(self):
        std = StandardPopulation({(1, "F"): 250.0, (1, "M"): 750.0})
        crude = {(1, "F"): 100.0, (1, "M"): 200.0}
        assert adjusted_rate(crude, std) == pytest.approx(175.0, rel=1e-12)

    def test_single_stratum_identity(self):
        std = StandardPopulation({(3, "M"): 12345.0})
        assert adjusted_rate({(3, "M"): 62.5}, std) == pytest.approx(62.5, rel=1e-12)

    def test_all_missing(self):
        assert adjusted_rate({}, uniform_std()) is None

    def test_missing_strata_not_renormalized(self):
        std = StandardPopulation({(1, "F"): 500.0, (1, "M"): 500.0})
        # only half the weight present: weighted sum loses the other half
        assert adjusted_rate({(1, "F"): 100.0, (1, "M"): None}, std) == pytest.approx(50.0)

    def test_renormalization_flag(self):
        std = StandardPopulation({(1, "F"): 500.0, (1, "M"): 500.0})
        got = adjusted_rate({(1, "F"): 100.0}, std, renormalize_missing=True)
        assert got == pytest.approx(100.0, rel=1e-12)

    def test_scale_equivariance_and_convexity(self):
        # 1,000 random complete-strata draws: c * crude -> c * adjusted,
        # and the adjusted rate is a convex combination of the strata rates
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pops = {s: float(rng.uniform(10, 1e6)) for s in ALL_STRATA}
            std = StandardPopulation(pops)
            crude = {s: float(rng.uniform(0, 5000)) for s in ALL_STRATA}
            adj = adjusted_rate(crude, std)
            c = float(rng.uniform(0.1, 10))
            scaled = adjusted_rate({s: c * v for s, v in crude.items()}, std)
            assert scaled == pytest.approx(c * adj, rel=1e-12)
            lo, hi = min(crude.values()), max(crude.values())
            assert lo - 1e-12 * max(1.0, abs(lo)) <= adj <= hi + 1e-12 * max(1.0, abs(hi))

    def test_log_shift_under_scaling(self):
        rng = np.random.default_rng(6)
        std = uniform_std()
        for _ in range(50):
            crude = {s: float(rng.uniform(1, 5000)) for s in ALL_STRATA}
            adj = adjusted_rate(crude, std)
            c = float(rng.uniform(0.5, 4.0))
            scaled = adjusted_rate({s: c * v for s, v in crude.items()}, std)
            assert math.log(scaled) - math.log(adj) == pytest.approx(math.log(c), abs=1e-12)


class TestStandardPopulation:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        std = StandardPopulation({s: float(rng.uniform(1, 1e6)) for s in ALL_STRATA})
        assert sum(std.weight(*s) for s in std.strata()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_stratum(self):
        with pytest.raises(ValueError):
            StandardPopulation({(0, "F"): 10.0})
        with pytest.raises(ValueError):
            StandardPopulation({(1, "X"): 10.0})

    @pytest.mark.parametrize("population", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_population(self, population):
        # a nan weight made every code of a counts run come out unobserved
        with pytest.raises(ValueError, match=r"not in \[0, inf\)"):
            StandardPopulation({(1, "F"): 10.0, (1, "M"): population})


class TestStratifiedCounts:
    def test_cases_cannot_exceed_total(self):
        with pytest.raises(ValueError, match="exceed"):
            counts_from_mappings({("r", "c", 1, "F"): 5}, {("r", 1, "F"): 4})

    def test_missing_total_means_zero(self):
        with pytest.raises(ValueError, match="exceed"):
            counts_from_mappings({("r", "c", 1, "F"): 1}, {})

    @pytest.mark.parametrize("cases, totals, message", [
        ({("r", "c", 1, "F"): 1, ("s", "c", 2, "M"): -1}, {("r", 1, "F"): 4, ("s", 2, "M"): 4},
         "negative cases for ('s', 'c', 2, 'M')"),
        ({("r", "c", 1, "F"): 1}, {("r", 1, "F"): 4, ("s", 1, "F"): -2},
         "negative total for ('s', 1, 'F')"),
        ({("r", "c", 20, "F"): 1}, {("r", 1, "F"): 4}, "age_group must be in 1..19, got 20"),
        ({("r", "c", 1, "X"): 1}, {("r", 1, "F"): 4}, "gender must be 'F' or 'M', got 'X'"),
        ({}, {("r", 0, "M"): 4}, "age_group must be in 1..19, got 0"),
        ({}, {("r", 1, "f"): 4}, "gender must be 'F' or 'M', got 'f'"),
    ])
    def test_mapping_errors_name_their_key(self, cases, totals, message):
        with pytest.raises(ValueError) as exc:
            counts_from_mappings(cases, totals)
        assert str(exc.value) == message


class TestCoverage:
    def test_national_scale_boundary(self):
        # 2,073 of 3,109 regions meets the two-thirds threshold exactly
        assert meets_coverage(2073, 3109, 2.0 / 3.0)
        assert not meets_coverage(2072, 3109, 2.0 / 3.0)

    def test_exact_integer_boundary(self):
        assert meets_coverage(200, 300, 2.0 / 3.0)
        assert not meets_coverage(199, 300, 2.0 / 3.0)


class TestBuildRateField:
    def setup_method(self):
        self.graph = grid_graph(4, 5, cell_km=50.0)  # 20 regions
        self.std = uniform_std()

    def _counts(self, rates_by_code):
        return synthesize_counts(self.graph.regions, rates_by_code, seed=3, stratum_total=200)

    def test_full_coverage_accepted(self):
        rates = {rid: 300.0 for rid in self.graph.ids}
        counts = self._counts({"777": rates})
        field = build_rate_field(counts, self.std, "777", self.graph)
        assert field.observed_count == 20
        assert all(math.isfinite(v) for v in field.values.values())

    def test_below_threshold_rejected_with_fraction(self):
        rates = {rid: 300.0 for rid in list(self.graph.ids)[:10]}
        counts = self._counts({"777": rates})
        outcome = build_rate_field(counts, self.std, "777", self.graph)
        assert isinstance(outcome, CoverageRejection)
        assert outcome.fraction == pytest.approx(0.5)

    def test_zero_rate_regions_unobserved(self):
        rates = {rid: 300.0 for rid in self.graph.ids}
        counts = self._counts({"777": rates})
        # wipe one region's cases: totals remain, rate becomes 0 -> unobserved
        rid0 = self.graph.ids[0]
        cases = {k: v for k, v in counts.cases.items() if k[0] != rid0}
        counts = counts_from_mappings(cases, counts.totals)
        field = build_rate_field(counts, self.std, "777", self.graph)
        assert rid0 not in field.values
        assert field.observed_count == 19

    def test_zero_offset_keeps_zero_rate_regions(self):
        rates = {rid: 300.0 for rid in self.graph.ids}
        counts = self._counts({"777": rates})
        rid0 = self.graph.ids[0]
        cases = {k: v for k, v in counts.cases.items() if k[0] != rid0}
        counts = counts_from_mappings(cases, counts.totals)
        field = build_rate_field(counts, self.std, "777", self.graph, zero_offset=1e-3)
        assert field.values[rid0] == pytest.approx(math.log(1e-3))

    def test_deterministic(self):
        rates = {rid: 100.0 + i for i, rid in enumerate(self.graph.ids)}
        counts = self._counts({"777": rates})
        f1 = build_rate_field(counts, self.std, "777", self.graph)
        f2 = build_rate_field(counts, self.std, "777", self.graph)
        assert f1.values == f2.values

    def test_partial_strata_region(self):
        # a region with records in only two strata: the others are skipped
        # and (without renormalization) their weight is simply lost
        graph = grid_graph(4, 5, cell_km=50.0)
        rid = graph.ids[0]
        totals = {(r, a, g): 100 for r in graph.ids for a in AGE_GROUPS for g in GENDERS}
        for a in AGE_GROUPS:
            for g in GENDERS:
                if not (a == 1 or (a == 2 and g == "F")):
                    totals[(rid, a, g)] = 0
        cases = {(r, "9", 1, "F"): 10 for r in graph.ids}
        counts = counts_from_mappings(cases, totals)
        std = uniform_std()
        field = build_rate_field(counts, std, "9", graph)
        crude = (10 / 100) * (100000.0 / 8.0)
        w = 1.0 / 38.0
        assert field.values[rid] == pytest.approx(math.log(crude * w), rel=1e-12)
        renorm = build_rate_field(counts, std, "9", graph, renormalize_missing=True)
        assert renorm.values[rid] == pytest.approx(math.log(crude * w / (3 * w)), rel=1e-12)

    def test_matches_direct_recomputation(self):
        # independent oracle: recompute each region's adjusted log rate by hand
        rng = np.random.default_rng(12)
        rates = {rid: float(rng.uniform(50, 2000)) for rid in self.graph.ids}
        counts = self._counts({"777": rates})
        field = build_rate_field(counts, self.std, "777", self.graph)
        for rid in self.graph.ids:
            acc = 0.0
            for (a, g) in [(a, g) for a in AGE_GROUPS for g in GENDERS]:
                total = counts.totals[(rid, a, g)]
                cases = counts.cases.get((rid, "777", a, g), 0)
                acc += (cases / total) * (100000.0 / 8.0) * self.std.weight(a, g)
            if acc > 0:
                assert field.values[rid] == pytest.approx(math.log(acc), rel=1e-12)
            else:
                assert rid not in field.values


def oracle_field_values(counts, std, code, graph, years, zero_offset, renormalize_missing):
    """build_rate_field's values through the scalar path: crude_rate ->
    adjusted_rate -> math.log, region by region."""
    values = {}
    for rid in graph.ids:
        crude = {}
        for age, gender in std.strata():
            total = counts.totals.get((rid, age, gender), 0)
            crude[(age, gender)] = (
                crude_rate(counts.cases.get((rid, code, age, gender), 0), total, years)
                if total > 0 else None
            )
        adjusted = adjusted_rate(crude, std, renormalize_missing=renormalize_missing)
        if adjusted is not None and adjusted + zero_offset > 0.0:
            values[rid] = math.log(adjusted + zero_offset)
    return values


class TestBuildRateFieldExact:
    """build_rate_field equals the scalar oracle exactly (==), not to a
    tolerance, so the per-code rate algebra keeps every output byte."""

    @staticmethod
    def random_counts(rng, graph, codes):
        ids = list(graph.ids)
        totals, cases = {}, {}
        for i, rid in enumerate(ids):
            if i % 7 == 3:
                continue  # no totals at all: the region is unobserved
            for age in AGE_GROUPS:
                for gender in GENDERS:
                    r = rng.random()
                    if r < 0.15:
                        continue  # stratum absent
                    total = 0 if r < 0.25 else int(rng.integers(1, 5000))
                    totals[(rid, age, gender)] = total
                    for code in codes:
                        if total and rng.random() < 0.7:
                            cases[(rid, code, age, gender)] = int(rng.integers(0, total + 1))
        # a region whose only present stratum carries zero cases
        rid = ids[5]
        totals = {k: v for k, v in totals.items() if k[0] != rid}
        cases = {k: v for k, v in cases.items() if k[0] != rid}
        totals[(rid, 4, "M")] = 10
        return counts_from_mappings(cases, totals)

    @pytest.mark.parametrize("renormalize_missing", [False, True])
    @pytest.mark.parametrize("zero_offset", [0.0, 0.37])
    @pytest.mark.parametrize("std_strata", [38, 11])
    def test_equals_scalar_oracle(self, renormalize_missing, zero_offset, std_strata):
        rng = np.random.default_rng(100 + std_strata)
        graph = grid_graph(6, 7, cell_km=40.0)
        counts = self.random_counts(rng, graph, ["a", "b"])
        chosen = rng.permutation(len(ALL_STRATA))[:std_strata]
        pops = {ALL_STRATA[k]: float(rng.uniform(0, 1e6)) for k in chosen}
        pops[ALL_STRATA[chosen[0]]] = 0.0  # a zero-weight stratum
        std = StandardPopulation(pops)
        for code in ("a", "b", "absent"):
            for years in (8.0, 3.3):
                field = build_rate_field(
                    counts, std, code, graph, coverage_threshold=0.01, years=years,
                    zero_offset=zero_offset, renormalize_missing=renormalize_missing,
                )
                expected = oracle_field_values(
                    counts, std, code, graph, years, zero_offset, renormalize_missing
                )
                if not expected:
                    assert isinstance(field, CoverageRejection)
                    continue
                assert field.values == expected
                assert list(field.values) == [r for r in graph.ids if r in expected]

    def test_counts_outside_the_graph_are_ignored(self):
        graph = grid_graph(3, 4)
        # 9 of the 12 regions, in reverse order, without edges
        sub = NeighborGraph(RegionSet(reversed(list(graph.regions)[:9])), {})
        rng = np.random.default_rng(9)
        counts = self.random_counts(rng, graph, ["a"])
        std = uniform_std()
        field = build_rate_field(counts, std, "a", sub, coverage_threshold=0.01)
        assert field.values == oracle_field_values(counts, std, "a", sub, 8.0, 0.0, False)
