import math
import os
from pathlib import Path

import numpy as np
import pytest

from spatialboot.ranking import (
    CategorySummary,
    average_ranks,
    category_summary,
    rank,
    top_n_curve,
)
from spatialboot.variogram import VariogramModel


def model(code, practical_range, sill=1.0, converged=True):
    return VariogramModel(
        code=code,
        nugget=0.0,
        sill=sill,
        length_km=practical_range / 3.0,
        practical_range_km=practical_range,
        converged=converged,
        rss=0.0,
    )


class TestRank:
    def test_descending_sort(self):
        table = rank({"moran": {"A": 3.0, "B": 1.0, "C": 2.0}})
        assert table.row("A").ranks["moran"] == 1.0
        assert table.row("C").ranks["moran"] == 2.0
        assert table.row("B").ranks["moran"] == 3.0
        assert table.ranked_codes("moran") == ["A", "C", "B"]

    def test_average_rank_ties(self):
        table = rank({"nb2_odds": {"A": 2.0, "B": 2.0, "C": 1.0}})
        assert table.row("A").ranks["nb2_odds"] == 1.5
        assert table.row("B").ranks["nb2_odds"] == 1.5
        assert table.row("C").ranks["nb2_odds"] == 3.0

    def test_missing_method_leaves_rank_blank(self):
        table = rank({"nb2_t": {"A": 1.0, "B": 2.0}, "moran": {"A": 0.5}})
        assert "moran" not in table.row("B").ranks
        assert table.row("B").statistics["nb2_t"] == 2.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        stats = {f"c{i}": float(rng.normal()) for i in range(30)}
        base = rank({"nb2_t": stats})
        transformed = rank({"nb2_t": {k: math.exp(2.0 * v) for k, v in stats.items()}})
        for code in stats:
            assert base.row(code).ranks["nb2_t"] == transformed.row(code).ranks["nb2_t"]

    def test_single_method_projection(self):
        stats = {"A": 3.0, "B": 1.0, "C": 2.0}
        joined = rank({"nb2_t": stats, "moran": {"A": 0.1, "B": 0.9, "C": 0.5}})
        alone = rank({"nb2_t": stats})
        for code in stats:
            assert joined.row(code).ranks["nb2_t"] == alone.row(code).ranks["nb2_t"]

    def test_variogram_and_metadata_joined(self):
        table = rank(
            {"nb2_t": {"A": 1.0, "B": 2.0}},
            variograms={"A": model("A", 300.0, sill=0.7)},
            names={"A": "alpha"},
            categories={"A": "cat1"},
        )
        row = table.row("A")
        assert row.practical_range_km == 300.0
        assert row.sill == 0.7
        assert row.name == "alpha"
        assert row.category == "cat1"
        assert table.row("B").practical_range_km is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank({})
        with pytest.raises(ValueError):
            rank({"nb2_t": {}})


class TestAverageRanks:
    def test_equals_scipy_rankdata(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(31)
        for size in (0, 1, 2, 3, 7, 40):
            for _ in range(100):
                values = rng.integers(-4, 5, size).astype(float)  # many ties
                if size and rng.random() < 0.5:
                    values[rng.integers(size)] = rng.choice([np.inf, -np.inf])
                if size and rng.random() < 0.3:
                    values[rng.integers(size)] = -0.0
                got = average_ranks(-values)
                expected = rankdata(-values, method="average")
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes(), values

    def test_any_nan_makes_every_rank_nan(self):
        from scipy.stats import rankdata

        values = np.array([3.0, np.nan, 1.0, 1.0])
        assert np.isnan(rankdata(values, method="average")).all()
        assert np.isnan(average_ranks(values)).all()
        assert average_ranks(values).shape == (4,)

    def test_cli_import_leaves_scipy_stats_out(self):
        import subprocess
        import sys

        import spatialboot

        src = str(Path(spatialboot.__file__).parent.parent)
        code = "import sys, spatialboot.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"


class TestTopNCurve:
    def test_single_code_identity(self):
        table = rank({"nb2_t": {"A": 1.0}}, variograms={"A": model("A", 123.0, sill=0.4)})
        assert top_n_curve(table, "nb2_t", [1]) == [(1, 123.0, 0.4)]

    def test_full_n_equals_unconditional_mean_across_methods(self):
        rng = np.random.default_rng(5)
        codes = [f"c{i}" for i in range(12)]
        stats_a = {c: float(rng.normal()) for c in codes}
        stats_b = {c: float(rng.normal()) for c in codes}
        models = {
            c: model(c, float(rng.uniform(50, 900)), sill=float(rng.uniform(0.2, 2)))
            for c in codes
        }
        models[codes[0]] = model(codes[0], 500.0, converged=False)  # excluded
        table = rank({"nb2_t": stats_a, "moran": stats_b}, variograms=models)
        k = len(codes)
        curve_a = top_n_curve(table, "nb2_t", [k])
        curve_b = top_n_curve(table, "moran", [k])
        converged_ranges = [models[c].practical_range_km for c in codes[1:]]
        assert curve_a[0][1] == pytest.approx(float(np.mean(converged_ranges)), rel=1e-12)
        assert curve_a[0][1] == pytest.approx(curve_b[0][1], rel=1e-12)
        assert curve_a[0][2] == pytest.approx(curve_b[0][2], rel=1e-12)

    def test_non_converged_excluded(self):
        table = rank(
            {"nb2_t": {"A": 3.0, "B": 2.0}},
            variograms={"A": model("A", 100.0, converged=False), "B": model("B", 200.0)},
        )
        assert top_n_curve(table, "nb2_t", [2])[0][1] == 200.0

    def test_truncation_warns(self):
        table = rank({"nb2_t": {"A": 1.0}}, variograms={"A": model("A", 100.0)})
        with pytest.warns(UserWarning, match="truncating"):
            out = top_n_curve(table, "nb2_t", [5])
        assert out[0][0] == 1

    def test_discrimination_corpus_shape(self):
        # small-range codes ranked high by one method, low by the other:
        # the curves separate in the required direction for every N
        small = {f"s{i}": (10.0 - i, model(f"s{i}", 100.0 + i, sill=1.0)) for i in range(5)}
        large = {f"l{i}": (5.0 - i, model(f"l{i}", 800.0 + i, sill=0.3)) for i in range(5)}
        stats_t = {c: v[0] + 10 for c, v in small.items()} | {c: v[0] for c, v in large.items()}
        stats_o = {c: v[0] for c, v in small.items()} | {c: v[0] + 10 for c, v in large.items()}
        models = {c: v[1] for c, v in (small | large).items()}
        table = rank({"nb2_t": stats_t, "nb2_odds": stats_o}, variograms=models)
        for n in (1, 3, 5):
            t_curve = top_n_curve(table, "nb2_t", [n])[0]
            o_curve = top_n_curve(table, "nb2_odds", [n])[0]
            assert t_curve[1] < o_curve[1]  # smaller ranges on top of nb2_t
            assert t_curve[2] > o_curve[2]  # larger sills on top of nb2_t


class TestCategorySummary:
    def _table(self, groups):
        stats = {}
        models = {}
        categories = {}
        i = 0
        for cat, ranges in groups.items():
            for r in ranges:
                code = f"c{i}"
                stats[code] = float(i)
                models[code] = model(code, r)
                categories[code] = cat
                i += 1
        return rank({"nb2_t": stats}, variograms=models, categories=categories)

    def test_single_category_stats(self):
        table = self._table({"k": [100.0, 200.0, 300.0]})
        out = category_summary(table)
        assert len(out) == 1
        s = out[0]
        assert s.count == 3
        assert s.mean_range_km == 200.0
        assert s.median == 200.0

    def test_ordered_by_mean_range(self):
        table = self._table({"big": [800.0, 900.0], "small": [50.0, 60.0]})
        out = category_summary(table)
        assert [s.category for s in out] == ["small", "big"]

    def test_outlier_rule(self):
        ranges = [100.0, 110.0, 120.0, 130.0, 1000.0]
        table = self._table({"k": ranges})
        s = category_summary(table)[0]
        assert s.outliers == (1000.0,)

    def test_nonconverged_excluded_and_empty_category_omitted(self):
        stats = {"a": 1.0, "b": 2.0}
        models = {"a": model("a", 100.0), "b": model("b", 200.0, converged=False)}
        categories = {"a": "keep", "b": "gone"}
        table = rank({"nb2_t": stats}, variograms=models, categories=categories)
        with pytest.warns(UserWarning, match="gone"):
            out = category_summary(table)
        assert [s.category for s in out] == ["keep"]

    def test_exclusion_counts_match_converged_flags(self):
        rng = np.random.default_rng(6)
        stats = {}
        models = {}
        categories = {}
        converged_per_cat = {"x": 0, "y": 0}
        for i in range(24):
            code = f"c{i}"
            cat = "x" if i % 2 else "y"
            conv = bool(rng.random() < 0.6)
            stats[code] = float(i)
            models[code] = model(code, float(rng.uniform(50, 500)), converged=conv)
            categories[code] = cat
            converged_per_cat[cat] += conv
        table = rank({"nb2_t": stats}, variograms=models, categories=categories)
        out = category_summary(table)
        assert {s.category: s.count for s in out} == converged_per_cat
