import hashlib
import math

import numpy as np
import pytest

from spatialboot.cli import main
from spatialboot.fields import RateField
from spatialboot.moran import morans_i
from spatialboot.rates import StandardPopulation, build_rate_field
from spatialboot.synth import (
    _COV_JITTER,
    FieldSpec,
    corpus,
    generate,
    grid_graph,
    grid_regions,
    parse_spec_file,
    permute_field,
    random_regions,
    synthesize_counts,
)
from spatialboot.variogram import haversine_km


class TestGridLayouts:
    def test_grid_spacing_is_cell_km(self):
        regions = grid_regions(3, 4, cell_km=25.0)
        d_row = haversine_km(regions.lat[0], regions.lon[0], regions.lat[4], regions.lon[4])
        d_col = haversine_km(regions.lat[0], regions.lon[0], regions.lat[1], regions.lon[1])
        assert float(d_row) == pytest.approx(25.0, rel=1e-3)
        assert float(d_col) == pytest.approx(25.0, rel=1e-2)

    def test_grid_truncation_exact_count(self):
        graph = grid_graph(56, 56, n=3109)
        assert graph.n == 3109

    def test_queen_vs_rook_degrees(self):
        queen = grid_graph(5, 5, contiguity="queen")
        rook = grid_graph(5, 5, contiguity="rook")
        center = queen.ids[12]
        assert queen.degree(center) == 8
        assert rook.degree(center) == 4

    def test_random_regions_within_box(self):
        regions = random_regions(200, seed=1, lat_span=(30, 40), lon_span=(-100, -90))
        assert regions.lat.min() >= 30 and regions.lat.max() <= 40
        assert regions.lon.min() >= -100 and regions.lon.max() <= -90


class TestGenerators:
    def test_checkerboard_moran_minus_one(self):
        graph = grid_graph(4, 4, contiguity="rook")
        field = generate(FieldSpec("cb", "checkerboard"), graph.regions)
        assert morans_i(field, graph).i == -1.0

    def test_gradient_moran_strongly_positive(self):
        graph = grid_graph(20, 20)
        field = generate(FieldSpec("g", "gradient", seed=0), graph.regions)
        assert morans_i(field, graph).i > 0.8

    def test_gradient_axis(self):
        regions = grid_regions(5, 5)
        lat_field = generate(FieldSpec("g", "gradient", params={"axis": "lat"}), regions)
        lon_field = generate(FieldSpec("g", "gradient", params={"axis": "lon"}), regions)
        # constant across a row for lat axis, varying for lon axis
        row0 = [lat_field.values[rid] for rid in regions.ids[:5]]
        assert max(row0) == min(row0)
        row0 = [lon_field.values[rid] for rid in regions.ids[:5]]
        assert max(row0) > min(row0)

    def test_blob_cutoff_constant_background(self):
        regions = grid_regions(30, 30, cell_km=30.0)
        spec = FieldSpec(
            "b", "gaussian_blobs", seed=3,
            params={"count": 2, "width_km": 40.0, "amplitude": 5.0, "cutoff_widths": 3.0},
        )
        field = generate(spec, regions)
        values = np.array(list(field.values.values()))
        assert (values == 0.0).sum() > 0.3 * values.size  # exact background
        assert values.max() > 1.0

    def test_blob_without_cutoff_everywhere_positive(self):
        regions = grid_regions(10, 10, cell_km=30.0)
        field = generate(
            FieldSpec("b", "gaussian_blobs", seed=3, params={"count": 3, "width_km": 50.0}),
            regions,
        )
        assert all(v > 0 for v in field.values.values())

    def test_gp_variance_matches_sill_plus_nugget(self):
        # sample variance across seeds ~ sill + nugget within 10%
        regions = random_regions(1000, seed=5)
        variances = []
        for seed in range(50):
            field = generate(
                FieldSpec("g", "exponential_gp", seed=seed,
                          params={"length_km": 50.0, "sill": 0.8, "nugget": 0.2}),
                regions,
            )
            variances.append(np.var(list(field.values.values()), ddof=1))
        assert float(np.mean(variances)) == pytest.approx(1.0, rel=0.10)

    def test_gp_region_cap(self):
        regions = grid_regions(80, 80)  # 6400 > cap
        with pytest.raises(ValueError, match="5000"):
            generate(FieldSpec("g", "exponential_gp"), regions)

    def test_permuted_preserves_multiset(self):
        regions = grid_regions(8, 8)
        base = generate(
            FieldSpec("g", "exponential_gp", seed=1, params={"length_km": 60.0}), regions
        )
        perm = permute_field(base, seed=9)
        assert sorted(perm.values.values()) == sorted(base.values.values())
        assert perm.values != base.values

    def test_permuted_kind_via_spec(self):
        regions = grid_regions(8, 8)
        spec = FieldSpec(
            "p", "permuted", seed=2,
            params={"base_kind": "gradient", "base_seed": 0, "base_axis": "lat"},
        )
        field = generate(spec, regions)
        base = generate(FieldSpec("p", "gradient", seed=0, params={"axis": "lat"}), regions)
        assert sorted(field.values.values()) == sorted(base.values.values())

    def test_determinism(self):
        regions = grid_regions(10, 10)
        spec = FieldSpec("g", "exponential_gp", seed=11, params={"length_km": 75.0})
        f1 = generate(spec, regions)
        f2 = generate(spec, regions)
        assert f1.values == f2.values

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown field kind"):
            FieldSpec("x", "perlin")


def full_covariance_gp(regions, seed, length_km=100.0, sill=1.0, nugget=0.0):
    """An exponential_gp draw from the full covariance: every pair's distance
    in one all-pairs call, both triangles filled."""
    n = len(regions)
    d = haversine_km(regions.lat[:, None], regions.lon[:, None], regions.lat, regions.lon)
    cov = sill * np.exp(-d / length_km)
    cov[np.diag_indices(n)] += nugget + _COV_JITTER
    return np.linalg.cholesky(cov) @ np.random.default_rng(seed).standard_normal(n)


class TestExponentialGpOracle:
    # 63, 64 and 65 regions straddle one row block; 230 ends in a partial block
    SIZES = (1, 63, 64, 65, 230)
    PARAMS = (
        {},
        {"length_km": 60.0, "sill": 0.8, "nugget": 0.2},
        {"length_km": math.inf, "sill": 2.0},
    )

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("params", PARAMS)
    def test_lower_triangle_blocks_give_the_full_covariance_field(self, n, params):
        regions = random_regions(n, seed=n)
        field = generate(FieldSpec("g", "exponential_gp", seed=7, params=params), regions)
        expected = full_covariance_gp(regions, 7, **params)
        np.testing.assert_array_equal(field.aligned(regions.ids), expected)

    @pytest.mark.parametrize("n", SIZES)
    def test_permuted_gp_base(self, n):
        regions = random_regions(n, seed=n)
        base = {"length_km": 80.0, "nugget": 0.1}
        spec = FieldSpec("p", "permuted", seed=3, params={
            "base_kind": "exponential_gp", "base_seed": 5,
            **{"base_" + name: value for name, value in base.items()},
        })
        perm = np.random.default_rng(3).permutation(n)
        expected = full_covariance_gp(regions, 5, **base)[perm]
        np.testing.assert_array_equal(generate(spec, regions).aligned(regions.ids), expected)

    def test_peak_memory_below_four_covariances(self):
        # a fresh interpreter, so no heap of this process hides the peak: the
        # rise of its high-water mark over the resident size just before the
        # call, in n x n float64 matrices
        import os
        import subprocess
        import sys
        from pathlib import Path

        import spatialboot

        status = Path("/proc/self/status")
        if not status.exists() or "VmHWM:" not in status.read_text():
            pytest.skip("no VmHWM in /proc/self/status")
        n = 1500
        code = f"""
from spatialboot.synth import _exponential_gp, random_regions

def kib(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(key + ":"))

regions = random_regions({n}, seed=1)
before = kib("VmRSS")
_exponential_gp(regions, 0)
print(kib("VmHWM") - before)
"""
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.dirname(os.path.dirname(spatialboot.__file__))},
        )
        matrices = int(done.stdout) * 1024 / (n * n * 8)
        assert matrices < 4.0


class TestCorpus:
    def test_duplicate_codes_rejected(self):
        regions = grid_regions(4, 4)
        specs = [FieldSpec("a", "checkerboard"), FieldSpec("a", "gradient")]
        with pytest.raises(ValueError, match="duplicate"):
            corpus(specs, regions)

    def test_empty_corpus(self):
        assert corpus([], grid_regions(4, 4)) == []

    def test_labels_by_construction(self):
        regions = grid_regions(6, 6)
        specs = [
            FieldSpec(f"gp{a}", "exponential_gp", seed=a, params={"length_km": float(a)})
            for a in (25, 50, 100, 200, 400)
        ]
        fields = corpus(specs, regions)
        assert [f.code for f in fields] == [s.code for s in specs]


class TestSpecFile:
    def test_parse_round_trip(self, tmp_path):
        text = """
[gp_one]
kind = exponential_gp
seed = 7
length_km = 120.5
sill = 1.0

[null_one]
kind = permuted
seed = 3
base_kind = gradient
base_axis = lon
"""
        path = tmp_path / "spec.ini"
        path.write_text(text)
        specs = parse_spec_file(path)
        assert [s.code for s in specs] == ["gp_one", "null_one"]
        assert specs[0].kind == "exponential_gp"
        assert specs[0].seed == 7
        assert specs[0].params["length_km"] == 120.5
        assert specs[1].params["base_kind"] == "gradient"

    def test_missing_kind(self, tmp_path):
        path = tmp_path / "spec.ini"
        path.write_text("[x]\nseed = 1\n")
        with pytest.raises(ValueError, match="kind"):
            parse_spec_file(path)

    def test_duplicate_sections_rejected(self, tmp_path):
        path = tmp_path / "spec.ini"
        path.write_text("[x]\nkind = gradient\n[x]\nkind = checkerboard\n")
        with pytest.raises(Exception):
            parse_spec_file(path)


class TestSpecChecks:
    @pytest.mark.parametrize("kind, params, message", [
        ("exponential_gp", {"length": 400}, r"unknown parameters \['length'\]"),
        ("checkerboard", {"noise": 0.1}, r"unknown parameters \['noise'\]"),
        ("permuted", {"base_kind": "gaussian_blobs", "base_widht": 3},
         r"unknown parameters \['base_widht'\]"),
        ("permuted", {"base_kind": "gradient", "axis": "lat"}, r"unknown parameters \['axis'\]"),
        ("permuted", {"base_kind": "permuted"}, "base_kind must name another kind"),
        ("permuted", {}, "base_kind must name another kind"),
        ("gaussian_blobs", {"count": 5.0}, "count must be int, got 5.0"),
        ("gaussian_blobs", {"count": "5.0"}, "count must be int, got '5.0'"),
        ("gaussian_blobs", {"width_km": "wide"}, "width_km must be float, got 'wide'"),
        ("gradient", {"axis": 1}, "axis must be str, got 1"),
        ("permuted", {"base_kind": "gradient", "base_seed": 1.5}, "base_seed must be int"),
        ("exponential_gp", {"length_km": "nan"}, "length_km must be float, got 'nan'"),
        ("gaussian_blobs", {"cutoff_widths": float("nan")}, "cutoff_widths must be float"),
        ("permuted", {"base_kind": "gradient", "base_noise": "NaN"}, "base_noise must be float"),
    ])
    def test_bad_parameters_name_the_spec(self, kind, params, message):
        with pytest.raises(ValueError, match=f"^field spec 'x': {message}"):
            FieldSpec("x", kind, params=params)

    def test_bad_seed_names_the_spec(self):
        with pytest.raises(ValueError, match="^field spec 'x': seed must be int"):
            FieldSpec("x", "gradient", seed="x")

    def test_values_converted_to_declared_types(self):
        spec = FieldSpec("x", "permuted", seed="3", params={
            "base_kind": "gaussian_blobs", "base_seed": "4", "base_count": "2",
            "base_width_km": "50", "base_cutoff_widths": 3,
        })
        assert spec.seed == 3
        assert spec.params == {
            "base_kind": "gaussian_blobs", "base_seed": 4, "base_count": 2,
            "base_width_km": 50.0, "base_cutoff_widths": 3.0,
        }
        assert [type(v) for v in spec.params.values()] == [str, int, int, float, float]

    def test_infinite_values_kept(self):
        spec = FieldSpec("x", "gaussian_blobs", params={"cutoff_widths": "inf"})
        assert spec.params == {"cutoff_widths": math.inf}

    def test_generator_range_errors_name_the_spec(self):
        with pytest.raises(ValueError, match="^field spec 'x': blob count must be >= 1"):
            generate(FieldSpec("x", "gaussian_blobs", params={"count": 0}), grid_regions(3, 3))


class TestCountsGenerator:
    def test_coverage_exact_by_construction(self):
        graph = grid_graph(10, 12)  # 120 regions
        ids = list(graph.ids)
        std = StandardPopulation({(a, g): 1.0 for a in range(1, 20) for g in "FM"})
        fractions = {"c50": 0.50, "c66": 2.0 / 3.0, "c67": 0.67, "c90": 0.90, "c100": 1.0}
        rates_by_code = {
            code: {rid: 500.0 for rid in ids[: round(frac * len(ids))]}
            for code, frac in fractions.items()
        }
        counts = synthesize_counts(graph.regions, rates_by_code, seed=2)
        survivors = []
        for code in sorted(rates_by_code):
            outcome = build_rate_field(counts, std, code, graph)
            if isinstance(outcome, RateField):
                survivors.append(code)
                assert outcome.observed_count == len(rates_by_code[code])
        assert survivors == ["c100", "c66", "c67", "c90"]

    def test_counts_respect_totals(self):
        regions = grid_regions(4, 4)
        counts = synthesize_counts(
            regions, {"x": {rid: 900.0 for rid in regions.ids}}, seed=1, stratum_total=50
        )
        for key, n in counts.cases.items():
            rid, _code, age, gender = key
            assert 0 <= n <= counts.totals[(rid, age, gender)]

    def test_rejects_nonpositive_rate(self):
        regions = grid_regions(3, 3)
        with pytest.raises(ValueError, match="positive"):
            synthesize_counts(regions, {"x": {regions.ids[0]: 0.0}})


# a spec with every kind and every parameter, base_* ones included
ALL_PARAMS_SPEC = """
[board]
kind = checkerboard
seed = 4

[ramp]
kind = gradient
seed = 5
axis = lon
amplitude = 2.5
noise = 0.1

[blobs]
kind = gaussian_blobs
seed = 6
count = 3
width_km = 50
amplitude = 4
cutoff_widths = 2.5
noise = 0.05

[gp]
kind = exponential_gp
seed = 7
length_km = 90
sill = 0.8
nugget = 0.2

[null_ramp]
kind = permuted
seed = 8
base_kind = gradient
base_seed = 18
base_axis = lat
base_amplitude = 2
base_noise = 0.3

[null_blobs]
kind = permuted
seed = 9
base_kind = gaussian_blobs
base_count = 2
base_width_km = 60
base_amplitude = 3
base_cutoff_widths = 2
base_noise = 0.1

[null_gp]
kind = permuted
seed = 10
base_kind = exponential_gp
base_seed = 20
base_length_km = 70
base_sill = 1.5
base_nugget = 0.05

[null_board]
kind = permuted
seed = 11
base_kind = checkerboard
"""

# sha256 of `synth`'s fields.csv for ALL_PARAMS_SPEC on a 6x7 grid;
# recorded with numpy 2.4.6
ALL_PARAMS_FIELDS_SHA256 = "7f8a673540d409b972efde77ed3355d1aafde336647f0fa23521201103ac6bfa"


class TestSpecDigest:
    def test_every_kind_and_parameter_fields_digest(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(ALL_PARAMS_SPEC)
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--grid", "6x7", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "fields.csv").read_bytes()).hexdigest()
        assert digest == ALL_PARAMS_FIELDS_SHA256

    @pytest.mark.parametrize("kind, ints, floats", [
        ("gaussian_blobs", {"count": 3, "width_km": 50}, {"count": 3, "width_km": 50.0}),
        ("gradient", {"amplitude": 2, "noise": 1}, {"amplitude": 2.0, "noise": 1.0}),
        ("exponential_gp", {"length_km": 80, "sill": 1, "nugget": 0},
         {"length_km": 80.0, "sill": 1.0, "nugget": 0.0}),
        ("permuted", {"base_kind": "gaussian_blobs", "base_seed": 4, "base_width_km": 30},
         {"base_kind": "gaussian_blobs", "base_seed": 4, "base_width_km": 30.0}),
    ])
    def test_int_values_for_floats_give_the_same_field(self, kind, ints, floats):
        regions = grid_regions(6, 6)
        assert (generate(FieldSpec("x", kind, seed=3, params=ints), regions).values
                == generate(FieldSpec("x", kind, seed=3, params=floats), regions).values)
