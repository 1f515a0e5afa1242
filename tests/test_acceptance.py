"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (straight to the terminal, bypassing
capture) with the measured quantities and elapsed time, then asserts.
"""

import math
import sys
import time

import numpy as np
from scipy.stats import spearmanr

from spatialboot.cli import main
from spatialboot.fields import RateField
from spatialboot.moran import morans_i
from spatialboot.nb2 import BootstrapConfig, nb2
from spatialboot.rates import AGE_GROUPS, GENDERS, StandardPopulation, adjusted_rate, crude_rate
from spatialboot.synth import (
    FieldSpec,
    corpus,
    generate,
    grid_graph,
    permute_field,
    random_regions,
)
from spatialboot.variogram import empirical_variogram, fit_exponential

from test_moran import naive_morans_i
from conftest import random_graph


def report(name: str, ok: bool, detail: str, elapsed: float) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)"
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_moran_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 51))
        graph = random_graph(rng, n, edge_prob=float(rng.uniform(0.1, 0.5)))
        values = {rid: float(rng.normal()) for rid in graph.ids}
        got = morans_i(RateField("c", values), graph).i
        want = naive_morans_i(values, graph)
        worst = max(worst, abs(got - want))
    cb_graph = grid_graph(4, 4, contiguity="rook")
    cb_field = generate(FieldSpec("cb", "checkerboard"), cb_graph.regions)
    cb = morans_i(cb_field, cb_graph).i
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and cb == -1.0 and elapsed < 10.0
    report(
        "criterion 1 Moran oracle equivalence",
        ok,
        f"max |diff|={worst:.2e} over 200 graphs; checkerboard I={cb}",
        elapsed,
    )
    assert worst <= 1e-12
    assert cb == -1.0
    assert elapsed < 10.0


def test_criterion_2_null_calibration():
    start = time.perf_counter()
    graph = grid_graph(25, 40, cell_km=30.0)  # 1,000 regions
    base = generate(
        FieldSpec("base", "exponential_gp", seed=1, params={"length_km": 120.0, "sill": 1.0}),
        graph.regions,
    )
    t_stats, o_stats = [], []
    for seed in range(100):
        field = permute_field(base, seed=seed + 1000)
        res = nb2(field, graph, BootstrapConfig(repetitions=200, master_seed=seed))
        t_stats.append(res["ttest"].statistic)
        o_stats.append(res["odds"].statistic)
    t_stats = np.array(t_stats)
    o_stats = np.array(o_stats)
    t_se = t_stats.std(ddof=1) / math.sqrt(len(t_stats))
    o_se = o_stats.std(ddof=1) / math.sqrt(len(o_stats))
    elapsed = time.perf_counter() - start
    t_ok = abs(t_stats.mean()) < 3 * t_se
    o_ok = abs(o_stats.mean()) < 3 * o_se
    ok = t_ok and o_ok and elapsed < 300.0
    report(
        "criterion 2 null calibration",
        ok,
        f"t mean={t_stats.mean():+.4f} (3SE={3*t_se:.4f}), "
        f"odds mean={o_stats.mean():+.4f} (3SE={3*o_se:.4f}), 100 seeds M=200",
        elapsed,
    )
    assert t_ok and o_ok
    assert elapsed < 300.0


def _agreement_corpus():
    specs = []
    k = 0
    for a in (15.0, 30.0, 60.0, 120.0, 240.0):
        for sill in (0.5, 1.0, 2.0):
            specs.append(
                FieldSpec(
                    f"gp{k:02d}",
                    "exponential_gp",
                    seed=100 + k,
                    params={"length_km": a, "sill": sill, "nugget": 0.1 * sill},
                )
            )
            k += 1
    for i in range(5):
        specs.append(
            FieldSpec(
                f"perm{i}",
                "permuted",
                seed=200 + i,
                params={
                    "base_kind": "exponential_gp",
                    "base_seed": 300 + i,
                    "base_length_km": 100.0,
                    "base_sill": 1.0,
                },
            )
        )
    for i, noise in enumerate((0.2, 0.4, 0.6, 0.8, 1.0)):
        specs.append(
            FieldSpec(f"grad{i}", "gradient", seed=400 + i,
                      params={"amplitude": 1.0, "noise": noise})
        )
    return specs


def test_criterion_3_agreement_with_moran():
    start = time.perf_counter()
    graph = grid_graph(30, 34, cell_km=30.0)
    fields = corpus(_agreement_corpus(), graph.regions)
    cfg = BootstrapConfig(repetitions=100, master_seed=42)
    t_stats, o_stats, m_stats = [], [], []
    for field in fields:
        res = nb2(field, graph, cfg)
        t_stats.append(res["ttest"].statistic)
        o_stats.append(res["odds"].statistic)
        m_stats.append(morans_i(field, graph).i)
    rho_t = float(spearmanr(t_stats, m_stats).statistic)
    rho_o = float(spearmanr(o_stats, m_stats).statistic)
    elapsed = time.perf_counter() - start
    ok = rho_t >= 0.8 and rho_o >= 0.8 and elapsed < 600.0
    report(
        "criterion 3 agreement with Moran's I",
        ok,
        f"spearman(t,I)={rho_t:.3f}, spearman(odds,I)={rho_o:.3f} over 25 fields",
        elapsed,
    )
    assert rho_t >= 0.8 and rho_o >= 0.8
    assert elapsed < 600.0


def test_criterion_4_m_stability():
    start = time.perf_counter()
    graph = grid_graph(25, 40, cell_km=30.0)
    specs = []
    for i in range(20):
        frac = i / 19.0
        a = 40.0 * (450.0 / 40.0) ** frac
        nug = 0.6 - 0.55 * frac
        specs.append(
            FieldSpec(
                f"s{i:02d}",
                "exponential_gp",
                seed=11,  # shared draw: statistics grade smoothly along the ladder
                params={"length_km": round(a, 1), "sill": 1.0, "nugget": round(nug, 3)},
            )
        )
    fields = corpus(specs, graph.regions)
    stats = {}
    for m in (100, 1000):
        cfg = BootstrapConfig(repetitions=m, master_seed=42)
        stats[m] = {"ttest": [], "odds": []}
        for field in fields:
            res = nb2(field, graph, cfg)
            stats[m]["ttest"].append(res["ttest"].statistic)
            stats[m]["odds"].append(res["odds"].statistic)
    details = []
    ok = True
    for variant in ("ttest", "odds"):
        s100 = np.array(stats[100][variant])
        s1000 = np.array(stats[1000][variant])
        rel = np.abs(s1000 - s100) / np.abs(s1000)
        ranks_equal = np.array_equal(np.argsort(-s100), np.argsort(-s1000))
        ok = ok and rel.mean() <= 0.02 and ranks_equal
        details.append(f"{variant}: mean rel diff={rel.mean()*100:.2f}% ranks_equal={ranks_equal}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1800.0
    report("criterion 4 M-stability (1000 vs 100)", ok, "; ".join(details), elapsed)
    for variant in ("ttest", "odds"):
        s100 = np.array(stats[100][variant])
        s1000 = np.array(stats[1000][variant])
        assert float(np.mean(np.abs(s1000 - s100) / np.abs(s1000))) <= 0.02
        assert np.array_equal(np.argsort(-s100), np.argsort(-s1000))
    assert elapsed < 1800.0


def test_criterion_5_scale_discrimination():
    start = time.perf_counter()
    graph = grid_graph(40, 60, cell_km=30.0)
    specs = []
    for i in range(10):
        specs.append(
            FieldSpec(
                f"blob{i}",
                "gaussian_blobs",
                seed=500 + i,
                params={"count": 5, "width_km": 40.0, "amplitude": 10.0,
                        "cutoff_widths": 3.0},
            )
        )
    for i in range(10):
        specs.append(
            FieldSpec(
                f"broad{i}",
                "exponential_gp",
                seed=600 + i,
                params={"length_km": 400.0, "sill": 0.18, "nugget": 0.28},
            )
        )
    fields = corpus(specs, graph.regions)
    cfg = BootstrapConfig(repetitions=100, master_seed=7)
    rows = []
    for field in fields:
        res = nb2(field, graph, cfg)
        model = fit_exponential(empirical_variogram(field, graph.regions))
        rows.append(
            (field.code, res["ttest"].statistic, res["odds"].statistic,
             model.practical_range_km, model.sill, model.converged)
        )
    half = len(rows) // 2
    top_t = sorted(rows, key=lambda r: -r[1])[:half]
    top_o = sorted(rows, key=lambda r: -r[2])[:half]
    range_t = float(np.mean([r[3] for r in top_t if r[5]]))
    range_o = float(np.mean([r[3] for r in top_o if r[5]]))
    sill_t = float(np.mean([r[4] for r in top_t if r[5]]))
    sill_o = float(np.mean([r[4] for r in top_o if r[5]]))
    elapsed = time.perf_counter() - start
    ok = range_t < range_o and sill_t > sill_o and elapsed < 900.0
    report(
        "criterion 5 scale discrimination",
        ok,
        f"mean range t-top={range_t:.0f} < odds-top={range_o:.0f} km; "
        f"mean sill t-top={sill_t:.2f} > odds-top={sill_o:.2f}",
        elapsed,
    )
    assert range_t < range_o
    assert sill_t > sill_o
    assert elapsed < 900.0


def test_criterion_6_variogram_recovery():
    start = time.perf_counter()
    details = []
    all_ok = True
    for a in (50.0, 100.0, 200.0):
        # domain scales with the correlation length so the range stays
        # identifiable: ~22a x 34a box, lag window to 4.5a
        half_lat = 11.25 * a / 111.19
        half_lon = 17.0 * a / (111.19 * math.cos(math.radians(38.0)))
        hits = 0
        for seed in range(20):
            regions = random_regions(
                1000,
                seed=9000 + seed,
                lat_span=(38.0 - half_lat, 38.0 + half_lat),
                lon_span=(-98.0 - half_lon, -98.0 + half_lon),
            )
            field = generate(
                FieldSpec("v", "exponential_gp", seed=seed,
                          params={"length_km": a, "sill": 1.0, "nugget": 0.0}),
                regions,
            )
            emp = empirical_variogram(field, regions, max_lag_km=4.5 * a)
            model = fit_exponential(
                emp,
                init=(
                    float(emp.semivariances[0]),
                    float(np.var(list(field.values.values()))),
                    emp.max_lag_km / 9.0,
                ),
            )
            rel = abs(model.practical_range_km - 3.0 * a) / (3.0 * a)
            if model.converged and rel <= 0.25:
                hits += 1
        details.append(f"a={a:.0f}: {hits}/20")
        all_ok = all_ok and hits >= 16
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 300.0
    report(
        "criterion 6 variogram recovery (+-25% of 3a in >=80% of seeds)",
        ok,
        "; ".join(details),
        elapsed,
    )
    assert all_ok
    assert elapsed < 300.0


ACCEPT_SPEC = "\n".join(
    ["[gp%02d]\nkind = exponential_gp\nseed = %d\nlength_km = %.1f\nsill = 1.0\nnugget = 0.1\n"
     % (i, 700 + i, 40.0 * 1.4**i) for i in range(8)]
)


def test_criterion_7_run_determinism_across_workers(tmp_path):
    start = time.perf_counter()
    spec_path = tmp_path / "spec.ini"
    spec_path.write_text(ACCEPT_SPEC)
    outs = []
    for workers in ("1", "4", "8"):
        out = tmp_path / f"w{workers}"
        code = main([
            "run", "--synth-spec", str(spec_path), "--grid", "25x40",
            "--reps", "50", "--seed", "31", "--threads", workers, "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    identical = True
    checked = 0
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.ini")
    for name in names:
        base = (outs[0] / name).read_bytes()
        for other in outs[1:]:
            checked += 1
            if (other / name).read_bytes() != base:
                identical = False
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 300.0
    report(
        "criterion 7 determinism across workers",
        ok,
        f"{len(names)} files byte-identical at 1/4/8 workers ({checked} comparisons)",
        elapsed,
    )
    assert identical
    assert elapsed < 300.0


def test_criterion_8_rates_unit_suite():
    start = time.perf_counter()
    ok = True
    # stated examples, exact
    ok &= crude_rate(0, 1000, 8) == 0.0
    ok &= crude_rate(5, 1000, 8) == 62.5
    ok &= crude_rate(1000, 1000, 8) == 12500.0
    std2 = StandardPopulation({(1, "F"): 250.0, (1, "M"): 750.0})
    ok &= adjusted_rate({(1, "F"): 100.0, (1, "M"): 200.0}, std2) == 175.0
    std1 = StandardPopulation({(3, "M"): 10.0})
    ok &= adjusted_rate({(3, "M"): 62.5}, std1) == 62.5
    strata = [(a, g) for a in AGE_GROUPS for g in GENDERS]
    rng = np.random.default_rng(88)
    worst_scale = 0.0
    convex_ok = True
    for _ in range(1000):
        std = StandardPopulation({s: float(rng.uniform(10, 1e6)) for s in strata})
        crude = {s: float(rng.uniform(0, 5000)) for s in strata}
        adj = adjusted_rate(crude, std)
        c = float(rng.uniform(0.1, 10.0))
        scaled = adjusted_rate({s: c * v for s, v in crude.items()}, std)
        worst_scale = max(worst_scale, abs(scaled - c * adj) / (c * adj))
        lo, hi = min(crude.values()), max(crude.values())
        convex_ok &= lo - 1e-12 * max(1.0, lo) <= adj <= hi + 1e-12 * max(1.0, hi)
    ok &= worst_scale <= 1e-12 and convex_ok
    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 5.0
    report(
        "criterion 8 rates unit suite",
        ok,
        f"examples exact; scale equivariance worst rel err={worst_scale:.2e}; "
        f"convexity holds over 1,000 draws",
        elapsed,
    )
    assert ok
    assert elapsed < 5.0


def test_criterion_9_throughput_recorded():
    # measured and recorded, not hard-failed (per the shipping contract)
    graph = grid_graph(56, 56, n=3109)
    field = generate(
        FieldSpec("bench", "exponential_gp", seed=5,
                  params={"length_km": 150.0, "sill": 1.0, "nugget": 0.1}),
        graph.regions,
    )
    start = time.perf_counter()
    nb2(field, graph, BootstrapConfig(repetitions=100, master_seed=1))
    elapsed = time.perf_counter() - start
    within = elapsed <= 60.0
    report(
        "criterion 9 throughput (recorded, not enforced)",
        within,
        f"3,109 regions, M=100, single worker: {elapsed:.2f}s (target <= 60s)",
        elapsed,
    )
    assert elapsed > 0  # recorded only; the 60s target is informational
