"""Output checks for one ``spatialboot run`` results directory.

The checker reads the result files with the ``csv`` module, not with the
package's own readers, and returns one :class:`Check` per operation: the
run as a whole, then one per (code, statistic) where the statistic is
``ttest``, ``odds``, ``moran`` or ``variogram``.

Reference tolerances.  The NB2 statistics are medians over M bootstrap
repetitions, so a change of the random stream (a ``SEED_SCHEME`` bump)
moves them by Monte Carlo error: changing the master seed moved the t
statistic by up to 0.03 at M=1000 and 0.3 at M=100, and the odds statistic
by up to 0.005 and 0.017.  The bounds below, 15/sqrt(M) and 1/sqrt(M), are
about four times that.  Moran's I and the empirical variogram involve no
randomness and are held to 1e-9.  The fitted variogram is held to 1e-3
only where its practical range lies inside the lattice (``conditioned``);
beyond it the fit is flat and its parameters are not meaningful, so only
the range staying beyond the lattice is checked.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

RESULT_FILES = (
    "nb2.csv", "moran.csv", "variogram.csv", "variogram_empirical.csv", "ranking.csv",
    "curves.csv", "diagnostics.csv", "failures.csv", "manifest.ini", "regions.csv",
    "edges.csv", "fields.csv",
)
# files that must be byte-identical across repeated runs of the same code
STABLE_FILES = ("nb2.csv", "moran.csv", "variogram.csv")
NB2_VARIANTS = ("ttest", "odds")
CONDITIONED_RANGE_KM = 10_000.0


@dataclass
class Check:
    op: str
    ok: bool
    detail: str = ""


@dataclass
class Expectation:
    codes: list[str]
    failures: set[tuple[str, str]]
    reps: int
    null_code: str | None = None
    split_code: str | None = None
    reference: dict | None = None  # code -> recorded statistics


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _int(value) -> int | None:
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= max(abs_tol, rel * abs(ref))


def _by_code(rows) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for row in rows:
        out.setdefault(row.get("code", ""), []).append(row)
    return out


def _check_run(out: Path, exp: Expectation, tables: dict) -> Check:
    missing = [name for name in RESULT_FILES if not (out / name).is_file()]
    if missing:
        return Check("run", False, f"missing result files {missing}")
    problems = []
    failures = {(row.get("code"), row.get("stage")) for row in tables["failures.csv"]}
    if len(tables["failures.csv"]) != len(failures) or failures != exp.failures:
        problems.append(
            f"failures.csv rows {sorted(failures)} != expected {sorted(exp.failures)}"
        )
    ranked = {row.get("code"): row for row in tables["ranking.csv"]}
    if sorted(ranked) != exp.codes:
        problems.append(f"ranking.csv codes {sorted(ranked)} != {exp.codes}")
    elif exp.null_code is not None:
        last = float(len(exp.codes))
        for column in ("rank_nb2_t", "rank_moran"):
            if _float(ranked[exp.null_code].get(column)) != last:
                problems.append(f"{exp.null_code} not ranked last on {column}")
    if exp.split_code is not None:
        diag = {row.get("code"): row for row in tables["diagnostics.csv"]}
        components = _float(diag.get(exp.split_code, {}).get("components"))
        if not components >= 2:
            problems.append(f"{exp.split_code}: mask should split the graph, components={components}")
    return Check("run", not problems, "; ".join(problems))


def _check_nb2(code, variant, rows, exp: Expectation) -> Check:
    op = f"{code}/{variant}"
    mine = [row for row in rows if row.get("variant") == variant]
    if len(mine) != 1:
        return Check(op, False, f"{len(mine)} nb2.csv rows")
    row = mine[0]
    stat = _float(row.get("statistic"))
    if not math.isfinite(stat):
        return Check(op, False, f"statistic {row.get('statistic')!r} is not finite")
    if _int(row.get("M")) != exp.reps:
        return Check(op, False, f"M={row.get('M')}, expected {exp.reps}")
    if exp.reference is not None:
        ref = exp.reference[code]
        tol = (15.0 if variant == "ttest" else 1.0) / math.sqrt(exp.reps)
        if abs(stat - ref[variant]) > tol:
            return Check(op, False, f"statistic {stat} vs reference {ref[variant]} (tol {tol:.3g})")
        if _int(row.get("n_effective")) != ref["n_effective"]:
            return Check(op, False, f"n_effective {row.get('n_effective')} vs {ref['n_effective']}")
    return Check(op, True)


def _check_moran(code, rows, exp: Expectation) -> Check:
    op = f"{code}/moran"
    if len(rows) != 1:
        return Check(op, False, f"{len(rows)} moran.csv rows")
    value = _float(rows[0].get("I"))
    if not math.isfinite(value):
        return Check(op, False, f"I {rows[0].get('I')!r} is not finite")
    if exp.reference is not None and not _close(value, exp.reference[code]["moran"], 1e-9, 1e-12):
        return Check(op, False, f"I {value} vs reference {exp.reference[code]['moran']}")
    return Check(op, True)


def _check_variogram(code, models, bins, exp: Expectation) -> Check:
    op = f"{code}/variogram"
    if len(models) != 1 or not bins:
        return Check(op, False, f"{len(models)} variogram.csv rows, {len(bins)} bins")
    model = models[0]
    values = {k: _float(model.get(k)) for k in ("nugget", "sill", "practical_range_km", "rss")}
    if not all(math.isfinite(v) for v in values.values()):
        return Check(op, False, f"non-finite model {values}")
    counts = [_int(b.get("pairs")) for b in bins]
    gammas = [_float(b.get("semivariance")) for b in bins]
    if None in counts or not all(math.isfinite(g) for g in gammas) or sum(counts) <= 0:
        return Check(op, False, "malformed empirical variogram rows")
    pairs = sum(counts)
    mean_gamma = sum(g * c for g, c in zip(gammas, counts)) / pairs
    if exp.reference is None:
        return Check(op, True)
    ref = exp.reference[code]
    problems = []
    if pairs != ref["pairs"] or not _close(mean_gamma, ref["mean_gamma"], 1e-9):
        problems.append(f"empirical pairs/mean {pairs}/{mean_gamma} vs {ref['pairs']}/{ref['mean_gamma']}")
    if (model.get("converged") == "true") != ref["converged"]:
        problems.append(f"converged={model.get('converged')}")
    if ref["conditioned"]:
        for key, ref_key in (("practical_range_km", "range_km"), ("sill", "sill")):
            if not _close(values[key], ref[ref_key], 1e-3):
                problems.append(f"{key} {values[key]} vs reference {ref[ref_key]}")
    elif values["practical_range_km"] <= CONDITIONED_RANGE_KM:
        problems.append(f"range {values['practical_range_km']} inside the lattice; reference beyond")
    return Check(op, not problems, "; ".join(problems))


def check_results(out: Path, exp: Expectation) -> list[Check]:
    """All checks for one results directory."""
    out = Path(out)
    tables = {
        name: _rows(out / name)
        for name in ("nb2.csv", "moran.csv", "variogram.csv", "variogram_empirical.csv",
                     "ranking.csv", "diagnostics.csv", "failures.csv")
        if (out / name).is_file()
    }
    checks = [_check_run(out, exp, tables)]
    nb2 = _by_code(tables.get("nb2.csv", []))
    moran = _by_code(tables.get("moran.csv", []))
    models = _by_code(tables.get("variogram.csv", []))
    bins = _by_code(tables.get("variogram_empirical.csv", []))
    for code in exp.codes:
        for variant in NB2_VARIANTS:
            checks.append(_check_nb2(code, variant, nb2.get(code, []), exp))
        checks.append(_check_moran(code, moran.get(code, []), exp))
        checks.append(_check_variogram(code, models.get(code, []), bins.get(code, []), exp))
    extra = sorted(set(nb2) - set(exp.codes))
    if extra:
        checks[0] = Check("run", False, f"unexpected codes in nb2.csv {extra}; {checks[0].detail}")
    return checks


def reference_from(out: Path) -> dict:
    """Statistics of a results directory, in the form ``check_results`` compares."""
    out = Path(out)
    ref: dict[str, dict] = {}
    for row in _rows(out / "nb2.csv"):
        entry = ref.setdefault(row["code"], {})
        entry[row["variant"]] = float(row["statistic"])
        entry["n_effective"] = int(row["n_effective"])
    for row in _rows(out / "moran.csv"):
        ref[row["code"]]["moran"] = float(row["I"])
    for row in _rows(out / "variogram.csv"):
        rng = float(row["practical_range_km"])
        ref[row["code"]].update(
            range_km=rng, sill=float(row["sill"]), converged=row["converged"] == "true",
            conditioned=rng <= CONDITIONED_RANGE_KM,
        )
    for code, rows in _by_code(_rows(out / "variogram_empirical.csv")).items():
        pairs = sum(int(b["pairs"]) for b in rows)
        ref[code]["pairs"] = pairs
        ref[code]["mean_gamma"] = sum(float(b["semivariance"]) * int(b["pairs"]) for b in rows) / pairs
    return ref
