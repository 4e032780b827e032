"""The benchmark's workloads: the config each one runs, the record taken from
its output, the oracle check on that record, and the tampers that the check
must reject (negative controls).

Each workload drives a different layer of stablegap and bypasses the others
(interactions.json says why each was chosen and which per-layer metric
should move where):

  rate-1d       alpha_sweep, d=1, sliced, n=5e5, n_bootstrap=20:
                bootstrap_stderr dominates.
  transient-ou  transient at alpha=1.9, T=12, n=4096: single-threaded Euler
                integration with one subordinator draw per step.
  dim-nd        dim_sweep at alpha=1.9 over d=2..20, n=1e6: d>1 stationary
                sampling plus the assignment, sliced and mean-norm estimators;
                no Euler and no bootstrap.

The record is built from the CSV the program wrote (parsed here, not by the
program's reader) plus the scalar fields of the result object that the CSV
does not carry.  Only this module imports stablegap, and only inside
functions, so the harness can load the workload table without it.
"""
from __future__ import annotations

import copy
import csv
import math
import os

DEFAULT_SEED = 1  # checks were written against seed 1 and re-checked on seed 7


def program_seed(seed: int, i: int) -> int:
    """The config seed of the i-th input set drawn for benchmark seed `seed`.

    Each run of one measurement gets its own inputs, because the cost of some
    layers (the assignment solver above all) depends on the data; the median
    over runs then varies less from one benchmark seed to the next.
    """
    return 1000 * seed + i

# Critical z of the statistical oracles.  rate-1d is one-sided and its
# estimate sits above the bound by the same-law floor, so a correct program
# fails it far less often than a two-sided 3-sigma test would.
Z_CRIT = 3.0
# The mean-norm z of dim-nd is not close to N(0, 1): |X| has infinite
# variance for alpha < 2, so the reported standard error is itself a noisy,
# usually too small, estimate.  Simulated at d=20, alpha=1.9, n=1e5 over 1500
# seeds, P(z < -3) = 1.5%, P(z < -5) = 0.07% and the minimum was -5.19; a
# 3-sigma test would fail a correct program on a few percent of seeds.
Z_CRIT_MEAN_NORM = 6.0

# The default near-2 grid, pinned here so that a change to the program's
# default cannot change what the workload measures.
NEAR_TWO_GRID = (1.975, 1.98361, 1.98925, 1.99296, 1.99538, 1.99697, 1.998)

WORKLOADS = {
    "rate-1d": {
        "run": "run_alpha_sweep",
        "config": dict(experiment="alpha_sweep", drift="ou",
                       alpha_grid=NEAR_TWO_GRID, d_grid=(1,),
                       n_samples=500_000, estimator="sliced",
                       n_bootstrap=20, n_projections=64),
        "csv_rows": 7,
    },
    "transient-ou": {
        "run": "run_transient",
        "config": dict(experiment="transient", drift="ou", alpha_grid=(1.9,),
                       d_grid=(1,), n_samples=4096, n_steps=12_000, T=12.0,
                       estimator="sliced", n_bootstrap=200, n_projections=64,
                       x_start=10.0),
        "csv_rows": 14,
    },
    "dim-nd": {
        "run": "run_dim_sweep",
        "config": dict(experiment="dim_sweep", drift="ou", alpha_grid=(1.9,),
                       d_grid=(2, 3, 5, 8, 12, 20), n_samples=1_000_000,
                       n_projections=64),
        "csv_rows": 6,
    },
}


def make_config(name: str, seed: int, output_path: str):
    from stablegap import ExperimentConfig

    return ExperimentConfig(seed=seed, output_path=output_path,
                            **WORKLOADS[name]["config"])


def run_workload(name: str, cfg):
    import stablegap.experiments

    return getattr(stablegap.experiments, WORKLOADS[name]["run"])(cfg)


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    return {"header": table[0], "rows": table[1:]} if table else {"header": [], "rows": []}


def _plot_path(path: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}.plot{ext or '.csv'}"


def build_record(name: str, cfg, result) -> dict:
    """Everything the oracle needs, as plain JSON-able data."""
    from dataclasses import replace

    from stablegap import ou_w1_lower_exact

    rec = {
        "workload": name,
        "config_hash": cfg.config_hash(),
        # the hash of the same config at half the sample count: what a row
        # would carry if the program silently shrank n
        "foreign_hash": replace(cfg, n_samples=cfg.n_samples // 2).config_hash(),
        "csv": _read_csv(cfg.output_path),
        "n_samples": cfg.n_samples,
    }
    if name == "rate-1d":
        rec["alpha_grid"] = list(cfg.alpha_grid)
        rec["lower"] = [ou_w1_lower_exact(1, a) for a in cfg.alpha_grid]
        rec["plot_csv"] = _read_csv(_plot_path(cfg.output_path))
        rec["result_w1"] = [float(v) for v in result.w1]
    elif name == "transient-ou":
        rec["x_start"] = cfg.x_start
        rec["plateau"] = result.plateau
        rec["plateau_se"] = result.plateau_se
        rec["stationary_w1"] = result.stationary_w1
        rec["stationary_se"] = result.stationary_se
        rec["result_w1"] = [float(v) for v in result.w1]
    else:
        alpha = cfg.alpha_grid[0]
        rec["d_grid"] = list(cfg.d_grid)
        rec["alpha"] = alpha
        rec["lower"] = [ou_w1_lower_exact(d, alpha) for d in cfg.d_grid]
    return rec


def _column(table, col: str, cast=float):
    i = table["header"].index(col)
    return [cast(row[i]) for row in table["rows"]]


def _check_table(table, n_rows: int, chash: str, label: str):
    bad = []
    if len(table["rows"]) != n_rows:
        bad.append(f"{label}: {len(table['rows'])} rows, expected {n_rows}")
    if not table["header"] or table["header"][-1] != "config_hash":
        bad.append(f"{label}: last column is not config_hash")
        return bad
    foreign = sorted({row[-1] for row in table["rows"]} - {chash})
    if foreign:
        bad.append(f"{label}: rows carry config hash {foreign}, expected {chash}")
    return bad


def check(rec: dict) -> list:
    """Oracle check of one run's record; returns the failures (empty = pass)."""
    name = rec["workload"]
    table = rec["csv"]
    bad = _check_table(table, WORKLOADS[name]["csv_rows"], rec["config_hash"], "csv")
    if bad:
        return bad
    try:
        if name == "rate-1d":
            bad += _check_rate(rec, table)
        elif name == "transient-ou":
            bad += _check_transient(rec, table)
        else:
            bad += _check_dim(rec, table)
    except (ValueError, IndexError) as exc:
        bad.append(f"csv unreadable: {exc!r}")
    return bad


def _check_rate(rec, table):
    bad = _check_table(rec["plot_csv"], len(rec["alpha_grid"]), rec["config_hash"],
                       "plot csv")
    if _column(table, "alpha") != rec["alpha_grid"]:
        bad.append("csv alpha column differs from the configured grid")
    if set(_column(table, "n_samples", int)) != {rec["n_samples"]}:
        bad.append(f"csv n_samples differs from the configured {rec['n_samples']}")
    w1 = _column(table, "w1")
    se = _column(table, "stderr")
    if w1 != rec["result_w1"]:
        bad.append("csv w1 differs from the returned result")
    for a, v, s, lo in zip(rec["alpha_grid"], w1, se, rec["lower"]):
        if not (math.isfinite(s) and s > 0):
            bad.append(f"alpha={a}: stderr {s!r} is not finite and positive")
        elif v < lo - Z_CRIT * s:
            bad.append(f"alpha={a}: W1 {v:.6g} below exact lower bound {lo:.6g} "
                       f"by z={(v - lo) / s:+.2f}")
    return bad


def _check_transient(rec, table):
    bad = []
    t = _column(table, "t")
    w1 = _column(table, "w1")
    if w1 != rec["result_w1"]:
        bad.append("csv w1 differs from the returned result")
    if t[0] != 0.0 or w1[0] != rec["x_start"]:
        bad.append(f"curve starts at t={t[0]}, W1={w1[0]}; expected 0, {rec['x_start']}")
    plateau = rec["plateau"]
    early = [v for v in w1 if v > 2.0 * plateau]
    if not early or early[0] != w1[0]:
        bad.append("the first point is not above twice the plateau")
    if any(b >= a for a, b in zip(early, early[1:])):
        bad.append("curve does not decrease while above twice the plateau")
    se = math.hypot(rec["plateau_se"], rec["stationary_se"])
    if not (math.isfinite(se) and se > 0):
        bad.append(f"combined stderr {se!r} is not finite and positive")
    elif abs(plateau - rec["stationary_w1"]) > Z_CRIT * se:
        bad.append(f"plateau {plateau:.6g} vs stationary {rec['stationary_w1']:.6g}: "
                   f"z={(plateau - rec['stationary_w1']) / se:+.2f}")
    return bad


def _check_dim(rec, table):
    bad = []
    if _column(table, "d", int) != rec["d_grid"]:
        bad.append("csv d column differs from the configured grid")
    lower = _column(table, "lower_exact")
    mn = _column(table, "mean_norm")
    se = _column(table, "mean_norm_se")
    for d, lo_csv, lo, v, s in zip(rec["d_grid"], lower, rec["lower"], mn, se):
        if not math.isclose(lo_csv, lo, rel_tol=1e-12):
            bad.append(f"d={d}: csv lower bound {lo_csv!r} is not the exact {lo!r}")
        if not (math.isfinite(s) and s > 0):
            bad.append(f"d={d}: mean-norm stderr {s!r} is not finite and positive")
        elif abs(v - lo) > Z_CRIT_MEAN_NORM * s:
            bad.append(f"d={d}: mean-norm {v:.6g} vs exact {lo:.6g}: z={(v - lo) / s:+.2f}")
    return bad


# ---------------------------------------------------------------------------
# negative controls: each tamper must make check() fail

def _tamper_column(rec, key, col, fn):
    out = copy.deepcopy(rec)
    table = out[key]
    i = table["header"].index(col)
    for row in table["rows"]:
        row[i] = repr(fn(float(row[i])))
    return out


def _w1_scaled(rec, factor):
    out = _tamper_column(rec, "csv", "w1", lambda v: factor * v)
    out["result_w1"] = [factor * v for v in rec["result_w1"]]
    return out


def w1_halved(rec):
    """Not a control of the real runs: the check has too little power.  On
    rate-1d output (n=5e5, 20 resamples) the halved W1 sat only 0.9 to 3.4
    SE below the bound at its most sensitive alpha over program seeds 1000,
    7000, 14000 and 14001, so it was caught at one of the four."""
    return _w1_scaled(rec, 0.5)


def w1_zeroed(rec):
    return _w1_scaled(rec, 0.0)


def plateau_shifted(rec):
    out = copy.deepcopy(rec)
    out["plateau"] += 10.0 * math.hypot(rec["plateau_se"], rec["stationary_se"])
    return out


def mean_norm_shifted(rec):
    out = copy.deepcopy(rec)
    table = out["csv"]
    i, j = table["header"].index("mean_norm"), table["header"].index("mean_norm_se")
    for row in table["rows"]:
        row[i] = repr(float(row[i]) + 10.0 * float(row[j]))
    return out


def foreign_hash(rec):
    out = copy.deepcopy(rec)
    out["csv"]["rows"][-1][-1] = rec["foreign_hash"]
    return out


# run on every measured output; each must trip at every seed
CONTROLS = {
    "rate-1d": (w1_zeroed, foreign_hash),
    "transient-ou": (plateau_shifted, foreign_hash),
    "dim-nd": (mean_norm_shifted, foreign_hash),
}


def run_controls(rec: dict) -> dict:
    """{control name: tripped?} for every negative control of the workload."""
    return {fn.__name__: bool(check(fn(rec))) for fn in CONTROLS[rec["workload"]]}
