"""Tests of the benchmark itself: the oracle checks accept a sound record and
reject each tampered one, self time is computed over overlapping children,
tracing wraps and restores the public bindings, and the harness refuses to
run without the program.

    python3 -m pytest perfbench
"""
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from stablegap import ExperimentConfig, ou_w1_lower_exact, run_alpha_sweep  # noqa: E402

HASH = "0123456789ab"
FOREIGN = "ba9876543210"


def _table(header, rows, chash=HASH):
    return {"header": header + ["config_hash"],
            "rows": [[repr(v) if isinstance(v, float) else str(v) for v in row] + [chash]
                     for row in rows]}


def rate_record():
    grid = list(workloads.NEAR_TWO_GRID)
    lower = [ou_w1_lower_exact(1, a) for a in grid]
    se = 4.5e-4  # the bootstrap SE of rate-1d at n=1e6 and a favourable seed
    w1 = [lo + 1.5 * se for lo in lower]
    return {
        "workload": "rate-1d", "config_hash": HASH, "foreign_hash": FOREIGN,
        "n_samples": 1_000_000, "alpha_grid": grid, "lower": lower, "result_w1": w1,
        "csv": _table(["alpha", "d", "n_samples", "estimator", "w1", "stderr"],
                      [[a, 1, 1_000_000, "sliced", v, se] for a, v in zip(grid, w1)]),
        "plot_csv": _table(["alpha", "log_w1"], [[a, math.log(v)] for a, v in zip(grid, w1)]),
    }


def transient_record():
    t = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.5, 8.0, 12.0]
    w1 = [10.0 * math.exp(-s) + 0.03 for s in t]
    w1[0] = 10.0
    plateau = sum(w1[-3:]) / 3
    return {
        "workload": "transient-ou", "config_hash": HASH, "foreign_hash": FOREIGN,
        "n_samples": 4096, "x_start": 10.0, "result_w1": w1,
        "plateau": plateau, "plateau_se": 0.004,
        "stationary_w1": plateau + 0.002, "stationary_se": 0.006,
        "csv": _table(["t", "w1", "stderr"], [[s, v, 0.005] for s, v in zip(t, w1)]),
    }


def dim_record():
    dims = [2, 3, 5, 8, 12, 20]
    lower = [ou_w1_lower_exact(d, 1.9) for d in dims]
    se = 2e-3
    return {
        "workload": "dim-nd", "config_hash": HASH, "foreign_hash": FOREIGN,
        "n_samples": 1_000_000, "d_grid": dims, "alpha": 1.9, "lower": lower,
        "csv": _table(["d", "alpha", "lower_exact", "mean_norm", "mean_norm_se",
                       "sliced", "assignment_small_n"],
                      [[d, 1.9, lo, lo + 0.5 * se, se, 0.1, 0.2]
                       for d, lo in zip(dims, lower)]),
    }


RECORDS = {"rate-1d": rate_record, "transient-ou": transient_record, "dim-nd": dim_record}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_sound_record_passes_and_every_control_trips(name):
    rec = RECORDS[name]()
    assert workloads.check(rec) == []
    controls = workloads.run_controls(rec)
    assert controls and all(controls.values()), controls


@pytest.mark.parametrize("name, tamper", [
    ("rate-1d", workloads.w1_halved),
    ("rate-1d", workloads.w1_zeroed),
    ("transient-ou", workloads.plateau_shifted),
    ("dim-nd", workloads.mean_norm_shifted),
    ("rate-1d", workloads.foreign_hash),
    ("transient-ou", workloads.foreign_hash),
    ("dim-nd", workloads.foreign_hash),
])
def test_each_tamper_is_rejected(name, tamper):
    assert workloads.check(tamper(RECORDS[name]()))


def test_dropped_row_is_rejected():
    rec = dim_record()
    rec["csv"]["rows"].pop()
    assert any("rows" in msg for msg in workloads.check(rec))


def test_rising_transient_curve_is_rejected():
    rec = transient_record()
    i = rec["csv"]["header"].index("w1")
    rec["csv"]["rows"][3][i] = rec["csv"]["rows"][2][i]
    rec["result_w1"][3] = rec["result_w1"][2]
    assert any("decrease" in msg for msg in workloads.check(rec))


def _span(i, name, parent, start, end):
    sp = tracing.Span(i, name, parent, thread=0, start=start, end=end)
    return sp


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, "run", None, 0.0, 10.0),
        _span(2, "experiments.parallel_map", 1, 1.0, 9.0),
        _span(3, "experiments.parallel_map.task", 2, 1.0, 6.0),
        _span(4, "experiments.parallel_map.task", 2, 1.5, 8.0),
        _span(5, "wasserstein.bootstrap", 3, 2.0, 5.0),
    ]
    spans[1].attrs = {"items": 2, "workers": 2}
    st = tracing.self_times(spans)
    assert st == {1: 2.0, 2: 1.0, 3: 2.0, 4: 6.5, 5: 3.0}
    m = tracing.layer_metrics(spans)
    assert m["tracing.thread_s"] == pytest.approx(14.5)
    assert m["experiments.parallel_map.busy_frac"] == pytest.approx(11.5 / 16.0)
    assert m["experiments.parallel_map.wait_s"] == pytest.approx(0.5)
    assert m["wasserstein.bootstrap.self_s"] == 3.0


def test_tracing_wraps_public_bindings_and_restores_them(tmp_path):
    import stablegap.experiments as exp
    import stablegap.sampling as sampling

    before = (exp.bootstrap_stderr, exp.parallel_map, sampling.sample_subordinator_increment)
    cfg = ExperimentConfig(experiment="alpha_sweep", seed=3, alpha_grid=(1.8, 1.9, 1.95),
                           n_samples=2048, n_bootstrap=4,
                           output_path=str(tmp_path / "sweep.csv"))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.span("run"):
            run_alpha_sweep(cfg)
    assert (exp.bootstrap_stderr, exp.parallel_map,
            sampling.sample_subordinator_increment) == before

    by_id = {sp.id: sp for sp in tracer.spans}
    tasks = [sp for sp in tracer.spans if sp.name == "experiments.parallel_map.task"]
    assert len(tasks) == 3
    assert {by_id[t.parent].name for t in tasks} == {"experiments.parallel_map"}
    boots = [sp for sp in tracer.spans if sp.name == "wasserstein.bootstrap"]
    assert {by_id[b.parent].name for b in boots} == {"experiments.parallel_map.task"}
    m = tracing.layer_metrics(tracer.spans)
    assert m["wasserstein.bootstrap.resamples"] == 12
    assert m["sampling.subordinator.draws"] == 3 * 2048
    assert m["experiments.parallel_map.items"] == 3
    assert m["experiments.write_csv.bytes"] == (os.path.getsize(tmp_path / "sweep.csv")
                                                + os.path.getsize(tmp_path / "sweep.plot.csv"))
    assert set(m) == set(tracing.PER_LAYER) - {"tracing.overhead_s"}


def test_harness_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dim-nd",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
