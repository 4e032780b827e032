"""Experiment runners: stream derivation, rate fits, CSV identity, and the
cross-experiment reproducibility guarantees."""
import dataclasses
import math

import numpy as np
import pytest

from stablegap import (
    ASSIGNMENT_CAP,
    CapacityError,
    EmpiricalMeasure,
    ExperimentConfig,
    InvariantError,
    RateFit,
    derive_stream,
    fit_rate,
    load_results,
    ou_w1_lower_exact,
    parallel_map,
    run_alpha_sweep,
    run_contraction,
    run_dim_sweep,
    run_gradient_check,
    run_transient,
    worker_count,
    write_csv,
)
import stablegap.experiments as experiments
from stablegap.experiments import format_value


def test_derive_stream_is_content_keyed():
    a = derive_stream(3, "stationary", "stable", 1, 1.9, 4096)
    b = derive_stream(3, "stationary", "stable", 1, 1.9, 4096)
    assert np.array_equal(a.generator().standard_normal(8),
                          b.generator().standard_normal(8))
    c = derive_stream(3, "stationary", "gauss", 1, 1.9, 4096)
    d = derive_stream(4, "stationary", "stable", 1, 1.9, 4096)
    e = derive_stream(3, "stationary", "stable", 1, 1.9, "4096")  # repr-distinct
    x = a.generator().standard_normal(8)
    for other in (c, d, e):
        assert not np.array_equal(x, other.generator().standard_normal(8))


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("STABLEGAP_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.setenv("STABLEGAP_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("STABLEGAP_THREADS", "many")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("STABLEGAP_THREADS")
    assert worker_count() >= 1


def test_parallel_map_preserves_order(monkeypatch):
    monkeypatch.setenv("STABLEGAP_THREADS", "3")
    assert parallel_map(lambda i: i * i, range(7)) == [i * i for i in range(7)]
    assert parallel_map(lambda i: i, []) == []


def test_fit_rate_recovers_synthetic_slopes():
    alphas = np.array([1.8, 1.9, 1.95, 1.98, 1.99])
    u = 2.0 - alphas
    w1 = np.exp(1.07 * np.log(u) + 0.3)
    fit = fit_rate(alphas, w1, "log_2ma")
    assert fit.slope == pytest.approx(1.07, abs=1e-12)
    assert fit.intercept == pytest.approx(0.3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 5

    x2 = np.log(u * np.log(1.0 / u))
    fit2 = fit_rate(alphas, np.exp(0.93 * x2 - 0.1), "log_2ma_loglog")
    assert fit2.slope == pytest.approx(0.93, abs=1e-12)


def test_fit_rate_excludes_alpha_two():
    alphas = [1.8, 1.9, 1.95, 2.0]
    w1 = list(np.exp(np.log(2.0 - np.array(alphas[:3])))) + [123.0]
    fit = fit_rate(alphas, w1, "log_2ma")
    assert fit.n_points == 3
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_rate([1.9, 2.0], [0.1, 0.1], "log_2ma")
    with pytest.raises(InvariantError):
        fit_rate([1.8, 1.9, 1.95], [0.1, 0.0, 0.1], "log_2ma")
    with pytest.raises(ValueError):
        fit_rate([1.8, 1.9, 1.95], [0.1, 0.2, 0.1], "log_u")
    with pytest.raises(ValueError):
        RateFit(slope=1.0, intercept=0.0, r_squared=1.2, x_transform="log_2ma",
                n_points=5)


def test_format_value_roundtrip():
    for v in (0.1 + 0.2, math.pi, 2.0 ** -52, 1e-300, -1.5, 0.0):
        assert float(format_value(v)) == v
    assert format_value(True) == "1" and format_value(False) == "0"
    assert format_value(np.int64(7)) == "7"
    assert format_value("sliced") == "sliced"


def test_load_results_rejects_bad_files(tmp_path):
    p = tmp_path / "r.csv"
    write_csv(str(p), ["x"], [(1.5,), (2.5,)], "abc")
    header, rows = load_results(str(p))
    assert header == ["x", "config_hash"]
    assert [r[0] for r in rows] == ["1.5", "2.5"]

    p.write_text("x,config_hash\n1,aaa\n2,bbb\n")
    with pytest.raises(ValueError, match="different configs"):
        load_results(str(p))
    p.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="config_hash"):
        load_results(str(p))
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_results(str(p))
    p.write_text("a,b,config_hash\n1,2,3,h\n")
    with pytest.raises(ValueError, match="line 2 has 4 fields"):
        load_results(str(p))


def test_csv_fields_with_commas_round_trip(tmp_path):
    # selftest details such as "rate ratio in [0.354, 0.803]" hold commas
    p = tmp_path / "r.csv"
    rows = [("ou_lower_bound_paths", True, "rate ratio in [0.354, 0.803]"),
            ("quoted", False, 'say "hi"'), ("empty", True, "")]
    write_csv(str(p), ["check", "passed", "detail"], rows, "abc")
    header, back = load_results(str(p))
    assert header == ["check", "passed", "detail", "config_hash"]
    assert back == [[name, format_value(ok), detail, "abc"] for name, ok, detail in rows]
    assert p.read_text().splitlines()[1] == \
        'ou_lower_bound_paths,1,"rate ratio in [0.354, 0.803]",abc'


def test_alpha_sweep_needs_three_points():
    # refused when the config is built, not after the sampling
    with pytest.raises(ValueError, match="need >= 3 alphas below 2"):
        ExperimentConfig(experiment="alpha_sweep", seed=0, alpha_grid=(1.9,),
                         n_samples=64, n_bootstrap=2)


def test_alpha_sweep_small_n_floor():
    # At n = 4096 the empirical distance between two independent clouds of
    # the SAME law sits near 2e-2 for these heavy-tailed laws, while the
    # closed-form gap at alpha = 1.99 is 2.5e-3.  Every point still clears
    # the lower bound, but the small-u end of the curve measures sampling
    # noise rather than the gap, so the fitted exponent collapses well below
    # 1.  Recovering the true rate needs the default (much larger) budget.
    cfg = ExperimentConfig(experiment="alpha_sweep", seed=2,
                           alpha_grid=(1.80, 1.85, 1.90, 1.95, 1.99),
                           n_samples=4096, estimator="sliced", n_bootstrap=20)
    res = run_alpha_sweep(cfg)
    for a, v, s in zip(res.alphas, res.w1, res.stderr):
        assert v >= ou_w1_lower_exact(1, a) - 3.0 * s
    assert res.w1[-1] > 2.0 * ou_w1_lower_exact(1, 1.99)  # floor-dominated
    assert res.fit_log_2ma.slope < 0.7


def test_alpha_sweep_alpha_two_row_is_pure_floor():
    # at alpha = 2 both laws coincide, so the estimate is the sampling floor
    cfg = ExperimentConfig(experiment="alpha_sweep", seed=2,
                           alpha_grid=(1.8, 1.9, 1.95, 2.0),
                           n_samples=4096, estimator="sliced", n_bootstrap=4)
    res = run_alpha_sweep(cfg)
    assert res.w1[-1] < 0.05
    assert res.fit_log_2ma.n_points == 3


def test_dim_sweep_rows_and_note():
    cfg = ExperimentConfig(experiment="dim_sweep", seed=5, alpha_grid=(1.9,),
                           d_grid=(1, 2, 3), n_samples=16384)
    res = run_dim_sweep(cfg)
    for i, d in enumerate(res.dims):
        assert res.lower_exact[i] == ou_w1_lower_exact(int(d), 1.9)
        # the mean-norm statistic estimates exactly the closed-form bound
        assert abs(res.mean_norm[i] - res.lower_exact[i]) <= 4.0 * res.mean_norm_se[i]
        # both come from the row's full clouds, where the mean-norm gap is
        # a lower bound for the W1 of the norms, exactly
        assert res.mean_norm[i] <= res.radial[i]
    assert "NOT empirically attained" in res.note
    assert res.fit_vs_d.x_transform == "log_d"
    assert res.fit_vs_dlogd.x_transform == "log_dlogd"
    # sqrt-like growth of the exact bound in d, visibly below linear
    assert 0.3 < res.fit_vs_d.slope < 0.7
    assert res.fit_vs_dlogd.slope < res.fit_vs_d.slope


def test_dim_sweep_rejects_alpha_two():
    with pytest.raises(ValueError, match="dim_sweep needs alpha < 2"):
        ExperimentConfig(experiment="dim_sweep", seed=5, alpha_grid=(2.0,),
                         d_grid=(1, 2, 3), n_samples=256)


def test_dim_sweep_d1_row_reproduces_alpha_sweep_point():
    # content-keyed substreams: the same (kind, d, alpha, n) sampling task
    # draws identical clouds in both experiments, and in d=1 both the sliced
    # and the radial estimates are deterministic given the clouds
    n = 16384
    dim_cfg = ExperimentConfig(experiment="dim_sweep", seed=5, alpha_grid=(1.9,),
                               d_grid=(1, 2, 3), n_samples=n)
    dim = run_dim_sweep(dim_cfg)
    sweep_sliced = run_alpha_sweep(ExperimentConfig(
        experiment="alpha_sweep", seed=5, alpha_grid=(1.9, 1.93, 1.96),
        n_samples=n, estimator="sliced", n_bootstrap=2))
    sweep_radial = run_alpha_sweep(ExperimentConfig(
        experiment="alpha_sweep", seed=5, alpha_grid=(1.9, 1.93, 1.96),
        n_samples=n, estimator="radial", n_bootstrap=2))
    assert dim.sliced[0] == sweep_sliced.w1[0]
    assert dim.radial[0] == sweep_radial.w1[0]


def test_transient_starts_exact_and_decays():
    cfg = ExperimentConfig(experiment="transient", seed=6, alpha_grid=(1.9,),
                           d_grid=(1,), n_samples=64, T=1.0, n_bootstrap=4)
    res = run_transient(cfg)
    assert res.times[0] == 0.0
    # at t=0 both clouds are point masses x_start apart
    assert res.w1[0] == pytest.approx(cfg.x_start, abs=1e-12)
    assert res.w1[1] < res.w1[0]
    assert res.stationary_w1 >= 0.0 and res.stationary_se > 0.0
    assert np.all(res.times <= 1.0 + 1e-12)


def test_short_transient_plateau_excludes_the_start_point():
    # below T = 0.75 the last quarter of the grid would reach t = 0, where
    # both clouds are point masses x_start apart
    res = run_transient(ExperimentConfig(experiment="transient", seed=1, alpha_grid=(1.9,),
                                         n_samples=64, T=0.2, n_bootstrap=4))
    assert list(res.times) == [0.0, 0.2]
    assert res.plateau == res.w1[-1] < res.w1[0]
    assert res.plateau_se == res.stderr[-1]
    res = run_transient(ExperimentConfig(experiment="transient", seed=1, alpha_grid=(1.9,),
                                         n_samples=64, T=0.5, n_bootstrap=4))
    assert res.plateau == pytest.approx(res.w1[1:].mean(), rel=1e-15)


def test_transient_rows_carry_the_simulated_times(tmp_path):
    # 4 steps of h = 2: every requested time up to 1.0 is nearest step 0, so
    # those rows hold the t = 0 state, and the decay fit must see them there
    out = tmp_path / "transient.csv"
    res = run_transient(ExperimentConfig(experiment="transient", seed=1, alpha_grid=(1.9,),
                                         n_samples=16, n_steps=4, n_bootstrap=4,
                                         output_path=str(out)))
    assert list(res.times) == [0.0] * 5 + [2.0] * 3 + [4.0] * 3 + [6.0, 8.0]
    assert res.w1[0] == pytest.approx(10.0, abs=1e-12)
    # one snapshot, one estimate stream: rows at one time are one estimate
    assert np.all(res.w1[:5] == res.w1[0]) and np.all(res.stderr[:5] == res.stderr[0])
    _, rows = load_results(str(out))
    assert [float(r[0]) for r in rows] == list(res.times)


def test_transient_decay_rate_near_one():
    cfg = ExperimentConfig(experiment="transient", seed=6, alpha_grid=(1.9,),
                           d_grid=(1,), n_samples=256, n_bootstrap=4,
                           x_start=50.0)
    res = run_transient(cfg)
    assert res.decay_rate is not None
    # early decay of the mean gap is e^{-t} for the linear drift; the curve
    # mixes in noise, so the window is generous
    assert 0.8 < res.decay_rate < 1.2
    assert res.plateau < 0.05 * cfg.x_start


def test_contraction_rate_matches_euler_value():
    cfg = ExperimentConfig(experiment="contraction", seed=7, alpha_grid=(1.8,),
                           d_grid=(1,), n_samples=32, T=2.0)
    res = run_contraction(cfg)
    h = 1e-3
    assert res.mean_gap[0] == pytest.approx(cfg.x_start, abs=1e-12)
    assert res.rate == pytest.approx(-math.log1p(-h) / h, rel=1e-6)
    assert np.all(np.diff(res.mean_gap) < 0)


def test_default_contraction_runs_the_resolved_values(monkeypatch):
    seen = []
    real = experiments.integrate_coupled_ensemble

    def spy(model, drift, X0, Y0, T, n_steps, rng, record_times):
        seen.append((X0.shape[0], n_steps, T))
        return real(model, drift, X0, Y0, T, n_steps, rng, record_times=record_times)

    monkeypatch.setattr(experiments, "integrate_coupled_ensemble", spy)
    cfg = ExperimentConfig(experiment="contraction", seed=3)
    res = run_contraction(cfg)
    r = cfg.resolved()
    assert seen == [(512, 5000, 5.0)] == [(r.n_samples, r.n_steps, r.T)]
    assert res.config_hash == r.config_hash() == cfg.config_hash()


def test_gradient_check_bounded_by_gaussian_reference():
    cfg = ExperimentConfig(experiment="gradient_check", seed=8, alpha_grid=(1.8,),
                           d_grid=(1,), n_samples=8192)
    res = run_gradient_check(cfg)
    assert res.alphas[-1] == 2.0
    assert res.grad.shape == (2, 10)
    # for the linear drift the sharp directional derivative is e^{-t}
    assert abs(res.grad[0, -1]) == pytest.approx(math.exp(-1.0), abs=0.05)
    assert abs(res.grad[1, -1]) == pytest.approx(math.exp(-1.0), abs=0.05)
    assert res.max_ratio_vs_gaussian <= 1.05
    assert np.all(np.abs(res.grad_norm) <= 1.5)


def test_gradient_check_pinned_by_the_euler_contraction():
    # OU: the coupled pair starts eps apart and stays eps (1-h)^k apart after
    # k steps.  At alpha = 2 no path reaches the clip, so that row equals
    # (1-h)^k; the clips are monotone and 1-Lipschitz, so they can only lower
    # the other rows, and the clipped norm moves by at most the gap
    res = run_gradient_check(ExperimentConfig(experiment="gradient_check", seed=8,
                                              alpha_grid=(1.5, 1.8), n_samples=4096))
    h = 1e-3
    exact = (1.0 - h) ** np.round(res.times / h)
    assert np.all(np.abs(res.grad[-1] - exact) <= 1e-9)
    assert np.all(res.grad[:-1] <= exact + 1e-9)
    assert np.all(res.grad_norm <= exact + 1e-9)


def test_gradient_check_rows_carry_the_simulated_times(tmp_path):
    # 3 steps of h = 1/3: t = 0.1 is nearest step 0, where the pair is still
    # eps apart; the times are rounded to 10 digits, as the requested ones are
    out = tmp_path / "gradient.csv"
    res = run_gradient_check(ExperimentConfig(experiment="gradient_check", seed=8,
                                              alpha_grid=(1.8,), n_samples=64, n_steps=3,
                                              output_path=str(out)))
    steps = [0, 1, 1, 1, 2, 2, 2, 2, 3, 3]
    assert list(res.times) == list(np.round([k * (1.0 / 3) for k in steps], 10))
    assert np.all(res.grad[:, 0] == pytest.approx(1.0, abs=1e-9))
    _, rows = load_results(str(out))
    assert [float(r[1]) for r in rows] == list(res.times) * 2


def test_results_identical_across_worker_counts(monkeypatch):
    cfg = ExperimentConfig(experiment="alpha_sweep", seed=9,
                           alpha_grid=(1.8, 1.9, 1.95), n_samples=512,
                           estimator="sliced", n_bootstrap=4)
    monkeypatch.setenv("STABLEGAP_THREADS", "1")
    r1 = run_alpha_sweep(cfg)
    monkeypatch.setenv("STABLEGAP_THREADS", "2")
    r2 = run_alpha_sweep(cfg)
    assert np.array_equal(r1.w1, r2.w1)
    assert np.array_equal(r1.stderr, r2.stderr)
    assert r1.config_hash == r2.config_hash


def test_transient_identical_across_worker_counts(monkeypatch, tmp_path):
    # both ensembles, their draw-ahead helpers and the stationary reference
    # run concurrently under a cap of 2, and in one thread under a cap of 1
    results, csvs = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("STABLEGAP_THREADS", threads)
        out = tmp_path / f"t{threads}.csv"
        results.append(run_transient(ExperimentConfig(
            experiment="transient", seed=12, alpha_grid=(1.7,), n_samples=256, T=2.0,
            n_bootstrap=4, output_path=str(out))))
        csvs.append(out.read_bytes())
    r1, r2 = results
    assert csvs[0] == csvs[1] and len(csvs[0]) > 0
    assert r1.stationary_w1 == r2.stationary_w1
    assert r1.stationary_se == r2.stationary_se
    assert r1.plateau == r2.plateau and r1.plateau_se == r2.plateau_se


def test_csv_outputs_byte_identical_across_reruns(tmp_path):
    cfg = ExperimentConfig(experiment="alpha_sweep", seed=10,
                           alpha_grid=(1.8, 1.9, 1.95), n_samples=2048,
                           estimator="sliced", n_bootstrap=4,
                           output_path=str(tmp_path / "a" / "r.csv"))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    run_alpha_sweep(cfg)
    cfg2 = dataclasses.replace(cfg, output_path=str(tmp_path / "b" / "r.csv"))
    run_alpha_sweep(cfg2)
    a_main = (tmp_path / "a" / "r.csv").read_bytes()
    b_main = (tmp_path / "b" / "r.csv").read_bytes()
    assert a_main == b_main and len(a_main) > 0
    assert (tmp_path / "a" / "r.plot.csv").read_bytes() == \
        (tmp_path / "b" / "r.plot.csv").read_bytes()
    header, rows = load_results(str(tmp_path / "a" / "r.csv"))
    assert header[-1] == "config_hash"
    assert all(r[-1] == cfg.config_hash() for r in rows)
    assert len(rows) == 3


def test_custom_drift_stationary_reference_uses_the_default_step(monkeypatch):
    # tanh with c = 0.5 has theta1 = 1.5, so the default step is 1e-3/1.5:
    # the stationary reference must simulate at 1500 steps per unit time,
    # the step of the transient curve it is compared with
    seen = []

    def fake_ergodic(model, drift, burn_in_T, n_samples, thinning_T,
                     n_steps_per_unit, rng, n_chains=None):
        seen.append(n_steps_per_unit)
        return EmpiricalMeasure(points=rng.generator().standard_normal((n_samples, model.d)))

    monkeypatch.setattr(experiments, "ergodic_sample", fake_ergodic)
    cfg = ExperimentConfig(experiment="transient", seed=3, drift="custom",
                           drift_param=0.5, alpha_grid=(1.5,), n_samples=16,
                           T=1.0, n_bootstrap=4)
    run_transient(cfg)
    assert seen == [1500, 1500]


def test_assignment_above_the_cap_is_refused_before_any_work(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("sampled or integrated before the capacity check")

    monkeypatch.setattr(experiments, "integrate_ensemble", spy)
    monkeypatch.setattr(experiments, "ou_stationary_sample", spy)
    too_many = ASSIGNMENT_CAP + 1
    with pytest.raises(CapacityError, match="sliced"):
        run_transient(ExperimentConfig(experiment="transient", seed=1, alpha_grid=(1.9,),
                                       n_samples=too_many, T=12.0,
                                       estimator="assignment"))
    with pytest.raises(CapacityError, match="sliced"):
        run_alpha_sweep(ExperimentConfig(experiment="alpha_sweep", seed=1,
                                         alpha_grid=(1.8, 1.9, 1.95),
                                         n_samples=too_many, estimator="assignment"))
    assert calls == []
