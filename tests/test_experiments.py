"""Experiment runners: stream derivation, rate fits, CSV identity, and the
cross-experiment reproducibility guarantees."""
import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from stablegap import (
    ASSIGNMENT_CAP,
    CapacityError,
    EmpiricalMeasure,
    ExperimentConfig,
    InvariantError,
    OuLaw,
    RateFit,
    RngStream,
    derive_stream,
    fit_rate,
    joint_bootstrap,
    load_results,
    ou_stationary_sample,
    ou_w1_exact,
    ou_w1_lower_exact,
    parallel_map,
    run_alpha_sweep,
    run_contraction,
    run_dim_sweep,
    run_gradient_check,
    run_transient,
    w1_exact_1d,
    w1_mean_norm_lower,
    w1_radial,
    w1_sliced,
    worker_count,
    write_csv,
)
import stablegap.experiments as experiments
from stablegap.experiments import format_value
from stablegap.ou import _radial_draw
from stablegap.wasserstein import _norms
from conftest import CountingNormals, NanInGammaDraw, NanInSecondGaussianDraw


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


@pytest.mark.parametrize("drift, n", [("ou", 70_000), ("custom", 256), ("ou", 4096)])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_dim_sweep_rows_equal_the_full_cloud_estimators(drift, n, threads, monkeypatch):
    # each row reduces its clouds to norms and 65536-row sliced heads; the
    # heads are the full clouds' first rows, so sliced is bit-equal to its
    # estimator on them.  Up to 65536 rows every column is that of the
    # estimators on the full clouds.  Past them (ou, 70000) each OU norm is
    # drawn from the law of the radius: the head norms are still the
    # cloud's, bit for bit, and mean_norm and radial are checked against
    # the exact bound.
    monkeypatch.setenv("STABLEGAP_THREADS", threads)
    extra = {"burn_in": 0.2} if drift == "custom" else {}
    cfg = ExperimentConfig(experiment="dim_sweep", seed=13, alpha_grid=(1.8,),
                           d_grid=(1, 2, 5), n_samples=n, drift=drift, **extra)
    res = run_dim_sweep(cfg)
    head = min(n, 65_536)
    for i, d in enumerate(cfg.d_grid):
        X, Y = experiments._stationary_pair(d, 1.8, n, cfg.resolved())
        assert res.sliced[i] == w1_sliced(
            X.points[:head], Y.points[:head], n_projections=cfg.n_projections,
            rng=derive_stream(13, "dim_sweep_dirs", d, 1.8)).value
        if n <= head:
            mn = w1_mean_norm_lower(X, Y)
            assert (res.mean_norm[i], res.mean_norm_se[i]) == (mn.value, mn.stderr)
            assert res.radial[i] == w1_radial(X, Y).value
            continue
        for noise, cloud in (("stable", X), ("gauss", Y)):
            index, stream = experiments._stationary_source(noise, d, 1.8, n, cfg.resolved())
            _, norms = _radial_draw(OuLaw(d, index), n, head, stream)
            assert np.array_equal(norms[:head], _norms(cloud.points[:head]))
        assert abs(res.mean_norm[i] - res.lower_exact[i]) <= 4.0 * res.mean_norm_se[i]
        assert res.mean_norm[i] <= res.radial[i]


def test_dim_sweep_draws_gaussians_for_the_sliced_head_only(monkeypatch):
    # each OU cloud draws min(n, 65536) d standard normals, whatever n: the
    # cost of a cloud is O(n + 65536 d), not O(n d)
    monkeypatch.setenv("STABLEGAP_THREADS", "1")
    drawn = {}

    def counting(self):
        gen = CountingNormals(np.random.Philox(key=[self.seed, self.stream_id]))
        drawn.setdefault(self.stream_id, []).append(gen)
        return gen

    monkeypatch.setattr(RngStream, "generator", counting)
    n, dims = 100_000, (2, 3, 20)
    cfg = ExperimentConfig(experiment="dim_sweep", seed=16, alpha_grid=(1.9,),
                           d_grid=dims, n_samples=n)
    run_dim_sweep(cfg)
    for d in dims:
        for noise in ("stable", "gauss"):
            _, stream = experiments._stationary_source(noise, d, 1.9, n, cfg.resolved())
            assert [g.normals for g in drawn[stream.stream_id]] == [65_536 * d]


def test_dim_sweep_holds_one_cloud_at_a_time(monkeypatch):
    # a row keeps each cloud's norms and 65536-row head, not the cloud, so
    # the traced peak stays below two d = 20 clouds; a row that holds both
    # of its clouds peaks near 100 MB here
    monkeypatch.setenv("STABLEGAP_THREADS", "1")
    n, d_max = 200_000, 20
    cfg = ExperimentConfig(experiment="dim_sweep", seed=14, alpha_grid=(1.9,),
                           d_grid=(2, 3, d_max), n_samples=n)
    tracemalloc.start()
    try:
        run_dim_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d_max * 8


def test_dim_sweep_streams_each_cloud_in_blocks(monkeypatch):
    # a row draws each OU cloud's 65536-row head in row blocks and its other
    # rows as norms only, never the cloud: the traced peak stays below half
    # of one d = 20 cloud (80 MB); a row that holds one whole cloud at a time
    # peaks at 199 MB here
    monkeypatch.setenv("STABLEGAP_THREADS", "1")
    n, d_max = 1_000_000, 20
    cfg = ExperimentConfig(experiment="dim_sweep", seed=14, alpha_grid=(1.9,),
                           d_grid=(2, 3, d_max), n_samples=n)
    tracemalloc.start()
    try:
        run_dim_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d_max * 8 / 2


def test_dim_sweep_rows_hold_no_head_beside_two_norm_vectors(monkeypatch):
    # a row keeps its stable norms in the subordinator's buffer and draws
    # the Gaussian norms past the head only once both heads are dropped, so
    # its traced peak is the two d = 20 heads (21 MB) beside one norm
    # vector (8 MB); a row that draws both clouds' norms before it drops
    # the heads peaks at 45.7 MB here
    monkeypatch.setenv("STABLEGAP_THREADS", "1")
    cfg = ExperimentConfig(experiment="dim_sweep", seed=14, alpha_grid=(1.9,),
                           d_grid=(2, 3, 20), n_samples=1_000_000)
    tracemalloc.start()
    try:
        run_dim_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36e6


def test_dim_sweep_refuses_a_non_finite_draw_in_one_block(monkeypatch):
    # the second Gaussian block of the first cloud carries a NaN: the row is
    # refused as EmpiricalMeasure refuses a non-finite cloud
    monkeypatch.setenv("STABLEGAP_THREADS", "1")
    monkeypatch.setattr(RngStream, "generator", lambda self: NanInSecondGaussianDraw(
        np.random.Philox(key=[self.seed, self.stream_id])))
    cfg = ExperimentConfig(experiment="dim_sweep", seed=15, alpha_grid=(1.9,),
                           d_grid=(2, 3, 20), n_samples=200_000)
    with pytest.raises(ValueError, match="finite"):
        run_dim_sweep(cfg)


def test_dim_sweep_refuses_a_non_finite_gamma_draw(monkeypatch):
    # a norm past the sliced head is drawn from a gamma; a NaN there is
    # refused as one in a head block is
    monkeypatch.setenv("STABLEGAP_THREADS", "1")
    monkeypatch.setattr(RngStream, "generator", lambda self: NanInGammaDraw(
        np.random.Philox(key=[self.seed, self.stream_id])))
    cfg = ExperimentConfig(experiment="dim_sweep", seed=15, alpha_grid=(1.9,),
                           d_grid=(2, 3, 20), n_samples=200_000)
    with pytest.raises(ValueError, match="finite"):
        run_dim_sweep(cfg)


def test_d1_alpha_sweep_sorts_each_cloud_once(monkeypatch):
    # in d = 1 each cloud is sorted in place and read in that order by the
    # estimate and the bootstrap, which make no sorted copy: 16 MB clouds
    # here, and a sweep that also held each cloud's sorted copy peaked at
    # 120.7 MB
    monkeypatch.setenv("STABLEGAP_THREADS", "1")
    cfg = ExperimentConfig(experiment="alpha_sweep", seed=1, alpha_grid=(1.9, 1.95, 1.98),
                           n_samples=2_000_000, n_bootstrap=2)
    tracemalloc.start()
    try:
        run_alpha_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6


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
    # Euler runs under drift=custom only; drift_param = 0 is the OU drift.
    # 4 steps of h = 2: every requested time up to 1.0 is nearest step 0, so
    # those rows hold the t = 0 state, and the decay fit must see them there
    out = tmp_path / "transient.csv"
    res = run_transient(ExperimentConfig(experiment="transient", seed=1, alpha_grid=(1.9,),
                                         drift="custom", drift_param=0.0,
                                         n_samples=16, n_steps=4, n_bootstrap=4,
                                         output_path=str(out)))
    assert list(res.times) == [0.0] * 5 + [2.0] * 3 + [4.0] * 3 + [6.0, 8.0]
    assert res.w1[0] == pytest.approx(10.0, abs=1e-12)
    # one snapshot, one estimate stream: rows at one time are one estimate
    assert np.all(res.w1[:5] == res.w1[0]) and np.all(res.stderr[:5] == res.stderr[0])
    _, rows = load_results(str(out))
    assert [float(r[0]) for r in rows] == list(res.times)


def test_ou_transient_rows_are_exact_draws_at_the_requested_times(monkeypatch):
    # under the OU drift each noise draws one stationary cloud from its
    # named stream, sorted in place in d = 1, and every row is the affine
    # image of the two at its time (OuLaw.from_stationary), an exact draw of
    # the time-t law; nothing is integrated
    def spy(*args, **kwargs):
        raise AssertionError("integrated an ensemble under the OU drift")

    monkeypatch.setattr(experiments, "integrate_ensemble", spy)
    cfg = ExperimentConfig(experiment="transient", seed=4, alpha_grid=(1.8,), n_samples=128,
                           T=2.2, n_bootstrap=4, x_start=3.0)
    res = run_transient(cfg)
    assert list(res.times) == [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.2]
    assert res.w1[0] == 3.0 and res.stderr[0] == 0.0
    base_x, base_y = (np.sort(ou_stationary_sample(
        OuLaw(1, a), 128, derive_stream(4, "transient", noise, 1, 1.8, 128)).points, axis=0)
        for a, noise in ((1.8, "stable"), (2.0, "gauss")))
    images = []
    for i, t in enumerate(res.times):
        t = float(t)  # a stream is named by repr(t), which numpy floats change
        X = OuLaw(1, 1.8, t, [3.0]).from_stationary(base_x)
        Y = OuLaw(1, 2.0, t).from_stationary(base_y)
        assert np.all(np.diff(X[:, 0]) >= 0) and np.all(np.diff(Y[:, 0]) >= 0)
        stream = derive_stream(4, "transient_est", 1, 1.8, 128, t)
        assert res.w1[i] == w1_sliced(X, Y, 64, stream.child(1)).value
        images.append((X, Y))

    def rows(ix, iy):
        for X, Y in images:
            yield X[ix], Y[iy]

    reps = joint_bootstrap(rows, 128, 1, "sliced", 4,
                           derive_stream(4, "transient_est", 1, 1.8, 128).child(2))
    assert list(res.stderr) == [r.std(ddof=1) for r in reps]


@pytest.mark.parametrize("drift", [{}, {"drift": "custom", "drift_param": 0.0}])
def test_transient_plateau_se_is_the_sd_of_the_replicate_plateau_means(monkeypatch, drift):
    # the rows share their members, so the plateau's rows are not
    # independent: its SE is the SD of the plateau mean over the joint
    # bootstrap's replicates, not a combination of the rows' SEs
    seen = []

    def keep(*args, **kwargs):
        seen.append(joint_bootstrap(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(experiments, "joint_bootstrap", keep)
    res = run_transient(ExperimentConfig(experiment="transient", seed=5, alpha_grid=(1.8,),
                                         n_samples=256, T=3.0, n_bootstrap=30, **drift))
    (reps,) = seen
    assert reps.shape == (len(res.times), 30)
    k = 3  # the last quarter of the 9 rows, at least 3
    assert res.plateau == res.w1[-k:].mean()
    assert res.plateau_se == reps[-k:].mean(axis=0).std(ddof=1)
    assert list(res.stderr) == [r.std(ddof=1) for r in reps]


def test_custom_transient_bootstrap_resamples_whole_paths(monkeypatch):
    # under drift=custom the rows are snapshots of one ensemble per noise:
    # each resample draws the stable members, then the Gaussian members,
    # once, and takes every snapshot at those paths
    snaps = []
    real = experiments.integrate_ensemble

    def keep(*args, **kwargs):
        out = real(*args, **kwargs)
        snaps.append(out[1])
        return out

    monkeypatch.setenv("STABLEGAP_THREADS", "1")  # the stable ensemble first
    monkeypatch.setattr(experiments, "integrate_ensemble", keep)
    n, R = 64, 6
    res = run_transient(ExperimentConfig(experiment="transient", seed=7, alpha_grid=(1.7,),
                                         drift="custom", drift_param=0.0, n_samples=n,
                                         n_steps=100, T=1.0, n_bootstrap=R))
    snaps_x, snaps_y = snaps
    gen = derive_stream(7, "transient_est", 1, 1.7, n).child(2).generator()
    ref = []
    for _ in range(R):
        ix, iy = gen.integers(0, n, n), gen.integers(0, n, n)
        ref.append([w1_exact_1d(X[ix], Y[iy]).value for X, Y in zip(snaps_x, snaps_y)])
    assert list(res.stderr) == [np.std(r, ddof=1) for r in np.transpose(ref)]


@pytest.mark.parametrize("seed", [1259, 1280])
def test_transient_benchmark_config_decreases_above_twice_the_plateau(seed):
    # the benchmark's transient config at two seeds whose rows, each drawn
    # from its own stream, rose above the row before while above twice the
    # plateau; rows made from one cloud per noise decrease with t there
    res = run_transient(ExperimentConfig(
        experiment="transient", seed=seed, drift="ou", alpha_grid=(1.9,), d_grid=(1,),
        n_samples=4096, T=12.0, estimator="sliced", n_bootstrap=200, n_projections=64,
        x_start=10.0))
    early = res.w1[res.w1 > 2.0 * res.plateau]
    assert early[0] == res.w1[0] == 10.0
    assert np.all(np.diff(early) < 0), early


def test_transient_curves_sit_on_the_exact_w1():
    # The exact-draw curve (drift=ou) and the Euler curve of the same drift
    # (drift=custom, drift_param = 0) against the exact d = 1 W1 of the two
    # time-t laws.  A row may sit above the truth by the same-law floor at
    # this n (measured here, from two clouds of one law) and on either side
    # by 3 of its bootstrap standard errors.
    t0 = time.perf_counter()
    alpha, n, x_start = 1.9, 4096, 10.0
    cfg = ExperimentConfig(experiment="transient", seed=16, alpha_grid=(alpha,), n_samples=n,
                           T=12.0, n_bootstrap=20, x_start=x_start)
    exact_draws = run_transient(cfg)
    euler = run_transient(dataclasses.replace(cfg, drift="custom", drift_param=0.0))
    a, b = (ou_stationary_sample(OuLaw(1, alpha), n, RngStream(16, k)) for k in (1, 2))
    floor = w1_exact_1d(a, b).value
    assert 0.0 < floor < 0.05
    exact = {}
    for res in (exact_draws, euler):
        assert res.w1[0] == x_start and res.times[0] == 0.0
        # every other row of the grid: the exact value costs about 1 s a time
        for t, v, se in list(zip(res.times, res.w1, res.stderr))[1::2]:
            key = round(t, 9)  # Euler's grid times sit within rounding of the requested
            if key not in exact:
                exact[key] = ou_w1_exact(1, alpha, t, x_start)
            assert -3.0 * se <= v - exact[key] <= floor + 3.0 * se, \
                f"t={t}: {v:.6f} vs exact {exact[key]:.6f} (se {se:.2g}, floor {floor:.3g})"
    assert time.perf_counter() - t0 < 120.0, "runtime budget exceeded"


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
    # OU: the rows' draws and estimates and the stationary reference run
    # concurrently under a cap of 2; custom: both Euler ensembles and their
    # draw-ahead helpers do; and everything in one thread under a cap of 1
    for drift in ({}, {"drift": "custom", "drift_param": 0.0}):
        results, csvs = [], []
        for threads in ("1", "2"):
            monkeypatch.setenv("STABLEGAP_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            results.append(run_transient(ExperimentConfig(
                experiment="transient", seed=12, alpha_grid=(1.7,), n_samples=256, T=2.0,
                n_bootstrap=4, output_path=str(out), **drift)))
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
