"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line under pytest -v and asserting its own runtime budget.

Statistical criteria run at fixed seeds with 3-standard-error tolerances;
exact criteria use machine-precision comparisons.  Budgets are wall-clock
upper bounds on a single core.
"""
import itertools
import math
import time

import numpy as np

from stablegap import (
    ExperimentConfig,
    OuLaw,
    RngStream,
    StableModel,
    bootstrap_stderr,
    crate_bound_fit,
    empirical_char_function,
    ou_stationary_sample,
    ou_w1_lower_exact,
    ratio_minus_one,
    run_alpha_sweep,
    run_contraction,
    run_gradient_check,
    run_transient,
    sample_stable_increment,
    sample_subordinator_increment,
    subordinator_neg_moment,
    w1_assignment,
    w1_exact_1d,
    w1_mean_norm_lower,
)
from stablegap.cli import main

SEED = 902_6081


def test_criterion_01_subordinator_laplace_transform():
    t0 = time.perf_counter()
    n = 1_000_000
    base = RngStream(SEED, 1)
    worst = 0.0
    for i, (alpha, t) in enumerate(itertools.product((1.2, 1.5, 1.8), (0.5, 1.0, 2.0))):
        s = sample_subordinator_increment(alpha, t, base.child(i), size=n)
        for r in (0.25, 0.5, 1.0):
            vals = np.exp(-r * s)
            target = math.exp(-0.5 * t * (2.0 * r) ** (alpha / 2.0))
            se = vals.std(ddof=1) / math.sqrt(n)
            z = abs(vals.mean() - target) / se
            worst = max(worst, z)
            assert z < 3.0, f"alpha={alpha} t={t} r={r}: z={z:.2f}"
    assert time.perf_counter() - t0 < 30.0, "runtime budget exceeded"


def test_criterion_02_stable_characteristic_function():
    t0 = time.perf_counter()
    n = 1_000_000
    base = RngStream(SEED, 20)
    cells = list(itertools.product((1.2, 1.5, 1.8), (0.5, 1.0, 2.0), (1, 3)))
    for i, (alpha, t, d) in enumerate(cells):
        inc = sample_stable_increment(StableModel(d=d, alpha=alpha), t,
                                      base.child(i), size=n)
        for r in (0.25, 0.5, 1.0):
            xi = np.full(d, r / math.sqrt(d))
            cf = empirical_char_function(inc, xi)
            target = math.exp(-0.5 * t * r ** alpha)
            assert abs(cf.re - target) / cf.se_re < 3.0, \
                f"alpha={alpha} t={t} d={d} |xi|={r}: re off"
            assert abs(cf.im) / cf.se_im < 3.0, \
                f"alpha={alpha} t={t} d={d} |xi|={r}: im off"
    assert time.perf_counter() - t0 < 60.0, "runtime budget exceeded"


def test_criterion_03_negative_moment_identities():
    t0 = time.perf_counter()
    n = 1_000_000
    base = RngStream(SEED, 3)
    for i, alpha in enumerate((1.2, 1.5, 1.8)):
        s = sample_subordinator_increment(alpha, 1.0, base.child(i), size=n)
        for power, arr in (("half", s ** -0.5), ("one", 1.0 / s)):
            target = subordinator_neg_moment(1.0, alpha, power)
            se = arr.std(ddof=1) / math.sqrt(n)
            z = abs(arr.mean() - target) / se
            assert z < 3.0, f"alpha={alpha} power={power}: z={z:.2f}"
    # degenerate case: every draw is exactly t, and the closed forms reduce
    # to t^{-1/2} and 1/t bit for bit; the composed comparison is allowed
    # the one-ulp discrepancy between array pow and scalar pow
    s2 = sample_subordinator_increment(2.0, 0.7, base.child(99), size=1000)
    assert np.all(s2 == 0.7)
    half = subordinator_neg_moment(0.7, 2.0, "half")
    one = subordinator_neg_moment(0.7, 2.0, "one")
    assert half == 0.7 ** -0.5 and one == 1.0 / 0.7
    assert np.all(np.abs(s2 ** -0.5 - half) <= 2 * np.spacing(half))
    assert np.all(1.0 / s2 == one)
    assert time.perf_counter() - t0 < 60.0, "runtime budget exceeded"


def test_criterion_04_gamma_ratio_envelope():
    t0 = time.perf_counter()
    # constant fitted on the small-d grid; the scaled ratio peaks at d=1 and
    # alpha at the top of the fitted range, so the fit covers d <= 200 with
    # no slack at all
    C = crate_bound_fit(range(1, 21), [1.5, 1.7, 1.9, 1.99, 1.9999])
    dims = list(range(1, 21)) + [30, 50, 80, 120, 160, 200]
    alphas = [1.5, 1.6, 1.7, 1.8, 1.9, 1.95, 1.99, 1.995, 1.999, 1.9999]
    for d in dims:
        for a in alphas:
            # (1 + 1e-12): re-multiplying C at the fit's own argmax loses
            # one ulp; this guards the round trip, not the mathematics
            bound = C * math.log1p(d) * (2.0 - a) * (1.0 + 1e-12)
            assert abs(ratio_minus_one(d, a)) <= bound, f"d={d} alpha={a}"
    for d in (1, 3, 50):
        tail = [abs(ratio_minus_one(d, 2.0 - 10.0 ** -k)) for k in range(1, 9)]
        assert all(b < a for a, b in zip(tail, tail[1:])), f"d={d} tail not monotone"
    assert time.perf_counter() - t0 < 1.0, "runtime budget exceeded"


def _brute_force_w1(X, Y, perms_by_n):
    n = X.shape[0]
    cost = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)
    perms = perms_by_n[n]
    totals = cost[np.arange(n)[None, :], perms].sum(axis=1)
    return float(totals.min()) / n


def test_criterion_05_assignment_equals_brute_force():
    t0 = time.perf_counter()
    perms_by_n = {n: np.array(list(itertools.permutations(range(n))))
                  for n in range(1, 8)}
    gen = RngStream(SEED, 5).generator()
    worst = 0.0
    worst_1d = 0.0
    for i in range(1000):
        n = int(gen.integers(1, 8))
        d = int(gen.integers(1, 6))
        if i % 5 == 0:
            # integer-valued clouds produce ties in the cost matrix
            X = gen.integers(-2, 3, size=(n, d)).astype(float)
            Y = gen.integers(-2, 3, size=(n, d)).astype(float)
        else:
            X = gen.standard_normal((n, d))
            Y = gen.standard_normal((n, d)) * 1.3 + 0.2
        ref = _brute_force_w1(X, Y, perms_by_n)
        got = w1_assignment(X, Y).value
        worst = max(worst, abs(got - ref))
        if d == 1:
            worst_1d = max(worst_1d, abs(w1_exact_1d(X[:, 0], Y[:, 0]).value - ref))
    assert worst <= 1e-12, f"max assignment error {worst:.2e}"
    assert worst_1d <= 1e-12, f"max 1-d solver error {worst_1d:.2e}"
    assert time.perf_counter() - t0 < 60.0, "runtime budget exceeded"


def test_criterion_06_stationary_lower_bound():
    t0 = time.perf_counter()
    base = RngStream(SEED, 6)
    for i, alpha in enumerate((1.8, 1.9, 1.95, 1.99)):
        lower = ou_w1_lower_exact(1, alpha)
        # exact assignment at n = 4096 with bootstrapped error bars
        X = ou_stationary_sample(OuLaw(1, alpha), 4096, base.child(2 * i))
        Y = ou_stationary_sample(OuLaw(1, 2.0), 4096, base.child(2 * i + 1))
        est = w1_assignment(X, Y)
        se = bootstrap_stderr(X, Y, estimator="exact_assignment", n_resamples=20,
                              rng=base.child(100 + i))
        assert est.value >= lower - 3.0 * se, \
            f"alpha={alpha}: {est.value:.5f} < {lower:.5f} - 3*{se:.5f}"
        # mean-norm statistic at n = 1e6 estimates the bound itself
        Xm = ou_stationary_sample(OuLaw(1, alpha), 1_000_000, base.child(200 + i))
        Ym = ou_stationary_sample(OuLaw(1, 2.0), 1_000_000, base.child(300 + i))
        mn = w1_mean_norm_lower(Xm, Ym)
        assert abs(mn.value - lower) <= 3.0 * mn.stderr, \
            f"alpha={alpha}: mean-norm {mn.value:.6f} vs exact {lower:.6f}"
    assert time.perf_counter() - t0 < 300.0, "runtime budget exceeded"


def test_criterion_07_rate_exponent_band():
    t0 = time.perf_counter()
    res = run_alpha_sweep(ExperimentConfig(experiment="alpha_sweep", seed=1,
                                           n_bootstrap=20))
    for fit in (res.fit_log_2ma, res.fit_log_2ma_loglog):
        assert 0.85 <= fit.slope <= 1.25, f"{fit.x_transform}: slope {fit.slope:.3f}"
        assert fit.r_squared >= 0.95, f"{fit.x_transform}: r^2 {fit.r_squared:.4f}"
    assert time.perf_counter() - t0 < 600.0, "runtime budget exceeded"


def test_criterion_08_synchronous_coupling_rate():
    t0 = time.perf_counter()
    res = run_contraction(ExperimentConfig(experiment="contraction", seed=SEED,
                                           alpha_grid=(1.8,)))
    assert 0.99 <= res.rate <= 1.01, f"rate {res.rate:.5f}"
    assert time.perf_counter() - t0 < 30.0, "runtime budget exceeded"


def test_criterion_09_transient_decreases_to_stationary_plateau():
    t0 = time.perf_counter()
    res = run_transient(ExperimentConfig(experiment="transient", seed=SEED,
                                         alpha_grid=(1.9,), T=12.0,
                                         n_bootstrap=20))
    # decreasing while clearly above the plateau
    early = res.w1 > 2.0 * res.plateau
    assert early[0] and res.w1[0] == 10.0
    assert np.all(np.diff(res.w1[early]) < 0), "early curve not decreasing"
    gap = abs(res.plateau - res.stationary_w1)
    se = math.sqrt(res.plateau_se ** 2 + res.stationary_se ** 2)
    assert gap <= 3.0 * se, f"plateau {res.plateau:.5f} vs stationary " \
        f"{res.stationary_w1:.5f} (3 se = {3 * se:.5f})"
    assert time.perf_counter() - t0 < 600.0, "runtime budget exceeded"


def test_criterion_10_semigroup_gradient_bounded():
    t0 = time.perf_counter()
    res = run_gradient_check(ExperimentConfig(experiment="gradient_check",
                                              seed=SEED,
                                              alpha_grid=(1.5, 1.8, 1.99)))
    assert np.array_equal(res.alphas, [1.5, 1.8, 1.99, 2.0])
    assert res.max_ratio_vs_gaussian <= 1.05, \
        f"max ratio {res.max_ratio_vs_gaussian:.4f}"
    assert time.perf_counter() - t0 < 300.0, "runtime budget exceeded"


def test_criterion_11_byte_identical_reruns(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["alpha-sweep", "--seed", "11", "--samples", "4096",
            "--alpha", "1.8,1.9,1.95", "--estimator", "sliced",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    first_plot = (tmp_path / "sweep.plot.csv").read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "sweep.plot.csv").read_bytes() == first_plot
    assert len(first) > 0 and len(first_plot) > 0
