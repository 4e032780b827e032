"""Integrator checks built on closed-form discrete recursions.

For the linear drift the Euler chain is exactly solvable: means contract by
(1-h) per step and the variance obeys a geometric recursion, so the ensemble
statistics have machine-checkable targets up to Monte Carlo error.  The
coupled gap is a deterministic identity and is checked to float precision.
"""
import math

import numpy as np
import pytest

from stablegap import (
    DomainError,
    DriftSpec,
    IntegrationError,
    OuLaw,
    RngStream,
    StableModel,
    ergodic_sample,
    integrate_coupled_ensemble,
    integrate_ensemble,
    sample_subordinator_increment,
)
from conftest import z_score


def euler_ou_var(h: float, k: int) -> float:
    """Variance of the Euler chain x -> (1-h)x + N(0,h) after k steps from 0."""
    r = (1.0 - h) ** 2
    return h * (1.0 - r ** k) / (1.0 - r)


def reference_euler(model, drift, X0, h, n_steps, gen):
    """The plain Euler loop every integrator must reproduce bit for bit:
    all n_steps + 1 states of the (n, d) ensemble X0, increments drawn
    step by step as subordinated Gaussians through sigma."""
    X = np.array(X0, dtype=float, copy=True)
    n, d = X.shape
    states = [X]
    for _ in range(n_steps):
        if model.is_brownian:
            inc = np.sqrt(h) * gen.standard_normal((n, d))
        else:
            s = sample_subordinator_increment(model.alpha, h, gen, size=n)
            inc = np.sqrt(s)[:, None] * gen.standard_normal((n, d))
        X = X + drift.eval(X) * h + inc @ model.sigma.T
        states.append(X)
    return np.array(states)


def test_drift_spec_validation():
    ou = DriftSpec.ornstein_uhlenbeck(3)
    assert ou.theta0 == 1.0 and ou.K == 0.0
    x = np.ones((5, 4, 3))
    assert ou.eval(x).shape == x.shape
    with pytest.raises(DomainError):
        DriftSpec(kind="custom", d=1, eval=lambda x: x, theta0=1.0, K=0.0, theta1=1.0)
    with pytest.raises(ValueError):
        DriftSpec(kind="mystery", d=1, eval=lambda x: -x, theta0=1.0, K=0.0, theta1=1.0)
    with pytest.raises(DomainError):
        DriftSpec(kind="custom", d=1, eval=lambda x: -x, theta0=-1.0, K=0.0, theta1=1.0)


def test_tanh_drift_constants_and_construction():
    drift = DriftSpec.dissipative_tanh(2, 0.5)
    assert drift.theta0 == pytest.approx(0.5)
    assert drift.theta1 == pytest.approx(1.5)
    # overclaiming dissipativity (theta0 too large for this drift) must fail
    # the construction-time spot check
    with pytest.raises(DomainError):
        DriftSpec(kind="custom", d=2, eval=lambda x: -x + 0.5 * np.tanh(x),
                  theta0=0.9, K=0.0, theta1=1.5)
    with pytest.raises(DomainError):
        DriftSpec.dissipative_tanh(2, 1.0)


def test_integrate_shapes_and_times():
    model = StableModel(d=2, alpha=1.8)
    drift = DriftSpec.ornstein_uhlenbeck(2)
    X0 = np.array([[1.0, -1.0]])
    times, snaps = integrate_ensemble(model, drift, X0, 1.0, 100, RngStream(1))
    assert times == [1.0] and len(snaps) == 1 and snaps[0].shape == (1, 2)
    every = np.linspace(0.0, 1.0, 101)
    times, snaps = integrate_ensemble(model, drift, X0, 1.0, 100, RngStream(1),
                                      record_times=every)
    assert np.allclose(times, every) and times[0] == 0.0 and times[-1] == 1.0
    assert len(snaps) == 101 and np.array_equal(snaps[0], X0)
    for integrator in (integrate_ensemble, integrate_coupled_ensemble):
        starts = (X0,) * (1 if integrator is integrate_ensemble else 2)
        with pytest.raises(ValueError, match="T must be positive"):
            integrator(model, drift, *starts, 0.0, 10, RngStream(1))
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            integrator(model, drift, *starts, 1.0, 0, RngStream(1))


def test_brownian_ensemble_matches_discrete_recursion():
    # mean x0 (1-h)^k exactly, variance by the geometric recursion
    h, k, n = 0.01, 200, 200_000
    model = StableModel(d=1, alpha=2.0)
    drift = DriftSpec.ornstein_uhlenbeck(1)
    X0 = np.full((n, 1), 3.0)
    _, snaps = integrate_ensemble(model, drift, X0, h * k, k, RngStream(2))
    end = snaps[-1][:, 0]
    assert z_score(end, 3.0 * (1.0 - h) ** k) < 4.0
    centered = end - end.mean()
    assert z_score(centered ** 2, euler_ou_var(h, k)) < 4.0


def test_stable_ensemble_matches_transient_char_function():
    # ensemble law vs the closed-form transient characteristic function;
    # Euler bias at this step size is an order below the Monte Carlo SE
    alpha, t, x0 = 1.7, 1.0, 2.0
    n, steps = 50_000, 500
    model = StableModel(d=1, alpha=alpha)
    drift = DriftSpec.ornstein_uhlenbeck(1)
    _, snaps = integrate_ensemble(model, drift, np.full((n, 1), x0), t, steps,
                                  RngStream(3))
    end = snaps[-1][:, 0]
    law = OuLaw(1, alpha, t=t, x0=[x0])
    for xi in (0.5, 1.0, 2.0):
        re_t, im_t = law.char(xi)
        cos, sin = np.cos(xi * end), np.sin(xi * end)
        z_re = abs(cos.mean() - re_t) / (cos.std(ddof=1) / math.sqrt(n))
        z_im = abs(sin.mean() - im_t) / (sin.std(ddof=1) / math.sqrt(n))
        assert z_re < 4.5 and z_im < 4.5


def test_coupled_gap_contracts_deterministically():
    model = StableModel(d=3, alpha=1.6)
    drift = DriftSpec.ornstein_uhlenbeck(3)
    x0, y0 = np.array([2.0, 0.0, -1.0]), np.zeros(3)
    T, steps = 2.0, 400
    h = T / steps
    _, pairs = integrate_coupled_ensemble(model, drift, x0[None], y0[None], T, steps,
                                          RngStream(4),
                                          record_times=np.linspace(0.0, T, steps + 1))
    gaps = np.array([np.linalg.norm(px[0] - py[0]) for px, py in pairs])
    expect = np.linalg.norm(x0) * (1.0 - h) ** np.arange(steps + 1)
    assert np.allclose(gaps, expect, rtol=1e-10)


def test_ensemble_record_times_rounding_and_t0():
    model = StableModel(d=1, alpha=2.0)
    drift = DriftSpec.ornstein_uhlenbeck(1)
    X0 = np.zeros((4, 1))
    times, snaps = integrate_ensemble(model, drift, X0, 1.0, 10, RngStream(6),
                                      record_times=[0.0, 0.333, 1.0])
    assert np.allclose(times, [0.0, 0.3, 1.0])
    assert len(snaps) == 3
    assert np.all(snaps[0] == 0.0)


def test_overflow_raises_with_step_index():
    model = StableModel(d=1, alpha=2.0)
    drift = DriftSpec.ornstein_uhlenbeck(1)
    with pytest.raises(IntegrationError) as exc:
        integrate_ensemble(model, drift, np.full((3, 1), 5e12), 1.0, 10, RngStream(8))
    assert exc.value.step == 1
    with pytest.raises(IntegrationError) as exc:
        integrate_coupled_ensemble(model, drift, np.full((3, 1), 5e12),
                                   np.zeros((3, 1)), 1.0, 10, RngStream(8))
    assert exc.value.step == 1
    # the step index counts from the start of the run, burn-in included
    # (5 burn-in steps here, and every chain survives them)
    wild = StableModel(d=1, alpha=1.5, sigma=1e11 * np.eye(1))
    for seed in range(6):
        with pytest.raises(IntegrationError) as exc:
            ergodic_sample(wild, drift, 0.05, 4000, 0.05, 100, RngStream(seed),
                           n_chains=4)
        assert exc.value.step > 5


@pytest.mark.parametrize("tanh", [False, True])
@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("d", [1, 3])
def test_all_integrators_match_reference_loop(tanh, alpha, d):
    sigma = 0.7 * np.eye(d) + 0.2 * np.tri(d, k=-1)
    model = StableModel(d=d, alpha=alpha, sigma=sigma)
    drift = DriftSpec.dissipative_tanh(d) if tanh else DriftSpec.ornstein_uhlenbeck(d)
    gen = lambda: RngStream(16, d).generator()  # noqa: E731
    T, n_steps, h = 1.0, 20, 0.05
    X0 = np.linspace(-2.0, 2.0, 5 * d).reshape(5, d)
    Y0 = -0.5 * X0
    ref_x = reference_euler(model, drift, X0, h, n_steps, gen())
    ref_y = reference_euler(model, drift, Y0, h, n_steps, gen())

    # snapshots at the nearest grid step, in step order, duplicates kept
    record = [0.0, 0.33, 0.5, 0.5, 1.0]
    steps = [0, 7, 10, 10, 20]
    times, snaps = integrate_ensemble(model, drift, X0, T, n_steps, gen(),
                                      record_times=record)
    assert times == [k * h for k in steps]
    assert all(np.array_equal(s, ref_x[k]) for s, k in zip(snaps, steps))
    times, pairs = integrate_coupled_ensemble(model, drift, X0, Y0, T, n_steps,
                                              gen(), record_times=record)
    assert times == [k * h for k in steps]
    for (sx, sy), k in zip(pairs, steps):
        assert np.array_equal(sx, ref_x[k]) and np.array_equal(sy, ref_y[k])

    # 5 burn-in steps, then one state per chain every 3 steps, 3 rounds
    m = ergodic_sample(model, drift, 0.05, 10, 0.03, 100, gen(), n_chains=4)
    ref = reference_euler(model, drift, np.zeros((4, d)), 0.01, 14, gen())
    assert np.array_equal(m.points, ref[[8, 11, 14]].reshape(-1, d)[:10])


def test_ergodic_sample_brownian_stationary_moments():
    # OU with Brownian noise: stationary law N(0, 1/2)
    model = StableModel(d=1, alpha=2.0)
    drift = DriftSpec.ornstein_uhlenbeck(1)
    m = ergodic_sample(model, drift, 10.0, 20_000, 1.0, 500, RngStream(12))
    x = m.points[:, 0]
    assert m.n == 20_000
    assert z_score(x, 0.0) < 4.0
    assert abs(x.var() - 0.5) < 0.02
    assert abs(np.mean(np.abs(x)) - math.sqrt(1.0 / math.pi)) < 0.01


def test_ergodic_sample_respects_counts_and_validation():
    model = StableModel(d=2, alpha=1.8)
    drift = DriftSpec.ornstein_uhlenbeck(2)
    m = ergodic_sample(model, drift, 2.0, 300, 0.5, 100, RngStream(13), n_chains=128)
    assert m.points.shape == (300, 2)
    with pytest.raises(ValueError):
        ergodic_sample(model, drift, 0.0, 10, 1.0, 100, RngStream(13))
    with pytest.raises(ValueError):
        ergodic_sample(model, drift, 1.0, 0, 1.0, 100, RngStream(13))


def test_step_halving_self_consistency_tanh():
    # no closed form for the nonlinear drift: endpoint mean norms at h and
    # h/2 must agree within Monte Carlo error plus an O(h) allowance
    model = StableModel(d=1, alpha=1.8)
    drift = DriftSpec.dissipative_tanh(1, 0.5)
    n = 30_000
    X0 = np.full((n, 1), 1.0)
    _, coarse = integrate_ensemble(model, drift, X0, 2.0, 400, RngStream(14))
    _, fine = integrate_ensemble(model, drift, X0, 2.0, 800, RngStream(15))
    a = np.abs(coarse[-1][:, 0])
    b = np.abs(fine[-1][:, 0])
    se = math.hypot(a.std(ddof=1) / math.sqrt(n), b.std(ddof=1) / math.sqrt(n))
    assert abs(a.mean() - b.mean()) < 4.0 * se + 0.01
