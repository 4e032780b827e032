"""Closed-form special-function values against arbitrary-precision recomputation.

Every identity is recomputed from its raw definition with mpmath at 50 digits;
the package's log-space float implementations must agree to ~1e-10 relative,
including dimensions up to 200 where naive gamma evaluation overflows.
"""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablegap import (
    DomainError,
    crate_bound_fit,
    log_gamma,
    mean_norm_prefactor,
    phi,
    ratio_minus_one,
    sphere_surface,
    stable_intensity_constant,
    stable_mean_norm,
    subordinator_neg_moment,
)

mp.mp.dps = 50

D_GRID = [1, 2, 3, 5, 10, 50, 200]
ALPHA_GRID = [1.1, 1.5, 1.8, 1.9, 1.99, 1.9999]


def mp_sphere_surface(d):
    return 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)


def mp_intensity(d, a):
    a = mp.mpf(a)
    return (a * mp.gamma((d + a) / 2)
            / (2 ** (2 - a) * mp.pi ** (mp.mpf(d) / 2) * mp.gamma(1 - a / 2)))


def rel_err(x, y):
    return abs(float(x) - float(y)) / abs(float(y))


@pytest.mark.parametrize("d", D_GRID)
def test_sphere_surface_against_mpmath(d):
    assert rel_err(sphere_surface(d), mp_sphere_surface(d)) < 1e-12


def test_sphere_surface_spot_values():
    assert sphere_surface(1) == pytest.approx(2.0, rel=1e-14)  # two points
    assert sphere_surface(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_surface(3) == pytest.approx(4 * math.pi, rel=1e-14)


@pytest.mark.parametrize("d", D_GRID)
@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_intensity_constant_against_mpmath(d, alpha):
    assert rel_err(stable_intensity_constant(d, alpha), mp_intensity(d, alpha)) < 1e-10


@pytest.mark.parametrize("d", D_GRID)
@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_ratio_matches_raw_composition(d, alpha):
    # the pole-free rewriting must equal A(d,a) * omega / (d (2-a)) - 1,
    # evaluated at high precision where the raw form is safe
    raw = mp_intensity(d, alpha) * mp_sphere_surface(d) / (d * (2 - mp.mpf(alpha))) - 1
    got = ratio_minus_one(d, alpha)
    assert abs(got - float(raw)) < 1e-10 * max(1.0, abs(float(raw)))


def test_ratio_spot_value_d1_alpha1():
    # A(1,1) omega_0 / (1*(2-1)) = 1/pi: the Cauchy-process intensity check
    assert ratio_minus_one(1, 1.0) == pytest.approx(1.0 / math.pi - 1.0, rel=1e-14)


def test_ratio_vanishes_at_alpha_2():
    for d in D_GRID:
        assert abs(ratio_minus_one(d, 2.0)) < 1e-13


def test_ratio_tends_to_one_monotonically():
    # |ratio - 1| decreasing as alpha walks the last decades toward 2
    for d in (1, 3, 20):
        vals = [abs(ratio_minus_one(d, 2.0 - 10.0 ** -k)) for k in range(1, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_crate_bound_fit_covers_wide_envelope():
    # constant fitted on d <= 20 must hold out to d = 200 (the scaled ratio
    # peaks at d = 1 and decreases in d, so the fit region contains the sup)
    C = crate_bound_fit(range(1, 21), [1.5, 1.7, 1.9, 1.99, 1.9999])
    assert C > 0
    for d in [1, 5, 30, 90, 200]:
        for a in [1.5, 1.75, 1.95, 1.999, 1.9999]:
            assert abs(ratio_minus_one(d, a)) <= C * math.log1p(d) * (2 - a) * (1 + 1e-9)


def test_crate_bound_fit_rejects_empty():
    with pytest.raises(ValueError):
        crate_bound_fit([], [1.5])
    with pytest.raises(ValueError):
        crate_bound_fit([1], [])


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 1.99])
def test_neg_moments_against_mpmath(alpha):
    a = mp.mpf(alpha)
    half = mp.sqrt(2 / mp.pi) * mp.gamma(1 + 1 / a) * 2 ** (1 / a)
    one = mp.gamma(1 + 2 / a) * 2 ** (2 / a) / 2
    assert rel_err(subordinator_neg_moment(1.0, alpha, "half"), half) < 1e-12
    assert rel_err(subordinator_neg_moment(1.0, alpha, "one"), one) < 1e-12
    # t-scaling exponents
    assert subordinator_neg_moment(2.0, alpha, "half") == pytest.approx(
        float(half) * 2.0 ** (-1.0 / alpha), rel=1e-12)
    assert subordinator_neg_moment(2.0, alpha, "one") == pytest.approx(
        float(one) * 2.0 ** (-2.0 / alpha), rel=1e-12)


def test_neg_moments_alpha2_exact_and_continuous():
    # degenerate case S_t = t: exact machine-precision equalities
    for t in (0.25, 1.0, 3.0):
        assert subordinator_neg_moment(t, 2.0, "half") == t ** -0.5
        assert subordinator_neg_moment(t, 2.0, "one") == 1.0 / t
    # and the general formula is continuous into that endpoint
    for power in ("half", "one"):
        near = subordinator_neg_moment(1.0, 2.0 - 1e-9, power)
        assert near == pytest.approx(subordinator_neg_moment(1.0, 2.0, power), rel=1e-7)


def test_neg_moment_rejects_bad_inputs():
    with pytest.raises(DomainError):
        subordinator_neg_moment(0.0, 1.5, "half")
    with pytest.raises(DomainError):
        subordinator_neg_moment(1.0, 2.5, "half")
    with pytest.raises(ValueError):
        subordinator_neg_moment(1.0, 1.5, "third")


@pytest.mark.parametrize("d", D_GRID)
def test_mean_norm_prefactor_against_mpmath(d):
    ref = 2 * mp.gamma((mp.mpf(d) + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d) / 2))
    assert rel_err(mean_norm_prefactor(d), ref) < 1e-12


def test_mean_norm_prefactor_sqrt_growth():
    # Gamma((d+1)/2)/Gamma(d/2) ~ sqrt(d/2), so prefactor / sqrt(d) -> sqrt(2/pi)
    limit = math.sqrt(2.0 / math.pi)
    assert mean_norm_prefactor(200) / math.sqrt(200) == pytest.approx(limit, rel=5e-3)
    assert mean_norm_prefactor(2000) / math.sqrt(2000) == pytest.approx(limit, rel=5e-4)


@pytest.mark.parametrize("d", [1, 2, 3, 10, 200])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 2.0])
def test_stable_mean_norm_against_mpmath(d, alpha):
    a = mp.mpf(alpha)
    pref = 2 * mp.gamma((mp.mpf(d) + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d) / 2))
    ref = pref * 2 ** (-1 / a) * mp.gamma(1 - 1 / a)
    assert rel_err(stable_mean_norm(d, alpha), ref) < 1e-10


def test_gaussian_mean_norm_spot_values():
    # E|B_1| (alpha = 2) in d=1 is sqrt(2/pi); in d=3 it is 2 sqrt(2/pi)
    assert stable_mean_norm(1, 2.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
    assert stable_mean_norm(3, 2.0) == pytest.approx(2 * math.sqrt(2 / math.pi), rel=1e-14)


def test_phi_spot_value_and_monotone_gap():
    assert phi(2.0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)
    ref = float(mp.mpf(3) ** (mp.mpf(-2) / 3) * mp.gamma(mp.mpf(1) / 3))
    assert phi(1.5) == pytest.approx(ref, rel=1e-12)  # (2x)^(-1/x)Gamma(1-1/x) at 1.5
    # |phi(a) - phi(2)| shrinks as alpha -> 2
    gaps = [abs(phi(2.0 - u) - phi(2.0)) for u in (0.2, 0.1, 0.05, 0.01)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_phi_gap_two_sided_rate():
    # |phi(a)-phi(2)| / (2-a) stays in a fixed positive window: the exact
    # source of the (2-alpha) lower-bound rate
    ratios = [abs(phi(a) - phi(2.0)) / (2.0 - a) for a in np.linspace(1.5, 1.9999, 40)]
    assert 0.2 < min(ratios) and max(ratios) < 1.0


def test_log_gamma_matches_lgamma_and_rejects_nonpositive():
    for x in (0.5, 1.0, 7.3, 171.6):
        assert log_gamma(x) == math.lgamma(x)
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        stable_intensity_constant(0, 1.5)
    with pytest.raises(DomainError):
        stable_intensity_constant(3, 2.0)  # pole of Gamma(1 - alpha/2)
    with pytest.raises(DomainError):
        sphere_surface(0)
    with pytest.raises(DomainError):
        stable_mean_norm(2, 1.0)  # infinite mean at alpha = 1
    with pytest.raises(DomainError):
        phi(1.0)


@given(d=st.integers(min_value=1, max_value=150),
       alpha=st.floats(min_value=1.01, max_value=1.999))
@settings(max_examples=80, deadline=None)
def test_property_positive_and_bounded(d, alpha):
    assert stable_intensity_constant(d, alpha) > 0
    assert sphere_surface(d) > 0
    # measured envelope constant (sup 1.3313 at d=1) plus smoothness slack
    assert abs(ratio_minus_one(d, alpha)) <= 1.4 * math.log1p(d) * (2 - alpha)


@given(alpha=st.floats(min_value=1.01, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_property_mean_norms_and_phi_finite(alpha):
    v = stable_mean_norm(3, alpha)
    assert math.isfinite(v) and v > 0
    p = phi(alpha)
    assert math.isfinite(p) and p > 0
