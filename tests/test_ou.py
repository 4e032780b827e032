"""Closed-form linear-SDE results: the OU law at every time (exact draws and
characteristic function), and the exact W1 lower bound with its (2-alpha)
rate window.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from stablegap import (
    DomainError,
    OuLaw,
    RngStream,
    empirical_char_function,
    gammalower_check,
    ou_stationary_sample,
    ou_w1_lower_exact,
    stable_mean_norm,
)
from conftest import z_score

mp.mp.dps = 50


def mp_lower(d, alpha):
    a = mp.mpf(alpha)
    pref = 2 * mp.gamma((mp.mpf(d) + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d) / 2))
    phi_a = (2 * a) ** (-1 / a) * mp.gamma(1 - 1 / a)
    phi_2 = mp.sqrt(mp.pi) / 2
    return pref * abs(phi_a - phi_2)


@pytest.mark.parametrize("d", [1, 3, 50])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 1.95, 1.99, 1.999])
def test_lower_bound_against_mpmath(d, alpha):
    ref = float(mp_lower(d, alpha))
    assert ou_w1_lower_exact(d, alpha) == pytest.approx(ref, rel=1e-10)


def test_lower_bound_vanishes_toward_alpha_2():
    vals = [ou_w1_lower_exact(1, 2.0 - u) for u in (0.2, 0.1, 0.05, 0.01, 0.001)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 3e-4


def test_lower_bound_domain():
    with pytest.raises(DomainError):
        ou_w1_lower_exact(1, 2.0)
    with pytest.raises(DomainError):
        ou_w1_lower_exact(1, 1.0)
    with pytest.raises(DomainError):
        ou_w1_lower_exact(0, 1.5)


# True d=1 distances between the two stationary laws, computed independently
# by numerical inversion of the characteristic functions: the CDF difference
# via the sine-kernel (Gil-Pelaez) integral on an adaptive quadrature grid,
# integrated in |x| out to where an analytic stable-tail expansion takes
# over.  Digits are stable to ~1e-6 relative under grid refinement.
TRUE_W1_D1 = {
    0.2: 6.385722e-2,
    0.1: 2.813532e-2,
    0.05: 1.327995e-2,
    0.01: 2.541348e-3,
    0.002: 5.024296e-4,
}


def test_lower_bound_tightness_window_d1():
    # the closed form tracks the true distance within 9-13% across two
    # decades of u = 2 - alpha: a strong consistency pin for both the bound
    # and the quadrature, and the quantitative sense in which the bound rate
    # is the true rate in d=1
    for u, true_w1 in TRUE_W1_D1.items():
        lower = ou_w1_lower_exact(1, 2.0 - u)
        assert 1.05 * lower < true_w1 < 1.15 * lower


def test_gammalower_window():
    c1, c2 = gammalower_check(np.linspace(1.5, 1.99, 25))
    assert 0.3 < c1 <= c2 < 0.9
    with pytest.raises(ValueError):
        gammalower_check([])
    with pytest.raises(DomainError):
        gammalower_check([2.0])


def test_stationary_law_validation_and_scale():
    # the stationary scale alpha^(-1/alpha) is exact to the bit, which the
    # stationary CSVs rely on
    for alpha in map(float, np.linspace(1.01, 2.0, 500)):
        assert OuLaw(1, alpha).scale == alpha ** (-1.0 / alpha)
    assert OuLaw(2, 2.0).scale == 2 ** -0.5
    # s(t)^alpha = (1 - e^(-alpha t)) / alpha at finite t
    assert OuLaw(2, 1.5, t=0.3).scale ** 1.5 == pytest.approx(
        (1 - math.exp(-0.45)) / 1.5, rel=1e-14)
    assert OuLaw(2, 1.5, t=0.0).scale == 0.0
    law = OuLaw(2, 1.5)
    assert np.array_equal(law.x0, np.zeros(2))
    with pytest.raises(DomainError, match="alpha must lie in"):
        OuLaw(2, 2.5)
    with pytest.raises(DomainError, match="t must be nonnegative"):
        OuLaw(2, 1.5, t=-0.1)
    with pytest.raises(DomainError, match="dimension must be"):
        OuLaw(0, 1.5)
    with pytest.raises(DomainError, match="x0 must be a finite vector of 2 entries"):
        OuLaw(2, 1.5, t=1.0, x0=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ou_stationary_sample(law, 0, RngStream(1))


def test_stationary_stable_mean_norm_consistency():
    # empirical mean norm of the stationary stable law against the
    # closed-form product scale * E|L_1|
    law = OuLaw(1, 1.5)
    m = ou_stationary_sample(law, 400_000, RngStream(51))
    target = law.scale * stable_mean_norm(1, 1.5)
    assert z_score(np.abs(m.points[:, 0]), target) < 3.0


def test_stationary_gaussian_moments():
    law = OuLaw(1, 2.0)
    m = ou_stationary_sample(law, 400_000, RngStream(52))
    x = m.points[:, 0]
    assert z_score(x, 0.0) < 4.0
    assert z_score(x * x, 0.5) < 4.0
    assert z_score(np.abs(x), law.scale * stable_mean_norm(1, 2.0)) < 4.0


def test_stationary_stable_char_function():
    # stationary characteristic function exp(-|xi|^alpha / (2 alpha))
    alpha = 1.7
    law = OuLaw(1, alpha)
    m = ou_stationary_sample(law, 400_000, RngStream(53))
    for xi in (0.5, 1.0, 2.0):
        cf = empirical_char_function(m, xi)
        target = math.exp(-xi ** alpha / (2.0 * alpha))
        assert abs(cf.re - target) / cf.se_re < 4.0


def test_stationary_stable_alpha2_equals_gaussian_draws():
    # the Brownian stationary law is N(0, I/2): its draws are bit-equal to
    # 2^(-1/2) standard normals on the same stream
    for d in (1, 3, 20):
        a = ou_stationary_sample(OuLaw(d, 2.0), 100, RngStream(54, d))
        b = 2 ** -0.5 * RngStream(54, d).generator().standard_normal((100, d))
        assert np.array_equal(a.points, b)


def test_transient_char_limits():
    # t = 0: pure phase at the start point; t large: stationary, x forgotten
    re0, im0 = OuLaw(1, 1.8, t=0.0, x0=[0.7]).char(1.3)
    assert re0 == pytest.approx(math.cos(1.3 * 0.7), rel=1e-14)
    assert im0 == pytest.approx(math.sin(1.3 * 0.7), rel=1e-14)
    re_inf, im_inf = OuLaw(1, 1.8, t=60.0, x0=[0.7]).char(1.3)
    stat = math.exp(-1.3 ** 1.8 / (2 * 1.8))
    assert re_inf == pytest.approx(stat, rel=1e-12)
    assert im_inf == pytest.approx(0.0, abs=1e-12)
    far_x = OuLaw(1, 1.8, t=60.0, x0=[123.0]).char(1.3)
    assert far_x == pytest.approx((re_inf, im_inf), rel=1e-9)
    assert OuLaw(1, 1.8).char(1.3) == (stat, 0.0)


def test_transient_char_against_mpmath():
    for xi, t, x, alpha in [(0.8, 0.3, 2.0, 1.5), (2.0, 1.7, -1.0, 1.9),
                            (0.1, 0.01, 10.0, 1.99)]:
        a = mp.mpf(alpha)
        damp = mp.e ** (-(1 - mp.e ** (-a * t)) * abs(xi) ** a / (2 * a))
        phase = xi * x * mp.e ** (-t)
        re, im = OuLaw(1, alpha, t=t, x0=[x]).char(xi)
        assert re == pytest.approx(float(damp * mp.cos(phase)), rel=1e-12)
        assert im == pytest.approx(float(damp * mp.sin(phase)), rel=1e-12)


def test_transient_char_vector_arguments():
    xi = np.array([0.5, -0.5])
    x = np.array([1.0, 2.0])
    re, im = OuLaw(2, 1.6, t=0.4, x0=x).char(xi)
    norm = math.sqrt(0.5)
    damp = math.exp(-(1 - math.exp(-1.6 * 0.4)) * norm ** 1.6 / 3.2)
    phase = (0.5 * 1.0 - 0.5 * 2.0) * math.exp(-0.4)
    assert re == pytest.approx(damp * math.cos(phase), rel=1e-12)
    assert im == pytest.approx(damp * math.sin(phase), rel=1e-12)


def test_transient_char_matches_exact_construction():
    # the exact draws X_t = e^(-t) x0 + s(t) L_1 realize the transient law,
    # so their empirical characteristic function must match the closed form
    # without any discretization allowance
    law = OuLaw(1, 1.6, t=0.8, x0=[2.0])
    n = 400_000
    samples = ou_stationary_sample(law, n, RngStream(55)).points[:, 0]
    for xi in (0.5, 1.5):
        re_t, im_t = law.char(xi)
        cos, sin = np.cos(xi * samples), np.sin(xi * samples)
        assert abs(cos.mean() - re_t) / (cos.std(ddof=1) / math.sqrt(n)) < 4.0
        assert abs(sin.mean() - im_t) / (sin.std(ddof=1) / math.sqrt(n)) < 4.0


def test_transient_char_rejects_bad_domain():
    with pytest.raises(DomainError, match="t must be nonnegative"):
        OuLaw(1, 1.5, t=math.nan)
    for x0 in ([math.nan], [math.inf]):
        with pytest.raises(DomainError, match="x0 must be a finite vector"):
            OuLaw(1, 1.5, t=1.0, x0=x0)
