"""Closed-form linear-SDE results: the OU law at every time (exact draws and
characteristic function), the exact W1 lower bound with its (2-alpha) rate
window, and the exact d = 1 W1 at every time.
"""
import functools
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
    ou_w1_exact,
    ou_w1_lower_exact,
    stable_mean_norm,
)
from stablegap.ou import _BLOCK_BYTES, _gap_pieces, _radii_and_head
from stablegap.sampling import sample_subordinator_increment
from stablegap.wasserstein import _norms
from conftest import NanInSecondGaussianDraw, z_score

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
# via the sine-kernel (Gil-Pelaez) integral, integrated in |x| out to where
# an analytic stable-tail expansion takes over.  Every entry agrees with
# `ou_w1_exact` to 3.2e-7 relative or better (the u = 0.01 and 0.002 entries,
# 8-digit pins of that independent script, to 1.5e-8).
TRUE_W1_D1 = {
    0.2: 6.385722e-2,
    0.1: 2.813532e-2,
    0.05: 1.327995e-2,
    0.01: 2.5423097e-3,
    0.002: 5.0415132e-4,
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


@pytest.mark.parametrize("alpha", [1.7, 2.0])
@pytest.mark.parametrize("d", [1, 3, 20])
@pytest.mark.parametrize("n_of_rows", [lambda r: r // 2, lambda r: 2 * r, lambda r: 2 * r + 1],
                         ids=["below_one_block", "k_blocks", "k_blocks_plus_1"])
def test_sample_blocks_are_bit_equal_to_the_one_cloud_draw(alpha, d, n_of_rows):
    # the radial draw's head is drawn in row blocks, in the stream order of
    # the one-cloud draw (Kanter's U's, E's, then the Gaussians), straight
    # into the head, so the head is the cloud's first rows bit for bit, and
    # so are its norms; the norms past the head come after, from gammas
    rows = _BLOCK_BYTES // (8 * d)
    n_head = n_of_rows(rows)
    n = n_head + 5
    law = OuLaw(d, alpha)
    norms, head = _radii_and_head(law, n, n_head, RngStream(56, d))
    cloud = ou_stationary_sample(law, n, RngStream(56, d)).points
    assert head.shape == (n_head, d) and norms.shape == (n,)
    assert np.array_equal(head, cloud[:n_head])
    assert np.array_equal(norms[:n_head], _norms(head))
    assert np.isfinite(norms).all() and (norms >= 0).all()


def test_sample_blocks_at_a_finite_time_are_bit_equal_to_the_cloud():
    # a law at a finite time started at the origin is centred there too;
    # one started elsewhere is not isotropic and is refused
    law = OuLaw(3, 1.6, t=0.4)
    n = _BLOCK_BYTES // 24 + 7
    norms, head = _radii_and_head(law, n + 3, n, RngStream(57))
    assert np.array_equal(head, ou_stationary_sample(law, n + 3, RngStream(57)).points[:n])
    assert np.array_equal(norms[:n], _norms(head))
    with pytest.raises(DomainError, match="centred at the origin"):
        _radii_and_head(OuLaw(3, 1.6, t=0.4, x0=[1.0, -2.0, 0.5]), n, n, RngStream(57))
    # at t = inf the start point is forgotten, so the law is centred
    _radii_and_head(OuLaw(3, 1.6, x0=[1.0, -2.0, 0.5]), 10, 10, RngStream(57))
    with pytest.raises(ValueError, match="n_head <= n"):
        _radii_and_head(law, 0, 0, RngStream(57))
    with pytest.raises(ValueError, match="n_head <= n"):
        _radii_and_head(law, 10, 11, RngStream(57))


def test_sample_blocks_refuse_a_non_finite_draw_in_one_block():
    # each head block is checked as EmpiricalMeasure checks a whole cloud
    d = 3
    rows = _BLOCK_BYTES // (8 * d)
    gen = NanInSecondGaussianDraw(np.random.Philox(58))
    with pytest.raises(ValueError, match="finite"):
        _radii_and_head(OuLaw(d, 1.8), 3 * rows, 3 * rows, gen)


@pytest.mark.parametrize("alpha", [1.8, 2.0])
@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_radial_draw_tail_is_chi_squared(d, alpha):
    # past the head a norm is s sqrt(S) |G|, with |G|^2 ~ chi^2_d; the
    # subordinator draws S are the first of the stream, so they can be
    # drawn again and divided out.  The KS test has the power to tell d
    # from d + 1 at this n.
    from scipy.stats import chi2, kstest

    n, n_head = 20_000, 1_000
    law = OuLaw(d, alpha)
    norms, _ = _radii_and_head(law, n, n_head, RngStream(60, d))
    s = sample_subordinator_increment(alpha, 1.0, RngStream(60, d), size=n)
    q = (norms[n_head:] / (law.scale * np.sqrt(s[n_head:]))) ** 2
    assert kstest(q, chi2(d).cdf).pvalue > 1e-3
    assert kstest(q, chi2(d + 1).cdf).pvalue < 1e-6


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


@pytest.mark.parametrize("d, alpha", [(1, 1.6), (3, 1.9), (2, 2.0)])
def test_from_stationary_is_the_time_t_law(d, alpha):
    # the stationary law is s(inf) L_1, so its image e^(-t) x0 + r(t) X_inf
    # is e^(-t) x0 + s(t) L_1: a point at the stationary scale maps to the
    # time-t scale; t = 0 maps every point to x0 and t = inf is the identity
    x0 = np.arange(1.0, d + 1.0)
    pts = np.full((2, d), OuLaw(d, alpha).scale)
    pts[1] *= -3.0
    for t in (0.0, 0.3, 2.5, math.inf):
        law = OuLaw(d, alpha, t, x0)
        shift = math.exp(-t) * x0
        want = np.array([shift + law.scale, shift - 3.0 * law.scale])
        assert law.from_stationary(pts) == pytest.approx(want, rel=1e-14, abs=1e-15)
    assert np.array_equal(OuLaw(d, alpha, 0.0, x0).from_stationary(pts), [x0, x0])
    assert np.array_equal(OuLaw(d, alpha).from_stationary(pts), pts)
    # r(t) >= 0: sorted d = 1 draws stay sorted
    v = np.sort(RngStream(56).generator().standard_normal((50, 1)), axis=0)
    assert np.all(np.diff(OuLaw(1, alpha, 0.7, [5.0]).from_stationary(v)[:, 0]) >= 0)


def test_transient_char_rejects_bad_domain():
    with pytest.raises(DomainError, match="t must be nonnegative"):
        OuLaw(1, 1.5, t=math.nan)
    for x0 in ([math.nan], [math.inf]):
        with pytest.raises(DomainError, match="x0 must be a finite vector"):
            OuLaw(1, 1.5, t=1.0, x0=x0)


# ---------------------------------------------------------------------------
# the exact d = 1 W1 (Gil-Pelaez quadrature with a Bergström tail)

@functools.lru_cache(maxsize=None)
def gap_pieces(alpha, t=math.inf, x_start=0.0):
    return tuple(_gap_pieces(1, alpha, t, x_start))


@pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.9, 1.998, 1.9999])
def test_exact_w1_signed_integral_is_the_lower_bound(alpha):
    # at x_start = 0 the CDF gap D is odd; -2 int_0^inf D = E|X| - E|Y|, the
    # closed form, so the quadrature and the tail series are checked against
    # an expression that shares no code with them
    pieces = gap_pieces(alpha)
    half = pieces[len(pieces) // 2:]
    assert -2.0 * sum(half) == pytest.approx(ou_w1_lower_exact(1, alpha), rel=1e-9)
    # D changes sign once on (0, inf): positive, then negative
    assert len(half) == 2 and half[0] > 0 > half[1]
    assert ou_w1_exact(1, alpha) == sum(abs(p) for p in pieces)


@pytest.mark.parametrize("alpha, w1", [(1.5, 0.26651353), (1.9, 0.028135318),
                                       (1.998, 0.00050415132)])
def test_exact_w1_matches_independent_stationary_values(alpha, w1):
    # values of an independent quadrature script, to 8 significant digits
    assert sum(abs(p) for p in gap_pieces(alpha)) == pytest.approx(w1, rel=1e-7)


def test_exact_w1_at_time_zero_is_the_start_gap():
    # both laws are point masses x_start apart, and alpha = 2 is one law
    # shifted at every time
    for alpha in (1.5, 1.9, 2.0):
        for x in (10.0, -3.5, 0.0, 1e-300):
            assert ou_w1_exact(1, alpha, 0.0, x) == abs(x)
    assert ou_w1_exact(1, 2.0, 1.0, 10.0) == 10.0 * math.exp(-1.0)


def test_exact_w1_tends_to_the_stationary_value():
    stationary = sum(abs(p) for p in gap_pieces(1.9))
    late = sum(abs(p) for p in gap_pieces(1.9, 12.0, 10.0))
    assert abs(late - stationary) <= 1e-6
    # the independent script's value, which it gives to 6 significant digits
    assert late == pytest.approx(0.0281356, abs=5e-8)


@pytest.mark.parametrize("t", [0.25, 1.0, 12.0])
def test_exact_w1_pieces_sum_to_the_mean_gap(t):
    # int D over the line = E Y - E X = -e^(-t) x_start, in closed form;
    # the early curve sits just above the mean gap
    pieces = gap_pieces(1.9, t, 10.0)
    m = 10.0 * math.exp(-t)
    assert sum(pieces) == pytest.approx(-m, abs=1e-12)
    assert m <= sum(abs(p) for p in pieces) <= m + 0.05


def test_exact_w1_domain():
    with pytest.raises(NotImplementedError, match="d = 1 only"):
        ou_w1_exact(2, 1.9)
    for alpha in (1.0, 2.5):
        with pytest.raises(DomainError, match="alpha must lie in"):
            ou_w1_exact(1, alpha)
    with pytest.raises(DomainError, match="t must be nonnegative"):
        ou_w1_exact(1, 1.9, -1.0)
    with pytest.raises(DomainError, match="x_start must be finite"):
        ou_w1_exact(1, 1.9, 1.0, math.inf)
