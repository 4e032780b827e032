"""Distributional checks for the subordinator and stable increment samplers.

The only trusted references are transform identities: the subordinator's
Laplace transform, the increment's characteristic function, and the exact
self-similarity scaling between step sizes.  Everything statistical is a
z-test at fixed seeds, with wide-enough gates that a correct sampler passes
with large margin and the corrupted-scale control fails loudly.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stablegap import (
    DomainError,
    EmpiricalMeasure,
    InvariantError,
    RngStream,
    StableModel,
    empirical_char_function,
    sample_stable_increment,
    sample_subordinator_increment,
)
from stablegap.sampling import _KANTER_CHUNK
from conftest import ZeroUniform, z_score

N = 400_000


def test_model_validation():
    with pytest.raises(DomainError):
        StableModel(d=0, alpha=1.5)
    with pytest.raises(DomainError):
        StableModel(d=2, alpha=2.3)
    with pytest.raises(DomainError):
        StableModel(d=2, alpha=0.0)
    with pytest.raises(DomainError):
        StableModel(d=2, alpha=1.5, sigma=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        StableModel(d=2, alpha=1.5, sigma=np.eye(3))
    assert StableModel(d=3, alpha=2.0).is_brownian
    assert not StableModel(d=3, alpha=1.99).is_brownian


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("t,r", [(0.5, 0.5), (1.0, 1.0), (2.0, 0.25)])
def test_subordinator_laplace_transform(alpha, t, r):
    s = sample_subordinator_increment(alpha, t, RngStream(101), size=N)
    target = math.exp(-0.5 * t * (2.0 * r) ** (alpha / 2.0))
    assert z_score(np.exp(-r * s), target) < 4.0


def test_kanter_zero_uniform_is_invariant_error():
    gen = ZeroUniform(np.random.Philox(1))
    with pytest.raises(InvariantError, match="U = 0"):
        sample_subordinator_increment(1.5, 0.1, gen, size=8)


def _kanter_textbook(alpha, dt, u, e):
    beta, b1 = alpha / 2.0, 1.0 - alpha / 2.0
    log_a = (beta * np.log(np.sin(beta * u)) + b1 * np.log(np.sin(b1 * u))
             - np.log(np.sin(u))) / b1
    return np.exp((log_a - np.log(e)) * (b1 / beta)) * (2.0 * (dt / 2.0) ** (2.0 / alpha))


@pytest.mark.parametrize("alpha", [1.5, 1.998])
@pytest.mark.parametrize("n_of_chunk", [lambda c: c - 1, lambda c: c, lambda c: c + 1,
                                        lambda c: 3 * c + 1],
                         ids=["chunk_minus_1", "chunk", "chunk_plus_1", "3_chunks_plus_1"])
def test_chunked_subordinator_is_bit_equal_to_whole_draws(alpha, n_of_chunk):
    # the E's are drawn chunk by chunk after all n U's; the generator fills
    # an array in stream order, so they are the one n-sized draw's, and the
    # in-place evaluation keeps the textbook expression's operations
    n = n_of_chunk(_KANTER_CHUNK)
    gen = RngStream(102, n).generator()
    u, e = gen.uniform(0.0, np.pi, size=n), gen.standard_exponential(size=n)
    s = sample_subordinator_increment(alpha, 0.3, RngStream(102, n), size=n)
    assert np.array_equal(s, _kanter_textbook(alpha, 0.3, u, e))


class ZeroLastUniform(np.random.Generator):
    """A generator whose uniform draws end on the left end point."""

    def uniform(self, *args, **kwargs):
        out = super().uniform(*args, **kwargs)
        out[-1] = 0.0
        return out


def test_chunked_subordinator_refuses_u_zero_in_the_last_chunk():
    with pytest.raises(InvariantError, match="U = 0"):
        sample_subordinator_increment(1.5, 0.1, ZeroLastUniform(np.random.Philox(2)),
                                      size=3 * _KANTER_CHUNK + 1)


def test_subordinator_draw_holds_its_result_and_a_few_chunks():
    # the whole-size evaluation held four n-arrays (U, E and two
    # temporaries): 32 MB at n = 1e6
    tracemalloc.start()
    try:
        sample_subordinator_increment(1.9, 1.0, RngStream(103), size=1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_subordinator_positive_and_heavy_tailed():
    s = sample_subordinator_increment(1.5, 1.0, RngStream(102), size=N)
    assert np.all(s > 0)
    # beta = 0.75 stable has infinite mean: the sample mean should dwarf the
    # median by a factor that a finite-mean law would not produce
    assert s.mean() > 10.0 * np.median(s)


def test_subordinator_self_similarity_across_dt():
    # S_dt equals dt^(2/alpha) S_1 in law; two-sample KS on independent draws
    alpha = 1.7
    a = sample_subordinator_increment(alpha, 0.01, RngStream(103), size=100_000)
    b = sample_subordinator_increment(alpha, 1.0, RngStream(104), size=100_000)
    ks = stats.ks_2samp(a, 0.01 ** (2.0 / alpha) * b)
    assert ks.pvalue > 1e-3


def test_subordinator_alpha2_degenerates_exactly():
    s = sample_subordinator_increment(2.0, 0.37, RngStream(105), size=1000)
    assert np.all(s == 0.37)
    assert sample_subordinator_increment(2.0, 0.37, RngStream(105)) == 0.37


def test_subordinator_scalar_vs_array_contract():
    v = sample_subordinator_increment(1.5, 1.0, RngStream(106))
    assert isinstance(v, float)
    arr = sample_subordinator_increment(1.5, 1.0, RngStream(106), size=3)
    assert arr.shape == (3,)
    # a scalar call consumes exactly the draws of a size-1 call; the angle
    # and exponential variates are drawn in blocks, so prefix equality
    # across different sizes is deliberately not promised
    one = sample_subordinator_increment(1.5, 1.0, RngStream(106), size=1)
    assert one.shape == (1,) and float(one[0]) == v


def test_subordinator_determinism():
    a = sample_subordinator_increment(1.5, 1.0, RngStream(107), size=1000)
    b = sample_subordinator_increment(1.5, 1.0, RngStream(107), size=1000)
    assert np.array_equal(a, b)


def test_corrupted_scale_breaks_laplace_transform():
    # a 15% scale error must blow the z gate by a wide margin, proving the
    # Laplace check has statistical teeth at this n
    s = 1.15 * sample_subordinator_increment(1.5, 1.0, RngStream(108), size=N)
    target = math.exp(-0.5 * 2.0 ** 0.75)
    assert z_score(np.exp(-s), target) > 8.0


def test_subordinator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sample_subordinator_increment(1.5, 0.0, RngStream(1))
    with pytest.raises(DomainError):
        sample_subordinator_increment(2.5, 1.0, RngStream(1))


def test_gaussian_increment_moments_and_zero_dt():
    g = sample_stable_increment(StableModel(d=3, alpha=2.0), 0.25, RngStream(109), size=N)
    assert g.shape == (N, 3)
    assert z_score(g[:, 0], 0.0) < 4.0
    assert z_score(g[:, 1] ** 2, 0.25) < 4.0
    with pytest.raises(ValueError, match="dt must be positive"):
        sample_stable_increment(StableModel(d=2, alpha=2.0), 0.0, RngStream(110), size=5)
    single = sample_stable_increment(StableModel(d=2, alpha=2.0), 1.0, RngStream(111))
    assert single.shape == (2,)
    for alpha in (1.5, 2.0):
        empty = sample_stable_increment(StableModel(d=2, alpha=alpha), 1.0, RngStream(111), size=0)
        assert empty.shape == (0, 2)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("d", [1, 3])
def test_stable_increment_char_function(alpha, d):
    # E exp(i<xi, L_t>) = exp(-t |xi|^alpha / 2), isotropic in xi
    t = 0.7
    model = StableModel(d=d, alpha=alpha)
    inc = sample_stable_increment(model, t, RngStream(112), size=N)
    for xi_norm in (0.5, 1.0, 2.0):
        xi = np.zeros(d)
        xi[-1] = xi_norm
        cf = empirical_char_function(inc, xi)
        target = math.exp(-0.5 * t * xi_norm ** alpha)
        assert abs(cf.re - target) / cf.se_re < 4.0
        assert abs(cf.im) / cf.se_im < 4.0


def test_stable_increment_self_similarity():
    # |L_dt| equals dt^(1/alpha) |L_1| in law
    alpha = 1.5
    model = StableModel(d=2, alpha=alpha)
    a = np.linalg.norm(sample_stable_increment(model, 0.04, RngStream(113), size=100_000), axis=1)
    b = np.linalg.norm(sample_stable_increment(model, 1.0, RngStream(114), size=100_000), axis=1)
    ks = stats.ks_2samp(a, 0.04 ** (1.0 / alpha) * b)
    assert ks.pvalue > 1e-3


def test_stable_increment_sigma_rescales_frequency():
    # with noise sigma L_t the characteristic function is exp(-t|sigma^T xi|^alpha/2)
    sigma = np.array([[2.0, 0.0], [0.0, 1.0]])
    model = StableModel(d=2, alpha=1.6, sigma=sigma)
    inc = sample_stable_increment(model, 1.0, RngStream(115), size=N)
    xi = np.array([1.0, 0.0])
    cf = empirical_char_function(inc, xi)
    target = math.exp(-0.5 * 2.0 ** 1.6)
    assert abs(cf.re - target) / cf.se_re < 4.0


def test_stable_increment_brownian_case_matches_gaussian_sampler():
    model = StableModel(d=2, alpha=2.0)
    a = sample_stable_increment(model, 0.5, RngStream(116), size=100)
    b = np.sqrt(0.5) * RngStream(116).generator().standard_normal((100, 2))
    assert np.array_equal(a, b)


def test_char_function_accepts_measures_and_arrays():
    pts = RngStream(117).generator().standard_normal((1000, 2))
    a = empirical_char_function(pts, [0.3, -0.2])
    b = empirical_char_function(EmpiricalMeasure(points=pts), [0.3, -0.2])
    assert a == b
    with pytest.raises(ValueError):
        empirical_char_function(np.empty((0, 2)), [1.0, 0.0])


def test_char_function_scalar_samples():
    vals = RngStream(118).generator().standard_normal(200_000)
    cf = empirical_char_function(vals, 1.0)
    assert abs(cf.re - math.exp(-0.5)) / cf.se_re < 4.0


@given(alpha=st.floats(min_value=1.01, max_value=1.99),
       dt=st.floats(min_value=1e-4, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_property_subordinator_draws_positive_finite(alpha, dt):
    s = sample_subordinator_increment(alpha, dt, RngStream(119), size=64)
    assert np.all(s > 0) and np.all(np.isfinite(s))
