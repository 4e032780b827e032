"""Estimator correctness against brute force and metric identities.

The assignment solver is checked against the exhaustive permutation minimum
on small instances; the 1-d sort formula against the solver; and the two
lower-bound proxies against their defining inequalities.  The proxies are
deliberately NOT checked against each other: in d >= 2 neither dominates.
"""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablegap import (
    ASSIGNMENT_CAP,
    CapacityError,
    EmpiricalMeasure,
    RngStream,
    W1Estimate,
    bootstrap_stderr,
    w1_assignment,
    w1_exact_1d,
    w1_mean_norm_lower,
    w1_sliced,
)


def brute_force_w1(X: np.ndarray, Y: np.ndarray) -> float:
    """Exhaustive minimum over all assignments; n! work, n <= 8 only."""
    n = X.shape[0]
    cost = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, cost[range(n), perm].sum())
    return best / n


def test_empirical_measure_coercion_and_validation():
    m = EmpiricalMeasure(points=np.arange(5.0))
    assert m.points.shape == (5, 1) and m.n == 5 and m.d == 1
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=np.empty((0, 2)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=np.ones((2, 2, 2)))


def test_w1_estimate_validation():
    W1Estimate(value=0.5, method="sliced", n_used=10)
    with pytest.raises(ValueError):
        W1Estimate(value=-0.1, method="sliced", n_used=10)
    with pytest.raises(ValueError):
        W1Estimate(value=0.1, method="guesswork", n_used=10)


def test_assignment_equals_brute_force():
    gen = RngStream(21).generator()
    for _ in range(100):
        n = int(gen.integers(1, 8))
        d = int(gen.integers(1, 6))
        X = gen.standard_normal((n, d))
        Y = gen.standard_normal((n, d)) + gen.standard_normal(d)
        est = w1_assignment(X, Y)
        assert est.method == "exact_assignment" and est.n_used == n
        assert abs(est.value - brute_force_w1(X, Y)) <= 1e-12


def test_exact_1d_equals_assignment():
    gen = RngStream(22).generator()
    for _ in range(30):
        n = int(gen.integers(2, 400))
        a = gen.standard_normal(n) * gen.uniform(0.5, 2.0)
        b = gen.standard_normal(n) + gen.uniform(-1.0, 1.0)
        v1 = w1_exact_1d(a, b).value
        v2 = w1_assignment(a[:, None], b[:, None]).value
        assert abs(v1 - v2) <= 1e-12


def test_metric_identities():
    gen = RngStream(23).generator()
    X = gen.standard_normal((64, 3))
    Y = gen.standard_normal((64, 3)) + 0.5
    Z = gen.standard_normal((64, 3)) * 1.5
    dxy = w1_assignment(X, Y).value
    assert w1_assignment(X, X).value <= 1e-12
    assert abs(w1_assignment(Y, X).value - dxy) <= 1e-12
    dxz = w1_assignment(X, Z).value
    dyz = w1_assignment(Y, Z).value
    assert dxz <= dxy + dyz + 1e-9
    # translation cancels in every pairwise distance
    c = np.array([5.0, -3.0, 2.0])
    assert w1_assignment(X + c, Y + c).value == pytest.approx(dxy, rel=1e-9, abs=1e-9)
    # positive homogeneity
    assert w1_assignment(2.5 * X, 2.5 * Y).value == pytest.approx(2.5 * dxy, rel=1e-9)


def test_exact_1d_shift_is_exact():
    x = RngStream(24).generator().standard_normal(1000)
    assert w1_exact_1d(x, x + 0.75).value == pytest.approx(0.75, abs=1e-12)
    assert w1_exact_1d(x, x).value == 0.0


def test_exact_1d_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        w1_exact_1d(np.zeros(3), np.zeros(4))


def test_lower_bounds_sit_below_exact_value():
    gen = RngStream(25).generator()
    for d in (1, 2, 4):
        X = EmpiricalMeasure(points=gen.standard_normal((128, d)))
        Y = EmpiricalMeasure(points=1.3 * gen.standard_normal((128, d)) + 0.2)
        hi = w1_assignment(X, Y).value
        assert w1_mean_norm_lower(X, Y).value <= hi + 1e-12
        assert w1_sliced(X, Y, n_projections=32, rng=RngStream(26)).value <= hi + 1e-12


def test_lower_bounds_not_mutually_ordered_in_higher_d():
    # radial counterexample: Y = 2X on the unit sphere; the norm functional
    # sees the full radial move (gap 1) while every 1-d projection of a d=3
    # sphere is uniform on a segment and moves by only about half that, so
    # mean_norm strictly beats sliced and no ordering between them can hold
    gen = RngStream(27).generator()
    v = gen.standard_normal((512, 3))
    X = v / np.linalg.norm(v, axis=1, keepdims=True)
    Y = 2.0 * X
    lo_norm = w1_mean_norm_lower(X, Y).value
    lo_sliced = w1_sliced(X, Y, n_projections=64, rng=RngStream(28)).value
    assert lo_norm == pytest.approx(1.0, abs=1e-12)
    assert lo_sliced < 0.7 * lo_norm
    # both remain valid lower bounds for the exact distance, which is 1 here
    assert w1_assignment(X, Y).value == pytest.approx(1.0, abs=1e-12)


def test_sliced_d1_single_projection_equals_exact():
    gen = RngStream(29).generator()
    a, b = gen.standard_normal(500), gen.standard_normal(500) * 2.0
    est = w1_sliced(a, b, rng=RngStream(30))
    assert est.value == pytest.approx(w1_exact_1d(a, b).value, rel=1e-12)


def test_sliced_deterministic_given_stream():
    gen = RngStream(31).generator()
    X, Y = gen.standard_normal((200, 4)), gen.standard_normal((200, 4)) + 0.3
    v1 = w1_sliced(X, Y, n_projections=16, rng=RngStream(32)).value
    v2 = w1_sliced(X, Y, n_projections=16, rng=RngStream(32)).value
    assert v1 == v2


def test_mean_norm_allows_unequal_counts():
    gen = RngStream(33).generator()
    X, Y = gen.standard_normal((100, 2)), gen.standard_normal((300, 2)) + 1.0
    est = w1_mean_norm_lower(X, Y)
    expect = abs(np.linalg.norm(X, axis=1).mean() - np.linalg.norm(Y, axis=1).mean())
    assert est.value == pytest.approx(expect, rel=1e-12)
    assert est.stderr is not None and est.stderr > 0


def test_assignment_cap_raises_capacity_error():
    n = ASSIGNMENT_CAP + 1
    X = np.zeros((n, 1))
    with pytest.raises(CapacityError, match="sliced"):
        w1_assignment(X, X)
    with pytest.raises(CapacityError):
        w1_assignment(np.zeros((10, 1)), np.zeros((10, 1)), cap=8)


def test_assignment_subsamples_unequal_counts_with_warning():
    gen = RngStream(34).generator()
    X, Y = gen.standard_normal((50, 2)), gen.standard_normal((80, 2))
    with pytest.warns(UserWarning, match="unequal"):
        est = w1_assignment(X, Y, rng=RngStream(35))
    assert est.n_used == 50


def test_bootstrap_stderr_deterministic_and_shrinking():
    gen = RngStream(36).generator()
    small_x, small_y = gen.standard_normal(256), gen.standard_normal(256) + 0.3
    big_x, big_y = gen.standard_normal(4096), gen.standard_normal(4096) + 0.3
    se1 = bootstrap_stderr(small_x, small_y, "exact_1d", n_resamples=100,
                           rng=RngStream(37))
    se1_again = bootstrap_stderr(small_x, small_y, "exact_1d", n_resamples=100,
                                 rng=RngStream(37))
    se2 = bootstrap_stderr(big_x, big_y, "exact_1d", n_resamples=100,
                           rng=RngStream(38))
    assert se1 == se1_again
    assert 0 < se2 < se1


def test_bootstrap_covers_every_estimator():
    gen = RngStream(39).generator()
    X, Y = gen.standard_normal((128, 2)), gen.standard_normal((128, 2)) + 0.4
    for estimator, kwargs in (("exact_assignment", {}),
                              ("sliced", {"n_projections": 8}),
                              ("mean_norm_lower", {}),
                              ("exact_1d", {})):
        A, B = (X[:, 0], Y[:, 0]) if estimator == "exact_1d" else (X, Y)
        se = bootstrap_stderr(A, B, estimator, n_resamples=50,
                              rng=RngStream(40), **kwargs)
        assert se > 0 and math.isfinite(se)


@pytest.mark.parametrize("estimator", ["exact_1d", "sliced", "exact_assignment"])
def test_bootstrap_1d_fast_path_matches_index_loop(estimator):
    # on sorted inputs an index into the sorted copy is an index into the
    # input, so the counted fast path must equal the plain loop bit for bit
    n, R = 1000, 50
    gen = RngStream(41).generator()
    x = np.sort(gen.standard_normal(n))
    y = np.sort(gen.standard_normal(n) + 0.2)
    se = bootstrap_stderr(x, y, estimator, n_resamples=R, rng=RngStream(42))
    g2 = RngStream(42).generator()
    ref = [w1_exact_1d(x[g2.integers(0, n, n)], y[g2.integers(0, n, n)]).value
           for _ in range(R)]
    assert se == np.std(ref, ddof=1)


def test_bootstrap_1d_fast_path_has_the_index_loop_law():
    # unsorted inputs: the two paths draw different resamples of the same
    # law, so their SEs agree only statistically.  Each SE from R = 400
    # resamples has relative error about 1/sqrt(2 R) = 3.5%, their ratio
    # about 5%; 20% is four of those.
    n, R = 2000, 400
    gen = RngStream(43).generator()
    x = gen.standard_normal(n)
    y = gen.standard_normal(n) + 0.5
    se = bootstrap_stderr(x, y, "exact_1d", n_resamples=R, rng=RngStream(44))
    g2 = RngStream(45).generator()
    ref = [w1_exact_1d(x[g2.integers(0, n, n)], y[g2.integers(0, n, n)]).value
           for _ in range(R)]
    assert se == pytest.approx(np.std(ref, ddof=1), rel=0.2)


def test_bootstrap_mean_norm_matches_cloud_loop():
    # resampling the precomputed norms must give what rebuilding both
    # resampled clouds and rerunning the estimator gives, bit for bit
    gen = RngStream(46).generator()
    X, Y = gen.standard_normal((300, 3)), 1.2 * gen.standard_normal((200, 3))
    R = 60
    se = bootstrap_stderr(X, Y, "mean_norm_lower", n_resamples=R, rng=RngStream(47))
    g2 = RngStream(47).generator()
    ref = []
    for _ in range(R):
        ix = g2.integers(0, 300, 300)
        iy = g2.integers(0, 200, 200)
        ref.append(w1_mean_norm_lower(EmpiricalMeasure(points=X[ix]),
                                      EmpiricalMeasure(points=Y[iy])).value)
    assert se == np.std(ref, ddof=1)


def test_bootstrap_rejects_bad_args():
    x = np.zeros(8)
    with pytest.raises(ValueError):
        bootstrap_stderr(x, x, "exact_1d", n_resamples=1)
    with pytest.raises(ValueError):
        bootstrap_stderr(np.ones((8, 2)), np.ones((8, 2)), "nonsense", n_resamples=4)


@given(shift=st.floats(min_value=-50, max_value=50),
       scale=st.floats(min_value=0.01, max_value=20))
@settings(max_examples=50, deadline=None)
def test_property_exact_1d_affine(shift, scale):
    x = np.linspace(-1.0, 1.0, 33)
    y = np.tanh(x) * 0.3
    base = w1_exact_1d(x, y).value
    shifted = w1_exact_1d(x + shift, y + shift).value
    scaled = w1_exact_1d(scale * x, scale * y).value
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)
