"""Estimator correctness against brute force and metric identities.

The assignment solver is checked against the exhaustive permutation minimum
on small instances; the 1-d sort formula against the solver; and the two
lower-bound proxies against their defining inequalities.  The mean-norm and
sliced proxies are deliberately NOT checked against each other: in d >= 2
neither dominates.  Radial is checked against both ends of its own chain,
mean-norm <= radial <= assignment.
"""
import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from stablegap import (
    ASSIGNMENT_CAP,
    CapacityError,
    EmpiricalMeasure,
    RngStream,
    W1Estimate,
    bootstrap_stderr,
    joint_bootstrap,
    w1_assignment,
    w1_estimate,
    w1_exact_1d,
    w1_mean_norm_lower,
    w1_radial,
    w1_sliced,
)
from stablegap.config import ESTIMATORS
from stablegap.wasserstein import _NORM_ROWS, _norms, _resample_sorted

# every method tag: each CLI estimator's tag, plus exact_1d
TAGS = sorted(set(ESTIMATORS.values()) | {"exact_1d"})


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
    with pytest.raises(ValueError, match="length mismatch"):
        w1_exact_1d(np.zeros(3), np.zeros(4))
    # its bootstrap refuses the same pair
    with pytest.raises(ValueError, match="length mismatch"):
        bootstrap_stderr(np.zeros(3), np.zeros(4), "exact_1d", n_resamples=4)


def test_exact_1d_takes_clouds_and_refuses_higher_dimensions():
    # a d = 2 pair is neither flattened into 2n scalars by the estimate nor
    # cut to its first coordinate by the bootstrap: both refuse it
    gen = RngStream(53).generator()
    X, Y = gen.standard_normal((200, 2)), gen.standard_normal((200, 2)) + 0.5
    a, b = X[:, :1], Y[:, :1]
    as_clouds = w1_exact_1d(EmpiricalMeasure(points=a), EmpiricalMeasure(points=b))
    assert as_clouds.value == w1_exact_1d(a[:, 0], b[:, 0]).value
    with pytest.raises(ValueError, match="d = 1"):
        w1_exact_1d(X, Y)
    with pytest.raises(ValueError, match="d = 1"):
        bootstrap_stderr(X, Y, "exact_1d", n_resamples=10, rng=RngStream(54))


def test_lower_bounds_sit_below_exact_value():
    gen = RngStream(25).generator()
    for d in (1, 2, 4):
        X = EmpiricalMeasure(points=gen.standard_normal((128, d)))
        Y = EmpiricalMeasure(points=1.3 * gen.standard_normal((128, d)) + 0.2)
        hi = w1_assignment(X, Y).value
        assert w1_mean_norm_lower(X, Y).value <= hi + 1e-12
        assert w1_sliced(X, Y, n_projections=32, rng=RngStream(26)).value <= hi + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_sits_between_mean_norm_and_assignment(d):
    # on identical clouds: |E|x| - E|y|| <= W1 of the norms (1-d duality)
    # <= W1 of the clouds (the norm is Lip(1))
    gen = RngStream(61).generator()
    for _ in range(10):
        X = gen.standard_normal((96, d))
        Y = 1.3 * gen.standard_normal((96, d)) + 0.2
        lo = w1_mean_norm_lower(X, Y).value
        mid = w1_radial(X, Y).value
        hi = w1_assignment(X, Y).value
        assert lo <= mid + 1e-12 and mid <= hi + 1e-12


def test_radial_is_exact_1d_of_the_norms():
    gen = RngStream(62).generator()
    X, Y = gen.standard_normal((500, 3)), 1.2 * gen.standard_normal((500, 3))
    est = w1_radial(X, Y)
    ref = w1_exact_1d(np.linalg.norm(X, axis=1), np.linalg.norm(Y, axis=1))
    assert (est.method, est.n_used, est.stderr) == ("radial", 500, None)
    assert est.value == ref.value
    # in d = 1 the norms are the absolute values
    x, y = gen.standard_normal(400), gen.standard_normal(400) - 0.5
    assert w1_radial(x, y).value == w1_exact_1d(np.abs(x), np.abs(y)).value
    # a sphere scaled by 2: every radius moves by exactly 1, which is W1
    v = gen.standard_normal((256, 3))
    S = v / np.linalg.norm(v, axis=1, keepdims=True)
    assert w1_radial(S, 2.0 * S).value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12, 20, 33])
def test_norms_equal_linalg_norm_bit_for_bit(d):
    # the chunked norms sum each row as np.linalg.norm does, so the two agree
    # in every bit: on either side of a chunk edge, on Cauchy-scaled rows
    # whose magnitudes span many decades, and on strided views of them
    gen = RngStream(63).generator()
    for n in (_NORM_ROWS - 1, _NORM_ROWS, _NORM_ROWS + 1):
        x = gen.standard_normal((n, d)) * gen.standard_cauchy((n, 1)) ** 3
        for pts in (x, x[::2], x[:, ::-1]):
            assert _norms(pts).tobytes() == np.linalg.norm(pts, axis=1).tobytes()


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
    # and one direction can beat the norm: Y = -X moves no radius
    X = gen.standard_normal((512, 3)) + np.array([1.0, 0.0, 0.0])
    assert w1_radial(X, -X).value == 0.0
    assert w1_sliced(X, -X, n_projections=64, rng=RngStream(28)).value > 1.0


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
    for estimator in TAGS:
        A, B = (X[:, 0], Y[:, 0]) if estimator == "exact_1d" else (X, Y)
        se = bootstrap_stderr(A, B, estimator, n_resamples=50,
                              rng=RngStream(40), n_projections=8)
        assert se > 0 and math.isfinite(se)


@pytest.mark.parametrize("estimator", ["exact_1d", "sliced", "exact_assignment"])
def test_bootstrap_1d_fast_path_matches_index_loop(estimator):
    # on sorted inputs an index into the sorted copy is an index into the
    # input, and the fast path's sorted indices pick the same values in
    # order, so it must equal the plain loop bit for bit
    n, R = 1000, 50
    gen = RngStream(41).generator()
    x = np.sort(gen.standard_normal(n))
    y = np.sort(gen.standard_normal(n) + 0.2)
    se = bootstrap_stderr(x, y, estimator, n_resamples=R, rng=RngStream(42))
    g2 = RngStream(42).generator()
    ref = [w1_exact_1d(x[g2.integers(0, n, n)], y[g2.integers(0, n, n)]).value
           for _ in range(R)]
    assert se == np.std(ref, ddof=1)


@pytest.mark.parametrize("n", [4096, 500_000])
def test_bootstrap_equals_an_int64_sort_and_take_reference(n):
    # the resampler sorts its indices as int32; sorting them as drawn, as
    # int64, and taking the sorted values at them must give the same
    # standard error in every bit
    R = 5
    gen = RngStream(64).generator()
    x, y = gen.standard_normal(n), 1.2 * gen.standard_normal(n) + 0.1
    se = bootstrap_stderr(x, y, "exact_1d", n_resamples=R, rng=RngStream(65))
    sx, sy = np.sort(x), np.sort(y)
    g2 = RngStream(65).generator()
    ref = []
    for _ in range(R):
        ix, iy = np.sort(g2.integers(0, n, n)), np.sort(g2.integers(0, n, n))
        ref.append(np.abs(sx[ix] - sy[iy]).mean())
    assert se == np.std(ref, ddof=1)


@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_resample_sorted_equals_count_and_repeat(n):
    # the oracle is the count-and-repeat rule: repeat each sorted value by
    # how often its index was drawn.  Ties among the values must not matter.
    gen = RngStream(50).generator()
    s = np.sort(np.round(gen.standard_normal(n)))
    g_new, g_old = RngStream(51).generator(), RngStream(51).generator()
    out = np.empty(n)
    for _ in range(5):
        got = _resample_sorted(s, g_new, out)
        want = np.repeat(s, np.bincount(g_old.integers(0, n, n), minlength=n))
        assert got is out
        assert got.tobytes() == want.tobytes()
    assert g_new.integers(0, 2**62) == g_old.integers(0, 2**62)


def test_bootstrap_of_a_single_point_pair_is_exactly_zero():
    # n = 1: every resample is the pair itself
    assert bootstrap_stderr([0.5], [2.0], "exact_1d", n_resamples=10,
                            rng=RngStream(52)) == 0.0


def test_concurrent_1d_bootstraps_equal_serial_ones():
    # parallel_map runs bootstraps on two threads; each call owns its buffers,
    # so running two at once must not change a single bit
    gen = RngStream(53).generator()
    pairs = [(gen.standard_normal(20_000), gen.standard_normal(20_000) + 0.1),
             (gen.standard_normal(30_000), 1.1 * gen.standard_normal(30_000))]

    def se(i):
        x, y = pairs[i]
        return bootstrap_stderr(x, y, "exact_1d", n_resamples=40, rng=RngStream(60 + i))

    serial = [se(i) for i in range(2)]
    with ThreadPoolExecutor(2) as pool:
        for _ in range(3):
            assert list(pool.map(se, range(2), timeout=60)) == serial


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


def test_bootstrap_radial_matches_norm_loop():
    # radial resamples the norms through the d = 1 sorted path.  With the
    # rows ordered by norm, an index into the sorted norms is an index into
    # the norms, so it must equal the plain loop over the norms bit for bit,
    # drawing the X indices, then the Y indices
    n, R = 300, 60
    gen = RngStream(46).generator()
    X, Y = gen.standard_normal((n, 3)), 1.2 * gen.standard_normal((n, 3))
    X, Y = (C[np.argsort(np.linalg.norm(C, axis=1))] for C in (X, Y))
    nx, ny = np.linalg.norm(X, axis=1), np.linalg.norm(Y, axis=1)
    se = bootstrap_stderr(X, Y, "radial", n_resamples=R, rng=RngStream(47))
    g2 = RngStream(47).generator()
    ref = []
    for _ in range(R):
        ix = g2.integers(0, n, n)
        iy = g2.integers(0, n, n)
        ref.append(w1_exact_1d(nx[ix], ny[iy]).value)
    assert se == np.std(ref, ddof=1)


def _plain_sliced(x, y, k, gen):
    v = gen.standard_normal((k, x.shape[1]))
    dirs = v / np.linalg.norm(v, axis=1, keepdims=True)
    return max(np.abs(np.sort(x @ t) - np.sort(y @ t)).mean() for t in dirs)


def _plain_assignment(x, y, k, gen):
    cost = cdist(x, y)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].mean()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("estimator, plain", [("sliced", _plain_sliced),
                                              ("exact_assignment", _plain_assignment)])
def test_bootstrap_general_loop_matches_plain_loop(estimator, plain, d):
    # in d >= 2 each resample draws the X indices, then the Y indices, then
    # (sliced only) the directions, all from the one bootstrap generator
    n, R, k = 60, 25, 7
    gen = RngStream(48).generator()
    X, Y = gen.standard_normal((n, d)), 1.3 * gen.standard_normal((n, d)) + 0.2
    se = bootstrap_stderr(X, Y, estimator, n_resamples=R, rng=RngStream(49),
                          n_projections=k)
    g2 = RngStream(49).generator()
    ref = []
    for _ in range(R):
        ix = g2.integers(0, n, n)
        iy = g2.integers(0, n, n)
        ref.append(plain(X[ix], Y[iy], k, g2))
    assert se == np.std(ref, ddof=1)


def _one_row(X, Y):
    def rows(ix, iy):
        yield X[ix], Y[iy]
    return rows


@pytest.mark.parametrize("d, estimator, image", [
    (1, "sliced", False), (1, "sliced", True), (2, "sliced", False), (2, "radial", False)])
def test_one_row_joint_bootstrap_is_bootstrap_stderr(d, estimator, image):
    # one row: the joint bootstrap draws the X indices, then the Y indices,
    # then (sliced, d >= 2) the directions, as bootstrap_stderr does.  The
    # d = 1 path of bootstrap_stderr indexes the sorted values, the joint
    # bootstrap the members, so the members come in the order of their 1-d
    # values (radial: of their norms); a nondecreasing affine image of
    # sorted members is sorted too, and its resamples are taken in order
    n, R = 300, 30
    gen = RngStream(80).generator()
    X, Y = gen.standard_normal((n, d)) + 0.3, 1.2 * gen.standard_normal((n, d))
    if d == 1 or estimator == "radial":
        X, Y = (C[np.argsort(_norms(C) if estimator == "radial" else C[:, 0])] for C in (X, Y))
    if image:
        X, Y = 0.7 * X + 4.0, 0.9 * Y
    reps = joint_bootstrap(_one_row(X, Y), n, d, estimator, R, RngStream(81),
                           n_projections=8)
    assert reps.shape == (1, R)
    assert reps[0].std(ddof=1) == bootstrap_stderr(X, Y, estimator, R, RngStream(81),
                                                   n_projections=8)


@pytest.mark.parametrize("d", [1, 2])
def test_joint_bootstrap_resamples_the_members_of_every_row_at_once(d):
    # rows made from one member set, like the snapshots of one ensemble:
    # each resample draws the X and the Y members once, and every row is
    # recomputed on those members (the plain loop below).  A repeated row
    # has the same replicates; no row's order is assumed
    n, R, k = 200, 12, 5
    gen = RngStream(82).generator()
    X = gen.standard_normal((n, d))
    Y = 1.3 * gen.standard_normal((n, d))
    snaps = [(X + 2.0, Y), (np.tanh(X), Y ** 3), (np.tanh(X), Y ** 3), (X * X, -Y)]

    def rows(ix, iy):
        for A, B in snaps:
            yield A[ix], B[iy]

    reps = joint_bootstrap(rows, n, d, "sliced", R, RngStream(83), n_projections=k)
    g2 = RngStream(83).generator()
    ref = []
    for _ in range(R):
        ix, iy = g2.integers(0, n, n), g2.integers(0, n, n)
        ref.append([w1_sliced(A[ix], B[iy], k, g2).value for A, B in snaps])
    assert np.array_equal(reps, np.transpose(ref))
    if d == 1:
        assert np.array_equal(reps[1], reps[2])


def test_joint_bootstrap_holds_one_row_at_a_time():
    # 40 rows of 2e5 points: holding them all would take 128 MB; the joint
    # bootstrap makes each row from the resampled members when it reaches it
    import tracemalloc

    n, k = 200_000, 40
    gen = RngStream(84).generator()
    X = np.sort(gen.standard_normal((n, 1)), axis=0)
    Y = np.sort(gen.standard_normal((n, 1)), axis=0)

    def rows(ix, iy):
        px, py = X[ix], Y[iy]
        for j in range(k):
            yield (1.0 + j) * px + j, py

    tracemalloc.start()
    try:
        reps = joint_bootstrap(rows, n, 1, "exact_1d", 2, RngStream(85))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps.shape == (k, 2)
    assert peak < 16 * 8 * n, f"peak {peak / 1e6:.1f} MB"


def test_joint_bootstrap_rejects_bad_args():
    rows = _one_row(np.zeros((8, 1)), np.zeros((8, 1)))
    with pytest.raises(ValueError, match="n_resamples"):
        joint_bootstrap(rows, 8, 1, "exact_1d", 1)
    with pytest.raises(ValueError, match="unknown estimator"):
        joint_bootstrap(rows, 8, 1, "nonsense", 4)


@pytest.mark.parametrize("tag", TAGS)
def test_every_tag_refuses_unequal_counts(tag):
    # no estimator subsamples: the estimate and its bootstrap both refuse
    d = 1 if tag == "exact_1d" else 2
    gen = RngStream(50).generator()
    X, Y = gen.standard_normal((100, d)), gen.standard_normal((120, d)) + 0.3
    with pytest.raises(ValueError, match="length mismatch: 100 vs 120"):
        w1_estimate(tag, X, Y, rng=RngStream(51))
    with pytest.raises(ValueError, match="length mismatch: 100 vs 120"):
        bootstrap_stderr(X, Y, tag, n_resamples=20, rng=RngStream(52))


def test_w1_estimate_runs_the_estimator_of_each_tag():
    gen = RngStream(57).generator()
    X, Y = gen.standard_normal((90, 2)), gen.standard_normal((90, 2)) + 0.4
    x, y = X[:, 0], Y[:, 0]
    assert w1_estimate("exact_assignment", X, Y) == w1_assignment(X, Y)
    assert w1_estimate("exact_1d", x, y) == w1_exact_1d(x, y)
    assert w1_estimate("radial", X, Y) == w1_radial(X, Y)
    assert (w1_estimate("sliced", X, Y, n_projections=5, rng=RngStream(58))
            == w1_sliced(X, Y, n_projections=5, rng=RngStream(58)))
    for tag in ("nonsense", "mean_norm_lower"):
        with pytest.raises(ValueError, match="unknown estimator"):
            w1_estimate(tag, X, Y)


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
