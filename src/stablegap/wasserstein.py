"""Wasserstein-1 estimation between empirical measures.

Five estimators with different cost/validity tradeoffs:

  w1_exact_1d        exact in d=1 via sorted order statistics, O(n log n)
  w1_assignment      exact in any d via optimal assignment, capped at 4096
  w1_sliced          max of projected 1-d distances: a certified LOWER bound
                     (every unit projection is a Lip(1) map)
  w1_radial          the 1-d W1 of the norms, O(n log n) in any d: exact for
                     rotationally invariant pairs (every OU pair), a
                     certified LOWER bound otherwise (the norm is Lip(1))
  w1_mean_norm_lower |E|x| - E|y||: the norm is Lip(1), so this lower-bounds
                     W1 directly from the dual formulation; never above
                     w1_radial on the same clouds

`w1_estimate` runs the estimator of a method tag; every tag needs two clouds
of one dimension and one count, and refuses unequal counts.  The CLI's
`--estimator` names map to the tags assignment -> exact_assignment, sliced ->
sliced and radial -> radial; an assignment run above ASSIGNMENT_CAP is
refused when its config is built.  `bootstrap_stderr` is a separate call
giving a standard error for any tag; only w1_mean_norm_lower, which is not a
tag, carries one itself.

The norms of a cloud's points are taken by `_norms`, in row chunks of
_NORM_ROWS: per row it is sqrt(add.reduce(x * x)), the formula of
np.linalg.norm(points, axis=1) and bit-equal to it, without that call's
two full-size temporaries (a copy of the cloud and the squares).  The
radial input rule and the mean-norm gap read it, and so do the dimension
sweep, for the sliced head of an OU cloud and for a simulated cloud, and
the joint bootstrap under radial; `_mean_norm_lower` is the gap from two
norm vectors.

scipy is imported by w1_assignment alone, at its first call, so importing
this module (and stablegap) loads numpy and nothing heavier; only the
assignment estimator and the self-test pay scipy's import time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityError
from .rng import as_generator

ASSIGNMENT_CAP = 4096

# rows per chunk of `_norms` (and values per chunk of `_sorted`'s check): of
# 1024 to 65536 rows, 4096 (655 KB at d = 20) was among the fastest at d = 2
# and d = 20 on a 2-vCPU x86 VM
_NORM_ROWS = 4096

_METHODS = ("exact_assignment", "exact_1d", "sliced", "radial")


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """An n x d point cloud carrying uniform weight 1/n per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must be a nonempty (n, d) array, got {pts.shape}")
        _require_finite(pts)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _require_finite(points: np.ndarray) -> None:
    """The check by which a cloud refuses non-finite points; a sampler that
    streams a cloud in blocks runs it on each block."""
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")


@dataclass(frozen=True)
class W1Estimate:
    """A distance value with its method tag and optional statistical error."""

    value: float
    method: str
    n_used: int
    stderr: Optional[float] = None

    def __post_init__(self):
        if self.method not in _METHODS + ("mean_norm_lower",):
            raise ValueError(f"unknown method {self.method!r}")
        if self.value < 0:
            raise ValueError("W1 estimates are nonnegative")


def _clouds(X, Y):
    """Both inputs as clouds of one dimension."""
    X, Y = (c if isinstance(c, EmpiricalMeasure) else EmpiricalMeasure(points=c)
            for c in (X, Y))
    if X.d != Y.d:
        raise ValueError(f"dimension mismatch: {X.d} vs {Y.d}")
    return X, Y


def _inputs(method: str, X, Y):
    """The input rule of a method tag: two clouds of one dimension and one
    count.  exact_1d needs d = 1, and radial maps each cloud to its norms, a
    d = 1 cloud of the same count."""
    if method not in _METHODS:
        raise ValueError(f"unknown estimator {method!r}; choose from {_METHODS}")
    X, Y = _clouds(X, Y)
    if X.n != Y.n:
        raise ValueError(f"length mismatch: {X.n} vs {Y.n}")
    if method == "exact_1d" and X.d != 1:
        raise ValueError(f"exact_1d needs d = 1, got d = {X.d}; "
                         "use sliced or exact_assignment")
    if method == "radial":
        X, Y = (EmpiricalMeasure(points=_norms(c.points)) for c in (X, Y))
    return X, Y


def w1_estimate(method: str, X, Y, n_projections: int = 64, rng=None) -> W1Estimate:
    """The estimator of a method tag on (X, Y); each estimator applies its
    tag's input rule (`_inputs`).  rng draws the sliced directions.  The
    estimators are looked up by name per call, so a rebinding of them (a
    tracer's wrapper) is seen here."""
    if method == "exact_assignment":
        return w1_assignment(X, Y)
    if method == "sliced":
        return w1_sliced(X, Y, n_projections, rng)
    if method == "exact_1d":
        return w1_exact_1d(X, Y)
    if method == "radial":
        return w1_radial(X, Y)
    raise ValueError(f"unknown estimator {method!r}; choose from {_METHODS}")


def w1_exact_1d(X, Y) -> W1Estimate:
    """Exact W1 between two equal-size one-dimensional samples: the mean
    absolute gap between sorted order statistics, which realizes the optimal
    assignment in one dimension."""
    X, Y = _inputs("exact_1d", X, Y)
    value = float(np.abs(_sorted(X.points[:, 0]) - _sorted(Y.points[:, 0])).mean())
    return W1Estimate(value=value, method="exact_1d", n_used=X.n)


def w1_assignment(X, Y, cap: int = ASSIGNMENT_CAP) -> W1Estimate:
    """Exact W1 between equal-size uniform clouds: (1/n) times the minimum
    assignment cost under Euclidean distance, any dimension.

    The dense solver is O(n^3)-ish; n above the cap raises CapacityError
    rather than silently burning hours (use w1_sliced beyond the cap).
    """
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    X, Y = _inputs("exact_assignment", X, Y)
    if X.n > cap:
        raise CapacityError(
            f"assignment solver capped at n={cap} (got {X.n}); "
            "use w1_sliced for larger clouds"
        )
    C = cdist(X.points, Y.points)
    rows, cols = linear_sum_assignment(C)
    value = float(C[rows, cols].mean())
    return W1Estimate(value=value, method="exact_assignment", n_used=X.n)


def _unit_directions(d: int, k: int, gen) -> np.ndarray:
    v = gen.standard_normal((k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def w1_sliced(X, Y, n_projections: int = 64, rng=None) -> W1Estimate:
    """Max over random unit directions of the exact 1-d distance between
    the projected clouds.

    Each projection x -> <theta, x> is Lip(1), so each projected distance is
    a true lower bound for W1; the max over directions is the tightest of
    them.  In d=1 the only unit directions are +1 and -1 and both give the
    same value, so a single evaluation suffices.
    """
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    X, Y = _inputs("sliced", X, Y)
    if X.d == 1:
        value = w1_exact_1d(X, Y).value
        return W1Estimate(value=value, method="sliced", n_used=X.n)
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    best = max(w1_exact_1d(X.points @ theta, Y.points @ theta).value
               for theta in _unit_directions(X.d, n_projections, gen))
    return W1Estimate(value=best, method="sliced", n_used=X.n)


def w1_radial(X, Y) -> W1Estimate:
    """Exact 1-d W1 between the norms of two equal-size clouds.

    The norm is Lip(1), so this lower-bounds W1 in any dimension.  Between
    rotationally invariant laws it is W1 itself: coupling the two radii
    along one shared uniform direction moves each point by the gap of its
    radii.  Its same-law floor shrinks like n^(-1/2) in every d, where the
    assignment value's shrinks like n^(-1/d)."""
    X, Y = _inputs("radial", X, Y)
    return W1Estimate(value=w1_exact_1d(X, Y).value, method="radial", n_used=X.n)


def _norms(points: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of an (n, d) array, computed
    _NORM_ROWS rows at a time into one reused buffer.  The squares are
    summed along each row by add.reduce, as np.linalg.norm(points, axis=1)
    sums them, so the two are bit-equal on row-major arrays and their
    slices (every cloud sampled here); a column-major array may sum in
    another order.  The dimension sweep takes here the norms of an OU
    cloud's sliced head only, and draws the others from the law of the
    radius (`ou._radii_and_head`)."""
    n = points.shape[0]
    out = np.empty(n)
    buf = np.empty((min(n, _NORM_ROWS), points.shape[1]))
    for i in range(0, n, _NORM_ROWS):
        chunk = points[i:i + _NORM_ROWS]
        sq = np.multiply(chunk, chunk, out=buf[:len(chunk)])
        np.add.reduce(sq, axis=1, out=out[i:i + _NORM_ROWS])
    return np.sqrt(out, out=out)


def w1_mean_norm_lower(X, Y) -> W1Estimate:
    """|mean |x| - mean |y||: the norm is Lip(1), so the gap between mean
    norms lower-bounds W1.  Sample counts may differ.  The standard error
    combines the two mean standard errors in quadrature."""
    X, Y = _clouds(X, Y)
    return _mean_norm_lower(_norms(X.points), _norms(Y.points))


def _mean_norm_lower(nx: np.ndarray, ny: np.ndarray) -> W1Estimate:
    """`w1_mean_norm_lower` from the two clouds' norm vectors."""
    value = float(abs(nx.mean() - ny.mean()))
    se = 0.0
    if nx.size > 1:
        se += nx.var(ddof=1) / nx.size
    if ny.size > 1:
        se += ny.var(ddof=1) / ny.size
    return W1Estimate(value=value, method="mean_norm_lower",
                      n_used=min(nx.size, ny.size), stderr=float(np.sqrt(se)))


def _sorted(values: np.ndarray) -> np.ndarray:
    """The values in ascending order: a sorted copy, or the array itself
    when it is sorted already (a cloud its owner sorted in place).  The
    order is checked _NORM_ROWS values at a time, so the check makes no
    full-size temporary and stops at the first chunk out of order."""
    for i in range(0, values.size - 1, _NORM_ROWS):
        chunk = values[i:i + _NORM_ROWS + 1]
        if (chunk[1:] < chunk[:-1]).any():
            return np.sort(values)
    return values


def _resample_sorted(sorted_vals: np.ndarray, gen, out: np.ndarray) -> np.ndarray:
    """A bootstrap resample of a sorted scalar sample, written sorted into out.

    n iid uniform indices are an exact bootstrap draw.  Sorted in place, they
    pick the sorted values in order, so the resample needs no re-sort: point j
    appears as often as j was drawn, the same values as repeating each sorted
    value by its count.  Sorting and taking release the GIL, so concurrent
    resamples on other threads run alongside.  The drawn indices are in
    range, so mode="clip" changes no value; it spares the temporary copy
    that take's default mode makes of out.  The indices are drawn as int64
    (the stream's own width) and, below 2**31, sorted as int32: the same
    values, sorted faster."""
    n = sorted_vals.shape[0]
    return np.take(sorted_vals, _sorted_indices(gen.integers(0, n, n)), out=out, mode="clip")


def _sorted_indices(idx: np.ndarray) -> np.ndarray:
    """Drawn int64 indices in ascending order, sorted as int32 when they
    fit: the same values, sorted faster."""
    if idx.size < 2**31:
        idx = idx.astype(np.int32)
    idx.sort()
    return idx


def bootstrap_stderr(X, Y, estimator: str, n_resamples: int = 200, rng=None,
                     n_projections: int = 64) -> float:
    """Bootstrap standard error of a W1 estimator on a fixed pair of clouds.

    After the estimator's input rule (applied once), both clouds are
    independently resampled with replacement and the estimator recomputed
    per resample; the standard deviation across the resamples is returned.
    Each resample draws the X indices, then the Y indices, then the sliced
    directions, from one generator.  In d = 1 every tag is the
    order-statistics formula, and radial's input rule has already reduced
    its clouds to their norms, so each cloud is sorted once (not at all if
    it is sorted already) and each resample takes its values at sorted
    indices (`_resample_sorted`), which lets calls on different threads run
    at once.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    X, Y = _inputs(estimator, X, Y)
    vals = np.empty(n_resamples)
    if X.d == 1:
        # the two value buffers belong to this call, not the module, so
        # concurrent calls share no state
        sx = _sorted(X.points[:, 0])
        sy = _sorted(Y.points[:, 0])
        gap = np.empty_like(sx)
        ry = np.empty_like(sy)
        for i in range(n_resamples):
            np.subtract(_resample_sorted(sx, gen, gap), _resample_sorted(sy, gen, ry),
                        out=gap)
            vals[i] = np.abs(gap, out=gap).mean()
    else:
        for i in range(n_resamples):
            ix = gen.integers(0, X.n, X.n)
            iy = gen.integers(0, Y.n, Y.n)
            vals[i] = w1_estimate(estimator, X.points[ix], Y.points[iy],
                                  n_projections, gen).value
    return float(vals.std(ddof=1))


def joint_bootstrap(rows, n: int, d: int, estimator: str, n_resamples: int = 200,
                    rng=None, n_projections: int = 64) -> np.ndarray:
    """Bootstrap replicates of the estimates of several rows whose clouds
    share their members.

    rows(ix, iy) yields, row by row, the two (m, d) clouds of the members ix
    of an X set and iy of a Y set of n members each, member by member:
    every row cloud of rows(ix, iy) is that of rows(all, all) taken at ix
    (or iy), where all = slice(None) gives the rows themselves.  Each
    resample draws the X indices, then the Y indices, once for all rows, as
    bootstrap_stderr does for one pair, and every row is recomputed on those
    members; so the replicates of two rows are as dependent as the rows
    are, and a statistic of several rows (a mean over them) takes its
    standard error from the replicates of that statistic.  Returns a
    (rows, n_resamples) array with contiguous rows.  For one row its
    std(ddof=1) is bootstrap_stderr's on that row's clouds, bit for bit,
    wherever both resample the same points: always in d > 1, and in d = 1
    and under radial when the members come in the order of their values
    (bootstrap_stderr resamples the sorted values there).

    In d = 1 and under radial (on the norms) a row's value is the
    order-statistics formula, and the indices are sorted: a row cloud
    whose values are sorted member by member (a nondecreasing image of
    sorted members) then comes out sorted at every resample, so it is
    checked once, on the rows themselves, and costs O(n) per resample;
    any other row cloud is sorted per resample.  Otherwise each row runs
    its estimator, the sliced directions drawn row after row from the one
    generator.  One row's clouds are held at a time.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")
    if estimator not in _METHODS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {_METHODS}")
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    one_d = d == 1 or estimator == "radial"

    def values(x, y):  # the 1-d values of a row's two clouds
        return (_norms(x), _norms(y)) if estimator == "radial" else (x[:, 0], y[:, 0])

    if one_d:
        everyone = slice(None)
        ordered = [tuple(_sorted(v) is v for v in values(x, y))
                   for x, y in rows(everyone, everyone)]

    vals = []
    for _ in range(n_resamples):
        ix = gen.integers(0, n, n)
        iy = gen.integers(0, n, n)
        if not one_d:
            vals.append([w1_estimate(estimator, x, y, n_projections, gen).value
                         for x, y in rows(ix, iy)])
            continue
        row_vals = []
        for (x, y), (x_sorted, y_sorted) in zip(rows(_sorted_indices(ix), _sorted_indices(iy)),
                                                ordered):
            x, y = values(x, y)
            gap = np.subtract(x if x_sorted else np.sort(x), y if y_sorted else np.sort(y))
            # mean() as the sum over n: the same two operations, bit for bit,
            # without np.mean's Python-level overhead
            row_vals.append(np.abs(gap, out=gap).sum() / n)
        vals.append(row_vals)
    return np.ascontiguousarray(np.array(vals).T)
