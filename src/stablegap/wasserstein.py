"""Wasserstein-1 estimation between empirical measures.

Four estimators with different cost/validity tradeoffs:

  w1_exact_1d        exact in d=1 via sorted order statistics, O(n log n)
  w1_assignment      exact in any d via optimal assignment, capped at 4096
  w1_sliced          max of projected 1-d distances: a certified LOWER bound
                     (every unit projection is a Lip(1) map)
  w1_mean_norm_lower |E|x| - E|y||: the norm is Lip(1), so this lower-bounds
                     W1 directly from the dual formulation

Bootstrap resampling provides standard errors for all of them.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import CapacityError
from .rng import as_generator

ASSIGNMENT_CAP = 4096

_METHODS = ("exact_assignment", "exact_1d", "sliced", "mean_norm_lower")


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
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class W1Estimate:
    """A distance value with its method tag and optional statistical error."""

    value: float
    method: str
    n_used: int
    stderr: Optional[float] = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.value < 0:
            raise ValueError("W1 estimates are nonnegative")


def _as_cloud(x) -> EmpiricalMeasure:
    return x if isinstance(x, EmpiricalMeasure) else EmpiricalMeasure(points=x)


def _equalize(X: EmpiricalMeasure, Y: EmpiricalMeasure, rng=None):
    """Exact estimators need equal sample counts; subsample the larger cloud
    (without replacement) and warn, rather than rejecting outright."""
    if X.n == Y.n:
        return X, Y
    warnings.warn(
        f"unequal sample counts ({X.n} vs {Y.n}); subsampling the larger "
        "cloud to match", stacklevel=3,
    )
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    n = min(X.n, Y.n)
    if X.n > n:
        X = EmpiricalMeasure(points=X.points[gen.choice(X.n, size=n, replace=False)])
    else:
        Y = EmpiricalMeasure(points=Y.points[gen.choice(Y.n, size=n, replace=False)])
    return X, Y


def w1_exact_1d(a, b) -> W1Estimate:
    """Exact W1 between two equal-size scalar samples: the mean absolute gap
    between sorted order statistics, which realizes the optimal assignment
    in one dimension."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        raise ValueError("empty input")
    value = float(np.abs(np.sort(a) - np.sort(b)).mean())
    return W1Estimate(value=value, method="exact_1d", n_used=a.size)


def w1_assignment(X, Y, cap: int = ASSIGNMENT_CAP, rng=None) -> W1Estimate:
    """Exact W1 between equal-size uniform clouds: (1/n) times the minimum
    assignment cost under Euclidean distance, any dimension.

    The dense solver is O(n^3)-ish; n above the cap raises CapacityError
    rather than silently burning hours (use w1_sliced beyond the cap).
    """
    X, Y = _as_cloud(X), _as_cloud(Y)
    if X.d != Y.d:
        raise ValueError(f"dimension mismatch: {X.d} vs {Y.d}")
    X, Y = _equalize(X, Y, rng)
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
    X, Y = _as_cloud(X), _as_cloud(Y)
    if X.d != Y.d:
        raise ValueError(f"dimension mismatch: {X.d} vs {Y.d}")
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    X, Y = _equalize(X, Y, rng)
    if X.d == 1:
        value = w1_exact_1d(X.points[:, 0], Y.points[:, 0]).value
        return W1Estimate(value=value, method="sliced", n_used=X.n)
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    dirs = _unit_directions(X.d, n_projections, gen)
    best = 0.0
    for theta in dirs:
        v = w1_exact_1d(X.points @ theta, Y.points @ theta).value
        if v > best:
            best = v
    return W1Estimate(value=best, method="sliced", n_used=X.n)


def w1_mean_norm_lower(X, Y) -> W1Estimate:
    """|mean |x| - mean |y||: the norm is Lip(1), so the gap between mean
    norms lower-bounds W1.  Sample counts may differ.  The standard error
    combines the two mean standard errors in quadrature."""
    X, Y = _as_cloud(X), _as_cloud(Y)
    if X.d != Y.d:
        raise ValueError(f"dimension mismatch: {X.d} vs {Y.d}")
    nx = np.linalg.norm(X.points, axis=1)
    ny = np.linalg.norm(Y.points, axis=1)
    value = float(abs(nx.mean() - ny.mean()))
    se = 0.0
    if X.n > 1:
        se += nx.var(ddof=1) / X.n
    if Y.n > 1:
        se += ny.var(ddof=1) / Y.n
    return W1Estimate(value=value, method="mean_norm_lower",
                      n_used=min(X.n, Y.n), stderr=float(np.sqrt(se)))


def _resample_sorted(sorted_vals: np.ndarray, gen) -> np.ndarray:
    """A bootstrap resample of a sorted scalar sample, returned sorted.

    n iid uniform indices, counted per point, are an exact bootstrap draw;
    repeating the sorted values by their counts gives the resample already
    in order, so it needs no re-sort.  Counting the indices with bincount
    costs a fraction of an equivalent multinomial draw."""
    n = sorted_vals.shape[0]
    return np.repeat(sorted_vals, np.bincount(gen.integers(0, n, n), minlength=n))


def bootstrap_stderr(X, Y, estimator: str, n_resamples: int = 200, rng=None,
                     **kwargs) -> float:
    """Bootstrap standard error of a W1 estimator on a fixed pair of clouds.

    Both clouds are independently resampled with replacement and the chosen
    estimator recomputed per resample; the standard deviation across the
    resamples is returned.  Each resample draws the X indices, then the Y
    indices, from one generator.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")
    X, Y = _as_cloud(X), _as_cloud(Y)
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    vals = np.empty(n_resamples)
    # in one dimension every exact or sliced variant reduces to the sorted
    # order-statistics formula: sort once, then each resample is a counted
    # draw of already-sorted values and one pass over a reused gap buffer
    if estimator in ("exact_1d", "sliced", "exact_assignment") and X.d == 1:
        sx = np.sort(X.points[:, 0])
        sy = np.sort(Y.points[:, 0])
        gap = np.empty_like(sx)
        for i in range(n_resamples):
            np.subtract(_resample_sorted(sx, gen), _resample_sorted(sy, gen), out=gap)
            vals[i] = np.abs(gap, out=gap).mean()
        return float(vals.std(ddof=1))
    if estimator == "mean_norm_lower":
        # the estimator only sees the norms, so resample those directly
        nx = np.linalg.norm(X.points, axis=1)
        ny = np.linalg.norm(Y.points, axis=1)
        for i in range(n_resamples):
            ix = gen.integers(0, X.n, X.n)
            iy = gen.integers(0, Y.n, Y.n)
            vals[i] = abs(nx[ix].mean() - ny[iy].mean())
        return float(vals.std(ddof=1))
    for i in range(n_resamples):
        ix = gen.integers(0, X.n, X.n)
        iy = gen.integers(0, Y.n, Y.n)
        RX = EmpiricalMeasure(points=X.points[ix])
        RY = EmpiricalMeasure(points=Y.points[iy])
        if estimator == "exact_assignment":
            vals[i] = w1_assignment(RX, RY, **kwargs).value
        elif estimator == "sliced":
            vals[i] = w1_sliced(RX, RY, rng=gen, **kwargs).value
        elif estimator == "exact_1d":
            vals[i] = w1_exact_1d(RX.points[:, 0], RY.points[:, 0]).value
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
    return float(vals.std(ddof=1))
