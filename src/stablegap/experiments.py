"""Batch experiments: rate sweeps, dimension sweeps, transient curves,
contraction decay, gradient boundedness, and the self-test battery.

Every run is determined by an ExperimentConfig (seed included).  Output CSVs
carry the config hash on every row, use 17 significant digits for reals, and
are byte-identical across reruns of the same config.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import ESTIMATORS, EXPERIMENTS, ExperimentConfig, euler_step
from .errors import InvariantError
from .ou import OuLaw, _radii_and_head, gammalower_check, ou_stationary_sample, ou_w1_lower_exact
from .rng import RngStream, worker_count
from .sampling import StableModel, sample_subordinator_increment
from .sde import DriftSpec, ergodic_sample, integrate_coupled_ensemble, integrate_ensemble
from .specfun import crate_bound_fit, ratio_minus_one
from .wasserstein import (
    EmpiricalMeasure,
    _mean_norm_lower,
    _norms,
    bootstrap_stderr,
    joint_bootstrap,
    w1_assignment,
    w1_estimate,
    w1_exact_1d,
    w1_mean_norm_lower,
    w1_sliced,
)

X_TRANSFORMS = ("log_2ma", "log_2ma_loglog", "log_d", "log_dlogd")


def parallel_map(fn, items):
    """Map preserving order; fans out over threads when allowed.

    Results are gathered by index, never by completion order, so the output
    is identical whatever the worker count.
    """
    items = list(items)
    workers = min(worker_count(), len(items)) or 1
    if workers == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def derive_stream(seed: int, *parts) -> RngStream:
    """A named substream: hash the part tuple into a 64-bit stream id.

    Using content-derived ids (rather than positional counters) makes equal
    sampling tasks in different experiments draw identical noise, so e.g. a
    dimension-sweep row at d=1 reproduces the alpha-sweep point exactly when
    n <= 65536 (past that its norms come from the law of the radius).
    """
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return RngStream(seed, int.from_bytes(digest[:8], "little"))


@dataclass(frozen=True)
class RateFit:
    """Unweighted OLS fit of log W1 against a transformed log rate."""

    slope: float
    intercept: float
    r_squared: float
    x_transform: str
    n_points: int

    def __post_init__(self):
        if self.x_transform not in X_TRANSFORMS:
            raise ValueError(f"unknown x_transform {self.x_transform!r}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must lie in [0,1], got {self.r_squared}")
        if self.n_points < 3:
            raise ValueError("rate fits need at least 3 points")


def fit_rate(alphas, w1_values, x_transform: str) -> RateFit:
    """Fit log(W1) against the chosen transform of u = 2 - alpha:

        log_2ma         x = log(u)
        log_2ma_loglog  x = log(u log(1/u))

    Rows with alpha = 2 (u = 0) are excluded; x is undefined there.
    """
    alphas = np.asarray(alphas, dtype=float)
    w1_values = np.asarray(w1_values, dtype=float)
    keep = alphas < 2.0
    u = 2.0 - alphas[keep]
    w = w1_values[keep]
    if u.size < 3:
        raise ValueError("rate fit needs >= 3 grid points below alpha=2")
    if np.any(w <= 0):
        raise InvariantError("nonpositive W1 estimate in rate fit")
    if x_transform == "log_2ma":
        x = np.log(u)
    else:
        x = np.log(u * np.log(1.0 / u))
    return _ols_fit(x, np.log(w), x_transform)


def _ols_fit(x, y, x_transform: str) -> RateFit:
    """Unweighted least-squares line through (x, y), with R^2 clipped to [0,1]."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=max(0.0, min(1.0, r2)), x_transform=x_transform,
                   n_points=int(x.size))


# ---------------------------------------------------------------------------
# CSV persistence

def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def write_csv(path: str, header: Sequence[str], rows, config_hash: str) -> None:
    """Fixed column order, 17 significant digits, config hash on every row;
    a field holding a comma or a quote is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(list(header) + ["config_hash"])
        out.writerows([format_value(v) for v in row] + [config_hash] for row in rows)


def load_results(path: str):
    """Read a results CSV back; refuses ragged rows and mixed config hashes."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        table = [(reader.line_num, r) for r in reader if r]
    if not table:
        raise ValueError(f"{path}: empty results file")
    (_, header), rows = table[0], table[1:]
    if header[-1] != "config_hash":
        raise ValueError(f"{path}: missing config_hash column")
    for line, r in rows:
        if len(r) != len(header):
            raise ValueError(f"{path}: line {line} has {len(r)} fields, the header {len(header)}")
    rows = [r for _, r in rows]
    hashes = {r[-1] for r in rows}
    if len(hashes) > 1:
        raise ValueError(
            f"{path}: rows from {len(hashes)} different configs; refusing to "
            "aggregate mixed-config data"
        )
    return header, rows


def _plot_path(path: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}.plot{ext or '.csv'}"


# ---------------------------------------------------------------------------
# Estimator dispatch

def _estimate_pair(X, Y, cfg: ExperimentConfig, stream: RngStream):
    """One W1 estimate by the configured estimator plus its bootstrap
    standard error.  The bootstrap stream is derived from `stream` so the
    point estimate itself never depends on n_bootstrap."""
    method = ESTIMATORS[cfg.estimator]
    est = w1_estimate(method, X, Y, cfg.n_projections, stream.child(1))
    se = bootstrap_stderr(X, Y, method, n_resamples=cfg.n_bootstrap,
                          rng=stream.child(2), n_projections=cfg.n_projections)
    return est, se


def _stationary_source(noise: str, d: int, alpha: float, n: int, cfg: ExperimentConfig):
    """(index, stream) of one of the two stationary laws: noise "stable"
    (index alpha) or "gauss" (index 2), and the named stream of its n draws."""
    return (alpha if noise == "stable" else 2.0,
            derive_stream(cfg.seed, "stationary", noise, d, alpha, n))


def _stationary_cloud(noise: str, d: int, alpha: float, n: int,
                      cfg: ExperimentConfig) -> EmpiricalMeasure:
    """n draws from one of the two stationary laws (`_stationary_source`),
    as one cloud.

    OU drift: exact draws (`ou_stationary_sample`).  Custom drift: long-run
    simulation (no closed form exists there), burnt in for cfg.burn_in (cfg
    is resolved) at the default Euler step.
    """
    index, stream = _stationary_source(noise, d, alpha, n, cfg)
    if cfg.drift == "ou":
        return ou_stationary_sample(OuLaw(d, index), n, stream)
    drift = cfg.drift_spec(d)
    return ergodic_sample(StableModel(d=d, alpha=index), drift, cfg.burn_in, n, 1.0,
                          round(1.0 / euler_step(drift)), stream)


def _stationary_pair(d: int, alpha: float, n: int, cfg: ExperimentConfig):
    """The stable and the Gaussian stationary clouds at matched sample count."""
    return (_stationary_cloud("stable", d, alpha, n, cfg),
            _stationary_cloud("gauss", d, alpha, n, cfg))


# ---------------------------------------------------------------------------
# alpha sweep

@dataclass(frozen=True)
class AlphaSweepResult:
    alphas: np.ndarray
    w1: np.ndarray
    stderr: np.ndarray
    fit_log_2ma: RateFit
    fit_log_2ma_loglog: RateFit
    config_hash: str


def run_alpha_sweep(cfg: ExperimentConfig) -> AlphaSweepResult:
    """W1 between the two stationary laws along the alpha grid, with both
    log-log rate fits.

    Writes two CSVs when output_path is set: the per-alpha table, and a
    plot-ready companion with the transformed x columns and fitted lines.
    """
    cfg = cfg.resolved()
    d, n = cfg.d_grid[0], cfg.n_samples

    def one(alpha: float):
        X, Y = _stationary_pair(d, alpha, n, cfg)
        if d == 1 and cfg.estimator != "assignment":
            # the d = 1 estimators and their bootstrap read each cloud's
            # values in sorted order only; sorted in place, once, a cloud is
            # neither copied nor sorted again
            for cloud in (X, Y):
                cloud.points.sort(axis=0)
        stream = derive_stream(cfg.seed, "alpha_sweep", d, alpha, n)
        est, se = _estimate_pair(X, Y, cfg, stream)
        return est.value, se

    results = parallel_map(one, cfg.alpha_grid)
    w1 = np.array([r[0] for r in results])
    stderr = np.array([r[1] for r in results])
    alphas = np.array(cfg.alpha_grid)
    fit1 = fit_rate(alphas, w1, "log_2ma")
    fit2 = fit_rate(alphas, w1, "log_2ma_loglog")
    chash = cfg.config_hash()
    if cfg.output_path:
        rows = [(a, d, n, cfg.estimator, v, s)
                for a, v, s in zip(alphas, w1, stderr)]
        write_csv(cfg.output_path, ["alpha", "d", "n_samples", "estimator", "w1", "stderr"],
                  rows, chash)
        _write_sweep_plot(cfg.output_path, alphas, w1, fit1, fit2, chash)
    return AlphaSweepResult(alphas=alphas, w1=w1, stderr=stderr,
                            fit_log_2ma=fit1, fit_log_2ma_loglog=fit2,
                            config_hash=chash)


def _write_sweep_plot(path: str, alphas, w1, fit1: RateFit, fit2: RateFit, chash: str):
    rows = []
    for a, v in zip(alphas, w1):
        if a >= 2.0:
            continue
        u = 2.0 - a
        x1 = math.log(u)
        x2 = math.log(u * math.log(1.0 / u))
        rows.append((a, u, x1, x2, math.log(v),
                     fit1.slope * x1 + fit1.intercept,
                     fit2.slope * x2 + fit2.intercept))
    write_csv(_plot_path(path),
              ["alpha", "u", "x_log_2ma", "x_log_2ma_loglog", "log_w1",
               "fit_log_2ma", "fit_log_2ma_loglog"], rows, chash)


# ---------------------------------------------------------------------------
# dimension sweep

@dataclass(frozen=True)
class DimSweepResult:
    dims: np.ndarray
    lower_exact: np.ndarray
    mean_norm: np.ndarray
    mean_norm_se: np.ndarray
    sliced: np.ndarray
    radial: np.ndarray
    fit_vs_d: RateFit
    fit_vs_dlogd: RateFit
    note: str
    config_hash: str


_DIM_NOTE = (
    "The exact lower bound grows like the mean-norm prefactor, i.e. ~sqrt(2d); "
    "the d*log(1+d) factor of the upper bound is NOT empirically attained by "
    "this lower bound, and nothing at this scale can decide whether it is tight."
)


def run_dim_sweep(cfg: ExperimentConfig) -> DimSweepResult:
    """Estimators across dimensions at fixed alpha (the mean-norm and sliced
    lower bounds and radial, exact for these isotropic pairs), with growth
    fits of the exact lower bound against d and against d log(1+d).

    Each cloud is reduced to its n norms (which give the mean-norm gap and
    radial) and its first n_sliced rows (which give sliced).  Under the OU
    drift the cloud is never drawn whole: `_radii_and_head` draws the head
    rows, then each norm past them in O(1) from the law of the radius, so a
    cloud costs O(n + n_sliced d).  The head and, up to n_sliced, the norms
    are those of the full OU cloud bit for bit.  Under the custom drift the
    simulated cloud is reduced, then dropped.
    """
    cfg = cfg.resolved()
    alpha, n_mean = cfg.alpha_grid[0], cfg.n_samples
    n_sliced = min(n_mean, 65_536)

    def reduced(noise: str, d: int):
        if cfg.drift == "ou":
            index, stream = _stationary_source(noise, d, alpha, n_mean, cfg)
            return _radii_and_head(OuLaw(d, index), n_mean, n_sliced, stream)
        points = _stationary_cloud(noise, d, alpha, n_mean, cfg).points
        return _norms(points), points[:n_sliced].copy()

    def one(d: int):
        lower = ou_w1_lower_exact(d, alpha)
        nx, head_x = reduced("stable", d)
        ny, head_y = reduced("gauss", d)
        mn = _mean_norm_lower(nx, ny)
        sl = w1_sliced(head_x, head_y, n_projections=cfg.n_projections,
                       rng=derive_stream(cfg.seed, "dim_sweep_dirs", d, alpha))
        # radial reads the norms in sorted order only: with the heads
        # dropped and the norms sorted in place (the mean-norm gap has
        # summed them already), it copies nothing
        del head_x, head_y
        nx.sort()
        ny.sort()
        return lower, mn.value, mn.stderr, sl.value, w1_exact_1d(nx, ny).value

    results = parallel_map(one, cfg.d_grid)
    dims = np.array(cfg.d_grid)
    lower = np.array([r[0] for r in results])
    mean_norm = np.array([r[1] for r in results])
    mean_norm_se = np.array([r[2] for r in results])
    sliced = np.array([r[3] for r in results])
    radial = np.array([r[4] for r in results])

    # growth of the exact bound: log(lower) against log d and log(d log(1+d))
    fit_d = _growth_fit(dims, lower, use_log_factor=False)
    fit_dlogd = _growth_fit(dims, lower, use_log_factor=True)
    chash = cfg.config_hash()
    if cfg.output_path:
        rows = [(d, alpha, lo, mnv, mse, sv, rv)
                for d, lo, mnv, mse, sv, rv
                in zip(dims, lower, mean_norm, mean_norm_se, sliced, radial)]
        write_csv(cfg.output_path,
                  ["d", "alpha", "lower_exact", "mean_norm", "mean_norm_se",
                   "sliced", "radial"], rows, chash)
    return DimSweepResult(dims=dims, lower_exact=lower, mean_norm=mean_norm,
                          mean_norm_se=mean_norm_se, sliced=sliced,
                          radial=radial, fit_vs_d=fit_d,
                          fit_vs_dlogd=fit_dlogd, note=_DIM_NOTE,
                          config_hash=chash)


def _growth_fit(dims, values, use_log_factor: bool) -> RateFit:
    d = np.asarray(dims, dtype=float)
    x = np.log(d * np.log1p(d)) if use_log_factor else np.log(d)
    y = np.log(np.asarray(values, dtype=float))
    if x.size < 3:
        raise ValueError("growth fit needs >= 3 dimensions")
    return _ols_fit(x, y, "log_dlogd" if use_log_factor else "log_d")


# ---------------------------------------------------------------------------
# transient curve

@dataclass(frozen=True)
class TransientResult:
    times: np.ndarray
    w1: np.ndarray
    stderr: np.ndarray
    plateau: float
    plateau_se: float
    stationary_w1: float
    stationary_se: float
    decay_rate: Optional[float]
    config_hash: str


_TRANSIENT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.5, 8.0)


def run_transient(cfg: ExperimentConfig) -> TransientResult:
    """W1 between the laws of the two processes along time, started from
    points |x0 - y0| = x_start apart.

    The curve decays like e^{-t} |x0-y0| early on and levels off at the
    stationary gap; the plateau is compared against the stationary estimate
    at the same alpha and sample size, drawn from its own streams.

    Each noise has one set of n members, and every row is made from it.
    OU drift: the members are n exact draws of the stationary law
    OuLaw(d, a), and each row is their affine image OuLaw.from_stationary,
    an exact draw of the time-t law OuLaw(d, alpha, t, x0) or OuLaw(d, 2, t);
    W1 at t reads only the two marginals, so the rows carry the requested
    times, and in d = 1 the members are sorted once, so every row is sorted.
    Custom drift (no closed form): the members are the paths of two Euler
    ensembles, each row a snapshot, carrying the simulated time, the grid
    step nearest the requested one.  One joint bootstrap resamples the
    members of both noises for all rows at once (`joint_bootstrap`): each
    row's stderr is the SD of its replicates, and plateau_se the SD of the
    replicate plateau means, since the rows share their members.
    """
    cfg = cfg.resolved()
    alpha, d, n, T = cfg.alpha_grid[0], cfg.d_grid[0], cfg.n_samples, cfg.T
    method = ESTIMATORS[cfg.estimator]
    times = [t for t in _TRANSIENT_GRID if t <= T]
    if times[-1] < T:
        times.append(T)

    x0 = np.zeros(d)
    x0[0] = cfg.x_start
    if cfg.drift == "ou":
        base_x, base_y = (ou_stationary_sample(
            OuLaw(d, a), n, derive_stream(cfg.seed, "transient", noise, d, alpha, n)).points
            for a, noise in ((alpha, "stable"), (2.0, "gauss")))
        if d == 1:
            base_x.sort(axis=0)
            base_y.sort(axis=0)
        laws = [(OuLaw(d, alpha, t, x0), OuLaw(d, 2.0, t)) for t in times]

        def rows(ix, iy):
            px, py = base_x[ix], base_y[iy]
            for law_x, law_y in laws:
                yield law_x.from_stationary(px), law_y.from_stationary(py)
    else:
        drift = cfg.drift_spec(d)

        def ensemble(job):
            a, noise, start = job
            return integrate_ensemble(
                StableModel(d=d, alpha=a), drift, start, T, cfg.n_steps,
                derive_stream(cfg.seed, "transient", noise, d, alpha, n),
                record_times=times)

        X0 = np.tile(x0, (n, 1))
        Y0 = np.zeros((n, d))
        (times, snaps_x), (_, snaps_y) = parallel_map(
            ensemble, [(alpha, "stable", X0), (2.0, "gauss", Y0)])

        def rows(ix, iy):
            for X, Y in zip(snaps_x, snaps_y):
                yield X[ix], Y[iy]

    def stationary():  # the reference at the same alpha, n and estimator
        Xs, Ys = _stationary_pair(d, alpha, n, cfg)
        return _estimate_pair(Xs, Ys, cfg, derive_stream(cfg.seed, "transient_stat", d, alpha, n))

    def estimates():
        everyone = slice(None)
        return [w1_estimate(method, X, Y, cfg.n_projections,
                            derive_stream(cfg.seed, "transient_est", d, alpha, n, t).child(1)).value
                for t, (X, Y) in zip(times, rows(everyone, everyone))]

    def bootstrap():
        return joint_bootstrap(rows, n, d, method, cfg.n_bootstrap,
                               derive_stream(cfg.seed, "transient_est", d, alpha, n).child(2),
                               cfg.n_projections)

    (st_est, st_se), w1, reps = parallel_map(lambda task: task(),
                                             [stationary, estimates, bootstrap])
    w1 = np.array(w1)
    stderr = np.array([r.std(ddof=1) for r in reps])
    times = np.array(times)

    # plateau: average of the final quarter of the curve (at least 3 points,
    # but never the start point); its SE is the SD of the replicate means
    k = min(max(3, len(times) // 4), len(times) - 1)
    plateau = float(w1[-k:].mean())
    plateau_se = float(reps[-k:].mean(axis=0).std(ddof=1))

    # early decay: fit log(W1) on rows clearly above the plateau
    early = w1 > max(5.0 * plateau, 1e-12)
    decay = None
    if int(early.sum()) >= 3:
        slope, _ = np.polyfit(times[early], np.log(w1[early]), 1)
        decay = float(-slope)

    chash = cfg.config_hash()
    if cfg.output_path:
        rows = list(zip(times, w1, stderr))
        write_csv(cfg.output_path, ["t", "w1", "stderr"], rows, chash)
    return TransientResult(times=times, w1=w1, stderr=stderr, plateau=plateau,
                           plateau_se=plateau_se, stationary_w1=st_est.value,
                           stationary_se=st_se, decay_rate=decay,
                           config_hash=chash)


# ---------------------------------------------------------------------------
# contraction decay

@dataclass(frozen=True)
class ContractionResult:
    times: np.ndarray
    mean_gap: np.ndarray
    rate: float
    config_hash: str


def run_contraction(cfg: ExperimentConfig) -> ContractionResult:
    """Mean gap of synchronously coupled paths against time, with the fitted
    exponential decay rate.  For the linear drift the gap is deterministic,
    (1-h)^k |x0-y0|, so the fitted rate must sit within Euler tolerance of 1."""
    cfg = cfg.resolved()
    alpha, d, n, T = cfg.alpha_grid[0], cfg.d_grid[0], cfg.n_samples, cfg.T
    times = list(np.linspace(0.0, T, 11))

    x0 = np.zeros(d)
    x0[0] = cfg.x_start
    X0 = np.tile(x0, (n, 1))
    Y0 = np.zeros((n, d))
    snap_times, gaps = integrate_coupled_ensemble(
        StableModel(d=d, alpha=alpha), cfg.drift_spec(d), X0, Y0, T, cfg.n_steps,
        derive_stream(cfg.seed, "contraction", d, alpha, n),
        record_times=times)
    mean_gap = np.array([float(np.linalg.norm(gx - gy, axis=1).mean())
                         for gx, gy in gaps])
    times = np.array(snap_times)

    pos = mean_gap > 0
    if int(pos.sum()) >= 2:
        slope, _ = np.polyfit(times[pos], np.log(mean_gap[pos]), 1)
        rate = float(-slope)
    else:
        rate = float("nan")
    chash = cfg.config_hash()
    if cfg.output_path:
        write_csv(cfg.output_path, ["t", "mean_gap"],
                  list(zip(times, mean_gap)), chash)
    return ContractionResult(times=times, mean_gap=mean_gap, rate=rate,
                             config_hash=chash)


# ---------------------------------------------------------------------------
# gradient boundedness

@dataclass(frozen=True)
class GradientCheckResult:
    times: np.ndarray
    alphas: np.ndarray  # includes the 2.0 reference as its last entry
    grad: np.ndarray    # shape (len(alphas), len(times)): clipped-coordinate h
    grad_norm: np.ndarray  # same shape: clipped-norm h
    max_ratio_vs_gaussian: float
    config_hash: str


_GRADIENT_HORIZON = EXPERIMENTS["gradient_check"].horizon  # n_steps is resolved over it
_GRADIENT_TIMES = tuple(np.round(np.linspace(0.1, _GRADIENT_HORIZON, 10), 10))
_CLIP_M = 10.0
_FD_EPS = 1e-3


def run_gradient_check(cfg: ExperimentConfig) -> GradientCheckResult:
    """Finite-difference semigroup gradients with common random numbers.

    For each alpha and t, both ensembles (started at x and x + eps e1) share
    every increment, so the difference of Monte Carlo means divided by eps
    estimates the directional derivative of P_t h.  Two Lip(1) test
    functions: the clipped first coordinate (sharp: equals e^{-t} for the
    linear drift up to clipping) and the clipped norm.
    """
    cfg = cfg.resolved()
    d, n = cfg.d_grid[0], cfg.n_samples
    alphas = list(cfg.alpha_grid) + [2.0]
    T = _GRADIENT_HORIZON
    drift = cfg.drift_spec(d)

    x0 = np.zeros(d)
    x0[0] = 1.0
    xp = x0.copy()
    xp[0] += _FD_EPS

    def one(alpha: float):
        X0 = np.tile(x0, (n, 1))
        Xp0 = np.tile(xp, (n, 1))
        times, snaps = integrate_coupled_ensemble(
            StableModel(d=d, alpha=alpha), drift, Xp0, X0, T, cfg.n_steps,
            derive_stream(cfg.seed, "gradient", d, alpha, n),
            record_times=list(_GRADIENT_TIMES))
        g_id, g_norm = [], []
        for Xp_t, X_t in snaps:
            hp = np.clip(Xp_t[:, 0], -_CLIP_M, _CLIP_M)
            hx = np.clip(X_t[:, 0], -_CLIP_M, _CLIP_M)
            g_id.append(float((hp.mean() - hx.mean()) / _FD_EPS))
            np_norm = np.minimum(np.linalg.norm(Xp_t, axis=1), _CLIP_M)
            nx_norm = np.minimum(np.linalg.norm(X_t, axis=1), _CLIP_M)
            g_norm.append(float((np_norm.mean() - nx_norm.mean()) / _FD_EPS))
        return times, g_id, g_norm

    results = parallel_map(one, alphas)
    # the simulated times, rounded as the requested ones are
    times = np.round(results[0][0], 10)
    grad = np.array([r[1] for r in results])
    grad_norm = np.array([r[2] for r in results])
    ref = np.abs(grad[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(grad[:-1]) / ref[None, :]
    max_ratio = float(np.nanmax(ratios)) if ratios.size else float("nan")

    chash = cfg.config_hash()
    if cfg.output_path:
        rows = []
        for i, a in enumerate(alphas):
            for j, t in enumerate(times):
                rows.append((a, t, grad[i, j], grad_norm[i, j]))
        write_csv(cfg.output_path, ["alpha", "t", "grad_clip_coord", "grad_clip_norm"],
                  rows, chash)
    return GradientCheckResult(times=times,
                               alphas=np.array(alphas), grad=grad,
                               grad_norm=grad_norm,
                               max_ratio_vs_gaussian=max_ratio,
                               config_hash=chash)


# ---------------------------------------------------------------------------
# self-test battery

@dataclass(frozen=True)
class SelfTestResult:
    checks: tuple  # of (name, passed, detail)
    passed: bool
    config_hash: str


def run_selftest(cfg: ExperimentConfig) -> SelfTestResult:
    """Reduced-size invariant suite across all modules, plus a negative
    control proving the statistical checks have teeth."""
    checks = []
    seed = cfg.seed

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    n = 200_000

    # subordinator Laplace transform at a spot grid
    worst_z = 0.0
    for alpha in (1.2, 1.8):
        for r in (0.5, 1.0):
            s = sample_subordinator_increment(
                alpha, 1.0, derive_stream(seed, "st_laplace", alpha, r), size=n)
            vals = np.exp(-r * s)
            target = math.exp(-0.5 * (2.0 * r) ** (alpha / 2.0))
            z = abs(vals.mean() - target) / (vals.std(ddof=1) / math.sqrt(n))
            worst_z = max(worst_z, z)
    record("subordinator_laplace", worst_z < 4.0, f"max |z| = {worst_z:.2f}")

    # negative control: a corrupted subordinator scale must trip the same check
    s_bad = 1.15 * sample_subordinator_increment(1.5, 1.0, derive_stream(seed, "st_negctl"),
                                                 size=n)
    vals = np.exp(-0.5 * s_bad)
    target = math.exp(-0.5 * 1.0 ** 0.75)
    z_bad = abs(vals.mean() - target) / (vals.std(ddof=1) / math.sqrt(n))
    record("negative_control_trips", z_bad > 6.0,
           f"corrupted-scale |z| = {z_bad:.1f} (must exceed 6)")

    # stable increment characteristic function, d=1
    from .sampling import empirical_char_function, sample_stable_increment

    inc = sample_stable_increment(StableModel(d=1, alpha=1.5), 1.0,
                                  derive_stream(seed, "st_char"), size=n)
    cf = empirical_char_function(inc, [1.0])
    target = math.exp(-0.5)
    z = abs(cf.re - target) / cf.se_re
    record("stable_char_function", z < 4.0, f"|z| = {z:.2f}")

    # closed-form negative moment vs Monte Carlo
    from .specfun import subordinator_neg_moment

    s = sample_subordinator_increment(1.5, 1.0, derive_stream(seed, "st_negmom"), size=n)
    mc = (s ** -0.5).mean()
    se = (s ** -0.5).std(ddof=1) / math.sqrt(n)
    z = abs(mc - subordinator_neg_moment(1.0, 1.5, "half")) / se
    record("neg_moment_half", z < 4.0, f"|z| = {z:.2f}")

    # gamma-ratio bound: the constant fitted on a coarse grid must cover a
    # finer grid inside the same envelope (the scaled ratio peaks at d=1,
    # alpha near 2, and varies by well under 5% between neighboring grid
    # points, so 1.05 slack certifies smoothness rather than hiding error)
    C = crate_bound_fit([1, 2, 5, 20, 100], [1.5, 1.9, 1.99])
    ok = True
    for d in (1, 3, 8, 50):
        for a in (1.7, 1.95, 1.999):
            ok &= abs(ratio_minus_one(d, a)) <= 1.05 * C * math.log1p(d) * (2.0 - a)
    tail = [abs(ratio_minus_one(3, 2.0 - 10.0 ** -k)) for k in range(1, 8)]
    ok &= all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
    record("gamma_ratio_bound", ok, f"fitted C = {C:.3f}")

    # W1 estimators against each other on small random instances
    gen = derive_stream(seed, "w1_instances").generator()
    ok = True
    detail = ""
    for _ in range(20):
        a = gen.standard_normal(64)
        b = gen.standard_normal(64) * 1.3 + 0.2
        v1 = w1_exact_1d(a, b).value
        v2 = w1_assignment(a[:, None], b[:, None]).value
        if abs(v1 - v2) > 1e-12:
            ok = False
            detail = f"1d vs assignment gap {abs(v1 - v2):.2e}"
            break
    record("w1_exact_1d_vs_assignment", ok, detail)

    # lower-bound semantics: both proxies sit below the exact assignment
    # value on the same clouds (duality, no sampling noise involved); the
    # proxies themselves are NOT mutually ordered in d >= 2, where the norm
    # functional can beat every single direction on radial perturbations,
    # so only the d=1 instances check the full chain
    ok = True
    detail = ""
    for i in range(10):
        X = EmpiricalMeasure(points=gen.standard_normal((48, 3)))
        Y = EmpiricalMeasure(points=gen.standard_normal((48, 3)) * 1.2 + 0.1)
        lo = w1_mean_norm_lower(X, Y).value
        sl = w1_sliced(X, Y, n_projections=32, rng=derive_stream(seed, "w1_order", i)).value
        hi = w1_assignment(X, Y).value
        if not (lo <= hi + 1e-12 and sl <= hi + 1e-12):
            ok = False
            detail = f"bound exceeded exact: {lo:.4f}, {sl:.4f} vs {hi:.4f}"
            break
        a = gen.standard_normal(48)
        b = gen.standard_normal(48) * 1.4 - 0.3
        lo1 = w1_mean_norm_lower(a[:, None], b[:, None]).value
        ex1 = w1_exact_1d(a, b).value
        if not lo1 <= ex1 + 1e-12:
            ok = False
            detail = f"d=1 chain violated: {lo1:.4f} > {ex1:.4f}"
            break
    record("w1_lower_bound_semantics", ok, detail)

    # OU closed forms: redundancy and rate positivity
    try:
        ou_w1_lower_exact(3, 1.7)
        c1, c2 = gammalower_check([1.5, 1.7, 1.9, 1.99])
        record("ou_lower_bound_paths", 0 < c1 <= c2 < math.inf,
               f"rate ratio in [{c1:.3f}, {c2:.3f}]")
    except InvariantError as exc:
        record("ou_lower_bound_paths", False, str(exc))

    # coupled contraction at the default step
    drift = DriftSpec.ornstein_uhlenbeck(1)
    _, gaps = integrate_coupled_ensemble(
        StableModel(d=1, alpha=1.8), drift,
        np.full((4, 1), 3.0), np.zeros((4, 1)), 2.0, 2000,
        derive_stream(seed, "contraction_self"), record_times=[0.0, 1.0, 2.0])
    g = [float(np.linalg.norm(gx - gy, axis=1).mean()) for gx, gy in gaps]
    rate = -0.5 * math.log(g[2] / g[0])
    record("coupling_contraction", abs(rate - 1.0) < 0.01, f"rate = {rate:.4f}")

    # byte-level reproducibility of a small sweep
    mini = ExperimentConfig(experiment="alpha_sweep", seed=seed,
                            alpha_grid=(1.8, 1.9, 1.95), d_grid=(1,),
                            n_samples=4096, estimator="sliced", n_bootstrap=8)
    r1 = run_alpha_sweep(mini)
    r2 = run_alpha_sweep(mini)
    same = (np.array_equal(r1.w1, r2.w1) and np.array_equal(r1.stderr, r2.stderr))
    record("reproducibility", same, "identical reruns" if same else "rerun drift")

    passed = all(ok for _, ok, _ in checks)
    chash = cfg.config_hash()
    if cfg.output_path:
        write_csv(cfg.output_path, ["check", "passed", "detail"],
                  [(name, ok, det) for name, ok, det in checks], chash)
    return SelfTestResult(checks=tuple(checks), passed=passed, config_hash=chash)
