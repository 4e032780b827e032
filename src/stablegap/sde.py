"""Euler integration of the two SDEs, synchronous coupling, first-variation
flows, and long-time (ergodic) sampling.

    dX_t = b(X_t) dt + sigma dL_t      (stable noise)
    dY_t = b(Y_t) dt + sigma dB_t      (Brownian noise)

The scheme is explicit Euler with exact noise increments per step, run by
one stepper (`_euler`) behind every integrator; there is no discretization
theory to lean on for the stable case, so tests rely on step-halving
self-consistency where no closed form exists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, IntegrationError
from .rng import as_generator
from .sampling import StableModel, sample_stable_increment
# the benchmark's tracer (perfbench/tracing.py) wraps this binding
from .sampling import sample_subordinator_increment  # noqa: F401
from .wasserstein import EmpiricalMeasure

OVERFLOW_LIMIT = 1e12  # heavy tails can launch a path astronomically far

_H1_CHECK_PAIRS = 10_000


@dataclass(frozen=True, eq=False)
class DriftSpec:
    """The drift b with its dissipativity and smoothness constants.

    theta0 > 0 and K >= 0 are the dissipativity constants in

        <x - y, b(x) - b(y)> <= -theta0 |x-y|^2 + K,

    theta1 bounds the first derivative.  eval must accept arrays of shape
    (..., d) and map them elementwise in the leading axes.
    """

    kind: str
    d: int
    eval: Callable[[np.ndarray], np.ndarray]
    theta0: float
    K: float
    theta1: float
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("ornstein_uhlenbeck", "custom"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if not self.theta0 > 0:
            raise DomainError(f"theta0 must be positive, got {self.theta0}")
        if self.K < 0 or self.theta1 < 0:
            raise DomainError("K and theta1 must be nonnegative")
        self._spot_check_dissipativity()

    def _spot_check_dissipativity(self):
        # sanity screen at construction: the claimed (theta0, K) must hold on
        # random pairs spread over several magnitudes (fixed internal seed so
        # construction is deterministic)
        gen = np.random.Generator(np.random.Philox(key=[0x5D155, 0]))
        n = _H1_CHECK_PAIRS
        radii = 10.0 ** gen.uniform(-1.0, 2.0, size=(n, 1))
        x = gen.standard_normal((n, self.d)) * radii
        y = gen.standard_normal((n, self.d)) * radii
        diff = x - y
        inner = np.sum(diff * (self.eval(x) - self.eval(y)), axis=1)
        bound = -self.theta0 * np.sum(diff * diff, axis=1) + self.K
        slack = 1e-9 * (1.0 + np.sum(diff * diff, axis=1))
        bad = inner > bound + slack
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DomainError(
                "drift violates the claimed dissipativity constants "
                f"(theta0={self.theta0}, K={self.K}) at |x-y|={np.linalg.norm(diff[i]):.3g}"
            )

    @classmethod
    def ornstein_uhlenbeck(cls, d: int) -> "DriftSpec":
        """b(x) = -x: theta0 = 1, K = 0, theta1 = 1, higher derivatives 0."""
        return cls(
            kind="ornstein_uhlenbeck",
            d=d,
            eval=lambda x: -x,
            theta0=1.0,
            K=0.0,
            theta1=1.0,
            jacobian=lambda x: -np.eye(d),
        )

    @classmethod
    def dissipative_tanh(cls, d: int, c: float = 0.5) -> "DriftSpec":
        """b(x) = -x + c tanh(x) componentwise, c in [0,1).

        Dissipative with theta0 = 1 - c and K = 0 (tanh is 1-Lipschitz and
        monotone), first-derivative bound theta1 = 1 + c; a smooth nonlinear
        drift for exercising the custom-drift paths.
        """
        if not 0.0 <= c < 1.0:
            raise DomainError(f"tanh coefficient must lie in [0,1), got {c}")
        return cls(
            kind="custom",
            d=d,
            eval=lambda x: -x + c * np.tanh(x),
            theta0=1.0 - c,
            K=0.0,
            theta1=1.0 + c,
            jacobian=lambda x: np.diag(-1.0 + c / np.cosh(x) ** 2),
        )


@dataclass(frozen=True, eq=False)
class SdePath:
    """One discretized trajectory on a uniform time grid starting at 0."""

    times: np.ndarray
    states: np.ndarray
    noise: str  # "stable" or "brownian"

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class VariationalPath:
    """The first-variation flow grad_v X_t integrated along a frozen path."""

    base: SdePath
    direction: np.ndarray
    flow: np.ndarray  # same length as base.times, flow[0] = direction


def _check_inputs(T, n_steps):
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")


def _noise(model: StableModel) -> str:
    return "brownian" if model.is_brownian else "stable"


def _euler(model, drift, Z, h, n_steps, gen, record_steps, out):
    """The Euler stepper Z <- Z + b(Z) h + increment over a (k, n, d) stack.

    The k slices share every (n, d) increment, so slice j of member i is
    synchronously coupled to every other slice of member i.  out[i]
    receives the stack after record_steps[i] steps (ascending, repeats
    allowed, 0 meaning the initial state).  Raises IntegrationError at the
    first step that leaves any coordinate non-finite or beyond
    OVERFLOW_LIMIT.
    """
    n = Z.shape[1]
    i = 0
    for k in range(n_steps + 1):
        if k:
            Z = Z + drift.eval(Z) * h + sample_stable_increment(model, h, gen, size=n)
            # NaN fails the comparison too, so this also catches non-finite states
            ok = np.abs(Z) <= OVERFLOW_LIMIT
            if not ok.all():
                bad = int((~ok.all(axis=-1)).sum())
                raise IntegrationError(
                    f"{bad} path(s) left the representable range at step {k}", step=k
                )
        while i < len(record_steps) and record_steps[i] == k:
            out[i] = Z
            i += 1


def _integrate_stack(model, drift, Z, T, n_steps, rng, record_times=None):
    """Run the (k, n, d) stack Z over [0, T] in n_steps Euler steps.

    Snapshots are taken at the grid steps nearest record_times, in step
    order (every step when record_times is None).  Returns (snapshot
    times, array of shape (n_snapshots, k, n, d)).
    """
    _check_inputs(T, n_steps)
    h = T / n_steps
    if record_times is None:
        steps = range(n_steps + 1)
    else:
        steps = sorted(min(n_steps, max(0, round(t / h))) for t in record_times)
    out = np.empty((len(steps),) + Z.shape)
    _euler(model, drift, Z, h, n_steps, as_generator(rng), steps, out)
    return [k * h for k in steps], out


def integrate(model: StableModel, drift: DriftSpec, x0, T, n_steps, rng) -> SdePath:
    """Euler path x_{k+1} = x_k + b(x_k) h + increment_k, h = T/n_steps."""
    x = np.asarray(x0, dtype=float).reshape(1, 1, model.d)
    _, states = _integrate_stack(model, drift, x, T, n_steps, rng)
    return SdePath(times=np.linspace(0.0, T, n_steps + 1), states=states[:, 0, 0],
                   noise=_noise(model))


def integrate_coupled(model, drift, x0, y0, T, n_steps, rng):
    """Two paths driven by the same increment sequence (synchronous coupling).

    The noise cancels in the difference, so for the linear drift the gap
    contracts deterministically: |X_k - Y_k| = |x0-y0| (1-h)^k.
    """
    xy = np.array([np.asarray(z, dtype=float).reshape(model.d) for z in (x0, y0)])
    _, states = _integrate_stack(model, drift, xy[:, None], T, n_steps, rng)
    times = np.linspace(0.0, T, n_steps + 1)
    return (SdePath(times=times, states=states[:, 0, 0], noise=_noise(model)),
            SdePath(times=times, states=states[:, 1, 0], noise=_noise(model)))


def integrate_ensemble(model, drift, X0, T, n_steps, rng, record_times=None):
    """Vectorized Euler over an (n, d) ensemble of initial conditions.

    record_times: optional increasing times at which to snapshot the whole
    ensemble (each is rounded to the nearest grid point); defaults to [T].
    Returns (snapshot_times, list of (n, d) state arrays).
    """
    X = np.asarray(X0, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"X0 must be (n, {model.d}), got {X.shape}")
    times, snaps = _integrate_stack(model, drift, X[None], T, n_steps, rng,
                                    [T] if record_times is None else record_times)
    return times, [s[0] for s in snaps]


def integrate_coupled_ensemble(model, drift, X0, Y0, T, n_steps, rng,
                               record_times=None):
    """Synchronous coupling of two (n, d) ensembles: member i of X and member
    i of Y share every increment.  Returns (snapshot_times, list of
    (X_snap, Y_snap) pairs)."""
    X = np.asarray(X0, dtype=float)
    Y = np.asarray(Y0, dtype=float)
    if X.shape != Y.shape or X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(
            f"X0 and Y0 must both be (n, {model.d}), got {X.shape} and {Y.shape}"
        )
    times, snaps = _integrate_stack(model, drift, np.stack([X, Y]), T, n_steps, rng,
                                    [T] if record_times is None else record_times)
    return times, [(s[0], s[1]) for s in snaps]


def variational_flow(path: SdePath, drift: DriftSpec, v) -> VariationalPath:
    """Euler integration of d/dt grad_v X_t = (grad b)(X_t) grad_v X_t along
    the frozen path, started from v."""
    if drift.jacobian is None:
        raise ValueError("variational_flow requires a drift with a jacobian")
    v = np.asarray(v, dtype=float).reshape(-1)
    times = path.times
    flow = np.empty((len(times), len(v)))
    flow[0] = v
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        J = drift.jacobian(path.states[k])
        flow[k + 1] = flow[k] + h * (J @ flow[k])
    return VariationalPath(base=path, direction=v, flow=flow)


def ergodic_sample(model, drift, burn_in_T, n_samples, thinning_T,
                   n_steps_per_unit, rng, n_chains=None) -> EmpiricalMeasure:
    """n_samples states from the long-time law: burn in, then collect one
    state every thinning_T units of time.

    Work is spread over parallel chains (default min(n_samples, 256)) so the
    wall-clock cost scales like burn_in + n_samples/n_chains rather than
    n_samples; chains start from 0 and are statistically exchangeable.
    """
    if not burn_in_T > 0 or not thinning_T > 0:
        raise ValueError("burn_in_T and thinning_T must be positive")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_chains is None:
        n_chains = min(n_samples, 256)
    burn_steps = max(1, round(burn_in_T * n_steps_per_unit))
    thin_steps = max(1, round(thinning_T * n_steps_per_unit))
    rounds = -(-n_samples // n_chains)
    collected = np.empty((rounds, n_chains, model.d))
    steps = range(burn_steps + thin_steps, burn_steps + rounds * thin_steps + 1, thin_steps)
    _euler(model, drift, np.zeros((1, n_chains, model.d)), 1.0 / n_steps_per_unit,
           steps[-1], as_generator(rng), steps, collected[:, None])
    pts = collected.reshape(-1, model.d)[:n_samples]
    return EmpiricalMeasure(points=pts)
