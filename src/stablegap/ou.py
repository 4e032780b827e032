"""Exact results for the linear drift b(x) = -x.

Both SDEs then solve in closed form: `OuLaw` is their law at every time,
alpha = 2 being the Brownian equation.  That makes this model the one place
where the W1 gap has exact handles: exact draws and the characteristic
function at every t, and a closed-form lower bound with the (2-alpha) rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvariantError
from .sampling import StableModel, sample_stable_increment
from .specfun import log_gamma, mean_norm_prefactor, phi
from .wasserstein import EmpiricalMeasure


@dataclass(frozen=True, eq=False)
class OuLaw:
    """Law at time t of the OU solution started at x0 (None: the origin):

        X_t = e^(-t) x0 + s(t) L_1,    s(t)^alpha = (1 - e^(-alpha t)) / alpha,

    with L the rotationally symmetric alpha-stable process of characteristic
    function exp(-t |xi|^alpha / 2).  alpha = 2 is the Brownian equation
    (stationary law N(0, I/2)); t = inf, the default, is the stationary law.
    """

    d: int
    alpha: float
    t: float = math.inf
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must lie in (0,2], got {self.alpha}")
        if not self.t >= 0:
            raise DomainError(f"t must be nonnegative, got {self.t}")
        x0 = np.zeros(self.d) if self.x0 is None else np.asarray(self.x0, dtype=float)
        if x0.shape != (self.d,) or not np.isfinite(x0).all():
            raise DomainError(f"x0 must be a finite vector of {self.d} entries")
        object.__setattr__(self, "x0", x0)

    @property
    def scale(self) -> float:
        """s(t); the expm1 form keeps s(inf) = alpha^(-1/alpha) exact."""
        return self.alpha ** (-1.0 / self.alpha) \
            * (-math.expm1(-self.alpha * self.t)) ** (1.0 / self.alpha)

    def char(self, xi):
        """Characteristic function of the law at frequency xi:

            E exp(i<xi, X_t>) = exp(i<xi, e^(-t) x0>) exp(-(1-e^(-alpha t)) |xi|^alpha / (2 alpha))

        Returns (re, im).
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        norm_xi = float(np.linalg.norm(xi))
        # -expm1(-alpha t) = 1 - e^(-alpha t), accurate for small t
        damp = math.exp(-(-math.expm1(-self.alpha * self.t)) * norm_xi ** self.alpha
                        / (2.0 * self.alpha))
        phase = float(xi @ self.x0) * math.exp(-self.t)
        return damp * math.cos(phase), damp * math.sin(phase)


def ou_stationary_sample(law: OuLaw, n: int, rng) -> EmpiricalMeasure:
    """n exact iid draws from the law at its time t (no discretization or
    burn-in error; t = inf gives the stationary law)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    model = StableModel(d=law.d, alpha=law.alpha)
    pts = sample_stable_increment(model, 1.0, rng, size=n)
    pts *= law.scale  # in place: the draw is the only n x d array held
    if math.isfinite(law.t):
        pts += math.exp(-law.t) * law.x0
    return EmpiricalMeasure(points=pts)


def ou_w1_lower_exact(d: int, alpha: float) -> float:
    """Exact lower bound on W1 between the two stationary laws:

        (2 Gamma((d+1)/2) / (sqrt(pi) Gamma(d/2))) |phi(alpha) - phi(2)|

    with phi(x) = (2x)^(-1/x) Gamma(1-1/x); the bound is the gap between the
    two mean norms and vanishes linearly in (2-alpha).

    Evaluated independently through the raw gamma expression and through
    specfun.phi; the two must agree to 1e-12 relative to the mean-norm scale
    (internal redundancy).
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (1,2), got {alpha}")
    pref = mean_norm_prefactor(d)
    via_phi = pref * abs(phi(alpha) - phi(2.0))
    gamma_term = (2.0 * alpha) ** (-1.0 / alpha) * math.exp(log_gamma(1.0 - 1.0 / alpha))
    via_gamma = pref * abs(gamma_term - 0.5 * math.exp(log_gamma(0.5)))
    # the difference cancels as alpha -> 2, so rounding noise must be
    # measured against the terms being subtracted, not against the result
    if abs(via_phi - via_gamma) > 1e-12 * pref * max(gamma_term, 1.0):
        raise InvariantError(
            f"lower-bound evaluation paths disagree: {via_phi!r} vs {via_gamma!r}"
        )
    return via_phi


def gammalower_check(alpha_grid) -> tuple:
    """(c1_hat, c2_hat): min and max over the grid of |phi(alpha)-phi(2)|/(2-alpha).

    Both must be strictly positive and finite, which is the desk-scale form
    of the statement that the lower bound is exactly of order (2-alpha)."""
    grid = [float(a) for a in alpha_grid]
    if not grid:
        raise ValueError("gammalower_check requires a nonempty grid")
    ratios = []
    for a in grid:
        if not 1.0 < a < 2.0:
            raise DomainError(f"grid values must lie in (1,2), got {a}")
        ratios.append(abs(phi(a) - phi(2.0)) / (2.0 - a))
    c1, c2 = min(ratios), max(ratios)
    if not (c1 > 0.0 and math.isfinite(c2)):
        raise InvariantError(f"rate ratio degenerate: ({c1}, {c2})")
    return c1, c2
