"""Closed-form gamma-based constants and scalar rate functions.

Everything here is a pure function of (d, alpha, t).  All gamma evaluation is
done in log-space: Gamma(d/2) overflows double precision near d = 340, while
log-gamma stays representable far beyond any dimension of interest.
"""
from __future__ import annotations

import math

from .errors import DomainError

_LOG_PI = math.log(math.pi)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, relative error around 1e-15."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^(d/2) / Gamma(d/2)."""
    if d < 1:
        raise DomainError(f"sphere_surface requires d >= 1, got {d}")
    return math.exp(math.log(2.0) + 0.5 * d * _LOG_PI - log_gamma(0.5 * d))


def stable_intensity_constant(d: int, alpha: float) -> float:
    """Levy-measure intensity constant of the rotationally symmetric
    alpha-stable process in R^d:

        A(d, alpha) = alpha Gamma((d+alpha)/2)
                      / (2^(2-alpha) pi^(d/2) Gamma(1-alpha/2)).

    Only valid for alpha in (0,2): Gamma(1-alpha/2) has a pole at alpha=2.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (0,2), got {alpha}")
    log_a = (
        math.log(alpha)
        + log_gamma(0.5 * (d + alpha))
        - (2.0 - alpha) * math.log(2.0)
        - 0.5 * d * _LOG_PI
        - log_gamma(1.0 - 0.5 * alpha)
    )
    return math.exp(log_a)


def ratio_minus_one(d: int, alpha: float) -> float:
    """A(d,alpha) * sphere_surface(d) / (d (2-alpha)) minus 1.

    Uses the pole-free rewriting

        ratio = alpha Gamma((d+alpha)/2)
                / (d 2^(2-alpha) Gamma(2-alpha/2) Gamma(d/2)),

    obtained from Gamma(2-alpha/2) = (1-alpha/2) Gamma(1-alpha/2), so the
    value stays well conditioned all the way into alpha -> 2 where the ratio
    tends to 1.  The rewriting is regular at alpha = 2 itself, so that
    endpoint is admitted and returns ~0.  Returned as ratio - 1 via expm1 to
    keep relative accuracy near zero.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0,2], got {alpha}")
    log_ratio = (
        math.log(alpha)
        + log_gamma(0.5 * (d + alpha))
        - math.log(d)
        - (2.0 - alpha) * math.log(2.0)
        - log_gamma(2.0 - 0.5 * alpha)
        - log_gamma(0.5 * d)
    )
    return math.expm1(log_ratio)


def crate_bound_fit(d_grid, alpha_grid) -> float:
    """Max over the grid of |ratio_minus_one| / (log(1+d) (2-alpha)).

    The gamma-ratio bound asserts this is finite uniformly; the fitted value
    is reported, not compared to a theoretical constant (none is published).
    """
    d_grid = list(d_grid)
    alpha_grid = list(alpha_grid)
    if not d_grid or not alpha_grid:
        raise ValueError("crate_bound_fit requires nonempty grids")
    if any(a >= 2.0 for a in alpha_grid):
        # the normalizer (2 - alpha) vanishes there
        raise DomainError("alpha grid for the envelope fit must stay below 2")
    worst = 0.0
    for d in d_grid:
        log1pd = math.log1p(d)
        for alpha in alpha_grid:
            val = abs(ratio_minus_one(d, alpha)) / (log1pd * (2.0 - alpha))
            if val > worst:
                worst = val
    return worst


_NEG_MOMENT_POWERS = ("half", "one")


def subordinator_neg_moment(t: float, alpha: float, power: str) -> float:
    """Closed-form negative moments of the subordinator S_t whose Laplace
    transform is exp(-t (2r)^(alpha/2) / 2):

        E S_t^(-1/2) = sqrt(2/pi) Gamma(1 + 1/alpha) 2^(1/alpha) t^(-1/alpha)
        E S_t^(-1)   = (1/2) Gamma(1 + 2/alpha) 2^(2/alpha) t^(-2/alpha)

    At alpha = 2 the subordinator degenerates to S_t = t and the values are
    returned as exact powers of t (mirroring the sampler's special case).
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0,2], got {alpha}")
    if power not in _NEG_MOMENT_POWERS:
        raise ValueError(f"power must be one of {_NEG_MOMENT_POWERS}, got {power!r}")
    if alpha == 2.0:
        return t ** -0.5 if power == "half" else 1.0 / t
    if power == "half":
        return math.sqrt(2.0 / math.pi) * math.gamma(1.0 + 1.0 / alpha) \
            * 2.0 ** (1.0 / alpha) * t ** (-1.0 / alpha)
    return 0.5 * math.gamma(1.0 + 2.0 / alpha) * 2.0 ** (2.0 / alpha) \
        * t ** (-2.0 / alpha)


def mean_norm_prefactor(d: int) -> float:
    """The dimensional factor 2 Gamma((d+1)/2) / (sqrt(pi) Gamma(d/2)) that
    multiplies both the stable and the Gaussian mean norms; grows like
    sqrt(2d) for large d."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return math.exp(
        math.log(2.0) + log_gamma(0.5 * (d + 1)) - 0.5 * _LOG_PI - log_gamma(0.5 * d)
    )


def stable_mean_norm(d: int, alpha: float) -> float:
    """E|L_1| for the rotationally symmetric alpha-stable process with
    characteristic function exp(-t |xi|^alpha / 2):

        (2 Gamma((d+1)/2) / (sqrt(pi) Gamma(d/2))) 2^(-1/alpha) Gamma(1-1/alpha)

    Finite only for alpha > 1; alpha = 2 reproduces the Brownian value.
    """
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"mean norm requires alpha in (1,2], got {alpha}")
    return mean_norm_prefactor(d) * 2.0 ** (-1.0 / alpha) * math.gamma(1.0 - 1.0 / alpha)


def phi(x: float) -> float:
    """phi(x) = (2x)^(-1/x) Gamma(1 - 1/x) on (1,2].

    The mean norm of the stationary scaled stable law in d=1 is (2/pi) phi(x),
    and |phi(alpha) - phi(2)| / (2-alpha) is bounded above and below, which is
    what drives the exact (2-alpha) lower-bound rate.
    """
    if not 1.0 < x <= 2.0:
        raise DomainError(f"phi requires x in (1,2], got {x}")
    return (2.0 * x) ** (-1.0 / x) * math.gamma(1.0 - 1.0 / x)

