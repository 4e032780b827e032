"""Exact increment sampling for the two driving noises.

The rotationally symmetric alpha-stable increment over a step dt is built by
subordination: L_dt = W_(S_dt) with S_dt a one-sided (alpha/2)-stable random
time whose Laplace transform is

    E exp(-r S_dt) = exp(-dt (2r)^(alpha/2) / 2).

S is sampled by Kanter's representation of the standard one-sided stable law
and then rescaled.  No jump truncation anywhere: the heavy tail is carried
exactly by the subordinator draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantError
from .rng import as_generator


@dataclass(frozen=True, eq=False)
class StableModel:
    """Noise model: dimension, stability index, and diffusion matrix sigma.

    alpha = 2 is allowed and means plain Brownian noise.
    """

    d: int
    alpha: float
    sigma: np.ndarray = None

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must lie in (0,2], got {self.alpha}")
        sigma = self.sigma
        if sigma is None:
            sigma = np.eye(self.d)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (self.d, self.d):
            raise DomainError(f"sigma must be {self.d}x{self.d}, got {sigma.shape}")
        # invertibility via conditioning, not determinant: det underflows for
        # large d long before the matrix is numerically singular
        if np.linalg.cond(sigma) > 1e12:
            raise DomainError("sigma is numerically singular (condition > 1e12)")
        object.__setattr__(self, "sigma", sigma)
        # the product by an identity sigma is bit-equal to its input, so the
        # sampler skips it
        object.__setattr__(self, "_sigma_is_identity", np.array_equal(sigma, np.eye(self.d)))

    @property
    def is_brownian(self) -> bool:
        return self.alpha == 2.0


def _kanter_onesided(beta: float, n: int, gen: np.random.Generator) -> np.ndarray:
    """n draws of the standard one-sided beta-stable law, beta in (0,1),
    normalized so that E exp(-lam T) = exp(-lam^beta).

    Kanter's representation: with U ~ Uniform(0,pi) and E ~ Exp(1),

        T = (a(U)/E)^((1-beta)/beta),
        a(u) = [sin(beta u)^beta sin((1-beta) u)^(1-beta) / sin(u)]^(1/(1-beta)).

    Evaluated in log-space: near beta -> 1 the exponent (1-beta)/beta makes
    the direct form overflow while the log form stays tame.  U = 0 (which
    the half-open uniform can return) makes a(U) 0/0; it raises
    InvariantError instead of passing NaN on.
    """
    u = gen.uniform(0.0, np.pi, size=n)
    if not u.all():
        raise InvariantError("Kanter subordinator draw hit U = 0 (a(U) is 0/0)")
    e = gen.standard_exponential(size=n)
    log_a = (
        beta * np.log(np.sin(beta * u))
        + (1.0 - beta) * np.log(np.sin((1.0 - beta) * u))
        - np.log(np.sin(u))
    ) / (1.0 - beta)
    return np.exp(((1.0 - beta) / beta) * (log_a - np.log(e)))


def sample_subordinator_increment(alpha, dt, rng, size=None):
    """Draws of S_dt with E exp(-r S_dt) = exp(-dt (2r)^(alpha/2) / 2).

    Matching Laplace transforms forces the scale c in S = c T (T standard
    one-sided (alpha/2)-stable): c^(alpha/2) = dt 2^(alpha/2 - 1), i.e.
    c = 2 (dt/2)^(2/alpha).  alpha = 2 degenerates to the deterministic
    value dt (the stable sampler would hit 0/0 there).

    size=None returns a scalar, otherwise an array of that length.  A scalar
    call consumes the stream exactly like size=1; calls with different sizes
    consume it differently (the variates are drawn in blocks).
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0,2], got {alpha}")
    n = 1 if size is None else int(size)
    if alpha == 2.0:
        out = np.full(n, float(dt))
    else:
        c = 2.0 * (dt / 2.0) ** (2.0 / alpha)
        out = c * _kanter_onesided(0.5 * alpha, n, as_generator(rng))
    return float(out[0]) if size is None else out


def sample_stable_increment(model: StableModel, dt, rng, size=None):
    """Increments of the model's driving noise over a step dt.

    For alpha < 2: sigma (sqrt(S) G) with S a subordinator draw and G a
    standard Gaussian vector, so the pre-sigma increment has characteristic
    function exp(-dt |xi|^alpha / 2).  For alpha = 2: exact Brownian
    increments sigma sqrt(dt) G.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    if model.is_brownian:
        inc = np.sqrt(dt) * gen.standard_normal((n, model.d))
    else:
        s = sample_subordinator_increment(model.alpha, dt, gen, size=n)
        inc = np.sqrt(s)[:, None] * gen.standard_normal((n, model.d))
    if not model._sigma_is_identity:
        inc = inc @ model.sigma.T
    return inc[0] if size is None else inc


@dataclass(frozen=True)
class CharFunctionEstimate:
    """Empirical characteristic function at one frequency: E cos<xi,x> and
    E sin<xi,x> with their Monte Carlo standard errors."""

    re: float
    im: float
    se_re: float
    se_im: float


def empirical_char_function(samples, xi) -> CharFunctionEstimate:
    """Monte Carlo characteristic function of a point cloud at frequency xi.

    Accepts an EmpiricalMeasure or a raw (n, d) array; a 1-d array is read as
    n scalar samples.
    """
    pts = np.asarray(getattr(samples, "points", samples), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise ValueError("empirical_char_function requires nonempty samples")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    proj = pts @ xi
    n = proj.shape[0]
    cos, sin = np.cos(proj), np.sin(proj)
    return CharFunctionEstimate(
        re=float(cos.mean()),
        im=float(sin.mean()),
        se_re=float(cos.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        se_im=float(sin.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
    )
