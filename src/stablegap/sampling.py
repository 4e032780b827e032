"""Exact increment sampling for the two driving noises.

The rotationally symmetric alpha-stable increment over a step dt is built by
subordination: L_dt = W_(S_dt) with S_dt a one-sided (alpha/2)-stable random
time whose Laplace transform is

    E exp(-r S_dt) = exp(-dt (2r)^(alpha/2) / 2).

S is sampled by Kanter's representation of the standard one-sided stable law
and then rescaled.  No jump truncation anywhere: the heavy tail is carried
exactly by the subordinator draw.

Each increment is made in two phases: the generator calls (`draw_noise`),
then an elementwise, in-place transform of their output
(`noise_increments`).  The samplers below run both at once (the
subordinator's chunk by chunk); the Euler stepper runs the draws of whole
blocks of steps ahead of the transforms, and the dimension sweep's OU draw
(`ou._radial_draw`) transforms its Gaussian rows block by block as they
are drawn.
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


# values per chunk of `sample_subordinator_increment`'s Kanter evaluation:
# 512 KB per array.  The time is bound by np.sin at any chunk size; the
# chunks bound the memory beside the result
_KANTER_CHUNK = 1 << 16


def _kanter_uniforms(n: int, gen: np.random.Generator) -> np.ndarray:
    """The first generator call of n Kanter draws: U ~ Uniform(0, pi); the
    n E ~ Exp(1) follow it in the stream.  U = 0 (which the half-open
    uniform can return) makes a(U) 0/0 in `_subordinator`; it raises
    InvariantError here instead of passing NaN on."""
    u = gen.uniform(0.0, np.pi, size=n)
    if not u.all():
        raise InvariantError("Kanter subordinator draw hit U = 0 (a(U) is 0/0)")
    return u


def _subordinator(alpha: float, dt, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """S_dt = c T from Kanter draws (u, e), written into u (e is
    overwritten too).

    T is the standard one-sided beta-stable law, beta = alpha/2 in (0,1),
    normalized so that E exp(-lam T) = exp(-lam^beta).  Kanter's
    representation, with U ~ Uniform(0,pi) and E ~ Exp(1):

        T = (a(U)/E)^((1-beta)/beta),
        a(u) = [sin(beta u)^beta sin((1-beta) u)^(1-beta) / sin(u)]^(1/(1-beta)).

    Evaluated in log-space: near beta -> 1 the exponent (1-beta)/beta makes
    the direct form overflow while the log form stays tame.  The scale is
    c = 2 (dt/2)^(2/alpha) (see `sample_subordinator_increment`).  Every
    operation runs in the order of the textbook expression, so the result
    is bit-equal to evaluating it with temporaries; two of u's size are
    made, the sine terms of beta u and (1-beta) u.
    """
    beta = 0.5 * alpha
    b1 = 1.0 - beta
    log_a = np.multiply(beta, u)
    np.log(np.sin(log_a, out=log_a), out=log_a)
    log_a *= beta
    t = np.multiply(b1, u)
    np.log(np.sin(t, out=t), out=t)
    t *= b1
    log_a += t
    s = np.subtract(log_a, np.log(np.sin(u, out=u), out=u), out=u)
    s /= b1
    s -= np.log(e, out=e)
    s *= b1 / beta
    np.exp(s, out=s)
    s *= 2.0 * (dt / 2.0) ** (2.0 / alpha)
    return s


def _scale_gaussian(model: StableModel, dt, s, g: np.ndarray) -> np.ndarray:
    """sigma (sqrt(S) G) from subordinator draws s of shape (..., n) and
    standard Gaussian draws g of shape (..., n, d), or sigma sqrt(dt) G at
    alpha = 2 (s is None), in place on s and g.  sigma is applied as one
    (n, d) @ (d, d) product per step: a bigger product may sum in another
    order."""
    if s is None:
        g *= np.sqrt(dt)
    else:
        g *= np.sqrt(s, out=s)[..., None]
    if not model._sigma_is_identity:
        for step in g.reshape(-1, *g.shape[-2:]):
            step[...] = step @ model.sigma.T
    return g


def draw_noise(model: StableModel, n: int, gen: np.random.Generator, steps: int):
    """Draw phase: the raw generator output of `steps` consecutive
    increments of n members, as arrays (u, e, g) of shapes (steps, n),
    (steps, n) and (steps, n, d).  Each step makes the calls of
    `sample_stable_increment(model, dt, gen, size=n)`, in its order and
    sizes: Kanter's U and E (u = e = None at alpha = 2), then the (n, d)
    standard Gaussian.  The increments never depend on the state, so these
    calls can run ahead of the stepper that uses them."""
    g = np.empty((steps, n, model.d))
    if model.is_brownian:
        for step in g:
            gen.standard_normal(out=step)
        return None, None, g
    u, e = np.empty((2, steps, n))
    for k in range(steps):
        u[k] = _kanter_uniforms(n, gen)
        gen.standard_exponential(out=e[k])
        gen.standard_normal(out=g[k])
    return u, e, g


def noise_increments(model: StableModel, dt, raw) -> np.ndarray:
    """Transform phase: the (steps, n, d) increments over dt from the draws
    of `draw_noise`, overwriting them.  Every operation is elementwise, so
    each step is bit-equal to `sample_stable_increment` on the same
    stream."""
    u, e, g = raw
    s = None if model.is_brownian else _subordinator(model.alpha, dt, u, e)
    return _scale_gaussian(model, dt, s, g)


def sample_subordinator_increment(alpha, dt, rng, size=None):
    """Draws of S_dt with E exp(-r S_dt) = exp(-dt (2r)^(alpha/2) / 2).

    Matching Laplace transforms forces the scale c in S = c T (T standard
    one-sided (alpha/2)-stable): c^(alpha/2) = dt 2^(alpha/2 - 1), i.e.
    c = 2 (dt/2)^(2/alpha).  alpha = 2 degenerates to the deterministic
    value dt (the stable sampler would hit 0/0 there).

    The stream gives the n U's of Kanter's representation, then the n E's.
    The U's are drawn into the result; the E's are drawn, and `_subordinator`
    run in place, _KANTER_CHUNK values at a time, so a draw holds its result
    and a few chunk-sized arrays.  The generator fills an array in stream
    order, so the chunks' E's are the one n-sized draw's, and the result is
    bit-equal to `_subordinator` on whole-size draws.

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
        gen = as_generator(rng)
        out = _kanter_uniforms(n, gen)
        for i in range(0, n, _KANTER_CHUNK):
            u = out[i:i + _KANTER_CHUNK]
            _subordinator(alpha, dt, u, gen.standard_exponential(size=u.size))
    return float(out[0]) if size is None else out


def sample_stable_increment(model: StableModel, dt, rng, size=None):
    """Increments of the model's driving noise over a step dt.

    For alpha < 2: sigma (sqrt(S) G) with S a subordinator draw and G a
    standard Gaussian vector, so the pre-sigma increment has characteristic
    function exp(-dt |xi|^alpha / 2).  For alpha = 2: exact Brownian
    increments sigma sqrt(dt) G.  The stream gives n subordinator draws
    (Kanter's U's, then E's), then the (n, d) standard Gaussians.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = 1 if size is None else int(size)
    gen = as_generator(rng)
    s = None if model.is_brownian else \
        sample_subordinator_increment(model.alpha, dt, gen, size=n)
    inc = _scale_gaussian(model, dt, s, gen.standard_normal((n, model.d)))
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
