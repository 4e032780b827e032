"""Exact results for the linear drift b(x) = -x.

Both SDEs then solve in closed form: `OuLaw` is their law at every time,
alpha = 2 being the Brownian equation.  That makes this model the one place
where the W1 gap has exact handles: exact draws and the characteristic
function at every t, a closed-form lower bound with the (2-alpha) rate, and
in d = 1 the W1 itself at every t (`ou_w1_exact`, a quadrature).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvariantError
from . import sampling
from .rng import as_generator
from .sampling import StableModel, _scale_gaussian, sample_stable_increment
from .specfun import log_gamma, mean_norm_prefactor, phi
from .wasserstein import EmpiricalMeasure, _norms, _require_finite


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

    def from_stationary(self, points: np.ndarray) -> np.ndarray:
        """Draws of this law as the affine image of draws of the stationary
        law OuLaw(d, alpha): that law is s(inf) L_1, so

            X_t = e^(-t) x0 + r(t) X_inf,    r(t)^alpha = 1 - e^(-alpha t),

        a new array.  r(t) >= 0, so in d = 1 the image of sorted draws is
        sorted; at t = 0 every draw is x0 exactly."""
        out = (-math.expm1(-self.alpha * self.t)) ** (1.0 / self.alpha) * points
        if math.isfinite(self.t) and np.count_nonzero(self.x0):
            out += math.exp(-self.t) * self.x0
        return out


# bytes per block of `_radial_draw`: Gaussian rows = max(1, _BLOCK_BYTES
# // (8 d)), and _BLOCK_BYTES // 8 gamma values.  The Gaussian blocks are
# written straight into the head, so they save neither memory nor time (one
# call for a 65536-row head ran as fast at d = 2, 3, 20 on a 2-vCPU x86 VM).
# They are kept so that each block is scaled and checked for finiteness as
# it is drawn: a non-finite draw is refused in its block, and the check's
# bool temporary is one block's, not the head's.  The gamma blocks bound
# the memory beside the norm vector
_BLOCK_BYTES = 1 << 20


def _placed(law: OuLaw, pts: np.ndarray) -> np.ndarray:
    """Unit-time increments L_1 (rows of `sample_stable_increment` at
    dt = 1) as draws of the law, in place: s(t) L_1 + e^(-t) x0."""
    pts *= law.scale
    if math.isfinite(law.t):
        pts += math.exp(-law.t) * law.x0
    return pts


def ou_stationary_sample(law: OuLaw, n: int, rng) -> EmpiricalMeasure:
    """n exact iid draws from the law at its time t (no discretization or
    burn-in error; t = inf gives the stationary law): n subordinator draws
    (alpha < 2), then the (n, d) standard Gaussians, each transformed in
    place, so the draw is the only n x d array held.  `_radial_draw`
    gives the same first rows and the norms of the others."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    model = StableModel(d=law.d, alpha=law.alpha)
    return EmpiricalMeasure(points=_placed(law, sample_stable_increment(model, 1.0, rng, size=n)))


def _radial_draw(law: OuLaw, n: int, n_head: int, rng):
    """n iid draws of a law centred at the origin, reduced to their first
    n_head draws and the norms of all n, as the two steps of a generator:
    it yields the (n_head, d) head, then the n norms.

    The law is isotropic: a draw is s(t) sqrt(S) G, with S the subordinator
    (1 at alpha = 2) and G a standard Gaussian in R^d, so its norm is
    s(t) sqrt(S) |G| with |G|^2 ~ chi^2_d = 2 Gamma(d/2).  The stream gives
    the n subordinator draws (Kanter's U's, then E's), then the head's
    Gaussians, in row blocks of _BLOCK_BYTES written straight into the
    head, then one Gamma(d/2) draw per norm past the head, in blocks that
    multiply in place into the norm vector.  The head is thus the first
    n_head rows of `ou_stationary_sample(law, n, rng)` bit for bit, and a
    norm past it costs O(1) in any d.  The norm vector is the subordinator
    draws' own array (a new one at alpha = 2), made only at the second
    step: a caller that drops the head first never holds the two together.
    Each head block and the tail norms are refused, as a whole cloud is, if
    a value is not finite.  The arguments are checked at the first step.
    """
    if not 0 <= n_head <= n or n < 1:
        raise ValueError(f"need 0 <= n_head <= n and n >= 1, got n_head = {n_head}, n = {n}")
    if math.isfinite(law.t) and np.count_nonzero(law.x0):
        raise DomainError("the radial draw needs a law centred at the origin")
    gen = as_generator(rng)
    model = StableModel(d=law.d, alpha=law.alpha)
    # through the module, so a tracer's wrapper of the sampler sees the draw
    s = None if model.is_brownian else \
        sampling.sample_subordinator_increment(law.alpha, 1.0, gen, size=n)
    head = np.empty((n_head, law.d))
    rows = max(1, _BLOCK_BYTES // (8 * law.d))
    for i in range(0, n_head, rows):
        j = min(i + rows, n_head)
        _require_finite(_placed(law, _scale_gaussian(
            model, 1.0, None if s is None else s[i:j], gen.standard_normal(out=head[i:j]))))
    yield head
    head_norms = _norms(head)
    del head
    norms = np.ones(n) if s is None else s
    norms[:n_head] = head_norms
    del head_norms  # the suspended generator would hold it until the row ends
    tail = norms[n_head:]
    if s is not None:
        np.sqrt(tail, out=tail)
    for i in range(0, tail.size, _BLOCK_BYTES // 8):
        chunk = tail[i:i + _BLOCK_BYTES // 8]
        g = gen.standard_gamma(0.5 * law.d, size=chunk.size)
        g *= 2.0
        chunk *= np.sqrt(g, out=g)
    tail *= law.scale
    _require_finite(tail)
    yield norms


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


# The d = 1 W1 quadrature.  The window reaches R = _TAIL_R widths past each
# law's centre, a width being the larger of the two laws' scales over the
# stationary Brownian one, 2^(-1/2): R = 40 at the stationary pair.  There
# _BERGSTROM_TERMS terms of the stable tail's series (an expansion in
# c R^(-alpha) <= 0.008) reach double precision, and the Gaussian's tail is
# below 1e-300.  Both characteristic functions are below e^(-_CHAR_CUTOFF)
# past the top frequency.
_TAIL_R = 40.0
_BERGSTROM_TERMS = 6
_CHAR_CUTOFF = 45.0
# Roots of the CDF gap lie within _ROOT_SPAN widths of a centre (beyond it
# the Gaussian CDF is 0 or 1 to 1e-30 and the gap has the stable tail's
# sign); the scan that brackets them steps by 1/_ROOT_STEPS of a width.
_ROOT_SPAN = 12.0
_ROOT_STEPS = 8
_QUAD = dict(epsabs=1e-15, epsrel=1e-12)


def _quad(f, a, b, **kw):
    """scipy's quad at _QUAD, with its messages returned rather than warned:
    a tolerance below roundoff is accepted, any other failure raises."""
    from scipy.integrate import quad

    out = quad(f, a, b, full_output=1, **kw, **_QUAD)
    if len(out) > 3 and "roundoff" not in out[3]:
        raise InvariantError(f"quadrature failed on [{a}, {b}]: {out[3]}")
    return out[0]


def ou_w1_exact(d: int, alpha: float, t: float = math.inf, x_start: float = 0.0) -> float:
    """Exact W1 between OuLaw(1, alpha, t, x0) and OuLaw(1, 2, t), with
    x0 = x_start: the stable and Brownian OU laws at time t, started
    x_start apart (t = inf, the default: the stationary pair).  d = 1 only.

    W1 = int |D(x)| dx with D = F_X - F_Y, the gap of the two CDFs.  With
    m = e^(-t) x_start, c_X = (1 - e^(-alpha t))/(2 alpha) and
    c_Y = (1 - e^(-2t))/4 the laws have characteristic functions
    e^(i m xi - c_X |xi|^alpha) and e^(-c_Y xi^2), and

        D(x) = D0(x - m) + [Phi_Y(x - m) - Phi_Y(x)],
        D0(y) = (1/pi) int_0^top sin(y xi) (e^(-c_X xi^alpha) - e^(-c_Y xi^2)) / xi dxi

    (Gil-Pelaez, Biometrika 38, 1951), with the Gaussian CDF Phi_Y in
    closed form.  D0 is a plain finite-range quadrature with breakpoints at
    k pi / y; QUADPACK's Fourier rule on [1, inf) is wrong for small y.  On
    the window D is integrated between its roots, each bracketed by a scan
    and found by brentq; past the window the Gaussian's tails vanish and
    the stable tail's integral is Bergström's series (Ark. Mat. 2, 1952),

        int_R^inf (1 - F_X) = (1/pi) sum_k (-1)^(k+1)/k! Gamma(k alpha)
                              sin(k pi alpha/2) c_X^k R^(1 - k alpha)/(k alpha - 1).

    At t = 0 and at alpha = 2 the two laws are translates, and W1 is |m|.
    scipy is imported here, at the first call.
    """
    return sum(abs(p) for p in _gap_pieces(d, alpha, t, x_start))


def _gap_pieces(d: int, alpha: float, t: float, x_start: float) -> list:
    """The signed integrals of the CDF gap D over its pieces of constant
    sign, left to right: `ou_w1_exact` sums their absolute values, and
    their sum is int D = E Y - E X = -m.  At m = 0 the gap is odd, so only
    [0, inf) is integrated and mirrored; the second half of the list covers
    [0, inf) then, and -2 times its sum is E|X| - E|Y|, the lower bound
    `ou_w1_lower_exact`."""
    if d != 1:
        raise NotImplementedError(f"ou_w1_exact is implemented for d = 1 only, got d = {d}")
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (1,2], got {alpha}")
    if not t >= 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if not math.isfinite(x_start):
        raise DomainError(f"x_start must be finite, got {x_start}")
    m = abs(x_start) * math.exp(-t)  # W1 is even in the shift
    if t == 0 or alpha == 2.0:
        return [-m]
    from scipy.optimize import brentq

    cx = -math.expm1(-alpha * t) / (2.0 * alpha)
    cy = -math.expm1(-2.0 * t) / 4.0
    width = max(cx ** (1.0 / alpha), math.sqrt(2.0 * cy)) * math.sqrt(2.0)
    top = max((_CHAR_CUTOFF / cx) ** (1.0 / alpha), math.sqrt(_CHAR_CUTOFF / cy))

    def kernel(xi):  # (e^(-p) - e^(-q)) / xi, without cancellation where p ~ q
        p, q = cx * xi ** alpha, cy * xi * xi
        if abs(p - q) < 1.0:
            return math.exp(-q) * math.expm1(q - p) / xi
        return (math.exp(-p) - math.exp(-q)) / xi

    def d0(y):
        if y == 0.0:
            return 0.0
        a = abs(y)
        points = list(np.arange(1, int(top * a / math.pi) + 1) * (math.pi / a))
        val = _quad(lambda xi: math.sin(a * xi) * kernel(xi), 0.0, top,
                    points=points, limit=len(points) + 100) / math.pi
        return val if y > 0 else -val

    def phi_y(x):  # Phi_Y(x) - 1/2
        return 0.5 * math.erf(x / (2.0 * math.sqrt(cy)))

    def gap(x):
        return d0(x - m) + (phi_y(x - m) - phi_y(x) if m else 0.0)

    def tail(r):  # int_r^inf (1 - F_X(m + y)) dy
        return sum((-1) ** (k + 1) / math.factorial(k) * math.exp(log_gamma(k * alpha))
                   * math.sin(k * math.pi * alpha / 2.0) * cx ** k
                   * r ** (1.0 - k * alpha) / (k * alpha - 1.0)
                   for k in range(1, _BERGSTROM_TERMS + 1)) / math.pi

    R = _TAIL_R * width
    lo, hi = (0.0 if m == 0 else -R), m + R
    scan = np.concatenate([c + width * np.arange(-_ROOT_SPAN * _ROOT_STEPS,
                                                 _ROOT_SPAN * _ROOT_STEPS + 1) / _ROOT_STEPS
                           for c in {0.0, m}])
    scan = np.unique(np.clip(scan, lo, hi))
    signs = [gap(x) for x in scan]
    edges = [lo] + [brentq(gap, a, b, xtol=1e-15 * width)
                    for a, b, fa, fb in zip(scan, scan[1:], signs, signs[1:])
                    if fa * fb < 0] + [hi]
    pieces = [_quad(gap, a, b, limit=200) for a, b in zip(edges, edges[1:])]
    pieces[-1] -= tail(R)  # past the window D = -(1 - F_X) on the right ...
    if m == 0:
        return [-p for p in reversed(pieces)] + pieces
    pieces[0] += tail(m + R)  # ... and F_X on the left
    return pieces


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
