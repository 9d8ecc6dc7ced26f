"""Closed-form evaluation of the diffusing shear profile and its diagnostics.

The profile is a five-parameter family

    b(t, y) = y + M * [G(y; s1) - gamma2 * gamma1**3 * G(y; s2) * gamma0**2 / ...]

built from two Gaussian bumps of the vorticity that spread under pure heat
diffusion.  With variances s1 = 4*nu*t + gamma0**2 and
s2 = 4*nu*t + gamma0**2*gamma1**2 the two quadratures integrate to error
functions, so every operation here is closed form: no PDE time stepping is
performed, and the heat equation is satisfied identically (checked by
``heat_residual``).

All functions are pure and accept scalar or ndarray ``y``.  The error
function is ``math.erf`` (``erf`` below), so no command loads
``scipy.special``: a scalar calls it directly, as every Rayleigh RHS step
does, and an array calls it per element where it is not yet 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FlowParams",
    "FlowState",
    "H1Diagnostics",
    "eval_b",
    "eval_b_derivs",
    "eval_b_slope",
    "eval_b_slope_excess",
    "eval_potential",
    "heat_residual",
    "h1_diagnostics",
    "h1_value",
    "kappa1",
]

_SQRT_PI = math.sqrt(math.pi)

# |x| from which erf(x) is +-1.0 in double precision: 1 - erf(6) = 2e-17 is
# under half an ulp of 1.0.
_ERF_ONE = 6.0

@dataclass(frozen=True)
class FlowParams:
    """Amplitude, widths, high-frequency ratio and viscosity of the family.

    ``M`` is the bump amplitude (M = 0 reduces to plane Couette flow),
    ``gamma0`` the core width, ``gamma1`` the width ratio of the narrow
    component, ``gamma2`` its relative amplitude, ``nu`` the viscosity.
    """

    M: float
    gamma0: float
    gamma1: float
    gamma2: float
    nu: float

    def __post_init__(self):
        # Float-range bounds: M scales b, and b'' and b''' divide by s2^(3/2), which is
        # (gamma0 gamma1)^3 at t = 0 and turns subnormal below gamma0 gamma1 = 3e-103;
        # the bound 1e-10 is kept as the input range, far above that.  Within both, every
        # term stays finite, and k* moves by only 1e-9 from M = 1e10 to 1e50.  The
        # horizon T = gamma0^2 gamma1^2 / nu overflows to inf for a subnormal nu, and
        # the times sampled on [0, T] would then be NaN; an infinite nu makes T = 0
        # and s1 = 4 nu t + gamma0^2 NaN at t = 0, and a huge one underflows T to 0.
        if not 0.0 <= self.M <= 1e50:
            raise ValueError("M must be nonnegative and at most 1e50")
        if not 0.0 < self.gamma0 <= 0.5:
            raise ValueError("gamma0 must lie in (0, 0.5]")
        if not 0.0 < self.gamma1 <= 0.5:
            raise ValueError("gamma1 must lie in (0, 0.5]")
        if not 0.0 < self.gamma2 < 1.0:
            raise ValueError("gamma2 must lie in (0,1)")
        if not self.gamma1 < self.gamma2:
            raise ValueError("gamma1 must be smaller than gamma2")
        if not 0.0 < self.nu < math.inf:
            raise ValueError("nu must be positive and finite")
        if not self.gamma0 * self.gamma1 >= 1e-10:
            raise ValueError("gamma0 * gamma1 must be at least 1e-10")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(
                "nu must keep the horizon gamma0**2 * gamma1**2 / nu positive and finite")

    @property
    def horizon(self) -> float:
        """Diffusion horizon T = gamma0**2 * gamma1**2 / nu of the narrow bump."""
        return self.gamma0 ** 2 * self.gamma1 ** 2 / self.nu

    def with_M(self, M: float) -> "FlowParams":
        return FlowParams(M, self.gamma0, self.gamma1, self.gamma2, self.nu)


@dataclass(frozen=True)
class FlowState:
    """A profile frozen at time ``t``; carries the two Gaussian variances and
    the bumps' amplitudes, which every RHS call of a Rayleigh pass reads."""

    params: FlowParams
    t: float
    s1: float = field(init=False)
    s2: float = field(init=False)
    # set from params, so they take no part in equality, hashing or repr
    amp1: float = field(init=False, repr=False, compare=False)
    amp2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.t >= 0.0:
            raise ValueError("t must be nonnegative")
        p = self.params
        object.__setattr__(self, "s1", 4.0 * p.nu * self.t + p.gamma0 ** 2)
        object.__setattr__(self, "s2", 4.0 * p.nu * self.t + (p.gamma0 * p.gamma1) ** 2)
        object.__setattr__(self, "amp1", p.gamma0 ** 2)
        object.__setattr__(self, "amp2", p.gamma2 * p.gamma0 ** 2 * p.gamma1 ** 3)


def erf(x):
    """The error function: ``math.erf`` of a scalar, or of every element.

    An array's elements with |x| >= 6, and +-inf, take +-1.0 without a call,
    the value ``math.erf`` rounds to there; NaN stays NaN.  So an element
    has the bits the scalar has.  ``math.erf`` is odd bit for bit, so this
    erf is too.
    """
    if isinstance(x, float) or np.ndim(x) == 0:  # float first: the RHS calls' case
        return math.erf(x)
    x = np.asarray(x, dtype=float)
    out = np.sign(x)
    inner = np.abs(x) < _ERF_ONE
    out[inner] = np.fromiter(map(math.erf, x[inner].tolist()), float)
    return out


def eval_b(state: FlowState, y):
    """Shear profile b(t, y).  Odd in y; b(t, 0) = 0 exactly."""
    m, a1, a2 = state.params.M, state.amp1, state.amp2
    return y + m * (_SQRT_PI / 2.0) * (a1 * erf(y / math.sqrt(state.s1))
                                       - a2 * erf(y / math.sqrt(state.s2)))


def eval_b_slope(state: FlowState, y):
    """Profile and slope (b, b'): ``eval_b_derivs`` without b'' and b'''."""
    y2 = np.square(y)
    return _b_slope(state, y, np.exp(-y2 / state.s1), np.exp(-y2 / state.s2))


def eval_b_slope_excess(state: FlowState, y):
    """(b, b' - b'(0)): the slope's closed form with expm1 in place of exp, so
    the O(y^2) excess is no difference of O(1) slopes, and is 0 at y = 0."""
    y2 = np.square(y)
    return _b_slope(state, y, np.expm1(-y2 / state.s1), np.expm1(-y2 / state.s2), 0.0)


def _b_slope(state: FlowState, y, e1, e2, couette=1.0):  # couette = 0, e - 1 for e: b' - b'(0)
    m, a1, a2 = state.params.M, state.amp1, state.amp2
    slope = couette + m * (a1 / math.sqrt(state.s1) * e1 - a2 / math.sqrt(state.s2) * e2)
    return eval_b(state, y), slope


def _weights(state: FlowState, y2):
    """(g1, g2, e1, e2): each bump's Gaussian e = exp(-y^2 / s), which b' reads,
    and g = amplitude / s^(3/2) times it, which b'' and b''' read."""
    e1 = np.exp(-y2 / state.s1)
    e2 = np.exp(-y2 / state.s2)
    return state.amp1 / state.s1 ** 1.5 * e1, state.amp2 / state.s2 ** 1.5 * e2, e1, e2


def _b2(state: FlowState, y, g1, g2):
    """b'' from the weights g1, g2 of ``_weights``."""
    return -2.0 * y * state.params.M * (g1 - g2)


def eval_b_derivs(state: FlowState, y):
    """Profile and its first three y-derivatives, (b, b', b'', b''').

    The one closed form of the profile: the eigensolver's potential reads
    it, the Rayleigh passes read its b and b' through ``eval_b_slope`` and
    the phiB quadrature b' - b'(0) through ``eval_b_slope_excess`` and the
    potential b and b'' alone, all through the helpers that build it.  erf
    is ``math.erf`` (``erf`` above), odd bit for bit, so b is exactly odd and
    b' exactly even, and a scalar ``y`` gives the bits it has in an array.
    """
    s1, s2 = state.s1, state.s2
    y2 = np.square(y)
    g1, g2, e1, e2 = _weights(state, y2)
    b3 = -2.0 * state.params.M * (g1 * (1.0 - 2.0 * y2 / s1) - g2 * (1.0 - 2.0 * y2 / s2))
    del y2  # last use: on a fine grid one array more at the peak costs 1 MB
    b, b1 = _b_slope(state, y, e1, e2)
    return b, b1, _b2(state, y, g1, g2), b3


def eval_potential(state: FlowState, y):
    """Schrodinger potential V(y) = b''(y) / b(y).

    Even, strictly negative for M > 0, zero for Couette.  b and b'' both
    vanish linearly at the origin, yet their direct ratio keeps full
    precision down to the smallest normal |y|.  Below it, where a subnormal
    y costs b its digits, V takes its limit b'''(0) / b'(0) from
    ``eval_b_derivs``.  Elsewhere only the b and b'' it reads are evaluated,
    with ``eval_b_derivs``'s bits.
    """
    yarr = np.asarray(y, dtype=float)
    scalar = yarr.ndim == 0
    yarr = np.atleast_1d(yarr)
    g1, g2, _, _ = _weights(state, np.square(yarr))
    b2 = _b2(state, yarr, g1, g2)
    del g1, g2  # on a fine grid every array held at the peak costs 1 MB
    b = eval_b(state, yarr)
    near = np.abs(yarr) < np.finfo(float).tiny
    v = b2 / np.where(near, 1.0, b)
    if np.any(near):
        _, b1, _, b3 = eval_b_derivs(state, 0.0)
        v[near] = b3 / b1
    return float(v[0]) if scalar else v


def kappa1(state: FlowState) -> float:
    """kappa1 = -int_0^inf b''/y dy = M sqrt(pi) (amp1/s1 - amp2/s2): to first order
    in M the bound state's decay rate, so lambda1 ~ -kappa1^2 (B. Simon, Ann. Phys.
    97 (1976) 279)."""
    return state.params.M * _SQRT_PI * (state.amp1 / state.s1 - state.amp2 / state.s2)


def heat_residual(state: FlowState, y, dt: float) -> float:
    """|d_t b - nu * b''| with d_t estimated by a 4th-order centered stencil.

    Self-test of the closed forms only: the family satisfies the heat
    equation identically, so the residual is pure finite-difference error.
    Requires t >= 2*dt for the centered stencil.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.t - 2.0 * dt < 0.0:
        raise ValueError("centered stencil needs t >= 2*dt")
    p = state.params
    if p.M == 0.0:
        return 0.0
    ts = [state.t - 2.0 * dt, state.t - dt, state.t + dt, state.t + 2.0 * dt]
    bs = [eval_b(FlowState(p, tv), y) for tv in ts]
    bt = (-bs[3] + 8.0 * bs[2] - 8.0 * bs[1] + bs[0]) / (12.0 * dt)
    _, _, b2, _ = eval_b_derivs(state, y)
    return float(np.max(np.abs(bt - p.nu * b2)))


@dataclass(frozen=True)
class H1Diagnostics:
    """Integral diagnostics of the narrow-bump dissipation profile h1."""

    total_integral: float
    zero_point: float
    negative_part_integral: float


def h1_value(params: FlowParams, t: float, y):
    """Pointwise h1(t, y): change density of the narrow vorticity bump."""
    g0, g1, g2 = params.gamma0, params.gamma1, params.gamma2
    s2 = 4.0 * params.nu * t + (g0 * g1) ** 2
    return g2 * (
        g1 ** 3 / s2 ** 1.5 * np.exp(-np.square(y) / s2)
        - np.exp(-np.square(y) / (g0 * g1) ** 2) / g0 ** 3
    )


def h1_diagnostics(params: FlowParams, t: float) -> H1Diagnostics:
    """Closed-form total integral, positive zero point and negative part of h1.

    Rejects t = 0, where h1 vanishes identically and the zero point is
    undefined.
    """
    if not t > 0.0:
        raise ValueError("h1 diagnostics need t > 0 (h1(0,.) == 0)")
    g0, g1, g2 = params.gamma0, params.gamma1, params.gamma2
    nt4 = 4.0 * params.nu * t
    s2 = nt4 + (g0 * g1) ** 2
    total = -_SQRT_PI * g2 * nt4 * g1 / (s2 * g0 ** 2)
    log_arg = s2 ** 1.5 / (g0 * g1) ** 3
    ytilde = math.sqrt((s2 * (g0 * g1) ** 2 / nt4) * math.log(log_arg))
    neg = _SQRT_PI * g2 * (
        g1 ** 3 / s2 * erf(ytilde / math.sqrt(s2))
        - g1 / g0 ** 2 * erf(ytilde / (g0 * g1))
    )
    return H1Diagnostics(float(total), float(ytilde), float(neg))
