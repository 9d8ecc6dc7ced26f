"""Closed-form evaluation of the diffusing shear profile and its diagnostics.

The profile is a five-parameter family

    b(t, y) = y + M * [G(y; s1) - gamma2 * gamma1**3 * G(y; s2) * gamma0**2 / ...]

built from two Gaussian bumps of the vorticity that spread under pure heat
diffusion.  With variances s1 = 4*nu*t + gamma0**2 and
s2 = 4*nu*t + gamma0**2*gamma1**2 the two quadratures integrate to error
functions, so every operation here is closed form: no PDE time stepping is
performed, and the heat equation is satisfied identically (checked by
``heat_residual``).

All functions are pure and accept scalar or ndarray ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

__all__ = [
    "FlowParams",
    "FlowState",
    "H1Diagnostics",
    "eval_b",
    "eval_b_derivs",
    "eval_b_slope",
    "eval_potential",
    "heat_residual",
    "h1_diagnostics",
    "h1_value",
    "potential_series_coeffs",
]

_SQRT_PI = math.sqrt(math.pi)

# H_{2m}(0) for the physicists' Hermite polynomials, m = 0..4.  Used for the
# odd-order derivatives of b at the origin.
_HERMITE0 = (1.0, -2.0, 12.0, -120.0, 1680.0)


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
        if not self.M >= 0.0:
            raise ValueError("M must be nonnegative")
        if not 0.0 < self.gamma0 <= 0.5:
            raise ValueError("gamma0 must lie in (0, 0.5]")
        if not 0.0 < self.gamma1 <= 0.5:
            raise ValueError("gamma1 must lie in (0, 0.5]")
        if not 0.0 < self.gamma2 < 1.0:
            raise ValueError("gamma2 must lie in (0,1)")
        if not self.gamma1 < self.gamma2:
            raise ValueError("gamma1 must be smaller than gamma2")
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")

    @property
    def horizon(self) -> float:
        """Diffusion horizon T = gamma0**2 * gamma1**2 / nu of the narrow bump."""
        return self.gamma0 ** 2 * self.gamma1 ** 2 / self.nu

    def with_M(self, M: float) -> "FlowParams":
        return FlowParams(M, self.gamma0, self.gamma1, self.gamma2, self.nu)


@dataclass(frozen=True)
class FlowState:
    """A profile frozen at time ``t``; carries the two Gaussian variances."""

    params: FlowParams
    t: float
    s1: float = field(init=False)
    s2: float = field(init=False)

    def __post_init__(self):
        if not self.t >= 0.0:
            raise ValueError("t must be nonnegative")
        p = self.params
        object.__setattr__(self, "s1", 4.0 * p.nu * self.t + p.gamma0 ** 2)
        object.__setattr__(self, "s2", 4.0 * p.nu * self.t + (p.gamma0 * p.gamma1) ** 2)

    @property
    def amp1(self) -> float:
        return self.params.gamma0 ** 2

    @property
    def amp2(self) -> float:
        p = self.params
        return p.gamma2 * p.gamma0 ** 2 * p.gamma1 ** 3

    @property
    def eps_sing(self) -> float:
        """Half-width of the series window around the removable singularity of b''/b."""
        return 1e-4 * self.params.gamma0 * self.params.gamma1


def eval_b(state: FlowState, y):
    """Shear profile b(t, y).  Odd in y; b(t, 0) = 0 exactly."""
    return eval_b_slope(state, y)[0]


def eval_b_slope(state: FlowState, y):
    """Profile and slope (b, b'): ``eval_b_derivs`` without b'' and b'''."""
    y2 = np.square(y)
    return _b_slope(state, y, np.exp(-y2 / state.s1), np.exp(-y2 / state.s2))


def _b_slope(state: FlowState, y, e1, e2):
    m, a1, a2, sq1, sq2 = state.params.M, state.amp1, state.amp2, math.sqrt(state.s1), math.sqrt(state.s2)
    b = y + m * (_SQRT_PI / 2.0) * (a1 * erf(y / sq1) - a2 * erf(y / sq2))
    return b, 1.0 + m * (a1 / sq1 * e1 - a2 / sq2 * e2)


def eval_b_derivs(state: FlowState, y):
    """Profile and its first three y-derivatives, (b, b', b'', b''').

    The one closed form of the profile: the eigensolver's potential reads
    it, and the Rayleigh right-hand sides, seeds and tails read its b and b'
    through ``eval_b_slope``, which shares its code.  scipy's erf is odd bit
    for bit, so b is exactly odd and b' exactly even, and a scalar ``y``
    gives the bits it has as an element of an array.
    """
    m = state.params.M
    s1, s2 = state.s1, state.s2
    y2 = np.square(y)
    e1 = np.exp(-y2 / s1)
    e2 = np.exp(-y2 / s2)
    g1 = state.amp1 / s1 ** 1.5 * e1
    g2 = state.amp2 / s2 ** 1.5 * e2
    b3 = -2.0 * m * (g1 * (1.0 - 2.0 * y2 / s1) - g2 * (1.0 - 2.0 * y2 / s2))
    del y2  # last use: on a fine grid one array more at the peak costs 1 MB
    b, b1 = _b_slope(state, y, e1, e2)
    b2 = -2.0 * y * m * (g1 - g2)
    return b, b1, b2, b3


def _odd_derivs_at_zero(state: FlowState):
    """b'(0), b'''(0), b^(5)(0), b^(7)(0), b^(9)(0) in closed form."""
    m = state.params.M
    s1, s2 = state.s1, state.s2
    a1, a2 = state.amp1, state.amp2
    out = []
    for order, h0 in enumerate(_HERMITE0):
        val = m * h0 * (a1 / s1 ** (order + 0.5) - a2 / s2 ** (order + 0.5))
        out.append(val)
    out[0] += 1.0  # the Couette background contributes to b' only
    return out


def potential_series_coeffs(state: FlowState):
    """Even Taylor coefficients (v0, v2, v4, v6) of b''/b about y = 0.

    Both b and b'' are odd with simple zeros at the origin, so the ratio has
    a removable singularity; the series is exact division of the two odd
    Taylor expansions.
    """
    d1, d3, d5, d7, d9 = _odd_derivs_at_zero(state)
    c1 = d1
    c3 = d3 / 6.0
    c5 = d5 / 120.0
    c7 = d7 / 5040.0
    c9 = d9 / 362880.0
    v0 = 6.0 * c3 / c1
    v2 = (20.0 * c5 - v0 * c3) / c1
    v4 = (42.0 * c7 - v0 * c5 - v2 * c3) / c1
    v6 = (72.0 * c9 - v0 * c7 - v2 * c5 - v4 * c3) / c1
    return v0, v2, v4, v6


def eval_potential(state: FlowState, y):
    """Schrodinger potential V(y) = b''(y) / b(y).

    Even, strictly negative for M > 0, identically zero for Couette.  Inside
    ``state.eps_sing`` of the origin the four-term even Taylor series is used
    (direct division loses digits where both factors vanish linearly).
    """
    if state.params.M == 0.0:
        return np.zeros_like(np.asarray(y, dtype=float)) if isinstance(y, np.ndarray) else 0.0
    yarr = np.asarray(y, dtype=float)
    scalar = yarr.ndim == 0
    yarr = np.atleast_1d(yarr)
    b, _, b2, _ = eval_b_derivs(state, yarr)
    eps = state.eps_sing
    near = np.abs(yarr) < eps
    b_safe = np.where(near, 1.0, b)
    v = b2 / b_safe
    if np.any(near):
        v0, v2c, v4c, v6c = potential_series_coeffs(state)
        u = np.square(yarr[near])
        v[near] = v0 + u * (v2c + u * (v4c + u * v6c))
    return float(v[0]) if scalar else v


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
