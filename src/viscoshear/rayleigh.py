"""Homogeneous Rayleigh equation: regular solutions and the Wronskian.

The regular solution through the critical point factorizes as
phi = (b - i c) * phi1 * phi2 where phi1 solves the real flux ODE
(b^2 phi1')' = k^2 b^2 phi1 and phi2 absorbs the O(c) correction.  Both are
seeded just off the regular singular point y = 0 with their Frobenius
expansions and integrated outward by the adaptive DOP853 pair in flux
variables, batched over (k, c) channels with per-channel error control.
b and b' come from ``flow.eval_b_slope``, the closed form the eigensolver
reads as well.

The Wronskian W(ic, k) = integral of phi^(-2) decides the spectrum: its
zeros on the imaginary axis are the unstable eigenvalues.  W is assembled
as I + II following the singular/regular split:

  I  = integral of (b - ic)^(-2)          (computed exactly in velocity
       space with a log kernel, real by oddness of the profile)
  II = integral of (b - ic)^(-2) * ((phi1 phi2)^(-2) - 1)
       (regular at the origin; accumulated as extra ODE state)

which avoids the 1/c cancellation a naive two-sided quadrature suffers.

The profile is odd, so the regular solution satisfies phi(-y) = -conj phi(y)
and the integrator reproduces that mirror bit for bit: every Wronskian
evaluation integrates the right half line only and takes the left-side
terms from the mirrored state.  The determinant cross-check still
integrates both sides, which makes it an independent oracle for the
mirror identity as well.  It alone also integrates qF = integral of
phi^(-2): the step control weighs every column of a channel, so a column
that nothing reads would steer the steps of every other pass.

The boundary value W(0, k) is the c = 0 channel of the same assembly: the
log-kernel quadrature of I at c = 0 is the Hilbert-transform term, and the
strip and II terms take their c = 0 forms.

Roots in c_i are found for many wave numbers at once: one batched scan of
Re W on a log-spaced c grid brackets each sign change, and Chandrupatla's
bracketed inverse-quadratic iteration in log c (``_roots.chandrupatla``,
shared with the calibration; Adv. Eng. Softw. 28, 1997) polishes every
bracket together, one ``wronskian_many`` pass per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ._ode import integrate
from ._roots import chandrupatla
from .errors import (
    ConsistencyFailure,
    MultipleRoots,
    NonConvergence,
    TailDominance,
)
from .flow import FlowState, eval_b, eval_b_derivs, eval_b_slope
from .spectrum import Grid, _fit_min_C

__all__ = [
    "Phi1Solution",
    "Phi2Solution",
    "WronskianValue",
    "EigenCurve",
    "DetCheckReport",
    "solve_phi1",
    "solve_phi2",
    "assemble_phi",
    "wronskian",
    "wronskian_many",
    "scan_wronskian",
    "wronskian_det_check",
    "wronskian_boundary",
    "eigenvalues_for_ks",
    "eigenvalue_for_k",
    "eigencurve",
    "wronskian_partials",
    "neutral_mode_phiB",
]

RTOL_ODE = 1e-10
ATOL_ODE = 1e-13
EPS_MAX = 1e-6
C_SCAN_LO = 1e-8
C_SCAN_POINTS = 200
C_MAX_DEFAULT = 0.5
YK_FACTOR = 12.0
MAX_POLISH = 80


def _beta(state: FlowState) -> float:
    """b'(0), the slope of the profile at the critical point."""
    return float(eval_b_slope(state, 0.0)[1])


# ---------------------------------------------------------------------------
# the batched phi1/phi2 system
# ---------------------------------------------------------------------------
# state columns: [d1, p1, d2, p2, qII] and, for the determinant check only,
# a sixth column qF, with
#   d1 = phi1 - 1,  p1 = b^2 phi1'
#   d2 = phi2 - 1,  p2 = (b - ic)^2 phi1^2 phi2'
#   qII = integral of (b-ic)^(-2) ((phi1 phi2)^(-2) - 1)
#   qF  = integral of phi^(-2)
# The step size follows every column's error, so qF is integrated only
# where it is read.


class _WSystem:
    def __init__(self, state: FlowState, ks: np.ndarray, cs: np.ndarray,
                 with_qf: bool = False):
        self.state = state
        self.beta = _beta(state)
        self.k2 = np.asarray(ks, dtype=float) ** 2
        self.ic = 1j * np.asarray(cs, dtype=float)
        self.n_cols = 6 if with_qf else 5

    def rhs(self, y: float, st: np.ndarray) -> np.ndarray:
        b, b1 = eval_b_slope(self.state, y)
        d1, p1, d2, p2 = st[:, 0], st[:, 1], st[:, 2], st[:, 3]
        phi1 = 1.0 + d1
        b2 = b * b
        dd1 = p1 / b2
        dp1 = self.k2 * b2 * phi1
        u = b - self.ic
        u2 = u * u
        phi2 = 1.0 + d2
        dd2 = p2 / (u2 * phi1 * phi1)
        dp2 = -(2.0 * self.ic * b1 / b) * u * phi1 * dd1 * phi2
        wm1 = d1 + d2 + d1 * d2
        w = 1.0 + wm1
        w2 = w * w
        out = np.empty_like(st)
        out[:, 0] = dd1
        out[:, 1] = dp1
        out[:, 2] = dd2
        out[:, 3] = dp2
        out[:, 4] = -wm1 * (2.0 + wm1) / (w2 * u2)
        if self.n_cols == 6:
            out[:, 5] = 1.0 / (u2 * w2)
        return out

    def seed(self, y0: float) -> np.ndarray:
        """Frobenius seeds at y0; phi2's are exact for the linearized profile.

        Dropping the O(c^2 k^2 y0) flux seed of phi2 would leave a
        c-independent O(k^2 |y0|) bias in the Wronskian, so p2 and d2 are
        seeded from the closed forms of the b ~ beta*y model.
        """
        b = eval_b(self.state, y0)
        beta = self.beta
        st = np.zeros((len(self.k2), self.n_cols), dtype=complex)
        st[:, 0] = self.k2 * y0 * y0 / 6.0
        st[:, 1] = b * b * self.k2 * y0 / 3.0
        pos = self.ic.imag > 0.0
        if np.any(pos):
            ic = self.ic[pos]
            k2 = self.k2[pos]
            u0 = beta * y0 - ic
            s0 = -(1.0 / beta) * (1.0 / u0 + 1.0 / ic)
            st[pos, 3] = -(2.0 * ic * k2 / 3.0) * (beta * y0 * y0 / 2.0 - ic * y0)
            st[pos, 2] = -(ic * k2 / (3.0 * beta)) * (y0 + ic.imag ** 2 * s0)
        return st


def _eps_start(cs: np.ndarray) -> float:
    pos = cs[cs > 0.0]
    if len(pos) == 0:
        return EPS_MAX
    return min(EPS_MAX, 0.01 * float(pos.min()))


def _ymax_for(ks: np.ndarray, half_width: float) -> float:
    return max(half_width, YK_FACTOR / float(np.min(ks)))


def _run_side(system: _WSystem, side: int, eps: float, ymax: float, samples=None,
              rtol: float = RTOL_ODE, atol: float = ATOL_ODE):
    y0 = side * eps
    y1 = side * ymax
    st0 = system.seed(y0)
    return integrate(
        system.rhs,
        y0,
        y1,
        st0,
        rtol=rtol,
        atol=atol,
        samples=samples,
        initial_step=eps * 0.5,
    )


# y -> -y conjugates every state column and flips the sign of the fluxes and
# of the integrals accumulated from the origin outward.
_W_PARITY = np.array([1.0, -1.0, 1.0, -1.0, -1.0])


def _mirror(st: np.ndarray) -> np.ndarray:
    """The left half-line pass's state, exactly, from the right one's."""
    return np.conj(st) * _W_PARITY


def _phi_and_slope(system: _WSystem, y: float, st: np.ndarray):
    """phi and phi'/phi at a sample point from the flux state."""
    b, b1 = eval_b_slope(system.state, y)
    d1, p1, d2, p2 = st[:, 0], st[:, 1], st[:, 2], st[:, 3]
    phi1 = 1.0 + d1
    u = b - system.ic
    phi2 = 1.0 + d2
    phi = u * phi1 * phi2
    dphi1 = p1 / (b * b)
    dphi2 = p2 / (u * u * phi1 * phi1)
    dphi = b1 * phi1 * phi2 + u * (dphi1 * phi2 + phi1 * dphi2)
    return phi, dphi / phi


def _strip_v3(beta: float, eps: float, cs: np.ndarray) -> np.ndarray:
    """Closed form of int_0^eps y^2 (beta*y - ic)^(-2) dy per channel."""
    ic = 1j * cs
    u0 = -ic
    u1 = beta * eps - ic
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (u1 - u0) + 2.0 * ic * (np.log(u1) - np.log(u0)) + cs ** 2 * (1.0 / u1 - 1.0 / u0)
    return val / beta ** 3


def _strip_base(beta: float, eps: float, cs: np.ndarray) -> np.ndarray:
    """Closed form of int_0^eps (beta*y - ic)^(-2) dy per channel."""
    ic = 1j * cs
    return -(1.0 / beta) * (1.0 / (beta * eps - ic) - 1.0 / (-ic))


# ---------------------------------------------------------------------------
# the exact real part I(c) = integral of (b - ic)^(-2)
# ---------------------------------------------------------------------------


class _IrPanels:
    """Gauss-Legendre panels for I(c) = -int_0^inf g'(v) ln(v^2+c^2) dv.

    Integration by parts in velocity space turns the c-peaked kernel
    v/(v^2+c^2) into the gentle log kernel, so one fixed geometric panel set
    serves every c >= 0 (including c = 0, the Hilbert-transform boundary
    value).  g = (b^{-1})'' is odd with g' even, both in closed form after a
    Newton inversion of b at the nodes.
    """

    V_LO = 1e-9
    RATIO = 1.8
    NGL = 12

    def __init__(self, state: FlowState):
        v_max = eval_b(state, 20.0)
        edges = [self.V_LO]
        while edges[-1] < v_max:
            edges.append(min(edges[-1] * self.RATIO, v_max))
        x, w = np.polynomial.legendre.leggauss(self.NGL)
        nodes, weights = [], []
        for a, bb in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + bb), 0.5 * (bb - a)
            nodes.append(mid + half * x)
            weights.append(half * w)
        self.v = np.concatenate(nodes)
        self.w = np.concatenate(weights)
        ys = self._invert(state, self.v)
        self.gp = self._gprime(state, ys)
        self.gp0 = float(self._gprime(state, np.array([0.0]))[0])

    @staticmethod
    def _invert(state: FlowState, vs: np.ndarray) -> np.ndarray:
        ys = vs.copy()
        for _ in range(60):
            b, b1 = eval_b_slope(state, ys)
            step = (b - vs) / b1
            ys -= step
            if np.max(np.abs(step)) < 1e-15 * (1.0 + np.max(np.abs(ys))):
                break
        return ys

    @staticmethod
    def _gprime(state: FlowState, ys: np.ndarray) -> np.ndarray:
        _, b1, b2, b3 = eval_b_derivs(state, ys)
        return (3.0 * b2 ** 2 - b3 * b1) / b1 ** 5

    def _head(self, c: float) -> float:
        """g'(0) * int_0^V_LO ln(v^2+c^2) dv in closed form."""
        v = self.V_LO
        if c == 0.0:
            inner = 2.0 * (v * math.log(v) - v)
        else:
            inner = v * math.log(v * v + c * c) - 2.0 * v + 2.0 * c * math.atan(v / c)
        return self.gp0 * inner

    def i_r(self, cs: np.ndarray) -> np.ndarray:
        cs = np.atleast_1d(np.asarray(cs, dtype=float))
        logs = np.log(self.v[None, :] ** 2 + cs[:, None] ** 2)
        body = logs @ (self.w * self.gp)
        head = np.array([self._head(c) for c in cs])
        return -(body + head)


@lru_cache(maxsize=16)
def _panels(state: FlowState) -> _IrPanels:
    return _IrPanels(state)


# ---------------------------------------------------------------------------
# Wronskian assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WronskianValue:
    k: float
    c: complex
    W: complex
    quad_error: float

    def imag_ok(self) -> bool:
        return abs(self.W.imag) <= max(1e-6 * abs(self.W), 10.0 * self.quad_error)


def _assemble_many(state: FlowState, ks: np.ndarray, cs: np.ndarray, half_width: float,
                   rtol: float = RTOL_ODE, atol: float = ATOL_ODE):
    """W(ic, k) for a batch of channels sharing one right half-line pass."""
    ks = np.asarray(ks, dtype=float)
    cs = np.asarray(cs, dtype=float)
    system = _WSystem(state, ks, cs)
    eps = _eps_start(cs)
    ymax = _ymax_for(ks, half_width)

    st_r, _, _ = _run_side(system, +1, eps, ymax, rtol=rtol, atol=atol)
    st_l = _mirror(st_r)

    phi_r, mu_r = _phi_and_slope(system, ymax, st_r)
    phi_l, mu_l = _phi_and_slope(system, -ymax, st_l)
    tail_f_r = 1.0 / (2.0 * mu_r * phi_r ** 2)
    tail_f_l = -1.0 / (2.0 * mu_l * phi_l ** 2)
    b_r, b_l = eval_b(state, np.array([ymax, -ymax]))
    tail_i_r = 1.0 / (b_r - 1j * cs)
    tail_i_l = -1.0 / (b_l - 1j * cs)

    strip = np.where(
        cs > 0.0,
        -ks ** 2 * 2.0 * np.real(_strip_v3(system.beta, eps, cs)),
        -2.0 * eps * ks ** 2 / (3.0 * system.beta ** 2),
    )

    ir = _panels(state).i_r(cs)
    # left pass runs from -eps down to -Y, so its accumulator is minus the segment
    qii = st_r[:, 4] - st_l[:, 4]
    ii = qii + strip + (tail_f_r - tail_i_r) + (tail_f_l - tail_i_l)
    w = ir + ii

    tail_mag = np.abs(tail_f_r) + np.abs(tail_f_l)
    quad_err = (
        3.0 * rtol * (np.abs(st_r[:, 4]) + np.abs(st_l[:, 4]))
        + 0.05 * np.abs(strip)
        + 0.1 * tail_mag
        + 1e-13 * (np.abs(ir) + 1.0)
    )
    return w, quad_err, dict(ir=ir, qii=qii, strip=strip, tail_f=(tail_f_r, tail_f_l))


def wronskian_many(state: FlowState, ks, cs, half_width: float = 20.0,
                   rtol: float = RTOL_ODE, atol: float = ATOL_ODE):
    """Vectorized W over paired (k, c_i) channels; returns (W, quad_error)."""
    w, qe, _ = _assemble_many(state, np.asarray(ks, float), np.asarray(cs, float), half_width,
                              rtol, atol)
    return w, qe


def wronskian(state: FlowState, k: float, c_i: float, half_width: float = 20.0,
              rtol: float = RTOL_ODE, atol: float = ATOL_ODE) -> WronskianValue:
    """W(ic_i, k) with an honest quadrature-error estimate.

    Requires c_i > 0 (the integrand is nonsingular since |b - ic| >= c_i);
    the boundary value at c_i = 0 is ``wronskian_boundary``.  Raises
    ``TailDominance`` when the modeled tail beyond the integration window is
    not negligible against the terms summed into W, |I_r| + |quadrature| +
    |strip|; unlike |W| itself that scale stays O(1) at a root, where the
    terms cancel.
    """
    if not c_i > 0.0:
        raise ValueError("wronskian requires c_i > 0; use wronskian_boundary for c_i = 0")
    w, qe, parts = _assemble_many(state, np.array([k]), np.array([c_i]), half_width, rtol, atol)
    tail = abs(parts["tail_f"][0][0]) + abs(parts["tail_f"][1][0])
    scale = abs(parts["ir"][0]) + abs(parts["qii"][0]) + abs(parts["strip"][0])
    if tail > max(1e-8 * scale, 1e-300):
        raise TailDominance(f"tail estimate {tail:g} exceeds 1e-8 of the W terms "
                            f"({scale:g}); domain too small")
    return WronskianValue(k=k, c=1j * c_i, W=complex(w[0]), quad_error=float(qe[0]))


def wronskian_boundary(state: FlowState, k: float, half_width: float = 20.0) -> WronskianValue:
    """W(0, k): the c = 0 channel of the Wronskian assembly.

    There I is the Hilbert-transform term p.v. integral of (b^{-1})''(v) / v
    dv, the c = 0 value of the log-kernel quadrature used for I(c), whose
    sign convention thereby agrees with the c_i -> 0+ limit of
    ``wronskian``; II is the phi1 correction integral.  The imaginary part
    i*pi*(b^{-1})''(0) vanishes identically because the profile is odd.
    """
    if not k > 0.0:
        raise ValueError("k must be positive")
    w, qe, _ = _assemble_many(state, np.array([k]), np.array([0.0]), half_width)
    return WronskianValue(k=k, c=0j, W=complex(w[0]), quad_error=float(qe[0]))


# ---------------------------------------------------------------------------
# phi1 / phi2 sample solutions
# ---------------------------------------------------------------------------

_NEAR_SAMPLES = (2e-6, 4e-6)


@dataclass(frozen=True)
class Phi1Solution:
    k: float
    c_r: float
    y_c: float
    ys: np.ndarray
    phi1: np.ndarray
    dphi1: np.ndarray


@dataclass(frozen=True)
class Phi2Solution:
    k: float
    c: complex
    ys: np.ndarray
    phi2: np.ndarray
    dphi2: np.ndarray


def _sample_ys(grid_or_ys) -> np.ndarray:
    if isinstance(grid_or_ys, Grid):
        base = grid_or_ys.ys()
    else:
        base = np.asarray(grid_or_ys, dtype=float)
    extra = np.array([s for e in _NEAR_SAMPLES for s in (-e, e)])
    ys = np.unique(np.concatenate([base, extra]))
    return ys


def _unpack_samples(state: FlowState, k: float, c_i: float, ys: np.ndarray):
    """phi1, phi1', phi2, phi2' at the ascending sample points ys.

    Points within the seed offset of the origin take the seed values; the
    others are recorded by one pass per half line.
    """
    system = _WSystem(state, np.array([k]), np.array([c_i]))
    eps = _eps_start(np.array([c_i]))
    # pure sampling pass: no quadrature tails, so the farthest sample bounds it
    ymax = max(float(np.max(np.abs(ys))), 2.0)
    neg, pos = ys[ys < -eps], ys[ys > eps]
    _, rec_l, _ = _run_side(system, -1, eps, ymax, samples=list(neg[::-1]))
    _, rec_r, _ = _run_side(system, +1, eps, ymax, samples=list(pos))
    st = np.concatenate([rec_l[::-1], rec_r])[:, 0]
    far = np.abs(ys) > eps
    b = eval_b(state, ys[far])
    u = b - 1j * c_i
    phi1 = np.ones(len(ys))
    dphi1 = k * k * ys / 3.0
    phi2 = np.ones(len(ys), dtype=complex)
    dphi2 = np.zeros(len(ys), dtype=complex)
    phi1[far] = 1.0 + st[:, 0].real
    dphi1[far] = (st[:, 1] / (b * b)).real
    phi2[far] = 1.0 + st[:, 2]
    dphi2[far] = st[:, 3] / (u * u * phi1[far] ** 2)
    return phi1, dphi1, phi2, dphi2


def solve_phi1(state: FlowState, k: float, grid) -> Phi1Solution:
    """Regular solution of (b^2 phi1')' = k^2 b^2 phi1, normalized at y = 0.

    ``grid`` may be a Grid or an explicit sample array; near-origin sample
    points are always added so downstream normalization checks have data
    close to the critical point.
    """
    if not k > 0.0:
        raise ValueError("k must be positive")
    ys = _sample_ys(grid)
    phi1, dphi1, _, _ = _unpack_samples(state, k, 0.0, ys)
    return Phi1Solution(k=k, c_r=0.0, y_c=0.0, ys=ys, phi1=phi1, dphi1=dphi1)


def solve_phi2(state: FlowState, k: float, c_i: float, phi1: Phi1Solution) -> Phi2Solution:
    """Correction factor phi2 at wave speed ic_i on phi1's sample points.

    phi1 is co-integrated (same ODE, same seeds) rather than interpolated;
    the passed solution pins the sample set and guards against mismatched k.
    """
    if phi1.k != k:
        raise ValueError("phi1 was computed at a different wave number")
    if c_i < 0.0:
        raise ValueError("c_i must be nonnegative")
    ys = phi1.ys
    if c_i == 0.0:
        return Phi2Solution(
            k=k,
            c=0j,
            ys=ys,
            phi2=np.ones(len(ys), dtype=complex),
            dphi2=np.zeros(len(ys), dtype=complex),
        )
    _, _, phi2, dphi2 = _unpack_samples(state, k, c_i, ys)
    return Phi2Solution(k=k, c=1j * c_i, ys=ys, phi2=phi2, dphi2=dphi2)


def assemble_phi(state: FlowState, phi1: Phi1Solution, phi2: Phi2Solution, c_i: float):
    """phi = (b - ic) phi1 phi2 on the shared sample points.

    Checks the normalization pair phi(y_c) = -i c_i, phi'(y_c) = b'(y_c) by
    Richardson-free even/odd averaging over the built-in near-origin
    samples.  (The factorized solution takes the value -i c_i at the
    critical point; a scalar multiple cannot flip that sign without also
    flipping phi'.)
    """
    if phi1.k != phi2.k or len(phi1.ys) != len(phi2.ys):
        raise ValueError("phi1/phi2 sample sets do not match")
    ys = phi1.ys
    phi = (eval_b(state, ys) - 1j * c_i) * phi1.phi1 * phi2.phi2
    delta = _NEAR_SAMPLES[0]
    i_p = int(np.argmin(np.abs(ys - delta)))
    i_m = int(np.argmin(np.abs(ys + delta)))
    val0 = 0.5 * (phi[i_p] + phi[i_m])
    slope0 = (phi[i_p] - phi[i_m]) / (ys[i_p] - ys[i_m])
    beta = _beta(state)
    if abs(val0 - (-1j * c_i)) > 1e-8 * max(1.0, c_i):
        raise ConsistencyFailure(f"phi(y_c) = {val0} but expected {-1j * c_i}")
    if abs(slope0 - beta) > 1e-8 * max(1.0, beta):
        raise ConsistencyFailure(f"phi'(y_c) = {slope0} but expected {beta}")
    return ys, phi


# ---------------------------------------------------------------------------
# determinant cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetCheckReport:
    probes: np.ndarray
    dets: np.ndarray
    W: complex
    max_rel_dev: float


def wronskian_det_check(
    state: FlowState, k: float, c_i: float, probe_ys: Sequence[float], half_width: float = 20.0
) -> DetCheckReport:
    """Evaluate W as the 2x2 determinant of the decaying pair at probe points.

    phi-(y) and phi+(y) are built from cumulative integrals of phi^(-2)
    accumulated from each side separately (plus modeled tails and the
    origin-strip closed form), so the determinant exercises an arithmetic
    path independent of the I + II assembly returned as ``W``.  qF is
    integrated for this check only, as a sixth column of the W system.  Both
    half lines are integrated here, so the check also guards the mirror
    identity the one-sided assembly relies on.
    """
    if not c_i > 0.0:
        raise ValueError("det check requires c_i > 0")
    probes = np.asarray(sorted(probe_ys), dtype=float)
    system = _WSystem(state, np.array([k]), np.array([c_i]), with_qf=True)
    eps = _eps_start(np.array([c_i]))
    ymax = _ymax_for(np.array([k]), half_width)
    if np.any(np.abs(probes) >= ymax) or np.any(np.abs(probes) <= eps):
        raise ValueError("probes must lie strictly between eps and ymax")

    pos = list(probes[probes > 0])
    neg = list(probes[probes < 0])[::-1]
    st_r, rec_r, _ = _run_side(system, +1, eps, ymax, samples=pos)
    st_l, rec_l, _ = _run_side(system, -1, eps, ymax, samples=neg)

    phi_r, mu_r = _phi_and_slope(system, ymax, st_r)
    phi_l, mu_l = _phi_and_slope(system, -ymax, st_l)
    tail_f_r = complex((1.0 / (2.0 * mu_r * phi_r ** 2))[0])
    tail_f_l = complex((-1.0 / (2.0 * mu_l * phi_l ** 2))[0])

    cs = np.array([c_i])
    strip_f = complex(
        2.0 * np.real(_strip_base(system.beta, eps, cs)
                      - k * k * _strip_v3(system.beta, eps, cs))[0]
    )
    qf_r_tot = complex(st_r[0, 5])
    qf_l_tot = complex(st_l[0, 5])

    w_ref, _, _ = _assemble_many(state, np.array([k]), cs, half_width)
    w_ref = complex(w_ref[0])

    dets = []
    for y in probes:
        if y > 0:
            st = rec_r[pos.index(y)]
            qf_here = complex(st[0, 5])
            f_minus = tail_f_l + (-qf_l_tot) + strip_f + qf_here
            f_plus = -((qf_r_tot - qf_here) + tail_f_r)
        else:
            st = rec_l[neg.index(y)]
            qf_here = complex(st[0, 5])
            f_minus = tail_f_l + (qf_here - qf_l_tot)
            f_plus = -((-qf_here) + strip_f + qf_r_tot + tail_f_r)
        phi, mu = _phi_and_slope(system, y, st)
        phi = complex(phi[0])
        dphi = complex(mu[0]) * phi
        vm = phi * f_minus
        vp = phi * f_plus
        dm = dphi * f_minus + 1.0 / phi
        dp = dphi * f_plus + 1.0 / phi
        dets.append(vm * dp - vp * dm)
    dets = np.array(dets)
    max_rel = float(np.max(np.abs(dets - w_ref)) / max(abs(w_ref), 1e-300))
    return DetCheckReport(probes=probes, dets=dets, W=w_ref, max_rel_dev=max_rel)


# ---------------------------------------------------------------------------
# roots in c_i: the unstable eigenvalue
# ---------------------------------------------------------------------------


def _scan_grid(c_max: float) -> np.ndarray:
    return np.logspace(math.log10(C_SCAN_LO), math.log10(c_max), C_SCAN_POINTS)


def scan_wronskian(
    state: FlowState, k, c_max: float = C_MAX_DEFAULT, half_width: float = 20.0
):
    """W(ic, k) on the log-spaced root-scan grid; one batched pass.

    ``k`` is a wave number or a sequence of them; for a sequence, W and its
    error estimate have one row per wave number, all from the same pass.
    Raises ``ValueError`` unless every wave number is positive.
    """
    cs = _scan_grid(c_max)
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    if not np.all(ks > 0.0):
        raise ValueError("wave numbers must be positive")
    w, qe = wronskian_many(state, np.repeat(ks, len(cs)), np.tile(cs, len(ks)), half_width)
    shape = (len(ks), len(cs)) if np.ndim(k) else (len(cs),)
    return cs, w.reshape(shape), qe.reshape(shape)


def eigenvalues_for_ks(
    state: FlowState,
    ks: Sequence[float],
    c_max: float = C_MAX_DEFAULT,
    half_width: float = 20.0,
):
    """Purely imaginary unstable eigenvalues at several wave numbers at once.

    One batched scan of Re W(ic, k) on the log-spaced c grid brackets each
    wave number's sign change, then every bracket is polished together
    until |W| <= tol_root = 1e-10 * |W(i c_max, k)|, per bracket.  Returns
    ``(roots, cs, W)``: ``roots[j]`` is (c_i, residual) for ks[j], or None
    when its scan has no sign change (no purely imaginary eigenvalue at
    scan resolution); W is the scan, one row per wave number.  Raises
    ``ValueError`` for a wave number k <= 0, ``MultipleRoots`` if a scan has
    more than one sign change and ``NonConvergence`` if a polish stalls.
    """
    ks = np.asarray(ks, dtype=float)
    cs, w, _ = scan_wronskian(state, ks, c_max, half_width)
    wr = w.real
    flips = (wr[:, :-1] == 0.0) | ((wr[:, :-1] > 0) != (wr[:, 1:] > 0))
    for k, n in zip(ks, np.count_nonzero(flips, axis=1)):
        if n > 1:
            raise MultipleRoots(f"{n} sign changes of Re W at k={k:g}; expected at most one")
    rows = np.flatnonzero(flips.any(axis=1))
    roots = [None] * len(ks)
    if rows.size:
        j = flips[rows].argmax(axis=1)

        def w_at(x, i):
            return wronskian_many(state, ks[rows[i]], np.exp(x), half_width)[0]

        x, w_root, _, _ = chandrupatla(w_at, np.log(cs[j]), np.log(cs[j + 1]), w[rows, j],
                                       w[rows, j + 1], 1e-10 * np.abs(w[rows, -1]),
                                       MAX_POLISH, "root polish")
        for r, c, resid in zip(rows, np.exp(x).tolist(), np.abs(w_root).tolist()):
            roots[r] = (c, resid)
    return roots, cs, w


def eigenvalue_for_k(
    state: FlowState,
    k: float,
    c_max: float = C_MAX_DEFAULT,
    half_width: float = 20.0,
):
    """Purely imaginary unstable eigenvalue at wave number k, if any.

    The one-wave-number case of ``eigenvalues_for_ks``: returns (c_i,
    residual) with residual = |W(ic_i, k)| <= 1e-10 * |W(i c_max, k)|, or
    None when Re W(ic, k) has no sign change on the scan grid.  Raises
    ``MultipleRoots`` if more than one sign change is found.
    """
    roots, _, _ = eigenvalues_for_ks(state, [k], c_max, half_width)
    return roots[0]


@dataclass(frozen=True)
class EigenCurve:
    points: tuple  # (k, c_i, residual)
    slope_samples: tuple  # (k, dc_i/dk)
    k_zero: Optional[float]


def eigencurve(state: FlowState, k_grid: Sequence[float], half_width: float = 20.0) -> EigenCurve:
    """Map k -> c_i(k) over a wave-number grid inside (0, k*).

    All wave numbers share one batched scan and one batched root polish.
    Slopes by central differences on the computed points; ``k_zero`` is the
    linear extrapolation of the last two points to c_i = 0, the curve's own
    estimate of the critical wave number.
    """
    ks = np.asarray(sorted(k_grid), dtype=float)
    roots = eigenvalues_for_ks(state, ks, half_width=half_width)[0] if len(ks) else []
    pts = []
    for k, root in zip(ks, roots):
        if root is None:
            raise NonConvergence(f"no root at k={k:g}; grid extends past k*")
        pts.append((float(k), root[0], root[1]))
    slopes = []
    for j in range(1, len(pts) - 1):
        km, _, _ = pts[j - 1]
        kp, _, _ = pts[j + 1]
        slopes.append((pts[j][0], (pts[j + 1][1] - pts[j - 1][1]) / (kp - km)))
    k_zero = None
    if len(pts) >= 2:
        (k1, c1, _), (k2, c2, _) = pts[-2], pts[-1]
        if c1 != c2:
            k_zero = k2 + c2 * (k2 - k1) / (c1 - c2)
    return EigenCurve(points=tuple(pts), slope_samples=tuple(slopes), k_zero=k_zero)


def wronskian_partials(
    state: FlowState,
    k: float,
    c_i: float,
    dk: float = 1e-4,
    dci: Optional[float] = None,
    half_width: float = 20.0,
):
    """Central-difference partials (d Re W / dk, d Re W / dc_i)."""
    if dci is None:
        dci = 1e-4 * state.params.gamma0
    ks = np.array([k + dk, k - dk, k, k])
    cs = np.array([c_i, c_i, c_i + dci, c_i - dci])
    w, _ = wronskian_many(state, ks, cs, half_width)
    dw_dk = (w[0].real - w[1].real) / (2.0 * dk)
    dw_dci = (w[2].real - w[3].real) / (2.0 * dci)
    return dw_dk, dw_dci


# ---------------------------------------------------------------------------
# the decaying neutral mode built from phi1 quadratures
# ---------------------------------------------------------------------------


class _Phi1QuadSystem:
    """phi1 flux system plus the two cumulative integrals of the neutral mode.

    state columns: [d1, p1, qA, qB] with
      qA = integral of (b'(0) - b') / b^2
      qB = integral of (phi1^(-2) - 1) / b^2
    """

    def __init__(self, state: FlowState, k: float):
        self.state = state
        self.beta = _beta(state)
        self.k2 = k * k

    def rhs(self, y: float, st: np.ndarray) -> np.ndarray:
        b, b1 = eval_b_slope(self.state, y)
        b2 = b * b
        d1, p1 = st[:, 0], st[:, 1]
        phi1 = 1.0 + d1
        out = np.empty_like(st)
        out[:, 0] = p1 / b2
        out[:, 1] = self.k2 * b2 * phi1
        out[:, 2] = (self.beta - b1) / b2
        out[:, 3] = -d1 * (2.0 + d1) / (phi1 * phi1 * b2)
        return out

    def seed(self, y0: float) -> np.ndarray:
        b = eval_b(self.state, y0)
        st = np.zeros((1, 4), dtype=complex)
        st[0, 0] = self.k2 * y0 * y0 / 6.0
        st[0, 1] = b * b * self.k2 * y0 / 3.0
        return st


def neutral_mode_phiB(
    state: FlowState, kstar: float, grid: Grid, normalized: bool = True
) -> np.ndarray:
    """Neutral mode via the second-solution quadrature formula, on grid nodes.

    Built on the left half line, where every factor is numerically benign
    (the growing solution b*phi1 multiplies integrals accumulated from
    -infinity that vanish at matching rate), then mirrored by evenness and
    normalized to a positive unit-discrete-L2 mode.  On the right half line
    the same formula requires cancellation of totals against the Wronskian
    zero and amplifies quadrature noise by e^{2 k |y|}, so it is not used.
    Raises ``TailDominance`` when k* * half_width is too small for the
    quadrature tails.
    """
    if not kstar > 0.0:
        raise ValueError("kstar must be positive")
    if kstar * grid.half_width < 8.0:
        raise TailDominance("kstar * half_width < 8: mode tails exceed the domain")
    ys = grid.ys()
    mid = len(ys) // 2
    neg = ys[:mid]  # ascending, all negative
    ymax = grid.half_width

    system = _Phi1QuadSystem(state, kstar)
    fin, rec, _ = _run_side(system, -1, EPS_MAX, ymax, samples=list(neg)[::-1])
    st = rec[::-1, 0].real  # ascending in y

    beta = system.beta
    b_l = eval_b(state, -ymax)
    phi1_end = 1.0 + fin[0, 0].real
    mu_end = abs((fin[0, 1].real / (b_l * b_l)) / phi1_end)
    tail_a = (beta - 1.0) / abs(b_l)
    tail_b = -1.0 / abs(b_l) + phi1_end ** -2 / (2.0 * mu_end * b_l ** 2)
    qa_tot = fin[0, 2].real
    qb_tot = fin[0, 3].real

    phi1 = 1.0 + st[:, 0]
    f_a = tail_a + (st[:, 2] - qa_tot)
    f_b = tail_b + (st[:, 3] - qb_tot)
    phi_a = eval_b(state, neg) * phi1
    phi_b = np.empty_like(ys)
    phi_b[:mid] = (phi_a / beta) * f_a - phi1 / beta + phi_a * f_b
    phi_b[mid] = -1.0 / beta
    phi_b[mid + 1 :] = phi_b[:mid][::-1]
    if not normalized:
        return phi_b
    norm = math.sqrt(np.sum(phi_b ** 2) * grid.spacing)
    return -phi_b / norm


# ---------------------------------------------------------------------------
# pointwise bound suites with fitted constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Fitted constants for a family of pointwise envelope checks."""

    constants: dict
    signs_ok: bool


def phi1_bound_report(state: FlowState, sol: Phi1Solution) -> BoundReport:
    """Envelope, derivative and directional-decay constants for phi1."""
    k = sol.k
    ys, f, df = sol.ys, sol.phi1, sol.dphi1
    signs_ok = bool(np.all(f >= 1.0 - 1e-9) and np.all(ys * df >= -1e-10 * (1.0 + np.abs(ys))))

    def env(C):
        grow = np.exp(np.minimum(C * k * np.abs(ys), 690.0))
        return bool(np.all(f <= C * grow) and np.all(f >= np.exp(k * np.abs(ys) / C) / C))

    c_env = _fit_min_C(env)
    mask = np.abs(ys) >= 1e-4
    c_dphi = float(np.max(np.abs(df[mask]) / (k * np.minimum(k * np.abs(ys[mask]), 1.0) * f[mask])))
    b, b1 = eval_b_slope(state, ys[mask])
    ddf = k * k * f[mask] - 2.0 * (b1 / b) * df[mask]
    c_ddphi = float(np.max(np.abs(ddf) / (k * k * f[mask])))
    c_excess = float(np.max((f[mask] - 1.0) / (np.minimum(1.0, (k * ys[mask]) ** 2) * f[mask])))

    left = ys <= 0.0
    yl, fl = ys[left], f[left]
    dmat = yl[None, :] - yl[:, None]
    ratio = fl[None, :] / fl[:, None]
    upper = np.triu(np.ones_like(dmat, dtype=bool), k=1)

    def decay(C):
        return bool(np.all(ratio[upper] <= C * np.exp(-k * dmat[upper] / C)))

    c_decay = _fit_min_C(decay)
    return BoundReport(
        constants={
            "A4_envelope": c_env,
            "A5_dphi1": c_dphi,
            "A6_ddphi1": c_ddphi,
            "A7_excess": c_excess,
            "A8_A9_decay": c_decay,
        },
        signs_ok=signs_ok,
    )


def phi2_bound_report(
    state: FlowState, p1: Phi1Solution, p2: Phi2Solution, c_i: float
) -> BoundReport:
    """Smallness constants of the phi2 correction at wave speed ic_i."""
    k = p2.k
    ys = p2.ys
    mask = np.abs(ys) >= 1e-4
    y = ys[mask]
    f2 = p2.phi2[mask]
    df2 = p2.dphi2[mask]
    bound10 = np.minimum(k * c_i, np.minimum(k * k * c_i * np.abs(y), (k * np.abs(y)) ** 2))
    c10 = float(np.max(np.abs(f2 - 1.0) / bound10))
    c11 = float(np.max(np.abs(df2) / (k * k * np.minimum(c_i, np.abs(y)))))
    wide = np.abs(ys) >= 1e-3
    yw = ys[wide]
    b, b1 = eval_b_slope(state, yw)
    u = b - 1j * c_i
    f1w = p1.phi1[wide]
    df1w = p1.dphi1[wide]
    f2w = p2.phi2[wide]
    df2w = p2.dphi2[wide]
    flux_deriv = 2.0 * u * b1 * f1w ** 2 + u * u * 2.0 * f1w * df1w
    ddf2 = (-(2j * c_i * b1 * u / b) * f1w * df1w * f2w - flux_deriv * df2w) / (u * u * f1w ** 2)
    c12 = float(np.max(np.abs(ddf2)) / (k * k))
    return BoundReport(
        constants={"A10_phi2m1": c10, "A11_dphi2": c11, "A12_ddphi2": c12},
        signs_ok=True,
    )


def phi_bound_report(
    state: FlowState, p1: Phi1Solution, p2: Phi2Solution, c_i: float
) -> BoundReport:
    """Two-sided modulus envelope of the assembled solution phi."""
    k = p1.k
    ys = p1.ys
    phi = np.abs((eval_b(state, ys) - 1j * c_i) * p1.phi1 * p2.phi2)
    dist = np.sqrt(ys ** 2 + c_i ** 2)

    def env(C):
        grow = np.exp(np.minimum(C * k * np.abs(ys), 690.0))
        return bool(
            np.all(phi <= dist * grow + 1e-300)
            and np.all(phi >= dist * np.exp(k * np.abs(ys) / C) / C)
        )

    return BoundReport(constants={"A13_phi_envelope": _fit_min_C(env)}, signs_ok=True)
