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

  I  = integral of (b - ic)^(-2)          (a log kernel in velocity space
       on Gauss-Legendre panels laid in y, real by oddness of the profile)
  II = integral of (b - ic)^(-2) * ((phi1 phi2)^(-2) - 1)
       (regular at the origin; accumulated as extra ODE state)

which avoids the 1/c cancellation a naive two-sided quadrature suffers.

The profile is odd, so the regular solution satisfies phi(-y) = -conj phi(y)
and the integrator reproduces that mirror bit for bit: every pass runs
forward from the seed at y = eps > 0 (``_run``) and the left side takes the
mirrored state.  Only a test oracle integrates the left half line, as the
reflected system in s = -y.  A sampled pass (``_sampled``: ``solve_phi``,
one pass for phi1 and phi2 together, and the neutral mode) records the
sorted unique |y| by ``_ode``'s one sample rule, so the 1-ulp pairs of a
rounded grid share a record; ``_decode`` reads phi1, phi2 and their slopes
from the flux state.

Every W pass goes through ``wronskian_many``, which stops at the cut Y_c
where the profile becomes Couette to rounding, b' = 1.0, and adds the
exact tail of phi'' = k^2 phi beyond it; it raises ``TailDominance`` when
that closed form's premises fail.  The boundary value, the scans and the
root polish all inherit the cut and the guard.  W is real: the left half
line adds the conjugates of the right one's terms, so W travels as a float.
Every pass, sampled or not, builds ``_WSystem``, which rejects a wave
number outside (0, inf) and a wave speed outside [0, inf), NaN included.
The mirror identity and the cut's exact tail are checked against a
two-sided determinant over the long window max(20, 12/k), a test oracle
(``tests/oracles.py``).

The boundary value W(0, k) is the c = 0 channel of the same assembly: the
log-kernel quadrature of I at c = 0 is the Hilbert-transform term, and the
strip and II terms take their c = 0 forms.

Roots in c_i are found for many wave numbers at once: one batched scan of
W on a log-spaced c grid brackets each sign change, and Chandrupatla's
bracketed inverse-quadratic iteration in log c (``_roots.chandrupatla``,
shared with the calibration; Adv. Eng. Softw. 28, 1997) polishes every
bracket together, one ``wronskian_many`` pass per iteration.  Its first
point is the scan's inverse interpolant, log c as a polynomial in W
through the scan points around the sign change, which usually meets the
tolerance: one polish pass per root.  ``eigencurve`` evaluates only a
window of that grid where it can, about the neutral-limit law

    c_i = (k*^2 - k^2) A + O(c_i^2),  A = ||phi0||^2 b'(0)^2 / (pi |b'''(0)| phi0(0)^2),

phi0 the neutral mode of the eigensolve the caller hands in (Tollmien
1935; Drazin & Reid, Hydrodynamic Stability, 2004), which puts each root
within a few percent.  It seeds a row only where -k^2 lies above exactly
one eigenvalue: Z. Lin (SIAM J. Math. Anal. 35 (2003) 318) ties the
unstable modes at k to the bound states below -k^2.  The scans that check
for absence (``eigenvalues_for_ks``, ``eigenvalue_for_k``) stay full.

The functions take only the physics (state, k, c_i, sample points); the
numerical settings are module constants, read when a function runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _ode
from ._ode import integrate
from ._roots import chandrupatla
from .errors import MultipleRoots, NonConvergence, TailDominance
from .flow import FlowState, eval_b, eval_b_derivs, eval_b_slope, eval_b_slope_excess

__all__ = [
    "PhiSolution",
    "EigenCurve",
    "solve_phi",
    "wronskian_many",
    "scan_wronskian",
    "eigenvalues_for_ks",
    "eigenvalue_for_k",
    "eigencurve",
    "wronskian_partials",
    "neutral_mode_phiB",
]

EPS_MAX = 1e-6
C_SCAN_LO = 1e-8
C_SCAN_POINTS = 200
C_SEED_WINDOW = 6  # scan nodes on each side of a sign change, or of the law's node in eigencurve
C_MAX = 0.5
MAX_POLISH = 80
ROOT_RTOL = 1e-10


def _beta(state: FlowState) -> float:
    """b'(0), the slope of the profile at the critical point."""
    return float(eval_b_slope(state, 0.0)[1])


# ---------------------------------------------------------------------------
# the batched phi1/phi2 system
# ---------------------------------------------------------------------------
# state columns: [d1, p1, d2, p2, qII] with
#   d1 = phi1 - 1,  p1 = b^2 phi1'
#   d2 = phi2 - 1,  p2 = (b - ic)^2 phi1^2 phi2'
#   qII = integral of (b-ic)^(-2) ((phi1 phi2)^(-2) - 1)
# The step size follows every column's error, so a column nothing reads
# would steer the steps of every pass.


class _WSystem:
    def __init__(self, state: FlowState, ks: np.ndarray, cs: np.ndarray):
        ks, cs = np.asarray(ks, dtype=float), np.asarray(cs, dtype=float)
        if not np.all((0.0 < ks) & (ks < np.inf)):
            raise ValueError("wave numbers must be positive")
        if not np.all((0.0 <= cs) & (cs < np.inf)):
            raise ValueError("wave speeds need c_i >= 0")
        self.state = state
        self.beta = _beta(state)
        self.k2 = ks ** 2
        self.ic = 1j * cs
        # per-channel constants of the RHS, complex like the state: numpy takes
        # about twice as long for a Python scalar operand as for such an array
        self.one = np.ones(len(cs), dtype=complex)
        self.neg_ic = -self.ic
        self.neg_2ic = 2.0 * self.neg_ic
        self.neg_two = -2.0 * self.one

    def rhs(self, y: float, st: np.ndarray) -> np.ndarray:
        return self._columns(*eval_b_slope(self.state, y), st)

    def _columns(self, b, b1, st: np.ndarray) -> np.ndarray:
        # one numpy call per product, the last of each derivative's writing
        # into its column of ``out``; w = phi1 phi2 = 1 + wm1
        d1, p1, d2, p2 = st[:, 0], st[:, 1], st[:, 2], st[:, 3]
        b2 = b * b
        out = np.empty_like(st)
        phi1 = d1 + self.one
        dd1 = np.divide(p1, b2, out[:, 0])
        np.multiply(self.k2 * b2, phi1, out[:, 1])
        u = self.neg_ic + b
        u_phi1 = u * phi1
        np.divide(p2, u_phi1 * u_phi1, out[:, 2])
        wm1 = d1 + d2 + d1 * d2
        u_w = (wm1 + self.one) * u
        np.multiply(self.neg_2ic * (b1 / b) * u_w, dd1, out[:, 3])
        np.divide((self.neg_two - wm1) * wm1, u_w * u_w, out[:, 4])
        return out

    def seed(self, y0: float) -> np.ndarray:
        """Frobenius seeds at y0; phi2's are exact for the linearized profile.

        Dropping the O(c^2 k^2 y0) flux seed of phi2 would leave a
        c-independent O(k^2 |y0|) bias in the Wronskian, so p2 and d2 are
        seeded from the closed forms of the b ~ beta*y model.
        """
        b = eval_b(self.state, y0)
        beta = self.beta
        st = np.zeros((len(self.k2), 5), dtype=complex)
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


def _run(system: _WSystem, eps: float, y_end: float, samples=()):
    """One right half-line pass, seeded at y = eps and integrated to y_end."""
    return integrate(system.rhs, eps, y_end, system.seed(eps), h=eps * 0.5, samples=samples)


# y -> -y conjugates every state column and flips the sign of the fluxes and
# of the integrals accumulated from the origin outward.
_W_PARITY = np.array([1.0, -1.0, 1.0, -1.0, -1.0])


def _mirror(st: np.ndarray) -> np.ndarray:
    """The left half-line pass's state, exactly, from the right one's."""
    return np.conj(st) * _W_PARITY


def _unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as ``np.unique`` gives them, by sort and
    mask: ``np.unique`` without an index output first imports ``numpy.ma``,
    inside the request."""
    srt = np.sort(values)
    keep = np.ones(len(srt), dtype=bool)
    keep[1:] = srt[1:] != srt[:-1]
    return srt[keep]


def _sampled(system: _WSystem, eps: float, ys: np.ndarray) -> np.ndarray:
    """A one-channel state at each y of ``ys`` (every |y| > eps), one row per y."""
    mags, where = np.unique(np.abs(ys), return_inverse=True)
    _, rec, _ = _run(system, eps, float(mags[-1]), samples=list(mags))
    st = rec[where, 0]
    return np.where((ys < 0.0)[:, None], _mirror(st), st)


def _decode(system: _WSystem, y, st: np.ndarray):
    """(b', b - ic, phi1, phi1', phi2, phi2') at y from the flux state."""
    b, b1 = eval_b_slope(system.state, y)
    u = b - system.ic
    phi1 = 1.0 + st[:, 0]
    return b1, u, phi1, st[:, 1] / (b * b), 1.0 + st[:, 2], st[:, 3] / (u * u * phi1 * phi1)


def _phi_and_slope(system: _WSystem, y: float, st: np.ndarray):
    """phi and phi'/phi at a sample point from the flux state."""
    b1, u, phi1, dphi1, phi2, dphi2 = _decode(system, y, st)
    phi = u * phi1 * phi2
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


# ---------------------------------------------------------------------------
# the exact real part I(c) = integral of (b - ic)^(-2)
# ---------------------------------------------------------------------------


class _IrPanels:
    """Gauss-Legendre panels for I(c) = -int_0^inf g'(v) ln(v^2+c^2) dv.

    Integration by parts in velocity space turns the c-peaked kernel
    v/(v^2+c^2) into the gentle log kernel, so one fixed geometric panel set
    serves every c >= 0 (including c = 0, the Hilbert-transform boundary
    value).  g = (b^{-1})'' is odd with g' even, in closed form at y.  The
    panels are laid in y, each node weighted by dv/dy = b'(y): b increases,
    as b' - 1 = M (a1 e1 / sqrt(s1) - a2 e2 / sqrt(s2)) > 0 with e2 <= e1 and
    a2 / sqrt(s2) <= gamma2 gamma1^2 a1 / sqrt(s1), so no node inverts b.
    """

    Y_LO = 1e-9
    RATIO = 1.8
    # leggauss(12) to the bit, without importing numpy.polynomial: its nodes
    # are exactly odd and its weights exactly even, so six of each suffice
    _X6 = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                    0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
    _W6 = np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                    0.16007832854334642, 0.10693932599531907, 0.04717533638651141])
    GL_X, GL_W = np.concatenate((-_X6[::-1], _X6)), np.concatenate((_W6[::-1], _W6))
    BLOCK = 32  # channels per block of the log kernel

    def __init__(self, state: FlowState):
        edges = [self.Y_LO]
        while edges[-1] < 20.0:
            edges.append(min(edges[-1] * self.RATIO, 20.0))
        edges = np.array(edges)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        b, b1, b2, b3 = eval_b_derivs(state, (mid[:, None] + half[:, None] * self.GL_X).ravel())
        self.v2 = b ** 2
        self.wgp = (half[:, None] * self.GL_W).ravel() * b1 * self._gprime(b1, b2, b3)
        self.v_lo = float(eval_b(state, self.Y_LO))
        self.gp0 = float(self._gprime(*eval_b_derivs(state, 0.0)[1:]))

    @staticmethod
    def _gprime(b1, b2, b3):
        """g' from the derivatives of b at the same y."""
        return (3.0 * b2 ** 2 - b3 * b1) / b1 ** 5

    def _head(self, c: float) -> float:
        """g'(0) * int_0^b(Y_LO) ln(v^2+c^2) dv in closed form."""
        v = self.v_lo
        if c == 0.0:
            inner = 2.0 * (v * math.log(v) - v)
        else:
            inner = v * math.log(v * v + c * c) - 2.0 * v + 2.0 * c * math.atan(v / c)
        return self.gp0 * inner

    def i_r(self, cs: np.ndarray) -> np.ndarray:
        """I(c) per channel.  The log kernel is built BLOCK channels at a time,
        so a batch of any size holds at most BLOCK x len(v) of it."""
        cs = np.atleast_1d(np.asarray(cs, dtype=float))
        body = np.empty(len(cs))
        for lo in range(0, len(cs), self.BLOCK):
            block = cs[lo:lo + self.BLOCK, None]
            body[lo:lo + self.BLOCK] = np.log(self.v2 + block ** 2) @ self.wgp
        head = np.array([self._head(c) for c in cs])
        return -(body + head)


# ---------------------------------------------------------------------------
# Wronskian assembly
# ---------------------------------------------------------------------------


def _y_cut(state: FlowState, eps: float) -> float:
    """The cut Y_c, past which b = y + const to rounding: the wide Gaussian's
    term M a1/sqrt(s1) e^{-y^2/s1} of b' - 1, which bounds the narrow one's,
    is below 2^-60 (2^-7 under half an ulp of 1.0), and y >= 6 sqrt(s1) puts
    both erfs at 1.0.  At least twice the Frobenius seed offset eps."""
    lead = state.params.M * state.amp1 / math.sqrt(state.s1)
    log_lead = math.log(lead) + 60.0 * math.log(2.0) if lead > 0.0 else 0.0
    return max(math.sqrt(state.s1 * max(36.0, log_lead)), 2.0 * eps)


def wronskian_many(state: FlowState, ks, cs):
    """W(ic, k) over paired (k > 0, c_i >= 0) channels sharing one right
    half-line pass; returns (W, quad_error), both real.  c_i = 0 gives the
    boundary value W(0, k), whose I is the Hilbert-transform term.

    The pass stops at the cut Y_c (``_y_cut``).  Past it Rayleigh's equation
    is phi'' = k^2 phi, so phi = A e^{ks} + B e^{-ks} with s = y - Y_c, and
    the integral of phi^(-2) beyond is exactly 1 / (phi^2 (k + mu)), mu =
    phi'/phi at Y_c; that of (b - ic)^(-2) is 1 / (b - ic).  The left half
    line adds the conjugates.  Raises ``TailDominance``, naming k and c_i,
    when the closed form's premises fail at the cut: b' is not 1.0, or
    Re(mu/k) <= 1/2, so the decaying part could put a zero of phi beyond it.
    """
    ks = np.asarray(ks, dtype=float)
    cs = np.asarray(cs, dtype=float)
    system = _WSystem(state, ks, cs)
    eps = _eps_start(cs)
    y_cut = _y_cut(state, eps)
    st, _, _ = _run(system, eps, y_cut)
    phi, mu = _phi_and_slope(system, y_cut, st)
    b, b1 = eval_b_slope(state, y_cut)
    growth = (mu / ks).real
    bad = np.flatnonzero(~(growth > 0.5) | (b1 != 1.0))
    if bad.size:
        j = bad[0]
        raise TailDominance(f"no exact tail past y={y_cut:g} (b' - 1 = {b1 - 1.0:g}, Re(mu/k) = "
                            f"{growth[j]:g}) at k={ks[j]:g}, c_i={cs[j]:g}; it needs b' = 1 and "
                            "Re(mu/k) > 1/2")
    tail = 1.0 / (phi * phi * (ks + mu)) - 1.0 / (b - 1j * cs)
    strip = -ks ** 2 * np.where(cs > 0.0, 2.0 * np.real(_strip_v3(system.beta, eps, cs)),
                                2.0 * eps / (3.0 * system.beta ** 2))
    ir = _IrPanels(state).i_r(cs)
    # phi(-y) = -conj phi(y): the left half line's II is the conjugate of the right's
    w = ir + strip + 2.0 * np.real(st[:, 4] + tail)
    quad_err = (6.0 * _ode.RTOL * np.abs(st[:, 4]) + 0.05 * np.abs(strip)
                + 1e-13 * (np.abs(ir) + np.abs(tail) + 1.0))
    return w, quad_err


# ---------------------------------------------------------------------------
# phi1 / phi2 sample solutions
# ---------------------------------------------------------------------------

_NEAR_SAMPLES = (2e-6, 4e-6)


@dataclass(frozen=True)
class PhiSolution:
    """phi1, phi2 and their slopes at wave number k and wave speed ic_i."""

    k: float
    c_i: float
    ys: np.ndarray
    phi1: np.ndarray
    dphi1: np.ndarray
    phi2: np.ndarray
    dphi2: np.ndarray


def solve_phi(state: FlowState, k: float, c_i: float, ys) -> PhiSolution:
    """phi1 and phi2 of the regular solution at wave speed ic_i, one pass.

    phi1 solves (b^2 phi1')' = k^2 b^2 phi1 and is normalized at y = 0;
    phi2 is the O(c) correction, identically 1 at c_i = 0.  ``ys`` are the
    sample points; near-origin ones are always added so downstream
    normalization checks have data close to the critical point.  Points
    within the seed offset of the origin take the seed values; the others
    take the states of one right half-line pass to the farthest of them
    (``_sampled``).
    """
    ys = _unique(np.concatenate([np.asarray(ys, dtype=float),
                                 [s for e in _NEAR_SAMPLES for s in (-e, e)]]))
    system = _WSystem(state, np.array([k]), np.array([c_i]))
    eps = _eps_start(np.array([c_i]))
    far = np.abs(ys) > eps
    _, _, f1, df1, f2, df2 = _decode(system, ys[far], _sampled(system, eps, ys[far]))
    phi1, dphi1 = np.ones(len(ys)), k * k * ys / 3.0
    phi2, dphi2 = np.ones(len(ys), dtype=complex), np.zeros(len(ys), dtype=complex)
    phi1[far], dphi1[far], phi2[far], dphi2[far] = f1.real, df1.real, f2, df2
    return PhiSolution(k=k, c_i=c_i, ys=ys, phi1=phi1, dphi1=dphi1, phi2=phi2, dphi2=dphi2)


# ---------------------------------------------------------------------------
# roots in c_i: the unstable eigenvalue
# ---------------------------------------------------------------------------


def _scan_grid() -> np.ndarray:
    """The root scan's C_SCAN_POINTS log-spaced c from C_SCAN_LO to C_MAX."""
    return np.logspace(math.log10(C_SCAN_LO), math.log10(C_MAX), C_SCAN_POINTS)


def scan_wronskian(state: FlowState, k):
    """(cs, W): W(ic, k) on the log-spaced root-scan grid cs; one batched pass.

    ``k`` is a wave number or a sequence of them; for a sequence, W has one
    row per wave number, all from the same pass.
    """
    cs = _scan_grid()
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    w, _ = wronskian_many(state, np.repeat(ks, len(cs)), np.tile(cs, len(ks)))
    return cs, w.reshape((len(ks), len(cs)) if np.ndim(k) else (len(cs),))


def _polish_start(cs: np.ndarray, w: np.ndarray, j: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """First polish fraction in each bracket [cs[j], cs[j + 1]]: the scan's
    inverse interpolant, x = log c as the polynomial in W / ``scale``
    through the C_SEED_WINDOW scan points on each side of the sign change,
    evaluated at 0 by Neville's scheme.  A row of ``w`` whose window runs
    past the scan's ends, holds an exact zero or is not strictly monotone
    (an unevaluated node, NaN, included) starts from the midpoint, 0.5.
    """
    n, x = C_SEED_WINDOW, np.log(cs)
    t = np.full(len(j), 0.5)
    for r, (row, jr, s) in enumerate(zip(w, j, scale)):
        lo, hi = jr + 1 - n, jr + 1 + n
        if lo < 0 or hi > len(cs):
            continue
        u, p = row[lo:hi] / s, x[lo:hi].copy()
        du = np.diff(u)
        if np.any(u == 0.0) or not (np.all(du > 0.0) or np.all(du < 0.0)):
            continue
        for m in range(1, 2 * n):
            p[:-m] = (u[:-m] * p[1:2 * n - m + 1] - u[m:] * p[:-m]) / (u[:-m] - u[m:])
        t[r] = (p[0] - x[jr]) / (x[jr + 1] - x[jr])
    return t


def _sign_changes(w: np.ndarray) -> np.ndarray:
    """Sign changes of W between adjacent evaluated nodes, per row; NaN marks
    a node the row did not evaluate.  0 reads as not positive, as in
    chandrupatla: an exact zero at a node is one sign change whichever way W
    runs, bracketed with a positive node."""
    known = ~np.isnan(w)
    return ((w[:, :-1] > 0) != (w[:, 1:] > 0)) & known[:, :-1] & known[:, 1:]


def _polished_roots(state: FlowState, ks: np.ndarray, cs: np.ndarray, w: np.ndarray) -> list:
    """(c_i, residual) for each row of ``w``, W(ic, ks[r]) on the scan grid
    ``cs`` with NaN at the nodes the row did not evaluate and C_MAX always
    evaluated, or None where the row has no sign change.  A root meets
    |W| <= ROOT_RTOL * |W(i C_MAX, k)|.  Raises ``MultipleRoots`` for a row
    with more than one sign change and ``NonConvergence`` if a polish stalls.
    """
    flips = _sign_changes(w)
    for k, n in zip(ks, np.count_nonzero(flips, axis=1)):
        if n > 1:
            raise MultipleRoots(f"{n} sign changes of Re W at k={k:g}; expected at most one")
    rows = np.flatnonzero(flips.any(axis=1))
    roots = [None] * len(ks)
    if rows.size:
        j = flips[rows].argmax(axis=1)
        scale = np.abs(w[rows, -1])

        def w_at(x, i):
            return wronskian_many(state, ks[rows[i]], np.exp(x))[0]

        x, w_root, _, _ = chandrupatla(w_at, np.log(cs[j]), np.log(cs[j + 1]), w[rows, j],
                                       w[rows, j + 1], ROOT_RTOL * scale, MAX_POLISH,
                                       "root polish", _polish_start(cs, w[rows], j, scale))
        for r, c, resid in zip(rows, np.exp(x).tolist(), np.abs(w_root).tolist()):
            roots[r] = (c, resid)
    return roots


def eigenvalues_for_ks(state: FlowState, ks: Sequence[float]):
    """Purely imaginary unstable eigenvalues at several wave numbers at once.

    One batched scan of W(ic, k) on the log-spaced c grid brackets each
    wave number's sign change, and ``_polished_roots`` polishes every
    bracket together.  Returns ``(roots, cs, W)``: ``roots[j]`` is (c_i,
    residual) for ks[j], or None when its scan has no sign change (no purely
    imaginary eigenvalue at scan resolution); W is the scan, one row per
    wave number.  Raises ``ValueError`` for a wave number k <= 0,
    ``MultipleRoots`` if a scan has more than one sign change and
    ``NonConvergence`` if a polish stalls.
    """
    ks = np.asarray(ks, dtype=float)
    cs, w = scan_wronskian(state, ks)
    return _polished_roots(state, ks, cs, w), cs, w


def eigenvalue_for_k(state: FlowState, k: float):
    """Purely imaginary unstable eigenvalue at wave number k, if any.

    The one-wave-number case of ``eigenvalues_for_ks``: returns (c_i,
    residual) with residual = |W(ic_i, k)| <= ROOT_RTOL * |W(i C_MAX, k)|, or
    None when W(ic, k) has no sign change on the scan grid.  Raises
    ``MultipleRoots`` if more than one sign change is found.
    """
    roots, _, _ = eigenvalues_for_ks(state, [k])
    return roots[0]


@dataclass(frozen=True)
class EigenCurve:
    points: tuple  # (k, c_i, residual)
    slope_samples: tuple  # (k, dc_i/dk)
    k_zero: Optional[float]


def _law_nodes(state: FlowState, eig, ks: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """The node of the scan grid ``cs`` nearest each k's neutral-limit c_i
    read off ``eig``, kept at least C_SEED_WINDOW nodes from the grid's ends
    and from its C_MAX node, or -1 where the row is not seeded: unless 0 < k
    < k* and lambda2 >= -k^2, and everywhere when ``eig`` is None or has no
    mode, as an unbound state's has none.
    """
    nodes = np.full(len(ks), -1)
    if eig is None or eig.mode is None:
        return nodes
    _, b1, _, b3 = eval_b_derivs(state, 0.0)
    phi0 = eig.mode[len(eig.mode) // 2]  # the centre node is y = 0
    a = np.sum(eig.mode ** 2 * eig.weights) * b1 ** 2 / (math.pi * abs(b3) * phi0 ** 2)
    seeded = (ks < eig.kstar) & (eig.lambda2 >= -ks ** 2)
    law = (eig.kstar ** 2 - ks[seeded] ** 2) * a
    near = np.abs(np.log(cs) - np.log(law)[:, None]).argmin(axis=1)
    nodes[seeded] = np.clip(near, C_SEED_WINDOW, len(cs) - 2 - C_SEED_WINDOW)
    return nodes


def eigencurve(state: FlowState, k_grid: Sequence[float], eig) -> EigenCurve:
    """Map k -> c_i(k) over a wave-number grid inside (0, k*).

    ``eig`` is the caller's eigensolve of ``state`` with its mode, or None.
    Each distinct k is solved once, in increasing order.  A row seeded from
    the neutral-limit law read off ``eig`` (``_law_nodes``) evaluates W
    only at the C_SEED_WINDOW scan nodes on each side of the law's node and
    at C_MAX, every seeded row in one pass.  A row that is not seeded, or
    whose window shows no single sign change, gets the full scan, every
    such row in one more pass.  Then all brackets are polished together
    (``_polished_roots``), so ``MultipleRoots`` comes only from a full
    scan.  Slopes by central differences on the computed points; ``k_zero``
    is the linear extrapolation of the last two points to c_i = 0, the
    curve's own estimate of the critical wave number.  Raises
    ``NonConvergence`` at the first k without a root, naming the side its
    full scan's one sign of W points to: positive, any root lies above
    C_MAX; otherwise the grid extends past k*.
    """
    ks = _unique(np.asarray(k_grid, dtype=float))
    cs = _scan_grid()
    w = np.full((len(ks), len(cs)), np.nan)
    seeded = _law_nodes(state, eig, ks, cs)
    rows = np.flatnonzero(seeded >= 0)
    if rows.size:
        window = np.arange(-C_SEED_WINDOW, C_SEED_WINDOW + 1)
        nodes = np.column_stack((seeded[rows, None] + window, np.full(rows.size, len(cs) - 1)))
        w_win, _ = wronskian_many(state, np.repeat(ks[rows], nodes.shape[1]), cs[nodes].ravel())
        w[rows[:, None], nodes] = w_win.reshape(nodes.shape)
    full = np.flatnonzero(np.count_nonzero(_sign_changes(w), axis=1) != 1)
    if full.size:
        _, w[full] = scan_wronskian(state, ks[full])
    roots = _polished_roots(state, ks, cs, w)
    pts = []
    for k, root, row in zip(ks, roots, w):
        if root is None:
            why = (f"Re W > 0 up to c_i={C_MAX:g}, so any root lies above the scan"
                   if row[-1] > 0.0 else "grid extends past k*")
            raise NonConvergence(f"no root at k={k:g}; {why}")
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


def wronskian_partials(state: FlowState, k: float, c_i: float):
    """Central-difference partials (dW/dk, dW/dc_i), with steps 1e-4 in k and
    min(1e-4 gamma0, c_i / 2) in c_i, so every channel keeps c_i > 0.  Raises
    ``ValueError`` for c_i <= 0."""
    if not c_i > 0.0:
        raise ValueError("wronskian partials need c_i > 0")
    dk, dci = 1e-4, min(1e-4 * state.params.gamma0, c_i / 2.0)
    ks = np.array([k + dk, k - dk, k, k])
    cs = np.array([c_i, c_i, c_i + dci, c_i - dci])
    w, _ = wronskian_many(state, ks, cs)
    return (w[0] - w[1]) / (2.0 * dk), (w[2] - w[3]) / (2.0 * dci)


# ---------------------------------------------------------------------------
# the decaying neutral mode built from phi1 quadratures
# ---------------------------------------------------------------------------


class _PhiBSystem(_WSystem):
    """``_WSystem``'s c = 0 channel, whose column 4 integrates the whole
    quadrature of the neutral mode, q = integral of ((phi1^(-2) - 1) -
    (b' - beta) / beta) / b^2 with beta = b'(0).  b' - beta has its own
    closed form, so no term of q's integrand is a difference of O(1)
    numbers.  Elsewhere b' enters only in a term times c, 0 here.
    """

    def rhs(self, y: float, st: np.ndarray) -> np.ndarray:
        b, excess = eval_b_slope_excess(self.state, y)
        out = self._columns(b, self.beta + excess, st)
        out[:, 4] -= excess / (self.beta * b * b)
        return out


def neutral_mode_phiB(state: FlowState, kstar: float, ys: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """Neutral mode via the second-solution quadrature formula, on the nodes
    ``ys`` of the mode it is checked against.

    ``ys`` is symmetric about its centre node y = 0 and ends at the half
    width Y, as ``SpectralResult.ys`` is; ``weights`` are its cells.  The
    formula is applied on the left half line, where every factor is
    numerically benign (the growing solution b*phi1 multiplies integrals
    accumulated from -infinity that vanish at matching rate), to the
    mirrored states of one right half-line pass (``_sampled``) at the nodes
    y < 0, -Y included; the mode is then mirrored by evenness and normalized
    to a positive mode of unit L2 norm in ``weights``.  On the right half
    line the same formula requires cancellation of totals against the
    Wronskian zero and amplifies quadrature noise by e^{2 k |y|}, so it is
    not used.  Raises ``TailDominance`` when k* * half_width is too small
    for the quadrature tails.
    """
    system = _PhiBSystem(state, np.array([kstar]), np.array([0.0]))
    ymax = float(ys[-1])
    if kstar * ymax < 8.0:
        raise TailDominance("kstar * half_width < 8: mode tails exceed the domain")
    neg = ys[:len(ys) // 2]  # ascending from -Y, all negative
    st = _sampled(system, EPS_MAX, neg).real

    beta = system.beta
    b_l = eval_b(state, -ymax)
    phi1 = 1.0 + st[:, 0]
    mu_end = abs((st[0, 1] / (b_l * b_l)) / phi1[0])
    # the tails of both regularized integrals beyond -Y, in one
    tail = phi1[0] ** -2 / (2.0 * mu_end * b_l ** 2) - 1.0 / (beta * abs(b_l))
    left = eval_b(state, neg) * phi1 * (tail + (st[:, 4] - st[0, 4])) - phi1 / beta
    phi_b = np.concatenate((left, [-1.0 / beta], left[::-1]))
    norm = math.sqrt(np.sum(phi_b ** 2 * weights))
    return -phi_b / norm
