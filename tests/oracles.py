"""Test oracles, each reaching a number the package computes by its own
path: the two-sided long-window determinant of W, the fourth-order Rayleigh
quotient, phi with its normalization at the critical point, and the decay
rate of a weakly bound state by Jost shooting and by its weak-coupling
series, the mapped ladder with every rung closed by its own fixed-point
sweeps, and the Rayleigh spectrum as the eigenvalues of the dense vorticity
operator."""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from viscoshear import rayleigh as ray
from viscoshear import spectrum
from viscoshear._ode import integrate
from viscoshear._roots import chandrupatla
from viscoshear.flow import FlowState, eval_b, eval_b_derivs, eval_b_slope, eval_potential
from viscoshear.spectrum import HALF_WIDTH

YK_FACTOR = 12.0  # the long window is max(HALF_WIDTH, YK_FACTOR / k)


class _QFSystem(ray._WSystem):
    """The W system plus a sixth column qF = integral of phi^(-2)."""

    def rhs(self, y: float, st: np.ndarray) -> np.ndarray:
        b, b1 = eval_b_slope(self.state, y)
        u = b - self.ic
        w = 1.0 + (st[:, 0] + st[:, 2] + st[:, 0] * st[:, 2])
        return np.column_stack((self._columns(b, b1, st[:, :5]), 1.0 / (u * u * (w * w))))

    def seed(self, y0: float) -> np.ndarray:
        return np.pad(super().seed(y0), ((0, 0), (0, 1)))


def left_pass(system: ray._WSystem, eps: float, ymax: float, samples=()):
    """The left half-line pass the package takes from the mirror: seeded at
    y = -eps and integrated to -ymax through ``ray.integrate``, recording
    ``samples`` (descending).  It runs the reflected system forward in
    s = -y, from eps to ymax: IEEE negation is exact and rounding is
    symmetric in sign, so every step is the backward pass's to the bit."""
    return ray.integrate(lambda s, st: -system.rhs(-s, st), eps, ymax, system.seed(-eps),
                         h=eps * 0.5, samples=[-y for y in samples])


def _ymax_for(k: float) -> float:
    return max(HALF_WIDTH, YK_FACTOR / k)


def _strip_base(beta: float, eps: float, cs: np.ndarray) -> np.ndarray:
    """Closed form of int_0^eps (beta*y - ic)^(-2) dy per channel."""
    ic = 1j * cs
    return -(1.0 / beta) * (1.0 / (beta * eps - ic) - 1.0 / (-ic))


@dataclass(frozen=True)
class DetCheckReport:
    probes: np.ndarray
    dets: np.ndarray
    W: float
    max_rel_dev: float


def wronskian_det_check(state: FlowState, k: float, c_i: float,
                        probe_ys: Sequence[float]) -> DetCheckReport:
    """Evaluate W as the 2x2 determinant of the decaying pair at probe points.

    phi-(y) and phi+(y) are built from cumulative integrals of phi^(-2)
    accumulated from each side separately (plus modeled tails and the
    origin-strip closed form), so the determinant exercises an arithmetic
    path independent of the I + II assembly returned as ``W``.  Both half
    lines are integrated here, so the check also guards the mirror identity
    the one-sided assembly relies on.
    """
    if not c_i > 0.0:
        raise ValueError("det check requires c_i > 0")
    probes = np.asarray(sorted(probe_ys), dtype=float)
    system = _QFSystem(state, np.array([k]), np.array([c_i]))
    eps = ray._eps_start(np.array([c_i]))
    ymax = _ymax_for(k)
    if np.any(np.abs(probes) >= ymax) or np.any(np.abs(probes) <= eps):
        raise ValueError("probes must lie strictly between eps and ymax")

    pos = list(probes[probes > 0])
    neg = list(probes[probes < 0])[::-1]
    st_r, rec_r, _ = ray._run(system, eps, ymax, samples=pos)
    st_l, rec_l, _ = left_pass(system, eps, ymax, samples=neg)

    phi_r, mu_r = ray._phi_and_slope(system, ymax, st_r)
    phi_l, mu_l = ray._phi_and_slope(system, -ymax, st_l)
    tail_f_r = complex((1.0 / (2.0 * mu_r * phi_r ** 2))[0])
    tail_f_l = complex((-1.0 / (2.0 * mu_l * phi_l ** 2))[0])

    cs = np.array([c_i])
    strip_f = complex(2.0 * np.real(_strip_base(system.beta, eps, cs)
                                    - k * k * ray._strip_v3(system.beta, eps, cs))[0])
    qf_r_tot = complex(st_r[0, 5])
    qf_l_tot = complex(st_l[0, 5])

    w_ref = float(ray.wronskian_many(state, [k], cs)[0][0])

    dets = []
    for y in probes:
        st = rec_r[pos.index(y)] if y > 0 else rec_l[neg.index(y)]
        qf_here = complex(st[0, 5])
        if y > 0:
            f_minus = tail_f_l + (-qf_l_tot) + strip_f + qf_here
            f_plus = -((qf_r_tot - qf_here) + tail_f_r)
        else:
            f_minus = tail_f_l + (qf_here - qf_l_tot)
            f_plus = -((-qf_here) + strip_f + qf_r_tot + tail_f_r)
        phi, mu = ray._phi_and_slope(system, y, st)
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


def _deriv4(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative; second-order one-sided at the edges."""
    du = np.empty_like(u)
    du[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[1] = (u[2] - u[0]) / (2.0 * h)
    du[-2] = (u[-1] - u[-3]) / (2.0 * h)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return du


def rayleigh_quotient(state: FlowState, ys: np.ndarray, candidate: np.ndarray) -> float:
    """<L phi, phi> / <phi, phi> for a trial function sampled on the uniform nodes ``ys``.

    Gradient by a fourth-order stencil and trapezoid sums: for the converged
    mode the quotient error is quadratic in the mode error, so this matches
    the Richardson eigenvalue well below the h^2 level of the raw matrix.
    """
    h = float(ys[1] - ys[0])
    u = np.asarray(candidate, dtype=float)
    if u.shape != ys.shape:
        raise ValueError("candidate must be sampled on the nodes ys")
    w = np.full_like(u, h)
    w[0] = w[-1] = h / 2.0
    norm2 = float(np.sum(u ** 2 * w))
    if norm2 < 1e-12 ** 2:
        raise ValueError("candidate norm below 1e-12")
    du = _deriv4(u, h)
    v = np.asarray(eval_potential(state, ys), dtype=float)
    quad = float(np.sum((du ** 2 + v * u ** 2) * w))
    return quad / norm2


def assemble_phi(state: FlowState, sol: ray.PhiSolution):
    """phi = (b - ic) phi1 phi2 on the solution's sample points.

    Asserts the normalization pair phi(y_c) = -i c_i, phi'(y_c) = b'(y_c)
    by Richardson-free even/odd averaging over the built-in near-origin
    samples.  (The factorized solution takes the value -i c_i at the
    critical point; a scalar multiple cannot flip that sign without also
    flipping phi'.)
    """
    ys, c_i = sol.ys, sol.c_i
    phi = (eval_b(state, ys) - 1j * c_i) * sol.phi1 * sol.phi2
    delta = ray._NEAR_SAMPLES[0]
    i_p = int(np.argmin(np.abs(ys - delta)))
    i_m = int(np.argmin(np.abs(ys + delta)))
    val0 = 0.5 * (phi[i_p] + phi[i_m])
    slope0 = (phi[i_p] - phi[i_m]) / (ys[i_p] - ys[i_m])
    beta = ray._beta(state)
    assert abs(val0 - (-1j * c_i)) <= 1e-8 * max(1.0, c_i), f"phi(y_c) = {val0}, not {-1j * c_i}"
    assert abs(slope0 - beta) <= 1e-8 * max(1.0, beta), f"phi'(y_c) = {slope0}, not {beta}"
    return ys, phi


def jost_kappa(states: Sequence[FlowState], first: Sequence[float]) -> np.ndarray:
    """The decay rate kappa of each state's even bound state, by shooting.

    The even solution of -u'' + V u = -kappa^2 u, u(0) = 1 and u'(0) = 0, is
    integrated on the package's DOP853 (``_ode.integrate``) out to
    Y = 8 sqrt(s1), past which V is below e^-64 of its size.  There a bound
    state decays as e^(-kappa y), so kappa is the root of
    G(kappa) = u'(Y) + kappa u(Y), found by Chandrupatla's iteration
    (``_roots.chandrupatla``) in [first / 2, 2 first] per state, to
    |G| <= 1e-7 first (G's slope is u(Y), about 1).  One pass serves every
    state.  No eigensolver, grid or Robin closure is involved.
    """
    states = list(states)
    first = np.asarray(first, dtype=float)
    Y = 8.0 * max(math.sqrt(state.s1) for state in states)

    def G(kappa, idx):
        def rhs(y, st):
            v = np.array([eval_potential(states[j], y) for j in idx])
            return np.column_stack((st[:, 1], (v + kappa * kappa) * st[:, 0]))

        seed = np.tile([1.0, 0.0], (len(idx), 1))
        u = integrate(rhs, 0.0, Y, seed, h=1e-3)[0].real
        return u[:, 1] + kappa * u[:, 0]

    both = np.arange(len(states))
    lo, hi = 0.5 * first, 2.0 * first
    ends = G(np.concatenate((lo, hi)), np.concatenate((both, both)))
    kappa, _, _, _ = chandrupatla(G, lo, hi, ends[both], ends[len(states):], 1e-7 * first,
                                  60, "jost_kappa")
    return kappa


def kappa_second_order(state: FlowState, n: int = 20000) -> float:
    """kappa2 in kappa = kappa1 + kappa2 M^2 + O(M^3), the weakly bound state's decay rate.

    At M = 1 write V = b''/b = M v1 + M^2 v2 + O(M^3), with v1 = b''/y and
    v2 = -b'' g / y^2, g = b - y.  Simon's series (Ann. Phys. 97 (1976) 279),
    kappa = -1/2 int V - 1/4 int int V(x) |x - y| V(y) dx dy + O(V^3), then
    gives kappa2 = -1/2 int v2 - 1/4 int int v1(x) |x - y| v1(y) dx dy.  Both
    by the trapezoid rule on ``n`` nodes of [-8 sqrt(s1), 8 sqrt(s1)] (n even,
    so no node at y = 0), the double integral as cumulative sums.
    """
    unit = FlowState(state.params.with_M(1.0), state.t)
    Y = 8.0 * math.sqrt(unit.s1)
    y = np.linspace(-Y, Y, n)
    b, _, b2, _ = eval_b_derivs(unit, y)
    w = np.full(n, y[1] - y[0])
    w[0] = w[-1] = 0.5 * w[0]
    a = b2 / y * w  # v1 times the weights
    below, below_y = np.cumsum(a) - a, np.cumsum(a * y) - a * y  # sums over nodes left of each
    half_v2 = 0.5 * float(np.sum(b2 * (b - y) / y ** 2 * w))  # -1/2 int v2
    return half_v2 - 0.5 * float(np.sum(a * (y * below - below_y)))


def _mapped_lowest_by_index(d: np.ndarray, e: np.ndarray) -> float:
    return float(scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                               select_range=(0, 0), tol=spectrum.MAP_TOL)[0])


def fixed_point_rung(vfunc, level: int):
    """Mapped rung ``level`` closed by its own Robin kappa: (n, lambda1,
    lambda2, kappa), or None when a solve has kappa * Y < 3.

    The Neumann seed and up to four sweeps kappa <- sqrt(-lambda1) on the
    even block, stopping once kappa moves by at most 1e-9 of itself, then the
    odd block at the last sweep's kappa; every solve an index call at
    ``MAP_TOL``, on every rung.  The package iterates kappa on rung 0 alone
    and closes each finer rung at the rung below's kappa.
    """
    d, e, w, _ = spectrum._mapped_block(vfunc, level)
    d_far, kappa = d[-1], 0.0
    for i in range(5):
        d[-1] = d_far + kappa / w[-1]
        lam1 = _mapped_lowest_by_index(d, e)
        if lam1 >= 0.0 or math.sqrt(-lam1) * HALF_WIDTH < 3.0:
            return None
        knew = math.sqrt(-lam1)
        if abs(knew - kappa) <= 1e-9 * kappa or i == 4:
            return 2 * len(d) - 1, lam1, _mapped_lowest_by_index(d[1:], e[1:]), knew
        kappa = knew


def fixed_point_ladder(vfunc):
    """The mapped ladder of ``fixed_point_rung`` under the package's own
    Richardson climb: (lambda1, lambda2, ConvergenceInfo), or None where a
    rung routes the state to the uniform ladder."""
    return spectrum._climb(lambda level, _: fixed_point_rung(vfunc, level), True)


def vorticity_spectrum(state: FlowState, k: float, level: int = 1) -> np.ndarray:
    """Every eigenvalue c of the dense vorticity operator b - b'' (D^2 - k^2)^(-1)
    at wave number k (Drazin & Reid; S. A. Orszag, J. Fluid Mech. 50 (1971) 689).

    Rayleigh's equation (b - c)(phi'' - k^2 phi) = b'' phi in the vorticity
    omega = phi'' - k^2 phi reads c omega = b omega - b'' (D^2 - k^2)^(-1) omega.
    D^2 is the eigensolver's finite-volume second difference on mapped rung
    ``level``'s nodes, mirrored onto the full line [-Y, Y], Robin-closed at
    phi' = -/+ k phi, exact where b'' = 0.  An unstable mode is a pair +/- i c_i;
    the continuous spectrum lies on the real axis.
    """
    y, w, _, _ = spectrum._mapped_geometry(level, spectrum.MAP_A, spectrum.MAP_ROWS, HALF_WIDTH)
    h = math.asinh(HALF_WIDTH / spectrum.MAP_A) / (len(y) - 1)
    flux = 1.0 / (spectrum.MAP_A * np.cosh(h * np.arange(len(y) - 1) + 0.5 * h) * h)
    ys = np.concatenate((-y[:0:-1], y))
    cells = np.concatenate((w[:0:-1], [2.0 * w[0]], w[1:]))
    flux = np.concatenate((flux[::-1], flux))
    robin = np.zeros(len(ys))
    robin[[0, -1]] = k
    # k^2 - D^2 with its Robin rows: positive definite, so it inverts
    op = np.diag((np.r_[0.0, flux] + np.r_[flux, 0.0] + robin) / cells + k * k)
    op -= np.diag(flux / cells[:-1], 1) + np.diag(flux / cells[1:], -1)
    b, _, b2, _ = eval_b_derivs(state, ys)
    return np.linalg.eigvals(np.diag(b) + b2[:, None] * np.linalg.inv(op))
