"""End-to-end stability-transition pipelines with machine-readable reports.

The torus pipeline tunes the amplitude so the initial critical wave number
sits just below 1, sweeps k*(t) across the diffusion horizon, localizes the
crossing time of k* = 1, finds the unstable eigenvalue of the k = 1 mode at
the final time, and certifies the root/no-root dichotomy on both sides of
the crossing.  The whole-line pipeline starts from a threshold amplitude
where binding resolves and probes the post-diffusion spectrum.

Every check carries its measured value and acceptance band; stage failures
are recorded and the pipeline continues where possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rayleigh as ray
from .calibrate import (TOL_CAL, CalibrationResult, KstarCurve, find_critical_M0,
                        kstar_time_sweep, tune_M_for_kstar)
from .errors import ViscoshearError
from .flow import FlowParams, FlowState, kappa1
from .spectrum import TOL_EIG, SpectralResult, lowest_eigenpair

__all__ = ["Check", "ScenarioReport", "run_torus_scenario", "run_line_scenario"]


@dataclass(frozen=True)
class Check:
    """One check of a scenario report or of ``verify``: its measured value,
    its acceptance band and a note on why it failed."""

    name: str
    passed: bool
    measured: Optional[float]
    band: Optional[tuple]
    note: str = ""


def _fit_min_C(pred, hi: float = 1e6) -> float:
    """Smallest C in [1, hi] satisfying a monotone pointwise predicate, by
    geometric bisection; inf when ``pred(hi)`` fails."""
    if not pred(hi):
        return math.inf
    lo = 1.0
    if pred(lo):
        return lo
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def profile_checked(name: str, result: SpectralResult, state: FlowState) -> Check:
    """The neutral mode's profile check ``name`` on ``state``'s eigensolve
    ``result``: the mode u is even to 1e-8, positive and non-increasing on
    y >= 0 within 1e-10 u(0), the smallest C in [1, 1e3] fitting both the
    plateau (sqrt(k*)/C <= u <= C sqrt(k*) for |y| <= 1/k*) and the envelope
    beyond (u <= C sqrt(k*) exp(-k*|y|/C)), which the check measures, is at
    most 20, and ln u decays at k* within 1e-2 relative, as a least-squares
    line fitted on the nodes past the cut Y_c (``rayleigh._y_cut``), where
    b'' = 0 to rounding, and below the box's edge Y.  The note names each
    failed test with its number; an unbound ``result`` or one without its
    mode raises ``ValueError``."""
    if result.kstar is None or result.mode is None:
        raise ValueError("profile_checked needs a bound state with its mode")
    u, ys, k = result.mode, result.ys, result.kstar
    rk, core = math.sqrt(k), np.abs(ys) <= 1.0 / k
    plateau, tail, decay = u[core], u[~core], -k * np.abs(ys[~core])

    def fits(C):
        return bool(np.all(plateau >= rk / C) and np.all(plateau <= rk * C)
                    and np.all(tail <= C * rk * np.exp(decay / C)))

    right, y = u[len(u) // 2:], ys[len(ys) // 2:]
    far = (y > ray._y_cut(state, 0.0)) & (y < y[-1])
    with np.errstate(invalid="ignore", divide="ignore"):  # a node <= 0 or no node: rate nan
        dy = y[far] - np.mean(y[far])
        rate = float(np.sum(dy * -np.log(right[far])) / np.sum(dy * dy))
    even = float(np.max(np.abs(u - u[::-1])))
    low = float(np.min(u))
    rise = float(np.max(np.diff(right)))
    C = _fit_min_C(fits, hi=1e3)
    failed = [f"{test} {value:.3g} {rule}" for test, value, ok, rule in (
        ("even defect", even, even < 1e-8, ">= 1e-8"),
        ("minimum", low, low > 0.0, "<= 0"),
        ("largest rise on y >= 0", rise, rise <= 1e-10 * right[0], "> 1e-10 u(0)"),
        ("fitted C", C, C <= 20.0, "> 20"),
        ("decay rate past Y_c", rate, abs(rate - k) <= 1e-2 * k, f"off k* = {k:.3g} by > 1e-2"),
    ) if not ok]
    return Check(name, not failed, C, (1.0, 20.0), "; ".join(failed))


@dataclass
class ScenarioReport:
    """A scenario's checks and the stage results they measured: the
    calibration, the k*(t) sweep and the k = 1 Wronskian scan at t = T."""

    kind: str
    params: FlowParams
    T: float
    calibration: Optional[CalibrationResult] = None
    curve: Optional[KstarCurve] = None
    kstar0: Optional[float] = None
    kstarT: Optional[float] = None
    ci_at_k1: Optional[float] = None
    slope_at_k1: Optional[float] = None
    checks: list = field(default_factory=list)
    scan_cs: Optional[np.ndarray] = None
    scan_W: Optional[np.ndarray] = None
    eig_T: Optional[SpectralResult] = None  # the torus's, with its mode; not serialized

    @property
    def M(self) -> Optional[float]:
        return None if self.calibration is None else self.calibration.M

    @property
    def Ttilde(self) -> Optional[float]:
        return None if self.curve is None else self.curve.Ttilde

    @property
    def w_scale(self) -> Optional[float]:
        return None if self.scan_W is None else float(abs(self.scan_W[-1]))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, measured=None, band=None, note=""):
        self.checks.append(Check(name, bool(passed), measured, band, note))


def _dichotomy_grid(T: float, ttilde: float) -> dict:
    """Check name -> time: seven even times on [0, T], then the probes
    ttilde -/+ 0.02 T; a probe that prints as a time already held adds none."""
    grid = {}
    for t in (*np.linspace(0.0, T, 7), max(0.0, ttilde - 0.02 * T), min(T, ttilde + 0.02 * T)):
        grid.setdefault(f"dichotomy_t{t / T:.4f}T", t)
    return dict(sorted(grid.items(), key=lambda item: item[1]))


def run_torus_scenario(params: FlowParams, delta: float, n_times: int) -> ScenarioReport:
    """Reproduce the integer-wave-number stability transition at desk scale.

    Stages: tune M for k*(0) = 1 - delta; sweep k*(t) on [0, T]; locate the
    crossing time; find the k = 1 eigenvalue and curve slope at t = T;
    certify the root/no-root dichotomy around the crossing; cross-check the
    neutral point against the Wronskian boundary value and the quadrature
    construction of the mode.
    """
    T = params.horizon
    rep = ScenarioReport(kind="torus", params=params, T=T)
    target = 1.0 - delta

    try:
        cal = tune_M_for_kstar(params, 0.0, target)
    except ViscoshearError as exc:
        rep.add("calibration", False, note=f"{type(exc).__name__}: {exc}")
        return rep
    rep.calibration, rep.kstar0 = cal, cal.achieved
    rep.add("kstar0_calibrated", abs(cal.achieved - target) <= TOL_CAL, cal.achieved,
            (target - TOL_CAL, target + TOL_CAL))
    p = params.with_M(cal.M)

    rep.curve = curve = kstar_time_sweep(cal.M, params, n_times)
    ks = np.array([k if k is not None else 0.0 for k in curve.kstars])
    rep.kstarT = curve.kstars[-1]
    # nondecreasing within the eigenvalue slack 10*TOL_EIG
    lam_slack = 10.0 * TOL_EIG
    mono = bool(np.all(np.diff(-(ks ** 2)) <= lam_slack))
    rep.add("kstar_nondecreasing", mono, float(np.min(np.diff(ks))), (0.0, None),
            "" if mono else f"gamma1/gamma2 = {params.gamma1 / params.gamma2:.3g}; k*(t) was "
            "measured monotone only for gamma1/gamma2 <= 0.045 (README, calibrate)")
    rise = ks[-1] - ks[0]
    rise_note = (f"k*(T) - k*(0) = {rise:.4g}: k* reaches 1 by T only for delta below about "
                 f"{rise:.4g}")
    rep.add("transition_budget_sufficient", ks[-1] > 1.0, float(ks[-1]), (1.0, None),
            "" if ks[-1] > 1.0 else f"transition budget insufficient; {rise_note}")
    excess = rise / (params.gamma1 * params.gamma2)
    rep.add("excess_over_gamma1gamma2", 1.0 / 50.0 <= excess <= 50.0, excess, (1.0 / 50.0, 50.0))

    if curve.Ttilde is not None:
        inside = 0.0 < curve.Ttilde < T
        k_tt = curve.kstar_at_Ttilde
        rep.add("Ttilde_inside", inside, curve.Ttilde, (0.0, T), "" if inside else rise_note)
        rep.add("kstar_at_Ttilde", abs(k_tt - 1.0) <= TOL_CAL, k_tt, (1.0 - TOL_CAL, 1.0 + TOL_CAL))
    else:
        rep.add("Ttilde_inside", False, None, (0.0, T), f"no crossing of k* = 1; {rise_note}")
        return rep

    # unstable eigenvalue of the k = 1 mode at t = T, together with the
    # slope probes k = 1 +/- dk and the stable integer modes k = 1.5, 2:
    # one batched scan and one batched root polish.  k = 1 has a root only
    # when k*(T) > 1, and then 1 + dk stays at most half-way to k*(T)
    st_T = FlowState(p, T)
    dk = min(2e-3, (rep.kstarT - 1.0) / 2.0) if (rep.kstarT or 0.0) > 1.0 else 2e-3
    roots, cs, w_scans = ray.eigenvalues_for_ks(st_T, (1.0, 1.0 - dk, 1.0 + dk, 1.5, 2.0))
    root, r_lo, r_hi, *stable = roots
    rep.scan_cs, rep.scan_W = cs, w_scans[0]
    if root is None:
        rep.add("ci_root_at_k1", False, None, None, "no sign change of Re W")
        return rep
    ci, resid = root
    rep.ci_at_k1 = ci
    tol_root = ray.ROOT_RTOL * rep.w_scale
    rep.add("ci_root_at_k1", True, ci, (0.0, None))
    rep.add("root_residual", resid <= tol_root, resid, (0.0, tol_root))
    g012 = params.gamma0 * params.gamma1 * params.gamma2
    rep.add("ci_over_g0g1g2", 1.0 / 50.0 <= ci / g012 <= 50.0, ci / g012, (1.0 / 50.0, 50.0))

    # curve slope at k = 1 by central difference of neighboring roots
    if r_lo is not None and r_hi is not None:
        slope = (r_hi[0] - r_lo[0]) / (2.0 * dk)
        rep.slope_at_k1 = slope
        ratio = abs(slope) / params.gamma0
        rep.add("slope_band", (slope < 0.0) and (1.0 / 20.0 <= ratio <= 20.0), ratio,
                (1.0 / 20.0, 20.0))
    else:
        rep.add("slope_band", False, None, None, "roots at k = 1 +/- dk not found")

    # no roots at integer wave numbers that stay stable
    for k_probe, r in zip((1.5, 2.0), stable):
        rep.add(f"no_root_k{k_probe:g}", r is None, None if r is None else r[0], None)

    # root/no-root dichotomy around the crossing time; the grid ends at T,
    # whose k = 1 root the batch above holds
    for name, t in _dichotomy_grid(T, curve.Ttilde).items():
        r = root if t == T else ray.eigenvalue_for_k(FlowState(p, t), 1.0)
        want_root = t > curve.Ttilde
        ok = (r is not None) if want_root else (r is None)
        rep.add(name, ok, None if r is None else r[0], None,
                "expect root" if want_root else "expect no root")

    # cross-solver consistency at the final time
    rep.eig_T = eig_T = lowest_eigenpair(st_T, want_mode=True)
    if eig_T.kstar is not None:
        wb, _ = ray.wronskian_many(st_T, [eig_T.kstar], [0.0])
        bres = abs(wb[0]) / rep.w_scale
        rep.add("boundary_wronskian_at_kstar", bres <= 1e-4, bres, (0.0, 1e-4))
        mode_b = ray.neutral_mode_phiB(st_T, eig_T.kstar, eig_T.ys, eig_T.weights)
        l2 = float(math.sqrt(np.sum((mode_b - eig_T.mode) ** 2 * eig_T.weights)))
        rep.add("phiB_matches_eigenmode", l2 <= 1e-3, l2, (0.0, 1e-3))
        rep.checks.append(profile_checked("profile_checks", eig_T, st_T))
    lam2_min = float(np.min(curve.lambda2s))
    rep.add("lambda2_nonnegative_sweep", lam2_min >= -lam_slack, lam2_min, (-lam_slack, None))
    return rep


def run_line_scenario(params: FlowParams) -> ScenarioReport:
    """Whole-line scenario: threshold amplitude, then the post-diffusion probe.

    Finds an amplitude M0 where binding resolves at t = 0, then asks
    whether diffusion to t = T produces a resolvable critical wave number of
    size comparable to gamma1*gamma2 and an unstable root below it.  At desk
    scale the eigenvalue at the threshold is quadratically small in M, so
    the diffusion-induced shift sits at the solver's resolution; the checks
    report whatever the measurements say.
    """
    T = params.horizon
    rep = ScenarioReport(kind="line", params=params, T=T)
    try:
        cal = find_critical_M0(params)
    except ViscoshearError as exc:
        rep.add("critical_M0", False, note=f"{type(exc).__name__}: {exc}")
        return rep
    rep.calibration, lam0 = cal, cal.achieved
    rep.add("critical_M0", -TOL_EIG <= lam0 <= 0.0, lam0, (-TOL_EIG, 0.0))
    rep.add("kstar_absent_t0", lam0 >= -TOL_EIG, lam0, (-TOL_EIG, None))

    p = params.with_M(cal.M)
    st_T = FlowState(p, T)
    eig_T = lowest_eigenpair(st_T, want_mode=False)
    k_T = rep.kstarT = eig_T.kstar
    # to first order lambda1 = -kappa1^2, and lambda1(M0, 0) sits at -TOL_EIG/2
    kappa0, kappaT = kappa1(FlowState(p, 0.0)), kappa1(st_T)
    rep.add("kstar_present_T", k_T is not None, eig_T.lambda1, (None, -TOL_EIG),
            f"first order: kappa1(0) = {kappa0:.6e} and kappa1(T) = {kappaT:.6e} give "
            f"R^2 = {(kappaT / kappa0) ** 2:.7f}; the check needs R^2 >= 2 at M0")
    g1g2 = params.gamma1 * params.gamma2
    if k_T is not None:
        ratio = k_T / g1g2
        rep.add("kstarT_over_g1g2", 1.0 / 50.0 <= ratio <= 50.0, ratio, (1.0 / 50.0, 50.0))
        root = ray.eigenvalue_for_k(st_T, k_T / 2.0)
        rep.add("root_at_half_kstarT", root is not None,
                None if root is None else root[0], None)
    else:
        rep.add("kstarT_over_g1g2", False, None, (1.0 / 50.0, 50.0),
                "kstar(T) unresolved at tol_eig")
        rep.add("root_at_half_kstarT", False, None, None, "kstar(T) unresolved at tol_eig")
    return rep

