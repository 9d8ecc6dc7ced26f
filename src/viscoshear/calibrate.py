"""Amplitude calibration and time sweeps of the critical wave number.

The lowest eigenvalue of the bound-state operator is strictly decreasing in
the amplitude M, so hitting a target critical wave number, or locating the
threshold amplitude where binding first resolves, are bracketed bisections
on M.  The time sweep samples k*(t) on [0, T] with T the diffusion horizon
of the narrow bump, and localizes the crossing time of k* = 1 by an inner
bisection in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketFailure, NonConvergence
from .flow import FlowParams, FlowState
from .spectrum import TOL_EIG, Grid, lowest_eigenpair

__all__ = [
    "CalibrationResult",
    "KstarCurve",
    "tune_M_for_kstar",
    "find_critical_M0",
    "kstar_time_sweep",
]

TOL_CAL = 1e-6
M_BRACKET = (0.01, 100.0)
MAX_BISECT = 80


@dataclass(frozen=True)
class CalibrationResult:
    M: float
    achieved: float
    iterations: int
    bracket: tuple


@dataclass(frozen=True)
class KstarCurve:
    times: np.ndarray
    kstars: tuple  # Optional[float] per time
    lambda1s: np.ndarray
    lambda2s: np.ndarray
    T: float
    Ttilde: Optional[float]


def _lambda1(params: FlowParams, M: float, t: float, grid: Grid, tol_eig: float) -> float:
    state = FlowState(params.with_M(M), t)
    return lowest_eigenpair(state, grid, tol_eig, want_mode=False).lambda1


def tune_M_for_kstar(
    params: FlowParams,
    t: float,
    target_kstar: float,
    grid: Grid = Grid(),
    tol_cal: float = TOL_CAL,
    tol_eig: float = TOL_EIG,
    bracket: tuple = M_BRACKET,
    max_iter: int = MAX_BISECT,
) -> CalibrationResult:
    """Bisect M (log-spaced midpoints) until |k*(M, t) - target| <= tol_cal.

    Relies on the strict monotonicity of the lowest eigenvalue in M.  The M
    field of ``params`` is ignored.  Targets must satisfy target^2 <= 2, the
    range over which the amplitude sweep is guaranteed to straddle.
    """
    if not (0.0 < target_kstar and target_kstar ** 2 <= 2.0 + 1e-12):
        raise ValueError("target_kstar must be positive with target^2 <= 2")
    lam_target = -target_kstar ** 2
    lo, hi = bracket
    g_lo = _lambda1(params, lo, t, grid, tol_eig) - lam_target
    g_hi = _lambda1(params, hi, t, grid, tol_eig) - lam_target
    if not (g_lo > 0.0 > g_hi):
        raise BracketFailure(
            f"lambda1 does not straddle {lam_target:g} on M in {bracket}; "
            "parameter set outside the calibration regime"
        )
    for i in range(max_iter):
        mid = math.sqrt(lo * hi)
        lam = _lambda1(params, mid, t, grid, tol_eig)
        achieved = math.sqrt(max(-lam, 0.0))
        if abs(achieved - target_kstar) <= tol_cal:
            return CalibrationResult(M=mid, achieved=achieved, iterations=i + 1, bracket=(lo, hi))
        if lam - lam_target > 0.0:
            lo = mid
        else:
            hi = mid
    raise NonConvergence(f"tune_M_for_kstar: no convergence in {max_iter} bisections")


def find_critical_M0(
    params: FlowParams,
    grid: Grid = Grid(),
    tol_eig: float = TOL_EIG,
    bracket: tuple = (1e-6, 10.0),
    max_iter: int = 100,
) -> CalibrationResult:
    """Smallest amplitude at which binding resolves at t = 0.

    Returns M0 with lambda1(M0, 0) inside [-tol_eig, 0], certified by a
    bracket whose endpoints straddle the -tol_eig/2 level; the bracket is
    shrunk below 1e-4 * M0 so the threshold crossing is pinned to that
    relative width.
    """
    level = -tol_eig / 2.0
    lo, hi = bracket
    lam_lo = _lambda1(params, lo, 0.0, grid, tol_eig)
    lam_hi = _lambda1(params, hi, 0.0, grid, tol_eig)
    if not (lam_lo > level >= lam_hi):
        raise BracketFailure(
            f"lambda1 does not straddle {level:g} on M in {bracket}"
        )
    lam_at_hi = lam_hi
    for i in range(max_iter):
        width_ok = (hi - lo) <= 1e-4 * hi
        if width_ok and lam_at_hi > -0.95 * tol_eig:
            break
        mid = math.sqrt(lo * hi)
        lam = _lambda1(params, mid, 0.0, grid, tol_eig)
        if lam > level:
            lo = mid
        else:
            hi, lam_at_hi = mid, lam
    else:
        raise NonConvergence("find_critical_M0: bracket did not shrink")
    return CalibrationResult(M=hi, achieved=lam_at_hi, iterations=i + 1, bracket=(lo, hi))


def kstar_time_sweep(
    M: float,
    params: FlowParams,
    n_times: int,
    grid: Grid = Grid(),
    tol_cal: float = TOL_CAL,
    tol_eig: float = TOL_EIG,
) -> KstarCurve:
    """Sample k*(t) on a uniform grid over [0, T] and localize k* = 1.

    T is the exact diffusion horizon of the narrow bump.  The crossing time
    is attached by bisection between the straddling samples (the sweep is
    monotone in the calibrated regime); ``Ttilde`` is None when k* never
    crosses 1.
    """
    if n_times < 8:
        raise ValueError("n_times must be at least 8")
    T = params.horizon
    times = np.linspace(0.0, T, n_times)
    p = params.with_M(M)

    def solve(t):
        r = lowest_eigenpair(FlowState(p, t), grid, tol_eig, want_mode=False)
        return r.lambda1, r.lambda2

    pairs = [solve(t) for t in times]
    lam1 = np.array([a for a, _ in pairs])
    lam2 = np.array([b for _, b in pairs])
    kstars = tuple(math.sqrt(-l) if l < -tol_eig else None for l in lam1)

    ttilde = None
    ks = [k if k is not None else 0.0 for k in kstars]
    for j in range(n_times - 1):
        if ks[j] < 1.0 <= ks[j + 1]:
            t_lo, t_hi = times[j], times[j + 1]
            for _ in range(80):
                t_mid = 0.5 * (t_lo + t_hi)
                lam = _lambda1(params, M, t_mid, grid, tol_eig)
                k_mid = math.sqrt(max(-lam, 0.0))
                if abs(k_mid - 1.0) <= tol_cal:
                    ttilde = t_mid
                    break
                if k_mid < 1.0:
                    t_lo = t_mid
                else:
                    t_hi = t_mid
            else:
                raise NonConvergence("Ttilde bisection stalled")
            break
    return KstarCurve(times=times, kstars=kstars, lambda1s=lam1, lambda2s=lam2, T=T, Ttilde=ttilde)
