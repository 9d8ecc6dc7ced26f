"""Amplitude calibration and time sweeps of the critical wave number.

The lowest eigenvalue is strictly decreasing in the amplitude M, so a target
k* is a bracketed root of a smooth monotone function.  k*(t) is monotone
only while the narrow bump sits well inside the wide one: in random strongly
bound states it turned back down before T in none of 142 with gamma1/gamma2
<= 0.045 and in 196 of 241, each above 0.051, while the config accepts up to
0.2.  So the crossing time of k* = 1 is sought in the first pair of time
samples that straddles 1.  Both roots come from Chandrupatla's bracketed
inverse-quadratic iteration (``_roots.chandrupatla``, shared with the
Rayleigh root polish; Adv. Eng. Softw. 28, 1997), stopped once
|k* - target| <= TOL_CAL.  The amplitude tune locates M on the base grid
(``spectrum._base_lambda1``) and finishes on converged eigenvalues
(``tune_M_for_kstar``); the threshold amplitude stays a bisection
(``find_critical_M0``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._roots import chandrupatla
from .errors import BracketFailure, NonConvergence
from .flow import FlowParams, FlowState, kappa1
from .spectrum import TOL_EIG, _base_lambda1, lowest_eigenpair

__all__ = [
    "CalibrationResult",
    "KstarCurve",
    "tune_M_for_kstar",
    "find_critical_M0",
    "kstar_time_sweep",
]

TOL_CAL = 1e-6  # |k* - target| of the tune and of the crossing time
M_BRACKET = (0.01, 100.0)  # the tune's amplitude bracket
MAX_ITER = 80  # iterations of one Chandrupatla search
M0_BRACKET = (1e-6, 10.0)  # find_critical_M0's amplitude bracket
M0_MAX_ITER = 100  # find_critical_M0's bisection steps
WINDOW = 1e-3  # half-width in log M of the tune's first window when the estimate is unusable
SLOPE_STEP = 1e-3  # log-M step of the base-grid slope that sizes the tune's first window


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated amplitude and its straddling bracket.

    ``iterations`` counts bisection steps for ``find_critical_M0``, ruled or
    solved alike (19 on the fixture); for
    ``tune_M_for_kstar`` it counts converged eigensolves past the first two
    (finishing iterations, plus the window's ends when it missed), not
    base-grid solves.
    """

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
    kstar_at_Ttilde: Optional[float]  # k* as the crossing search evaluated it at Ttilde


@functools.lru_cache(maxsize=128)
def _lambda_pair(state: FlowState) -> tuple:
    """(lambda1, lambda2, k*) of ``state``, memoized across calls.

    The tune and the sweep both solve through here, so the sweep's t = 0
    sample at the tuned M (``math.exp`` of the same x) is the tune's solve.
    """
    r = lowest_eigenpair(state, want_mode=False)
    return r.lambda1, r.lambda2, r.kstar


def _lambda1(params: FlowParams, M: float, t: float, base: bool = False) -> float:
    """lambda1 at (M, t): converged and cached, or with ``base`` the raw base-grid value."""
    state = FlowState(params.with_M(M), t)
    if base:
        return _base_lambda1(state)
    return _lambda_pair(state)[0]


def _kstar(lam: float) -> float:
    return math.sqrt(max(-lam, 0.0))


def _crossing(kstar_at: Callable[[float], float], ends: tuple, kstar_ends: tuple,
              target: float, what: str):
    """Root of k*(x) = target between two straddling ends, by Chandrupatla.

    ``kstar_ends`` are the already known k* at ``ends``; ``kstar_at`` is
    called once per new abscissa.  Returns (x, k*(x), bracket) with
    |k*(x) - target| <= TOL_CAL, k*(x) as evaluated, and a final bracket that
    still straddles.
    """
    kstar = dict(zip(ends, kstar_ends))

    def residual(x, _):
        kstar[x[0]] = kstar_at(float(x[0]))
        return np.array([kstar[x[0]] - target])

    (a, b), (k_a, k_b) = ends, kstar_ends
    x, r, lo, hi = chandrupatla(residual, [a], [b], [k_a - target], [k_b - target], TOL_CAL,
                                MAX_ITER, what)
    if not abs(r[0]) <= TOL_CAL:
        raise NonConvergence(f"{what}: |k* - {target:g}| > {TOL_CAL:g} on a rounding-level bracket")
    return float(x[0]), kstar[x[0]], (float(lo[0]), float(hi[0]))


def _window(precise: Callable[[float], float], base: Callable[[float], float],
            x1: float, k1: float, ends: tuple, target: float) -> tuple:
    """A window at the base-grid root ``x1`` (base-grid k* ``k1``), within
    ``ends``, on which converged k* straddles ``target``; else ``ends``.

    Converged k* misses the target at x1 by r, the base grid's offset, which
    over the base-grid slope s puts the converged root near x1 - r/s: the
    midpoint, so Chandrupatla's first point, of the window from x1 to
    x1 - 2r/s.  A window with no interior (r/s is 0 or below the resolution
    of x1) is x1 +/- WINDOW instead.
    """
    slope = (base(x1 + SLOPE_STEP) - k1) / SLOPE_STEP
    step = (precise(x1) - target) / slope if slope > 0.0 else 0.0
    lo, hi = sorted((x1, x1 - 2.0 * step))
    if not lo < x1 - step < hi:
        lo, hi = x1 - WINDOW, x1 + WINDOW
    lo, hi = max(lo, ends[0]), min(hi, ends[1])
    return (lo, hi) if precise(lo) < target < precise(hi) else ends


def tune_M_for_kstar(params: FlowParams, t: float, target_kstar: float) -> CalibrationResult:
    """Find M with |k*(M, t) - target| <= TOL_CAL by Chandrupatla in log M.

    Relies on the strict monotonicity of the lowest eigenvalue in M.  The M
    field of ``params`` is ignored.  Targets must satisfy target^2 <= 2, the
    range over which the amplitude sweep is guaranteed to straddle.

    Locate: Chandrupatla over ``M_BRACKET`` on base-grid k*, skipped when
    the base grid does not straddle there.  Finish: Chandrupatla on
    converged k* over a window at the located root (see ``_window``), or
    over ``M_BRACKET`` when locating was skipped or the window missed.
    Only converged solves decide the result: the achieved k* and the
    returned straddling bracket, and ``BracketFailure``, raised only when
    converged k* at both ends of ``M_BRACKET`` fails to straddle.  Raises
    ``NonConvergence`` after ``MAX_ITER`` iterations of either stage.
    """
    if not (0.0 < target_kstar and target_kstar ** 2 <= 2.0 + 1e-12):
        raise ValueError("target_kstar must be positive with target^2 <= 2")

    def base(x):
        return _kstar(_lambda1(params, math.exp(x), t, base=True))

    solved = {}

    def precise(x):
        if x not in solved:
            solved[x] = _kstar(_lambda1(params, math.exp(x), t))
        return solved[x]

    ends = (math.log(M_BRACKET[0]), math.log(M_BRACKET[1]))
    lo, hi = ends
    k_base = (base(lo), base(hi))
    if k_base[0] < target_kstar < k_base[1]:
        x1, k1 = _crossing(base, ends, k_base, target_kstar, "tune_M_for_kstar (base grid)")[:2]
        lo, hi = _window(precise, base, x1, k1, ends, target_kstar)
    k_ends = (precise(lo), precise(hi))
    if not (k_ends[0] < target_kstar < k_ends[1]):
        raise BracketFailure(
            f"lambda1 does not straddle {-target_kstar ** 2:g} on M in {M_BRACKET}; "
            "parameter set outside the calibration regime"
        )
    x, achieved, (x_lo, x_hi) = _crossing(precise, (lo, hi), k_ends, target_kstar,
                                          "tune_M_for_kstar")
    return CalibrationResult(M=math.exp(x), achieved=achieved, iterations=len(solved) - 2,
                             bracket=(math.exp(x_lo), math.exp(x_hi)))


def find_critical_M0(params: FlowParams) -> CalibrationResult:
    """An amplitude at which binding resolves at t = 0.

    Returns M0 with lambda1(M0, 0) inside [-TOL_EIG, 0], certified by a
    bracket, narrower than 1e-4 * M0, whose ends straddle -TOL_EIG/2: a
    crossing, not necessarily the first, as lambda1(M) is not monotone there
    ((gamma0, gamma1, gamma2) = (0.246, 0.0821, 0.622) has one 2.7 % lower).

    This stays a bisection: near M0, lambda1 (about -5e-9) is within ten
    times LAPACK's bisection tolerance ULP * ||T||_1, about 6e-10 at the
    32 769 points where its weakly bound eigensolves stop on the uniform
    ladder (a rerun's strongly bound M = 10 end climbs the mapped one), so
    it is noise rather than a smooth function of M that interpolation could
    exploit, and M0 moves like dM/M ~ dlambda / 1e-8.

    A step whose midpoint lies more than 0.1 in ln M from the first-order
    threshold (lambda1 ~ -kappa1^2, ``flow.kappa1``) is decided unsolved
    (``_ruled``): 5 of the fixture's 18.  The final bracket, its ends solved
    once it is narrow, is the one certificate; should it fail to straddle,
    the bisection reruns with every step solved, ``M0_BRACKET``'s ends first.
    """
    level = -TOL_EIG / 2.0

    def lam(M):  # memoized by _lambda_pair, so an end is solved once
        return _lambda1(params, M, 0.0)

    M_lin = math.sqrt(-level) / kappa1(FlowState(params.with_M(1.0), 0.0))
    for rule in (True, False):
        lo, hi = M0_BRACKET
        if not (rule or lam(lo) > level >= lam(hi)):
            raise BracketFailure(f"lambda1 does not straddle {level:g} on M in {M0_BRACKET}")
        for i in range(M0_MAX_ITER):
            if (hi - lo) <= 1e-4 * hi:
                if not lam(lo) > level >= lam(hi):
                    break  # a ruled step misled, or no threshold: rerun with every step solved
                if lam(hi) > -0.95 * TOL_EIG:
                    return CalibrationResult(M=hi, achieved=lam(hi), iterations=i + 1,
                                             bracket=(lo, hi))
            mid = math.sqrt(lo * hi)
            bound = _ruled(mid, M_lin) if rule else None
            if bound is None:
                bound = not lam(mid) > level
            lo, hi = (lo, mid) if bound else (mid, hi)
        else:
            break
    raise NonConvergence("find_critical_M0: bracket did not shrink")


def _ruled(M: float, M_lin: float) -> Optional[bool]:
    """Whether M binds past the level by lambda1 ~ -kappa1^2 = (M / M_lin)^2 level;
    None within 0.1 of M_lin in ln M (measured thresholds lay within 0.071)."""
    if abs(math.log(M / M_lin)) <= 0.1:
        return None
    return M > M_lin


def kstar_time_sweep(M: float, params: FlowParams, n_times: int) -> KstarCurve:
    """Sample k*(t) on a uniform grid over [0, T] and localize k* = 1.

    T is the exact diffusion horizon of the narrow bump.  The crossing time
    is attached by Chandrupatla's iteration in the first pair of samples
    that straddles k* = 1 (see the module docstring), whose k* the sweep
    already holds; ``Ttilde`` and its k* are None when no pair straddles.
    The t = 0 sample of a just-tuned M is taken from the tune's solve.
    """
    if n_times < 8:
        raise ValueError("n_times must be at least 8")
    T = params.horizon
    times = np.linspace(0.0, T, n_times)
    p = params.with_M(M)

    lam1, lam2, kstars = zip(*(_lambda_pair(FlowState(p, t)) for t in times))
    lam1, lam2 = np.array(lam1), np.array(lam2)

    ttilde = k_tt = None
    ks = [k if k is not None else 0.0 for k in kstars]
    for j in range(n_times - 1):
        if ks[j] < 1.0 <= ks[j + 1]:
            # the two straddling samples are already solved: start from them
            ttilde, k_tt, _ = _crossing(
                lambda t: _kstar(_lambda1(params, M, t)),
                (float(times[j]), float(times[j + 1])),
                (_kstar(lam1[j]), _kstar(lam1[j + 1])),
                1.0, "Ttilde search",
            )
            break
    return KstarCurve(times=times, kstars=kstars, lambda1s=lam1, lambda2s=lam2, T=T, Ttilde=ttilde,
                      kstar_at_Ttilde=k_tt)
