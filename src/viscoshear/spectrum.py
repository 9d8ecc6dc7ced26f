"""Bound states of L = -d^2/dy^2 + b''/b on a truncated symmetric domain.

The lowest eigenvalue lambda1 determines the critical wave number
k* = sqrt(-lambda1); the eigenfunction is the neutral mode of the Rayleigh
equation at c = 0.

Discretization: symmetric 3-point second differences; eigenvalues via LAPACK
Sturm-sequence bisection and eigenvectors via inverse iteration
(``scipy.linalg.eigh_tridiagonal``).  The domain is closed with asymptotic
Robin conditions phi' = -/+ kappa * phi at +/-Y.  Because the potential is
Gaussian-small at the boundary, a Robin closure with the *self-consistent*
kappa = sqrt(-lambda) reproduces the whole-line eigenvalue on a fixed box
even for weakly bound states, so kappa is solved as an exact fixed point
(bracketed root in lambda) rather than iterated a fixed number of times.
Within one closure each distinct Robin matrix is solved once: the kappa = 0
diagonal is built once, each kappa only shifts its end entries, and the
brentq closure memoizes the eigenvalue pair on them.  Values are reported only
after Richardson extrapolants of two successive grid refinements agree
within ``tol_eig``.

The potential is even, so a strongly bound closure (kappa * Y >= 3) takes
lambda1 from the even half-size parity block and lambda2 from the odd one;
weakly bound closures and the eigenvector solve ask LAPACK for eigenvalues
1 and 2 of the full matrix by index (``_lowest_two``).  After a strongly
bound rung the next rung bisects each block only in a window around that
rung's eigenvalue, WIDEN times the last rung-to-rung change (FIRST * |lambda|
at rung 1) on each side, keeping a result only when Sturm counts certify it
(``_windowed``) and otherwise falling back to the block's index call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dpttrf
from scipy.optimize import brentq

from .errors import NonConvergence, ZeroNorm
from .flow import FlowState, eval_potential

__all__ = [
    "Grid",
    "SpectralResult",
    "ConvergenceInfo",
    "ProfileReport",
    "lowest_eigenpair",
    "rayleigh_quotient",
    "profile_check",
    "sturm_count_below",
]

TOL_EIG = 1e-8
WIDEN = 4.0  # window half-width over the last rung-to-rung change of the eigenvalue
FIRST = 1e-3  # window half-width over |lambda| at rung 1, before any change is known


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-half_width, half_width] with y = 0 a node."""

    half_width: float = 20.0
    n_points: int = 8193

    def __post_init__(self):
        if self.n_points < 9 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and >= 9")
        if not self.half_width >= 10.0:
            raise ValueError("half_width must be >= 10")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    def ys(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_points)


@dataclass(frozen=True)
class ConvergenceInfo:
    """Grid-refinement trail: raw eigenvalues and Richardson extrapolants."""

    n_points: tuple
    raw: tuple
    richardson: tuple
    kappa: float
    converged: bool


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    lambda2: float
    kstar: Optional[float]
    mode: Optional[np.ndarray]
    ys: Optional[np.ndarray]
    convergence: ConvergenceInfo


def sturm_count_below(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix below sigma.

    Plain Sturm-sequence count; certifies eigenvalue multiplicity claims
    independently of the LAPACK solver.
    """
    count = 0
    q = diag[0] - sigma
    if q < 0.0:
        count += 1
    tiny = 1e-300
    for i in range(1, len(diag)):
        denom = q if q != 0.0 else tiny
        q = (diag[i] - sigma) - off[i - 1] ** 2 / denom
        if q < 0.0:
            count += 1
    return count


def _robin_tridiagonal(v: np.ndarray, h: float, kappa: float):
    """Symmetrized tridiagonal of -D2 + V with Robin closure phi' = -/+ kappa phi.

    Ghost-point elimination makes the boundary rows carry -2/h^2 couplings;
    a diagonal similarity restores symmetry with off-diagonal entries
    -sqrt(2)/h^2 there.  The boundary entries of an eigenvector of the
    symmetrized matrix must be scaled by sqrt(2) to undo the similarity.
    """
    n = len(v)
    d = 2.0 / h ** 2 + v.copy()
    d[0] += 2.0 * kappa / h
    d[-1] += 2.0 * kappa / h
    e = np.full(n - 1, -1.0 / h ** 2)
    e[0] = -math.sqrt(2.0) / h ** 2
    e[-1] = -math.sqrt(2.0) / h ** 2
    return d, e


def _lowest_two(d: np.ndarray, e: np.ndarray):
    vals = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 1))
    return float(vals[0]), float(vals[1])


def _lowest(d: np.ndarray, e: np.ndarray) -> float:
    return float(eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 0))[0])


def _windowed(d: np.ndarray, e: np.ndarray, window: tuple):
    """The lowest eigenvalue, bisected by value range inside the (estimate,
    half-width) ``window``, or None unless Sturm counts certify it: none
    below the window (counted from a Gershgorin bound at a tolerance wider
    than the interval, so nothing is bisected) and exactly one in it."""
    x, w = window
    lo = float(d.min()) - 2.0 * max(float(e.max()), -float(e.min()))
    try:
        if not lo < x - w < x + w or len(eigh_tridiagonal(
                d, e, eigvals_only=True, select="v", select_range=(lo, x - w), tol=2.0 * (x - w - lo))):
            return None
        vals = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(x - w, x + w))
    except LinAlgError:
        return None
    return float(vals[0]) if len(vals) == 1 else None


def _selfconsistent_box(v: np.ndarray, h: float, half_width: float, tol: float,
                        guess: tuple = ()):
    """Eigenvalues of the box operator at the self-consistent Robin kappa.

    For well-confined states (kappa * Y >= 3) plain fixed-point iteration
    kappa <- sqrt(-lambda) contracts at rate exp(-2 kappa Y) and converges in
    a couple of sweeps.  For weakly bound states the Robin closure matters at
    leading order, so lambda = lambda_box(sqrt(-lambda)) is solved as a
    bracketed root: lambda_box is increasing in kappa, hence
    F(lambda) = lambda_box(kappa(lambda)) - lambda is strictly decreasing and
    changes sign between the (overbinding) Neumann value and 0-.

    ``v`` is even, so the matrix splits into parity blocks on its right half:
    the even block (centre row coupled by -sqrt(2)/h^2) and, less its first
    row, the odd block (u(0) = 0); a kappa shifts only their shared far end.
    The strongly bound path takes lambda1 from the even block and lambda2
    from the odd one.  Without ``guess`` it is entered when an LDL^T
    factorization (``dpttrf``) of the even Neumann block shifted by 9 / Y^2
    fails, i.e. when that block has an eigenvalue at or below -9 / Y^2.

    ``guess``, (estimate, half-width) windows for lambda1 and lambda2 from a
    strongly bound previous rung, enters that path directly: each block
    solve bisects its window (``_windowed``; the lambda1 window for the
    Neumann seed) and falls back to the block's index call if uncertified.

    The weak path solves each distinct full Robin matrix once, by index: a
    kappa sets the end entries of the kappa = 0 matrix (bit-identical to
    ``_robin_tridiagonal``'s) and the pair is memoized on them, which drops
    brentq's repeats (f(0-) rounds to the Neumann matrix, brentq evaluates
    f(0-) again, and it returns a root it has evaluated).
    """
    de, ee = _robin_tridiagonal(v[len(v) // 2:], h, 0.0)  # the even Neumann block
    de_last = de[-1]

    def block_lowest(odd, kappa, window):
        de[-1] = de_last + 2.0 * kappa / h
        d, e = (de[1:], ee[1:]) if odd else (de, ee)
        found = _windowed(d, e, window) if window else None
        return _lowest(d, e) if found is None else found

    w1, w2 = guess or (None, None)
    if guess or dpttrf(de + 9.0 / half_width ** 2, ee, overwrite_d=1)[2] > 0:
        lam1 = block_lowest(False, 0.0, w1)
        kappa = math.sqrt(-lam1) if lam1 < 0.0 else 0.0
        for i in range(4 if kappa * half_width >= 3.0 else 0):  # fixed-point sweeps
            lam1 = block_lowest(False, kappa, w1)
            if lam1 >= 0.0 or math.sqrt(-lam1) * half_width < 3.0:
                break
            knew = math.sqrt(-lam1)
            if abs(knew - kappa) <= 1e-9 * kappa or i == 3:
                return lam1, block_lowest(True, kappa, w2), knew
            kappa = knew

    d, e = _robin_tridiagonal(v, h, 0.0)
    d_first, d_last = d[0], d[-1]
    solved = {}

    def lowest_two(kappa):
        d[0] = d_first + 2.0 * kappa / h
        d[-1] = d_last + 2.0 * kappa / h
        ends = (float(d[0]), float(d[-1]))
        if ends not in solved:
            solved[ends] = _lowest_two(d, e)
        return solved[ends]

    lam_n1, lam_n2 = lowest_two(0.0)
    if lam_n1 >= 0.0:
        return lam_n1, lam_n2, 0.0

    def f(lam):
        return lowest_two(math.sqrt(-lam))[0] - lam

    hi = -1e-30
    if f(hi) >= 0.0:  # pathological; Neumann value is the fixed point
        return lam_n1, lam_n2, 0.0
    lam_star = brentq(f, lam_n1, hi, xtol=tol * 1e-3, rtol=8.9e-16, maxiter=200)
    kappa = math.sqrt(-lam_star)
    lam1, lam2 = lowest_two(kappa)
    return lam1, lam2, kappa


def _level(vfunc: Callable[[np.ndarray], np.ndarray], grid: Grid, level: int, tol_eig: float,
           guess: tuple = ()):
    """One rung of the Richardson ladder: (n, lambda1, lambda2, kappa) on
    (n_points - 1) * 2**level + 1 nodes, raw, without extrapolation."""
    n = (grid.n_points - 1) * 2 ** level + 1
    ys = np.linspace(-grid.half_width, grid.half_width, n)
    right = vfunc(ys[n // 2:])  # V is even: evaluated for y >= 0 only, then mirrored
    v = np.concatenate((right[:0:-1], right))
    return (n,) + _selfconsistent_box(v, ys[1] - ys[0], grid.half_width, tol_eig, guess)


def _next_windows(raws: tuple) -> tuple:
    """(estimate, half-width) of each eigenvalue for the next rung, from the
    raw trails ``raws`` of lambda1 and lambda2 up to this rung."""
    return tuple((r[-1], WIDEN * abs(r[-1] - r[-2]) if len(r) > 1 else FIRST * abs(r[-1]))
                 for r in raws)


def _solve_potential(
    vfunc: Callable[[np.ndarray], np.ndarray],
    grid: Grid,
    tol_eig: float,
    want_mode: bool,
    max_levels: int = 5,
):
    """Refinement-and-Richardson driver used by ``lowest_eigenpair``.

    ``vfunc`` maps a node array to potential values, which keeps the solver
    testable against exactly solvable potentials.  The potential must be
    even: each rung evaluates it for y >= 0 only and mirrors it.
    """
    ns, raw1, raw2, rich1, rich2, kappas = [], [], [], [], [], []
    converged = False
    guess = ()
    for level in range(max_levels):
        n, lam1, lam2, kappa = _level(vfunc, grid, level, tol_eig, guess)
        ns.append(n)
        raw1.append(lam1)
        raw2.append(lam2)
        kappas.append(kappa)
        guess = _next_windows((raw1, raw2)) if kappa * grid.half_width >= 3.0 else ()
        if level >= 1:
            rich1.append(raw1[-1] + (raw1[-1] - raw1[-2]) / 3.0)
            rich2.append(raw2[-1] + (raw2[-1] - raw2[-2]) / 3.0)
        if len(rich1) >= 2 and abs(rich1[-1] - rich1[-2]) <= tol_eig:
            converged = True
            break
    if not converged:
        raise NonConvergence(
            "eigenvalue refinements did not stabilize within tol_eig="
            f"{tol_eig:g}; grid too coarse or domain too small "
            f"(trail {rich1})"
        )
    lam1, lam2 = rich1[-1], rich2[-1]
    info = ConvergenceInfo(tuple(ns), tuple(raw1), tuple(rich1), kappas[-1], True)

    mode = None
    if want_mode:
        n_fine = ns[-1]
        ys = np.linspace(-grid.half_width, grid.half_width, n_fine)
        h = ys[1] - ys[0]
        d, e = _robin_tridiagonal(vfunc(ys), h, kappas[-1])
        _, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        u = vecs[:, 0].copy()
        u[0] *= math.sqrt(2.0)
        u[-1] *= math.sqrt(2.0)
        stride = 2 ** (len(ns) - 1)
        u = u[::stride]
        if u[len(u) // 2] < 0.0:
            u = -u
        u /= math.sqrt(np.sum(u ** 2) * grid.spacing)
        mode = u
    return lam1, lam2, mode, info


def _potential(state: FlowState) -> Callable[[np.ndarray], np.ndarray]:
    return lambda ys: np.asarray(eval_potential(state, ys), dtype=float)


def lowest_eigenpair(
    state: FlowState,
    grid: Grid,
    tol_eig: float = TOL_EIG,
    want_mode: bool = True,
) -> SpectralResult:
    """Lowest two eigenvalues of -d^2/dy^2 + b''/b, plus the neutral mode.

    The mode (when requested and bound) is returned on the nodes of ``grid``
    with unit discrete L2 norm and positive sign.  Raises ``NonConvergence``
    if grid refinements fail to agree within ``tol_eig``.
    """
    lam1, lam2, mode, info = _solve_potential(_potential(state), grid, tol_eig, want_mode)
    bound = lam1 < -tol_eig
    return SpectralResult(
        lambda1=lam1,
        lambda2=lam2,
        kstar=math.sqrt(-lam1) if bound else None,
        mode=mode if bound else None,
        ys=grid.ys() if (bound and want_mode) else None,
        convergence=info,
    )


def _base_lambda1(state: FlowState, grid: Grid, tol_eig: float) -> float:
    """Raw lambda1 on ``grid`` alone: the first rung of ``lowest_eigenpair``'s
    ladder, within about 1e-5 relative of the converged value at a small
    fraction of its cost, enough to steer a search but not to report."""
    return _level(_potential(state), grid, 0, tol_eig)[1]


def _deriv4(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative; second-order one-sided at the edges."""
    du = np.empty_like(u)
    du[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[1] = (u[2] - u[0]) / (2.0 * h)
    du[-2] = (u[-1] - u[-3]) / (2.0 * h)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return du


def rayleigh_quotient(state: FlowState, grid: Grid, candidate: np.ndarray) -> float:
    """<L phi, phi> / <phi, phi> for a sampled trial function.

    Gradient by a fourth-order stencil and trapezoid sums: for the converged
    mode the quotient error is quadratic in the mode error, so this matches
    the Richardson eigenvalue well below the h^2 level of the raw matrix.
    """
    ys = grid.ys()
    h = grid.spacing
    u = np.asarray(candidate, dtype=float)
    if u.shape != ys.shape:
        raise ValueError("candidate must be sampled on the grid nodes")
    w = np.full_like(u, h)
    w[0] = w[-1] = h / 2.0
    norm2 = float(np.sum(u ** 2 * w))
    if norm2 < 1e-12 ** 2:
        raise ZeroNorm("candidate norm below 1e-12")
    du = _deriv4(u, h)
    v = np.asarray(eval_potential(state, ys), dtype=float)
    quad = float(np.sum((du ** 2 + v * u ** 2) * w))
    return quad / norm2


@dataclass(frozen=True)
class ProfileReport:
    """Pointwise neutral-mode checks with one fitted constant per run."""

    even_ok: bool
    positive_ok: bool
    monotone_ok: bool
    plateau_ok: bool
    envelope_ok: bool
    fitted_C: float
    even_defect: float
    min_value: float

    @property
    def all_ok(self) -> bool:
        return (
            self.even_ok
            and self.positive_ok
            and self.monotone_ok
            and self.plateau_ok
            and self.envelope_ok
        )


def _fit_min_C(pred, hi: float = 1e6) -> float:
    """Smallest C >= 1 satisfying a monotone pointwise predicate, by geometric bisection."""
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


def _fits_with_C(ys, u, kstar, C):
    core = np.abs(ys) <= 1.0 / kstar
    rk = math.sqrt(kstar)
    if np.any(core):
        lo = np.all(u[core] >= rk / C)
        hi = np.all(u[core] <= rk * C)
    else:
        lo = hi = True
    tail = ~core
    env = np.all(u[tail] <= C * rk * np.exp(-kstar * np.abs(ys[tail]) / C)) if np.any(tail) else True
    return lo and hi and env


def profile_check(result: SpectralResult, state: FlowState, c_max: float = 1e3) -> ProfileReport:
    """Evenness, positivity, monotone decay, plateau and envelope of the mode.

    The plateau (|phi| comparable to sqrt(k*) for |y| <= 1/k*) and the
    exponential envelope beyond share a single fitted constant, found by
    bisection as the smallest C >= 1 satisfying both pointwise.
    """
    if result.kstar is None or result.mode is None:
        raise ValueError("profile_check needs a bound state with its mode")
    u = result.mode
    ys = result.ys
    n = len(u)
    mid = n // 2
    even_defect = float(np.max(np.abs(u - u[::-1])))
    even_ok = even_defect < 1e-8
    min_value = float(np.min(u))
    positive_ok = min_value > 0.0
    right = u[mid:]
    monotone_ok = bool(np.all(np.diff(right) <= 1e-10 * u[mid]))

    kstar = result.kstar
    fitted = _fit_min_C(lambda C: _fits_with_C(ys, u, kstar, C), hi=c_max)
    core = np.abs(ys) <= 1.0 / kstar
    rk = math.sqrt(kstar)
    plateau_ok = bool(np.all(u[core] >= rk / fitted) and np.all(u[core] <= rk * fitted)) if math.isfinite(fitted) else False
    envelope_ok = math.isfinite(fitted)
    return ProfileReport(
        even_ok=even_ok,
        positive_ok=positive_ok,
        monotone_ok=monotone_ok,
        plateau_ok=plateau_ok,
        envelope_ok=envelope_ok,
        fitted_C=fitted,
        even_defect=even_defect,
        min_value=min_value,
    )
