"""Bound states of L = -d^2/dy^2 + b''/b on a truncated symmetric domain.

The lowest eigenvalue lambda1 determines the critical wave number
k* = sqrt(-lambda1); the eigenfunction is the neutral mode of the Rayleigh
equation at c = 0.

Eigenvalues come from LAPACK Sturm-sequence bisection (``dstebz``; ``dstein``
for the mode, ``dpttrf`` for windows) on rungs of doubling resolution, and
are reported only after Richardson extrapolants of two successive rungs
agree within ``TOL_EIG``.  The box [-Y, Y] is closed with the asymptotic
Robin condition phi' = -/+ kappa phi at +/-Y.  Because the potential is
Gaussian-small there, the *self-consistent* kappa = sqrt(-lambda)
reproduces the whole-line eigenvalue on a fixed box, even for weakly bound
states, so Y = ``HALF_WIDTH`` is a module constant like the base rungs and
the tolerances, read when a function runs, and the functions take only the
physics.  The potential is even, so it is evaluated for y >= 0 only.

Each eigensolve starts on mapped rung 0, the mapped ladder's level 0: when
its Neumann seed (the lowest eigenvalue of its even block), a later sweep
or a finer rung has kappa * Y < 3, the state goes to the uniform ladder.

- Strongly bound states climb the mapped ladder (``_mapped_level``):
  finite volumes on nodes y = MAP_A sinh(x), uniform in x, so the cells are
  fine in the narrow bump and coarse in the tails and rung 0 is already in
  the h^2 regime (see ``MAP_A``).  lambda1 is the lowest eigenvalue of the
  even half-line block, lambda2 that of the odd one (past rung 0: the
  climb extrapolates lambda2 from its last two rungs and stops at rung 2
  at the earliest), and Richardson runs in the x spacing.  Rung 0 alone
  iterates the Robin kappa, by fixed-point sweeps from its Neumann seed,
  which contract at rate exp(-2 kappa Y).  Each finer rung is closed at the
  rung below's kappa, which lags its own fixed point by O(h^2), damped by
  exp(-2 kappa Y), so Richardson in x removes the lag with the grid error;
  it then closes its odd block at its own kappa = sqrt(-lambda1).  Each
  rung's geometry (nodes, cells, the flux part of the block) is built once
  per (level, MAP_A, MAP_ROWS, HALF_WIDTH) and kept read-only, so a rung
  evaluates only V.  The ladder extrapolates only when successive raw
  differences of lambda1 fall by a ratio inside ``ORDER_BAND``.
- Weakly bound states climb the uniform ladder (``_level``): symmetric
  3-point differences on the full grid, the lowest two eigenvalues by index
  (``_lowest_two``), and kappa as a bracketed root in lambda by scipy's
  compiled Brent (``brentq``), with each distinct Robin matrix solved once.
  Richardson needs rungs 0 to 2 before it can stop, so with two CPUs rung 2,
  the costliest of them, runs in a forked child (``_forked``) while the
  caller climbs rungs 0 and 1; rungs 3 and 4 run in the caller.  Threads
  would not help: scipy's ``dstebz`` wrapper holds the GIL.

The LAPACK routines and Brent's iteration are scipy's own compiled
extensions (``scipy/linalg/_flapack``, ``scipy/optimize/_zeros``).
``_extension`` loads any scipy file by path, a compiled extension or a plain
module (``_ode`` reads its DOP853 tableau from
``scipy/integrate/_ivp/dop853_coefficients`` through it), so that loading
them imports no scipy package.  ``eigh_tridiagonal`` and ``brentq`` make
exactly the calls of scipy's ``eigh_tridiagonal`` (``stebz`` branch) and
``brentq``, and must keep making them: ``line``'s threshold amplitude M0 is
set by the bisection noise of ``_lowest_two`` at Brent's abscissae, so
another driver, selection, tolerance or root finder moves it.  The forked
rung makes the same calls in the child.

One rule bisects every mapped block (``_mapped_lowest``): a solve with an
estimate bisects a ``dpttrf``-certified window about it, else it makes an
index call.  The estimates: the last lambda1 for rung 0's sweeps, the rung
below's raw eigenvalues for a finer rung (none for rung 1's odd block, as
rung 0 solves none) and the last rung's raw lambda1 for the mode.

The mode, the ground state, is even: one ``dstein`` call at its eigenvalue
gives the lowest eigenvector of the even block of the finest mapped rung the
eigensolve reached (whichever ladder it climbed), Robin-closed at kappa =
sqrt(-lambda1), which is unscaled by W^(-1/2) and mirrored, so it is even bit
for bit.  It lives on that rung's nodes and is normalized in its cells, both
of which ``SpectralResult`` carries.  This module only solves:
``scenario.profile_checked`` judges the mode's shape.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import importlib.util
import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketFailure, NonConvergence
from .flow import FlowState, eval_potential

__all__ = ["SpectralResult", "ConvergenceInfo", "lowest_eigenpair"]

TOL_EIG = 1e-8  # Richardson agreement of converged eigenvalues; bound means lambda1 < -TOL_EIG
HALF_WIDTH = 20.0  # the box [-Y, Y]; the self-consistent Robin closure makes lambda1 blind to it
UNIFORM_ROWS = 8193  # nodes on [-Y, Y] of uniform rung 0, which only weakly bound states climb
MAX_LEVELS = 5  # Richardson rungs before an eigensolve gives up
# y = MAP_A sinh(x).  With 129 base rows, 0.03 <= MAP_A <= 0.06 puts bumps
# gamma0 * gamma1 >= 3e-3 in the h^2 regime from rung 0, and 1e-3 a rung or two later.
MAP_A = 0.05
MAP_ROWS = 129  # half-line nodes of mapped rung 0; 129 to 257 take three rungs on the fixture
# dstebz's absolute tolerance on mapped blocks; 1e-15 to 1e-12 agree within 1e-13 on
# the fixture; its default ULP * ||T||_1 moves lambda1 there by up to 7e-10.
MAP_TOL = 1e-13
# Half-width of a finer mapped rung's window relative to its estimate: 3e-5 to 1 certify every
# window of a fixture kstar-sweep, 1.5e-4 to 1 every one of wells with kappa * Y from 3.2 to 43.
WINDOW = 1e-3
ORDER_BAND = (3.5, 4.5)  # the ratio of successive raw lambda1 differences the mapped ladder accepts


def _extension(package: str, name: str):
    """scipy's file ``scipy/<package>/<name>``, a compiled extension or a plain
    module (``package`` may be nested, as ``integrate/_ivp``), loaded as a
    module of its own: found by path, so no ``scipy`` package is imported."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(p, *package.split("/")) for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"viscoshear needs scipy's file scipy/{package}/{name}, "
                          f"and no installed scipy has it")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _extension("linalg", "_flapack")
_dstebz, _dstein, _dpttrf = _flapack.dstebz, _flapack.dstein, _flapack.dpttrf
_zeros = _extension("optimize", "_zeros")


def _checked(routine: str, info: int) -> None:
    if info:
        raise NonConvergence(f"LAPACK {routine} failed (info={info})")


def eigh_tridiagonal(d, e, select="i", select_range=(0, 0), tol=0.0):
    """Eigenvalues of the symmetric tridiagonal (d, e): those with indices
    il..iu = ``select_range`` (``select`` "i"), or those in the value range
    (vl, vu] = ``select_range`` (``select`` "v").

    ``scipy.linalg.eigh_tridiagonal``'s ``stebz`` branch with ``eigvals_only``,
    call for call: the same finite-input check and ``dstebz`` with the same
    arguments, so its values are scipy's bit for bit.  A nonzero LAPACK
    ``info`` raises ``NonConvergence``.
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    lo, hi = select_range
    bounds = (1, float(lo), float(hi), 1, 1) if select == "v" else (2, 0.0, 1.0, lo + 1, hi + 1)
    m, w, _, _, info = _dstebz(d, e, *bounds, float(tol), "E")
    _checked("dstebz", info)
    return w[:m]


@dataclass(frozen=True)
class ConvergenceInfo:
    """Rung-refinement trail: raw eigenvalues and Richardson extrapolants.

    ``n_points`` counts each rung's nodes on [-Y, Y]; a mapped rung has twice
    its half-line rows less the shared centre.
    """

    n_points: tuple
    raw: tuple
    richardson: tuple
    kappa: float


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    lambda2: float
    kstar: Optional[float]
    mode: Optional[np.ndarray]
    ys: Optional[np.ndarray]  # the mode's nodes on [-Y, Y]
    weights: Optional[np.ndarray]  # their cells: sum(mode**2 * weights) = 1
    convergence: ConvergenceInfo


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
    vals = eigh_tridiagonal(d, e, select_range=(0, 1))
    return float(vals[0]), float(vals[1])


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float,
           maxiter: int) -> float:
    """Root of a scalar f between ``a`` and ``b``: scipy's compiled Brent,
    called as ``scipy.optimize.brentq`` calls it.  Raises ``BracketFailure``
    when f has the same sign at both ends, ``NonConvergence`` when f is NaN
    or after ``maxiter`` iterations; what f raises reaches the caller as is.
    """
    def finite(x):
        fx = f(x)
        if math.isnan(fx):
            raise NonConvergence(f"brentq: f({x!r}) is NaN")
        return fx

    try:
        return _zeros._brentq(finite, a, b, xtol, rtol, maxiter, (), False, True)
    except (ValueError, RuntimeError) as exc:
        if exc.__traceback__.tb_next is not None:  # raised in f, below this frame
            raise
        error = BracketFailure if isinstance(exc, ValueError) else NonConvergence
        raise error(f"brentq on [{a!r}, {b!r}]: {exc}") from None


def _selfconsistent_box(v: np.ndarray, h: float):
    """Lowest two eigenvalues of the full uniform matrix at the self-consistent
    Robin kappa, the uniform ladder's closure.

    For weakly bound states the Robin closure matters at leading order, so
    lambda = lambda_box(sqrt(-lambda)) is solved as a bracketed root:
    lambda_box is increasing in kappa, hence F(lambda) =
    lambda_box(kappa(lambda)) - lambda is strictly decreasing and changes
    sign between the (overbinding) Neumann value and 0-.  The root is found
    by ``brentq``, scipy's compiled Brent.  A strongly bound state (kappa * Y
    of about 9 or more) has a Robin shift that rounds away, so F(Neumann
    value) is not positive and brentq raises ``BracketFailure``: such states
    belong on the mapped ladder.

    Each distinct Robin matrix is solved once, by index: a kappa sets the end
    entries of the kappa = 0 matrix (bit-identical to
    ``_robin_tridiagonal``'s) and the pair is memoized on them, which drops
    brentq's repeats (f(0-) rounds to the Neumann matrix, brentq evaluates
    f(0-) again, and it returns a root it has evaluated).
    """
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
    lam_star = brentq(f, lam_n1, hi, xtol=TOL_EIG * 1e-3, rtol=8.9e-16, maxiter=200)
    kappa = math.sqrt(-lam_star)
    lam1, lam2 = lowest_two(kappa)
    return lam1, lam2, kappa


def _level(vfunc: Callable[[np.ndarray], np.ndarray], level: int):
    """One rung of the uniform ladder: (n, lambda1, lambda2, kappa) on
    (UNIFORM_ROWS - 1) * 2**level + 1 nodes, raw, without extrapolation."""
    n = (UNIFORM_ROWS - 1) * 2 ** level + 1
    ys = np.linspace(-HALF_WIDTH, HALF_WIDTH, n)
    right = vfunc(ys[n // 2:])  # V is even: evaluated for y >= 0 only, then mirrored
    v = np.concatenate((right[:0:-1], right))
    return (n,) + _selfconsistent_box(v, ys[1] - ys[0])


@contextlib.contextmanager
def _forked(fn: Callable[[], object]):
    """Run ``fn()`` in a forked child while the caller works on; yields a
    ``wait()`` that returns its value or re-raises its exception.

    The child pickles ("ok", value) or ("err", exception) into a pipe and
    leaves by ``os._exit``, flushing no stdio buffer and running no atexit
    handler.  ``wait`` reaps it, and runs ``fn()`` itself when the child
    left no record (killed by a signal, say); leaving the block any other
    way (an exception, an interrupted wait) kills and reaps it.  Without
    ``fork``, a second CPU in the affinity mask or a process to spare,
    yields ``fn`` itself.
    """
    cpus, pid = getattr(os, "sched_getaffinity", None), None
    if hasattr(os, "fork") and cpus is not None and len(cpus(0)) >= 2:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
    if pid is None:
        yield fn
        return
    if pid == 0:
        try:
            os.close(read)
            try:
                out = ("ok", fn())
            except BaseException as exc:
                out = ("err", exc)
            with open(write, "wb") as pipe:
                pickle.dump(out, pipe)
        finally:
            os._exit(0)
    os.close(write)
    reaped = False
    with open(read, "rb") as pipe:

        def wait():
            nonlocal reaped
            try:
                record = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child died without one
                record = None
            os.waitpid(pid, 0)
            reaped = True
            if record is None:
                return fn()
            status, value = record
            if status == "err":
                raise value
            return value

        try:
            yield wait
        finally:
            if not reaped:
                import signal  # this path alone needs it, so start-up does not import it

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _mapped_lowest(d: np.ndarray, e: np.ndarray, estimate: Optional[float] = None) -> float:
    """The lowest eigenvalue of a mapped block at ``MAP_TOL``, by the module's
    rule: in the window (x - w, x + w] about an ``estimate`` x, w = WINDOW |x|,
    when ``dpttrf`` factors the block less x - w (so, by Sylvester inertia, no
    eigenvalue lies at or below x - w) and exactly one lies in the window;
    else by an index call."""
    if estimate is not None:
        lo, hi = estimate - WINDOW * abs(estimate), estimate + WINDOW * abs(estimate)
        if lo < hi and _dpttrf(d - lo, e)[2] == 0:
            vals = eigh_tridiagonal(d, e, select="v", select_range=(lo, hi), tol=MAP_TOL)
            if len(vals) == 1:
                return float(vals[0])
    return float(eigh_tridiagonal(d, e, select_range=(0, 0), tol=MAP_TOL)[0])


@functools.lru_cache(maxsize=None)
def _mapped_geometry(level: int, a: float, rows: int, width: float):
    """Nodes y, cells w, the off-diagonal and the flux part of the diagonal
    of mapped rung ``level`` on MAP_A = ``a``, MAP_ROWS = ``rows`` and
    HALF_WIDTH = ``width``, built on first use and read-only."""
    rows = (rows - 1) * 2 ** level + 1
    h = math.asinh(width / a) / (rows - 1)
    x = h * np.arange(rows)
    flux = 1.0 / (a * np.cosh(x[:-1] + 0.5 * h) * h)
    w = a * np.cosh(x) * h
    w[[0, -1]] *= 0.5
    out = (a * np.sinh(x), w, -flux / np.sqrt(w[:-1] * w[1:]),
           (np.r_[0.0, flux] + np.r_[flux, 0.0]) / w)
    for array in out:
        array.flags.writeable = False
    return out


def _mapped_block(vfunc: Callable[[np.ndarray], np.ndarray], level: int):
    """Even Neumann block (d, e), cells w and nodes y of mapped rung ``level``
    (see ``_mapped_level``): d is new, the rest is the rung's cached geometry."""
    y, w, e, flux = _mapped_geometry(level, MAP_A, MAP_ROWS, HALF_WIDTH)
    return vfunc(y) + flux, e, w, y


def _mapped_level(vfunc: Callable[[np.ndarray], np.ndarray], level: int,
                  below: Optional[tuple] = None):
    """One rung of the mapped ladder: (n, lambda1, lambda2, kappa), raw, on
    (MAP_ROWS - 1) * 2**level + 1 half-line nodes y = MAP_A sinh(x), x
    uniform with spacing h; n = 2 * rows - 1 counts the nodes of the full
    line.  None when a solve of the even block has kappa * Y < 3.  Rung 0
    (``below`` None) has lambda2 None; a finer rung is closed at the raw
    rung ``below``'s kappa.

    Finite volumes: flux 1 / (g' h) at the midpoints, cells w = g' h (half
    cells at 0 and Y), symmetrized by W^(1/2), so with g' = 1 this is the
    uniform even block; the Robin closure adds kappa / w_N to the far entry,
    and the odd block is the even block less its centre row.
    """
    d, e, w, _ = _mapped_block(vfunc, level)
    d_far, (kappa, lam1) = d[-1], (below[3], below[1]) if below else (0.0, None)
    for _ in range(1 if below else 5):  # below's closure, or the Neumann seed and four sweeps
        d[-1] = d_far + kappa / w[-1]
        lam1 = _mapped_lowest(d, e, lam1)
        if lam1 >= 0.0 or math.sqrt(-lam1) * HALF_WIDTH < 3.0:
            return None
        closure, kappa = kappa, math.sqrt(-lam1)
        if abs(kappa - closure) <= 1e-9 * closure:
            break
    if below is None:
        return 2 * len(d) - 1, lam1, None, kappa
    d[-1] = d_far + kappa / w[-1]
    return 2 * len(d) - 1, lam1, _mapped_lowest(d[1:], e[1:], below[2]), kappa


def _climb(rung: Callable[[int, Optional[tuple]], Optional[tuple]], guarded: bool):
    """Richardson over ``rung(level, below)``, ``below`` being the previous
    rung's raw output (None at level 0): (lambda1, lambda2, ConvergenceInfo)
    once two successive extrapolants of lambda1 agree within ``TOL_EIG``, or
    None as soon as a rung is None.  ``guarded`` adds the ``ORDER_BAND``
    test on the raw lambda1 differences of the last three rungs."""
    ns, raw1, raw2, rich1, out = [], [], [], [], None
    for level in range(MAX_LEVELS):
        out = rung(level, out)
        if out is None:
            return None
        n, lam1, lam2, kappa = out
        ns.append(n)
        raw1.append(lam1)
        raw2.append(lam2)
        if level >= 1:
            rich1.append(raw1[-1] + (raw1[-1] - raw1[-2]) / 3.0)
        if len(rich1) >= 2 and abs(rich1[-1] - rich1[-2]) <= TOL_EIG:
            last = raw1[-1] - raw1[-2]
            ratio = (raw1[-2] - raw1[-3]) / last if last else math.inf
            if guarded and not ORDER_BAND[0] <= ratio <= ORDER_BAND[1]:
                raise NonConvergence(
                    f"raw lambda1 differences fall by {ratio:.4g}, outside ORDER_BAND "
                    f"{ORDER_BAND}: not in the h^2 regime (raw trail {raw1})")
            return (rich1[-1], raw2[-1] + (raw2[-1] - raw2[-2]) / 3.0,
                    ConvergenceInfo(tuple(ns), tuple(raw1), tuple(rich1), kappa))
    raise NonConvergence(
        "eigenvalue refinements did not stabilize within TOL_EIG="
        f"{TOL_EIG:g}; grid too coarse or domain too small "
        f"(trail {rich1})"
    )


def _solve_potential(vfunc: Callable[[np.ndarray], np.ndarray], want_mode: bool) -> SpectralResult:
    """Refinement-and-Richardson driver used by ``lowest_eigenpair``.

    ``vfunc`` maps a node array to potential values, which keeps the solver
    testable against exactly solvable potentials.  The potential must be
    even: every rung evaluates it for y >= 0 only, and the mode's rung
    evaluates it again on its nodes.
    """
    climbed = _climb(lambda level, below: _mapped_level(vfunc, level, below), True)
    if climbed is None:  # rung 2 in a child while this process climbs rungs 0 and 1
        with _forked(lambda: _level(vfunc, 2)) as rung_2:
            climbed = _climb(lambda level, _: rung_2() if level == 2 else _level(vfunc, level),
                             False)
    lam1, lam2, info = climbed
    kstar = math.sqrt(-lam1) if lam1 < -TOL_EIG else None
    if kstar is None or not want_mode:
        return SpectralResult(lam1, lam2, kstar, None, None, None, info)
    # the ground state is even: the even block's lowest eigenvector, Robin-closed
    d, e, w, y = _mapped_block(vfunc, len(info.n_points) - 1)
    d[-1] += kstar / w[-1]
    block = np.ones(len(d), np.int32)  # iblock 1 and isplit n: dstein takes (d, e) as one block
    u, fail = _dstein(d, e, [_mapped_lowest(d, e, info.raw[-1])], block, block * len(d))
    _checked("dstein", fail)
    u = u[:, 0] / np.sqrt(w)
    u = np.concatenate((u[:0:-1], u)) * math.copysign(1.0, u[0])
    w = np.concatenate((w[:0:-1], [2.0 * w[0]], w[1:]))  # the full line's cells
    y = np.append(y[:-1], HALF_WIDTH)  # MAP_A * sinh(asinh(Y / MAP_A)) may round past Y
    return SpectralResult(lam1, lam2, kstar, u / math.sqrt(np.sum(u ** 2 * w)),
                          np.concatenate((-y[:0:-1], y)), w, info)


def _potential(state: FlowState) -> Callable[[np.ndarray], np.ndarray]:
    return lambda ys: eval_potential(state, ys)


def lowest_eigenpair(state: FlowState, want_mode: bool = True) -> SpectralResult:
    """Lowest two eigenvalues of -d^2/dy^2 + b''/b, plus the neutral mode.

    The mode (when requested and bound) is positive and even; it comes on the
    nodes ``ys`` of the finest mapped rung reached, with unit L2 norm in the
    cells ``weights``.  Raises ``NonConvergence`` if the rungs fail to agree within ``TOL_EIG``.
    """
    return _solve_potential(_potential(state), want_mode)


def _base_lambda1(state: FlowState) -> float:
    """Raw lambda1 of mapped rung 0's even Neumann block, one index call for
    every state: enough to steer a search but not to report.  On the fixture
    (M from 0.2 to 100) its k* lies within 4e-5 relative of the converged
    one; the Neumann closure overbinds weakly bound states (k* 0.031 against
    0.017 at M = 0.01, 0.090 against 0.085 at M = 0.05)."""
    return _mapped_lowest(*_mapped_block(_potential(state), 0)[:2])
