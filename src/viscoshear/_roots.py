"""Bracketed root iterations: Chandrupatla over many brackets, Brent over one.

Chandrupatla (Adv. Eng. Softw. 28, 1997) keeps three points per bracket:
x1 the newest, x2 the bracket end where f has the other sign and x3 the
point dropped last.  Inverse quadratic interpolation through the three is
taken where his test keeps it well inside the bracket, bisection
elsewhere, so the iteration converges superlinearly on smooth f and never
leaves the bracket.  Each iteration evaluates the real f at one point per
unfinished bracket in a single call.

``brentq`` is Brent's method (R. P. Brent, *Algorithms for Minimization
Without Derivatives*, Prentice-Hall 1973, ch. 4) for one scalar bracket,
transcribed from scipy's ``optimize/Zeros/brentq.c``: the same branches and
the same floating-point operations in the same order, so it evaluates f at
the same abscissae and returns the same root bit for bit, without importing
``scipy.optimize``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketFailure, NonConvergence


def chandrupatla(f: Callable, x1, x2, f1, f2, tol, max_iter: int, label: str, first=0.5):
    """Roots of f between straddling ends ``x1``, ``x2`` with known values ``f1``, ``f2``.

    ``f(x, idx)`` returns f at the abscissae ``x`` of the brackets ``idx``,
    one point per bracket, real.  The iteration brackets on the sign of f.  A
    bracket is done when |f| <= ``tol`` (per bracket) at its last point, or
    when it has shrunk to rounding level; an end that already meets ``tol``
    is taken as it is, without an evaluation.  Returns (x, f(x), lo, hi),
    one entry per bracket: the last point, f there as evaluated, and the
    final bracket.  A rounding-level stop keeps whatever residual it has,
    for the caller to judge.  ``first`` is the first point's fraction of
    the way from ``x1`` to ``x2``, per bracket or for all; it is clipped into
    the bracket by the iteration's own rule, and the default 0.5 is the
    midpoint.  Raises ``NonConvergence``, prefixed with ``label``, when
    brackets are unfinished after ``max_iter`` iterations.
    """
    x1, x2 = np.array(x1, dtype=float), np.array(x2, dtype=float)
    f1, f2 = np.array(f1, dtype=float), np.array(f2, dtype=float)
    near = np.abs(f1) < np.abs(f2)
    x, fx = np.where(near, x1, x2), np.where(near, f1, f2)
    x3, f3 = np.empty_like(x2), np.empty_like(f2)  # set by the first iteration
    with np.errstate(divide="ignore", invalid="ignore"):
        tl = np.fmin(4.0 * np.finfo(float).eps * np.abs(x1) / np.abs(x2 - x1), 0.5)
    t = np.clip(first, tl, 1.0 - tl)
    tol = np.broadcast_to(tol, x1.shape)
    todo = np.flatnonzero(~(np.abs(fx) <= tol))
    for _ in range(max_iter):
        if todo.size == 0:
            break
        i = todo
        xt = x1[i] + t[i] * (x2[i] - x1[i])
        ft = f(xt, i)
        x[i], fx[i] = xt, ft
        same = (ft > 0) == (f1[i] > 0)
        x3[i], f3[i] = np.where(same, x1[i], x2[i]), np.where(same, f1[i], f2[i])
        x2[i], f2[i] = np.where(same, x2[i], x1[i]), np.where(same, f2[i], f1[i])
        x1[i], f1[i] = xt, ft
        dx = np.abs(x2[i] - x1[i])
        xtol = 4.0 * np.finfo(float).eps * np.abs(x1[i])
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1[i] - x2[i]) / (x3[i] - x2[i])
            phi = (f1[i] - f2[i]) / (f3[i] - f2[i])
            alpha = (x3[i] - x1[i]) / (x2[i] - x1[i])
            a, b, c = f1[i], f2[i], f3[i]
            t_iqi = a / (a - b) * c / (c - b) - alpha * a / (c - a) * b / (b - c)
            tl = xtol / dx
        smooth = (phi ** 2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t[i] = np.clip(np.where(smooth, t_iqi, 0.5), tl, 1.0 - tl)
        todo = i[~(np.abs(ft) <= tol[i]) & (dx > 2.0 * xtol)]
    if todo.size:
        raise NonConvergence(f"{label}: {todo.size} of {x.size} brackets unfinished "
                             f"after {max_iter} iterations")
    return x, fx, np.minimum(x1, x2), np.maximum(x1, x2)


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float,
           maxiter: int) -> float:
    """Root of a scalar f between ``a`` and ``b``, scipy's ``brentq`` iterate for iterate.

    An end where f is zero is returned as it is.  The iteration stops when
    the half bracket falls below delta = (xtol + rtol |x|) / 2 or f is zero
    at the best point x, and returns x.  Raises ``BracketFailure`` when f has
    the same sign at both ends, ``NonConvergence`` when f is NaN or after
    ``maxiter`` iterations.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _finite_f(f, xpre), _finite_f(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketFailure(f"brentq: f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} "
                             "have the same sign")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # a short interpolation step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _finite_f(f, xcur)
    raise NonConvergence(f"brentq: no root within {maxiter} iterations (last x = {xcur!r})")


def _finite_f(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NonConvergence(f"brentq: f({x!r}) is NaN")
    return fx
