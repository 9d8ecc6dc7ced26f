"""Chandrupatla's bracketed root iteration, over many brackets at once.

Chandrupatla (Adv. Eng. Softw. 28, 1997) keeps three points per bracket:
x1 the newest, x2 the bracket end where f has the other sign and x3 the
point dropped last.  Inverse quadratic interpolation through the three is
taken where his test keeps it well inside the bracket, bisection
elsewhere, so the iteration converges superlinearly on smooth f and never
leaves the bracket.  Each iteration evaluates the real f at one point per
unfinished bracket in a single call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonConvergence


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
