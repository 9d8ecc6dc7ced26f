"""Eigensolver: exactly solvable wells, Sturm counts, variational checks."""

import math
import os
import signal
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import CubicSpline
from hypothesis import assume, given, settings, strategies as st

from oracles import fixed_point_ladder, rayleigh_quotient
from viscoshear import spectrum
from viscoshear.errors import BracketFailure, NonConvergence
from viscoshear.flow import FlowParams, FlowState, eval_potential
from viscoshear.spectrum import (
    _lowest_two,
    _robin_tridiagonal,
    _selfconsistent_box,
    _solve_potential,
    lowest_eigenpair,
)


def sturm_count_below(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix below sigma.

    Plain Sturm-sequence count, independent of LAPACK: the oracle for
    eigenvalue counts and for LDL^T certificates.
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


def certified_window(d: np.ndarray, e: np.ndarray, window: tuple):
    """The one eigenvalue of a symmetric tridiagonal block inside the
    (estimate, half-width) ``window``, or None unless the window is certified:
    an LDL^T factorization (dpttrf) of the block less the window's lower end
    succeeds, so no eigenvalue lies at or below it (Sylvester inertia), and a
    value-range bisection finds exactly one eigenvalue in it.

    An oracle for the mapped closure's index calls: a certified window
    around a value proves it is the block's lowest eigenvalue.
    """
    x, w = window
    try:
        if not x - w < x + w or scipy.linalg.lapack.dpttrf(d - (x - w), e)[2] > 0:
            return None
        vals = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                             select_range=(x - w, x + w))
    except scipy.linalg.LinAlgError:
        return None
    return float(vals[0]) if len(vals) == 1 else None


def _lowest(d, e):
    """The lowest eigenvalue of a block by one index call at LAPACK's default tolerance."""
    return float(spectrum.eigh_tridiagonal(d, e, select_range=(0, 0))[0])


def _raw_ratio(info):
    """The ratio of rung 0's to rung 1's raw lambda1 difference: 4 in the h^2 regime."""
    raw = info.raw
    return (raw[1] - raw[0]) / (raw[2] - raw[1])


def _uniform_ys(n=spectrum.UNIFORM_ROWS):
    """``n`` uniform nodes on the box [-HALF_WIDTH, HALF_WIDTH]; y = 0 is one for odd ``n``."""
    return np.linspace(-spectrum.HALF_WIDTH, spectrum.HALF_WIDTH, n)


def test_poschl_teller_single_well():
    # V = -2 sech^2: exactly one bound state at -1, on the mapped ladder
    # within TOL_EIG, its raw lambda1 differences falling 4-fold from rung 0
    res = _solve_potential(lambda ys: -2.0 / np.cosh(ys) ** 2, True)
    info = res.convergence
    assert abs(res.lambda1 + 1.0) <= spectrum.TOL_EIG
    assert res.lambda2 >= -1e-7
    assert info.n_points[0] == 2 * spectrum.MAP_ROWS - 1
    assert abs(_raw_ratio(info) - 4.0) <= 0.01
    # mode shape: proportional to sech(y), on the returned nodes
    exact = 1.0 / np.cosh(res.ys)
    exact /= math.sqrt(np.sum(exact**2 * res.weights))
    assert np.max(np.abs(res.mode - exact)) <= 1e-4


def test_mode_of_a_uniform_ladder_state():
    # V = -s (s + 1) sech^2 with s = 0.05 binds kappa = s, kappa Y = 1: the
    # eigenvalue climbs the uniform ladder, and the mode, sech^s(y), comes
    # from the mapped rung of the same index as the ladder's last rung
    s = 0.05
    res = _solve_potential(_pt_potential(s * (s + 1.0)), True)
    info = res.convergence
    assert info.n_points[0] == spectrum.UNIFORM_ROWS
    assert abs(res.lambda1 + s * s) <= spectrum.TOL_EIG
    rows = (spectrum.MAP_ROWS - 1) * 2 ** (len(info.n_points) - 1) + 1
    assert len(res.ys) == len(res.weights) == 2 * rows - 1 and res.ys[-1] == 20.0
    exact = np.cosh(res.ys) ** -s
    exact /= math.sqrt(np.sum(exact**2 * res.weights))
    assert np.max(np.abs(res.mode - exact)) <= 1e-5


def test_poschl_teller_double_well():
    # V = -6 sech^2: bound states at -4 (the even block) and -1 (the odd
    # block), on the mapped ladder within TOL_EIG
    res = _solve_potential(lambda ys: -6.0 / np.cosh(ys) ** 2, False)
    lam1, lam2, info = res.lambda1, res.lambda2, res.convergence
    assert abs(lam1 + 4.0) <= spectrum.TOL_EIG
    assert abs(lam2 + 1.0) <= spectrum.TOL_EIG
    assert info.n_points[0] == 2 * spectrum.MAP_ROWS - 1
    assert abs(_raw_ratio(info) - 4.0) <= 0.01


def test_couette_has_no_bound_state(couette_state):
    res = lowest_eigenpair(couette_state, want_mode=False)
    assert res.kstar is None
    assert res.lambda1 >= -1e-8


def test_reference_eigenvalue_regression():
    p = FlowParams(2.0, 0.15, 0.03, 0.8, 1e-3)
    res = lowest_eigenpair(FlowState(p, 0.0), want_mode=False)
    assert abs(res.lambda1 - (-4.634869152705)) <= 1e-5


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(5, 40))
def test_sturm_count_matches_dense_eigenvalues(seed, n):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    vals = np.linalg.eigvalsh(T)
    for sigma in (-1.0, 0.0, 0.3, 2.0):
        assert sturm_count_below(d, e, sigma) == int(np.sum(vals < sigma))


def test_calibrated_lambda_matches_target(ctx):
    # k*(0) = 0.99 by calibration, so lambda1(0) = -0.9801
    lam0 = ctx.torus.curve.lambda1s[0]
    assert abs(lam0 - (-0.9801)) <= 1e-5


def test_uniqueness_certificate_via_sturm(ctx):
    # at most one eigenvalue below -10*tol on the discretized operator
    state = ctx.state_T
    ys = _uniform_ys()
    h = ys[1] - ys[0]
    v = np.asarray(eval_potential(state, ys))
    kappa = math.sqrt(-ctx.torus.curve.lambda1s[-1])
    d, e = _robin_tridiagonal(v, h, kappa)
    assert sturm_count_below(d, e, -1e-7) == 1


def test_grid_convergence_stability(ctx, monkeypatch):
    # a finer mapped ladder (its rung 0 twice as fine) and a wider box each
    # move lambda1 at T by far less than TOL_EIG
    state = ctx.state_T
    base = lowest_eigenpair(state, want_mode=False)
    with monkeypatch.context() as mp:
        mp.setattr(spectrum, "MAP_ROWS", 257)
        finer = lowest_eigenpair(state, want_mode=False)
    with monkeypatch.context() as mp:
        mp.setattr(spectrum, "HALF_WIDTH", 30.0)
        wider = lowest_eigenpair(state, want_mode=False)
    assert finer.convergence.n_points[0] == 2 * 257 - 1
    assert wider.convergence.raw != base.convergence.raw
    assert abs(finer.lambda1 - base.lambda1) <= 1e-8
    assert abs(wider.lambda1 - base.lambda1) <= 1e-8


def test_monotone_in_M():
    p = FlowParams(1.0, 0.15, 0.03, 0.8, 1e-3)
    lams = [
        lowest_eigenpair(FlowState(p.with_M(m), 0.0), want_mode=False).lambda1
        for m in (0.3, 0.7, 1.5, 3.0)
    ]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def _mode_on(ys, res):
    """The mode resampled from its mapped nodes to the nodes ``ys``."""
    return CubicSpline(res.ys, res.mode)(ys)


def test_rayleigh_quotient_of_mode_matches_lambda1(ctx):
    state, ys = ctx.state_T, _uniform_ys()
    res = lowest_eigenpair(state, want_mode=True)
    q = rayleigh_quotient(state, ys, _mode_on(ys, res))
    assert abs(q - res.lambda1) <= 1e-7


def test_rayleigh_quotient_min_principle(ctx):
    state, ys = ctx.state_T, _uniform_ys()
    res = lowest_eigenpair(state, want_mode=True)
    mode = _mode_on(ys, res)
    rng = np.random.default_rng(7)
    for _ in range(4):
        noise = rng.normal(size=len(ys)) * np.exp(-(ys**2) / 9.0)
        noise = 0.5 * (noise + noise[::-1])  # keep it even
        trial = mode + 1e-3 * noise
        q = rayleigh_quotient(state, ys, trial)
        assert q >= res.lambda1 - 1e-7


def test_gaussian_trial_lemma_bound():
    # quotient of the normalized Gaussian is <= 1 - M/C with a stable C
    p = FlowParams(1.0, 0.15, 0.03, 0.8, 1e-3)
    ys = _uniform_ys()
    theta = (math.pi / 2.0) ** (-0.25) * np.exp(-(ys**2))
    cs, qs = [], []
    for m in (4.0, 8.0, 16.0):
        q = rayleigh_quotient(FlowState(p.with_M(m), 0.0), ys, theta)
        assert q < 1.0
        qs.append(q)
        cs.append(m / (1.0 - q))
    assert qs[0] > qs[1] > qs[2]  # deeper well, lower quotient
    assert max(cs) / min(cs) <= 3.0  # stability of the fitted constant
    # the eigenvalue obeys the same envelope with its own stable constant
    cs_lam = []
    for m in (4.0, 8.0, 16.0):
        lam = lowest_eigenpair(FlowState(p.with_M(m), 0.0), want_mode=False).lambda1
        assert lam < 1.0 - m / (2.0 * max(cs))
        cs_lam.append(m / (1.0 - lam))
    assert max(cs_lam) / min(cs_lam) <= 3.0


def test_rayleigh_quotient_zero_norm_raises(ctx):
    ys = _uniform_ys()
    with pytest.raises(ValueError, match="norm"):
        rayleigh_quotient(ctx.state_T, ys, np.zeros(len(ys)))


def test_mode_is_normalized_and_positive(ctx):
    res = lowest_eigenpair(ctx.state_T, want_mode=True)
    assert abs(np.sum(res.mode**2 * res.weights) - 1.0) <= 1e-12
    assert np.min(res.mode) > 0.0


def test_mode_is_the_even_block_eigenvector(ctx, monkeypatch):
    # one eigenvector call (dstein), on the even block of the finest mapped
    # rung the eigensolve reached, and an exactly even mode within 1e-10 of
    # the lowest eigenvector of that rung's full-line problem, Robin-closed at
    # both ends at kappa = sqrt(-lambda1)
    state, vectors = ctx.state_T, []
    dstein = spectrum._dstein

    def counted(d, *args):
        vectors.append(len(d))
        return dstein(d, *args)

    monkeypatch.setattr(spectrum, "_dstein", counted)
    res = lowest_eigenpair(state, want_mode=True)
    monkeypatch.undo()
    rows = (spectrum.MAP_ROWS - 1) * 2 ** (len(res.convergence.n_points) - 1) + 1
    assert vectors == [rows]
    assert np.all(res.mode == res.mode[::-1])
    # finite volumes on y = MAP_A sinh(x) over the full line: fluxes 1 / (g' h)
    # between the nodes, cells g' h (halved at -Y and Y), the Robin flux at both ends
    a, kappa = spectrum.MAP_A, math.sqrt(-res.lambda1)
    x = np.linspace(-1.0, 1.0, 2 * rows - 1) * math.asinh(spectrum.HALF_WIDTH / a)
    h = x[1] - x[0]
    flux = 1.0 / (a * np.cosh(0.5 * (x[:-1] + x[1:])) * h)
    w = a * np.cosh(x) * h
    w[[0, -1]] *= 0.5
    d = eval_potential(state, a * np.sinh(x)) + (np.r_[kappa, flux] + np.r_[flux, kappa]) / w
    u = scipy.linalg.eigh_tridiagonal(d, -flux / np.sqrt(w[:-1] * w[1:]), select="i",
                                      select_range=(0, 0))[1][:, 0]
    u /= np.sqrt(w)
    u *= math.copysign(1.0, u[rows - 1]) / math.sqrt(np.sum(u ** 2 * w))
    assert np.max(np.abs(res.weights / w - 1.0)) <= 1e-12
    assert np.max(np.abs(res.ys - a * np.sinh(x))) <= 1e-12
    assert np.max(np.abs(res.mode - u)) <= 1e-10


def test_mode_lies_on_the_last_climbed_rungs_nodes():
    # V is evaluated once per rung, on the half line of each mapped rung, and
    # once more on the last one's nodes for the mode, which lives there
    points = []

    def counted(ys):
        points.append(len(ys))
        return -2.0 / np.cosh(ys) ** 2

    res = _solve_potential(counted, True)
    rows = [(n + 1) // 2 for n in res.convergence.n_points]
    assert points == rows + rows[-1:]
    y = spectrum.MAP_A * np.sinh(np.arange(rows[-1]) * math.asinh(
        spectrum.HALF_WIDTH / spectrum.MAP_A) / (rows[-1] - 1))
    y[-1] = spectrum.HALF_WIDTH
    assert np.array_equal(res.ys, np.concatenate((-y[:0:-1], y)))


def _counted_closure(monkeypatch, M):
    """Run one weak (brentq) closure on the fixture potential at t = 0.

    Returns the closure's (lambda1, lambda2, kappa), the end entries and
    size (d[0], d[-1], len(d)) of every tridiagonal it solved, the number of
    f evaluations brentq made, and the potential and spacing used.
    """
    ys = _uniform_ys()
    h = ys[1] - ys[0]
    v = np.asarray(eval_potential(FlowState(FlowParams(M, 0.15, 0.03, 0.8, 1e-3), 0.0), ys))
    ends, brent_evals = [], []
    eigh, brentq = spectrum.eigh_tridiagonal, spectrum.brentq

    def counted_eigh(d, e, **kwargs):
        ends.append((d[0], d[-1], len(d)))
        return eigh(d, e, **kwargs)

    def counted_brentq(f, *args, **kwargs):
        def g(lam):
            brent_evals.append(lam)
            return f(lam)

        return brentq(g, *args, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", counted_eigh)
    monkeypatch.setattr(spectrum, "brentq", counted_brentq)
    result = _selfconsistent_box(v, h)
    monkeypatch.undo()
    return result, ends, len(brent_evals), v, h


def _blocks(v, h, kappa):
    """The even and odd parity blocks of ``_robin_tridiagonal(v, h, kappa)``
    for an even ``v``."""
    d, e = _robin_tridiagonal(v[len(v) // 2:], h, 0.0)
    d[-1] = d[-1] + 2.0 * kappa / h
    return (d, e), (d[1:], e[1:])


def _ulp_norm(d, e):
    """dstebz's own absolute tolerance: ULP * ||T||_1."""
    off = np.abs(e)
    return np.finfo(float).eps * float(np.max(np.abs(d) + np.r_[0.0, off] + np.r_[off, 0.0]))


def test_closure_solves_each_robin_matrix_once(monkeypatch):
    # near the whole-line threshold: kappa * Y << 3, so brentq closes it
    (lam1, lam2, kappa), ends, n_brent, v, h = _counted_closure(monkeypatch, 4e-5)
    assert 0.0 < kappa * spectrum.HALF_WIDTH < 3.0 and n_brent > 0
    assert len(set(ends)) == len(ends)
    # Neumann, f(0-), brentq's evaluations and the final solve, less the
    # three repeats: f(0-) is the Neumann matrix, brentq re-evaluates f(0-)
    # and the final kappa is one brentq evaluated
    assert len(ends) <= 1 + 1 + n_brent + 1 - 3
    assert (lam1, lam2) == _lowest_two(*_robin_tridiagonal(v, h, kappa))


def _fixture_potential(M, t=0.0):
    return spectrum._potential(FlowState(FlowParams(M, 0.15, 0.03, 0.8, 1e-3), t))


@pytest.mark.parametrize("M, level", [(1.5, 0), (0.7, 1)])
def test_uniform_closure_of_a_strongly_bound_state_is_a_bracket_failure(M, level):
    # kappa * Y of about 9 to 20: the Robin shift of the Neumann value rounds
    # away, so F(Neumann value) is not positive and the closure's bracket does
    # not straddle: a package error, which the CLI maps to exit 3
    with pytest.raises(BracketFailure, match="different signs"):
        spectrum._level(_fixture_potential(M), level)


def _pt_potential(depth):
    return lambda ys: -depth / np.cosh(ys) ** 2


def _below(vfunc, level):
    """The raw mapped rung the climb hands rung ``level``: None at level 0."""
    below = None
    for lower in range(level):
        below = spectrum._mapped_level(vfunc, lower, below)
    return below


def _counted_mapped_level(monkeypatch, vfunc, level):
    """``_mapped_level(vfunc, level, below)``, handed the rung below as the
    climb hands it, and, per eigenvalue call it made, the block's (d, e), its
    keyword arguments and the eigenvalue returned (None from a window that
    holds none or two, which the solve refuses)."""
    below, calls = _below(vfunc, level), []
    eigh = spectrum.eigh_tridiagonal

    def counted(d, e, **kwargs):
        out = eigh(d, e, **kwargs)
        calls.append((d.copy(), e.copy(), kwargs, float(out[0]) if len(out) == 1 else None))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(spectrum, "eigh_tridiagonal", counted)
        return spectrum._mapped_level(vfunc, level, below), calls


def _window(x):
    """The value range ``_mapped_lowest`` bisects about an estimate x."""
    return x - spectrum.WINDOW * abs(x), x + spectrum.WINDOW * abs(x)


def test_closure_fixed_point_matches_direct_solve(monkeypatch):
    # mapped rung 1 at M = 0.7 (kappa * Y about 20), handed rung 0: one call
    # on the even block, Robin-closed at rung 0's kappa (its far entry is
    # d_far + kappa_0 / w_N bit for bit) in the window about rung 0's lambda1,
    # and one index call on the odd block, closed at the rung's own kappa =
    # sqrt(-lambda1); kappa shifts only the far entry.  Rung 0's kappa lags
    # the fixed point by O(h^2), and here the closure rounds away: the even
    # block closed at the rung's own kappa gives the same lambda1 in the same
    # window, and its index call lies within _certified_tol of it
    vfunc = _fixture_potential(0.7)
    below = _below(vfunc, 1)
    (n, lam1, lam2, kappa), calls = _counted_mapped_level(monkeypatch, vfunc, 1)
    d, e, w, _ = spectrum._mapped_block(vfunc, 1)
    rows, tol = len(d), spectrum.MAP_TOL
    assert n == 2 * rows - 1 and kappa == math.sqrt(-lam1) and kappa * 20.0 >= 3.0
    assert [(len(db), kw) for db, _, kw, _ in calls] == [
        (rows, dict(select="v", select_range=_window(below[1]), tol=tol)),
        (rows - 1, dict(select_range=(0, 0), tol=tol))]
    (dr, er, _, lam_r), (do, eo, _, lam_o) = calls
    assert (lam_r, lam_o) == (lam1, lam2) and 0.0 < abs(kappa - below[3]) <= 1e-4 * kappa
    assert np.array_equal(dr[:-1], d[:-1]) and dr[-1] == d[-1] + below[3] / w[-1]
    assert np.array_equal(do[:-1], d[1:-1]) and do[-1] == d[-1] + kappa / w[-1]
    assert np.array_equal(er, e) and np.array_equal(eo, e[1:])
    d[-1] += kappa / w[-1]
    assert spectrum._mapped_lowest(d, e, below[1]) == lam1
    assert abs(spectrum._mapped_lowest(d, e) - lam1) <= _certified_tol(d, e)


@pytest.mark.parametrize("M, sweeps", [(0.7, 1), (0.3, 2)])
def test_mapped_rung_0_solves_no_odd_block(monkeypatch, M, sweeps):
    # rung 0 only routes and seeds the closure: Richardson never reads its
    # lambda2, so it is None after exactly the even block's calls, the
    # Neumann seed and the sweeps, the last of which gives lambda1
    (n, lam1, lam2, kappa), calls = _counted_mapped_level(monkeypatch, _fixture_potential(M), 0)
    assert lam2 is None and n == 2 * spectrum.MAP_ROWS - 1 and kappa == math.sqrt(-lam1)
    assert [len(d) for d, *_ in calls] == [spectrum.MAP_ROWS] * (1 + sweeps)
    assert calls[-1][3] == lam1


def _rung_calls(monkeypatch, state):
    """``lowest_eigenpair(state)`` and, per mapped rung it climbed, the
    (kind, rows) of each eigenvalue call, all at MAP_TOL: "index", "window"
    (a value-range call in a window that ``dpttrf`` certified), "fallback"
    (the index call of a solve whose window was refused, by ``dpttrf`` or by
    its count) or "vector" (the mode's ``dstein``)."""
    calls, rungs, refused = [], [], [False]
    eigh, dpttrf, dstein = spectrum.eigh_tridiagonal, spectrum._dpttrf, spectrum._dstein
    level = spectrum._mapped_level

    def counted_dpttrf(d, e):
        out = dpttrf(d, e)
        refused[0] = out[2] != 0
        return out

    def counted_eigh(d, e, **kwargs):
        assert kwargs["tol"] == spectrum.MAP_TOL
        out = eigh(d, e, **kwargs)
        if kwargs.get("select") == "v":
            kind, refused[0] = "window", len(out) != 1
        else:
            kind, refused[0] = "fallback" if refused[0] else "index", False
        calls.append((kind, len(d)))
        return out

    def counted_dstein(d, *args):
        calls.append(("vector", len(d)))
        return dstein(d, *args)

    def split_level(vfunc, lev, below=None):
        out = level(vfunc, lev, below)
        rungs.append(list(calls))
        calls.clear()
        return out

    with monkeypatch.context() as mp:
        mp.setattr(spectrum, "eigh_tridiagonal", counted_eigh)
        mp.setattr(spectrum, "_dpttrf", counted_dpttrf)
        mp.setattr(spectrum, "_dstein", counted_dstein)
        mp.setattr(spectrum, "_mapped_level", split_level)
        res = lowest_eigenpair(state)
    return res, rungs + [calls]  # the last entry: the mode's window and vector calls


def _finer_rung_calls(i):
    """The calls of mapped rung ``i`` past 0: a window on the even block and
    the odd block's, an index call on rung 1 (rung 0 has no lambda2)."""
    rows = (spectrum.MAP_ROWS - 1) * 2 ** i + 1
    return [("window", rows), ("index" if i == 1 else "window", rows - 1)]


def test_mapped_rungs_route_once_then_skip_the_sweeps_that_round_away(monkeypatch):
    # a strongly bound ladder: rung 0 routes by an index call, the Neumann
    # seed, then iterates the Robin kappa by sweeps that each bisect a window
    # about the last lambda1 (one sweep that rounds away at M = 0.7, two that
    # move lambda1 at M = 0.3), and solves no odd block.  Every finer rung
    # skips the sweeps: one even-block window closed at the rung below's kappa
    # and one odd-block solve; rung 1's odd block has no estimate, as rung 0
    # solves none, so it is an index call.  The mode bisects a window about
    # the last rung's raw lambda1 and makes one dstein call at it
    for M, sweeps in ((0.7, 1), (0.3, 2)):
        state = FlowState(FlowParams(M, 0.15, 0.03, 0.8, 1e-3), 0.0)
        res, rungs = _rung_calls(monkeypatch, state)
        assert len(rungs) - 1 == len(res.convergence.n_points) == 3
        assert rungs[0] == [("index", spectrum.MAP_ROWS)] + [("window", spectrum.MAP_ROWS)] * sweeps
        for i, rung in enumerate(rungs[1:-1], 1):
            assert rung == _finer_rung_calls(i)
        rows = (spectrum.MAP_ROWS - 1) * 4 + 1
        assert rungs[-1] == [("window", rows), ("vector", rows)]


def test_a_mode_eigensolve_at_T_bisects_by_index_only_without_an_estimate(monkeypatch):
    # the tuned fixture at T with its mode, as the torus solves it: rung 0's
    # Neumann seed and rung 1's odd block are the only solves without an
    # estimate, so the only index calls; every other solve, the mode's
    # included, bisects a certified window, and the mode's vector is one
    # dstein call
    p = FlowParams(M_TUNED, 0.15, 0.03, 0.8, 1e-3)
    res, rungs = _rung_calls(monkeypatch, FlowState(p, p.horizon))
    kinds = [kind for rung in rungs for kind, _ in rung]
    assert res.mode is not None and len(res.convergence.n_points) == 3
    assert kinds.count("index") == 2 and kinds.count("vector") == 1 and "fallback" not in kinds
    assert rungs[0][0] == ("index", spectrum.MAP_ROWS)
    assert rungs[1][-1] == ("index", 2 * (spectrum.MAP_ROWS - 1))


M_TUNED_CLI = 0.7016899257095007  # ``viscoshear calibrate`` on the fixture


@pytest.mark.parametrize("M", [0.1, 0.2, 0.3, 0.5, M_TUNED_CLI, 0.7016905534975553, 1.0, 3.0,
                               10.0])
def test_skipped_sweeps_match_the_full_loop(monkeypatch, M):
    # a rung past 0 skips the Robin sweeps and closes at the rung below's
    # kappa; the full loop (oracles.fixed_point_ladder) sweeps every rung to
    # its own fixed point by index calls.  They take the same rungs and agree
    # within 1e-11 in lambda1 and lambda2, where rung 0's sweep moves lambda1
    # (by 1.4e-4, 9.9e-7, 5.9e-9 and 2.6e-13 at M = 0.1 to 0.5) and where it
    # rounds away (M >= 0.7), at t = 0, T / 2 and T.  Rung 0's one index call
    # is its Neumann seed: each sweep bisects a window about the last lambda1,
    # and a refused one (the first sweep at M = 0.1, t = 0, where lambda1
    # moves past the window) falls back to its index call
    p = FlowParams(M, 0.15, 0.03, 0.8, 1e-3)
    for s in (0.0, 0.5, 1.0):
        state = FlowState(p, s * p.horizon)
        res, rungs = _rung_calls(monkeypatch, state)
        lam1, lam2, info = fixed_point_ladder(spectrum._potential(state))
        assert info.n_points == res.convergence.n_points
        assert abs(res.lambda1 - lam1) <= 1e-11 and abs(res.lambda2 - lam2) <= 1e-11
        kinds = [kind for kind, _ in rungs[0]]
        assert kinds[0] == "index" and "index" not in kinds[1:] and "window" in kinds
        for i, rung in enumerate(rungs[1:-1], 1):
            assert rung == _finer_rung_calls(i)


def test_mapped_geometry_is_built_once_per_rung_and_read_only(monkeypatch):
    # each rung's nodes, cells, off-diagonal and flux diagonal are cached
    # under (level, MAP_A, MAP_ROWS, HALF_WIDTH): the same arrays on every
    # call, none writeable, and a patched MAP_A gets its own
    vfunc = _fixture_potential(1.0)
    for a in (spectrum.MAP_A, 0.04):
        monkeypatch.setattr(spectrum, "MAP_A", a)
        d, e, w, y = spectrum._mapped_block(vfunc, 1)
        rows = 2 * (spectrum.MAP_ROWS - 1) + 1
        x = np.arange(rows) * (math.asinh(spectrum.HALF_WIDTH / a) / (rows - 1))
        assert np.array_equal(y, a * np.sinh(x))
        assert all(not v.flags.writeable for v in (e, w, y)) and d.flags.writeable
        again = spectrum._mapped_block(vfunc, 1)
        assert all(u is v for u, v in zip((e, w, y), again[1:])) and again[0] is not d
        assert np.array_equal(again[0], d)


def test_a_mode_solve_leaves_the_cached_nodes_alone():
    # the mode clamps its last node to Y on a copy: the next block's nodes
    # are the rung's y = MAP_A sinh(x), which may round past Y
    vfunc = _fixture_potential(M_TUNED_CLI, t=0.02025)
    res = _solve_potential(vfunc, True)
    level = len(res.convergence.n_points) - 1
    y = spectrum._mapped_block(vfunc, level)[3]
    rows = len(y)
    x = np.arange(rows) * (math.asinh(spectrum.HALF_WIDTH / spectrum.MAP_A) / (rows - 1))
    assert np.array_equal(y, spectrum.MAP_A * np.sinh(x))
    assert res.ys[-1] == spectrum.HALF_WIDTH and np.array_equal(res.ys[rows - 1:-1], y[:-1])


def test_sweeps_below_the_edge_fall_back_to_the_uniform_ladder(monkeypatch):
    # V = -nu (nu + 1) sech^2 binds kappa = nu, here nu Y = 2.99.  Mapped rung
    # 0's Neumann block overbinds it to kappa Y = 3.005, so the Neumann seed
    # keeps it on the mapped ladder, but the Robin sweep drops below kappa Y
    # = 3: the solve climbs the uniform ladder and brentq closes kappa
    nu = 0.1495
    mapped, index = [], []
    eigh, level = spectrum.eigh_tridiagonal, spectrum._mapped_level

    def counted_eigh(d, e, **kwargs):
        index.append(kwargs.get("tol"))
        return eigh(d, e, **kwargs)

    def spy_level(*args):
        mapped.append(level(*args))
        return mapped[-1]

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", counted_eigh)
    monkeypatch.setattr(spectrum, "_mapped_level", spy_level)
    res = _solve_potential(_pt_potential(nu * (nu + 1.0)), False)
    lam1, lam2, info = res.lambda1, res.lambda2, res.convergence
    assert mapped == [None] and index[:2] == [spectrum.MAP_TOL] * 2
    assert info.n_points[0] == spectrum.UNIFORM_ROWS and info.kappa * 20.0 < 3.0
    assert abs(lam1 + nu ** 2) <= spectrum.TOL_EIG


def _dense_mapped(vfunc, rows, kappa, odd):
    """The lowest eigenvalue of the mapped finite-volume problem A u = lambda W u
    on ``rows`` half-line nodes by a dense generalized eigensolve: A holds the
    fluxes 1 / (g' h) between nodes, W V on its diagonal and the Robin flux
    kappa at Y; W holds the cells g' h, halved at 0 and Y.  ``odd`` drops the
    centre node (u(0) = 0)."""
    a = spectrum.MAP_A
    x = np.linspace(0.0, math.asinh(20.0 / a), rows)
    h = x[1] - x[0]
    flux = 1.0 / (a * np.cosh(0.5 * (x[:-1] + x[1:])) * h)
    w = a * np.cosh(x) * h
    w[[0, -1]] /= 2.0
    A = np.diag(np.r_[0.0, flux] + np.r_[flux, 0.0] + w * vfunc(a * np.sinh(x)))
    A -= np.diag(flux, 1) + np.diag(flux, -1)
    A[-1, -1] += kappa
    k = 1 if odd else 0
    return scipy.linalg.eigh(A[k:, k:], np.diag(w[k:]), eigvals_only=True,
                             subset_by_index=(0, 0))[0]


WELLS = {"poschl_teller_1": _pt_potential(2.0), "poschl_teller_2": _pt_potential(6.0),
         "fixture_M0.7": _fixture_potential(0.7)}


@pytest.mark.parametrize("well", list(WELLS))
@pytest.mark.parametrize("robin", [False, True])
def test_mapped_blocks_match_the_dense_generalized_problem(monkeypatch, well, robin):
    # mapped rung 0's Neumann seed (robin False), and rung 1's lambda1,
    # Robin-closed at rung 0's kappa, and its odd block, closed at its own
    # kappa (robin True; rung 0 solves no odd block): the
    # W^(1/2)-symmetrized tridiagonal solves give the eigenvalues of the
    # unsymmetrized finite-volume problem
    level = int(robin)
    (n, lam1, lam2, kappa), calls = _counted_mapped_level(monkeypatch, WELLS[well], level)
    rows, lam_n = (spectrum.MAP_ROWS - 1) * 2 ** level + 1, calls[0][3]
    if robin:
        kappa0 = _below(WELLS[well], 1)[3]
        assert abs(lam1 - _dense_mapped(WELLS[well], rows, kappa0, False)) <= 1e-9 * abs(lam1)
        odd = _dense_mapped(WELLS[well], rows, kappa, True)
        assert abs(lam2 - odd) <= 1e-9 * max(1.0, abs(lam2))
    else:
        assert abs(lam_n - _dense_mapped(WELLS[well], rows, 0.0, False)) <= 1e-9 * abs(lam_n)


def _certified_tol(d, e):
    """How far a certified window's value may lie from a mapped index call:
    dstebz's default tolerance plus MAP_TOL."""
    return _ulp_norm(d, e) + spectrum.MAP_TOL


@pytest.mark.parametrize("well", list(WELLS))
@pytest.mark.parametrize("robin", [False, True])
def test_certified_window_matches_index_call(monkeypatch, well, robin):
    # the even and odd blocks of mapped rung 0 at kappa = 0 (robin False), or
    # rung 1's Robin blocks of lambda1 and lambda2 (robin True; rung 0 solves
    # no odd block): a window 1e-5 wide on each side of each block's
    # value, off centre, is certified and holds that value
    (n, lam1, lam2, kappa), calls = _counted_mapped_level(monkeypatch, WELLS[well], int(robin))
    d, e, _, lam = calls[0]
    do, eo = calls[-1][:2] if robin else (d[1:], e[1:])
    lam_odd = calls[-1][3] if robin else spectrum._mapped_lowest(do, eo)
    if robin:
        assert (lam, lam_odd) == (lam1, lam2)
    for (db, eb, lam_b), shift in zip(((d, e, lam), (do, eo, lam_odd)), (3e-6, -3e-6)):
        got = certified_window(db, eb, (lam_b + shift, 1e-5))
        assert got is not None
        assert abs(got - lam_b) <= _certified_tol(db, eb)


UNCERTIFIED = ["estimate_above_lambda1", "window_holds_two", "eigenvalue_in_gap"]


def _uncertified_window(d, e, case):
    """The ``case`` window (estimate, half-width), built from the block's two
    lowest eigenvalues."""
    first, second = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                                  select_range=(0, 1))
    return {
        # the estimate sits one eigenvalue too high: the window holds
        # exactly one eigenvalue, and only the certificate below rejects it
        "estimate_above_lambda1": (second, 1e-3),
        # the window holds the block's two lowest eigenvalues
        "window_holds_two": (0.5 * (first + second), 0.75 * (second - first)),
        # the window lies in the gap below the lowest eigenvalue: nothing
        # below it and nothing in it
        "eigenvalue_in_gap": (first - 0.5, 0.1),
    }[case]


def _assert_uncertified(d, e, case):
    """Check that ``certified_window`` rejects the ``case`` window of the block."""
    assert certified_window(d, e, _uncertified_window(d, e, case)) is None


@pytest.mark.parametrize("case", UNCERTIFIED)
def test_uncertified_window_falls_back_to_index_call(monkeypatch, case):
    # V = -6 sech^2 on mapped rung 1 (rung 0 solves no odd block): the even
    # block holds lambda1 = -4, the odd block lambda2 = -1, each followed by
    # box states above 0.  The oracle rejects each bad window on both
    # blocks, so the values stand on the rung's two calls alone: at kappa * Y
    # = 40 the even block's window at rung 0's kappa and the odd block's index call
    (n, lam1, lam2, kappa), calls = _counted_mapped_level(monkeypatch, _pt_potential(6.0), 1)
    (dr, er, _, lam_r), (do, eo, _, lam_o) = calls
    _assert_uncertified(dr, er, case)
    _assert_uncertified(do, eo, case)
    assert (lam1, lam2) == (lam_r, lam_o) and kappa == math.sqrt(-lam1)
    assert abs(lam1 + 4.0) <= 1e-3 and abs(lam2 + 1.0) <= 1e-3


@pytest.mark.parametrize("case", UNCERTIFIED)
def test_uncertified_windows_in_a_shallow_well_run_the_window_sweeps(monkeypatch, case):
    # V = -0.39 sech^2 binds kappa = 0.3 (kappa * Y = 6): on mapped rung 0,
    # the one rung that sweeps, the closure needs more than one Robin sweep,
    # each a window about the last lambda1 after the Neumann seed's index
    # call, and the bad windows are rejected on its last Robin block and on
    # that block's odd part
    (n, lam1, lam2, kappa), calls = _counted_mapped_level(monkeypatch, _pt_potential(0.39), 0)
    dr, er, kwargs, lam_r = calls[-1]
    _assert_uncertified(dr, er, case)
    _assert_uncertified(dr[1:], er[1:], case)
    selects = [kw.get("select", "i") for _, _, kw, _ in calls]
    assert len(calls) > 2 and selects == ["i"] + ["v"] * (len(calls) - 1)
    assert calls[0][2]["select_range"] == (0, 0)
    assert calls[1][2]["select_range"] == _window(calls[0][3])
    assert lam1 == lam_r and 3.0 <= kappa * 20.0 <= 9.0


def test_order_guard_raises_outside_the_band(monkeypatch):
    # the fixture's raw lambda1 differences fall 4-fold; a band that excludes
    # 4 makes the mapped ladder refuse to extrapolate and name its trail
    state = FlowState(FlowParams(0.7, 0.15, 0.03, 0.8, 1e-3), 0.0)
    info = lowest_eigenpair(state, want_mode=False).convergence
    monkeypatch.setattr(spectrum, "ORDER_BAND", (4.5, 5.5))
    with pytest.raises(NonConvergence, match=r"fall by 4\.0.*ORDER_BAND.*raw trail") as err:
        lowest_eigenpair(state, want_mode=False)
    assert str(list(info.raw)) in str(err.value)


@pytest.mark.parametrize("M, gamma0, gamma1, gamma2, t_over_T, ratio", [
    (0.103922, 0.323621, 0.00121482, 0.606453, 1.5334, "3.357"),
    (0.111741, 0.0735932, 0.00278027, 0.430751, 1.7474, "1.968"),
])
def test_order_guard_refuses_narrow_bumps_at_map_a(M, gamma0, gamma1, gamma2, t_over_T, ratio):
    # two narrow bumps (gamma0 gamma1 = 3.9e-4 and 2.0e-4) from a random draw
    # over the validator's ranges: at today's MAP_A their raw lambda1
    # differences do not fall 4-fold, and the guard, with its own band, refuses them
    params = FlowParams(M, gamma0, gamma1, gamma2, 1e-3)
    with pytest.raises(NonConvergence, match=rf"fall by {ratio}, outside ORDER_BAND"):
        lowest_eigenpair(FlowState(params, t_over_T * params.horizon), want_mode=False)


def test_ladder_gives_up_after_max_levels(monkeypatch):
    # two rungs give one extrapolant, never two that agree
    monkeypatch.setattr(spectrum, "MAX_LEVELS", 2)
    with pytest.raises(NonConvergence, match="did not stabilize within TOL_EIG"):
        _solve_potential(lambda ys: -2.0 / np.cosh(ys) ** 2, False)


# Strongly bound wells from kappa * Y about 3 to 43: fixture amplitudes at t = 0
# and Poschl-Teller wells -nu (nu + 1) sech^2, which bind kappa = nu.
STRONG_WELLS = [("fixture", M) for M in (0.1, 0.15, 0.2, 0.3, 0.7, 2.0)] + [
    ("poschl_teller", nu) for nu in (0.16, 0.3, 0.5, 0.6, 1.0, 1.25)]


def _uniform_sweeps_rung(vfunc, level):
    """One uniform rung with index fixed-point sweeps on the full grid's
    parity blocks, no mapping: (lambda1, lambda2).  (The brentq closure
    cannot close these states: at kappa * Y about 20 the Robin shift of the
    Neumann value rounds away, and F has no sign change.)"""
    ys = _uniform_ys((spectrum.UNIFORM_ROWS - 1) * 2 ** level + 1)
    v, kappa = vfunc(ys), 0.0
    for i in range(5):
        even, odd = _blocks(v, ys[1] - ys[0], kappa)
        lam1 = _lowest(*even)
        knew = math.sqrt(-lam1)
        if abs(knew - kappa) <= 1e-9 * kappa or i == 4:
            return lam1, _lowest(*odd)
        kappa = knew


def _uniform_reference(vfunc):
    """(lambda1, lambda2) of the uniform ladder of ``_uniform_sweeps_rung``,
    Richardson until two extrapolants of lambda1 agree within TOL_EIG."""
    raw, rich = [], []
    for level in range(5):
        raw.append(_uniform_sweeps_rung(vfunc, level))
        if level:
            rich.append([b + (b - a) / 3.0 for a, b in zip(raw[-2], raw[-1])])
        if len(rich) >= 2 and abs(rich[-1][0] - rich[-2][0]) <= spectrum.TOL_EIG:
            return rich[-1]
    raise AssertionError("the uniform reference ladder did not converge")


@pytest.mark.parametrize("kind, value", STRONG_WELLS)
def test_mapped_ladder_matches_the_uniform_ladder(kind, value):
    # within TOL_EIG of the uniform sweeps ladder; and against every mapped
    # rung swept to its own Robin fixed point (oracles.fixed_point_ladder),
    # where the package hands rung 0's kappa up the ladder, the same rungs
    # and lambda1 and lambda2 within 1e-11
    vfunc = _fixture_potential(value) if kind == "fixture" else _pt_potential(value * (value + 1.0))
    res = _solve_potential(vfunc, False)
    lam1, lam2, info = res.lambda1, res.lambda2, res.convergence
    assert info.n_points[0] == 2 * spectrum.MAP_ROWS - 1 and info.kappa * 20.0 >= 3.0
    ref1, ref2 = _uniform_reference(vfunc)
    assert abs(lam1 - ref1) <= spectrum.TOL_EIG and abs(lam2 - ref2) <= spectrum.TOL_EIG
    fix1, fix2, fix_info = fixed_point_ladder(vfunc)
    assert fix_info.n_points == info.n_points
    assert abs(lam1 - fix1) <= 1e-11 and abs(lam2 - fix2) <= 1e-11


@pytest.mark.parametrize("kind, value", STRONG_WELLS)
def test_narrow_window_certifies_exactly_the_one_sweep_closures(monkeypatch, kind, value):
    # the sweeps stop once |sqrt(-lambda1) - kappa| <= 1e-9 kappa, that is once
    # the Robin lambda1 lies within 2e-9 |lambda_N| of the Neumann lambda_N.
    # On mapped rung 0, the one rung that sweeps, that narrow window around
    # lambda_N, on the Robin block at the Neumann kappa, is certified exactly
    # when the closure stops at its first sweep, and then holds its lambda1.
    # (The nearest wells to the stop edge, nu = 0.5 and 0.6, miss it 5-fold
    # and 9-fold.)  A solve is the call that returns its one value: a window
    # the solve refused (holding none) is followed by its index call
    vfunc = _fixture_potential(value) if kind == "fixture" else _pt_potential(value * (value + 1.0))
    (n, lam1, lam2, kappa), calls = _counted_mapped_level(monkeypatch, vfunc, 0)
    solves = [call for call in calls if call[3] is not None]
    lam_n = solves[0][3]
    dr, er, _, lam_r = solves[1]
    one_sweep = len(solves) == 2  # the Neumann seed and one Robin sweep
    got = certified_window(dr, er, (lam_n, -2e-9 * lam_n))
    assert kappa * 20.0 >= 3.0 and (got is not None) == one_sweep
    if one_sweep:
        assert lam1 == lam_r and abs(got - lam1) <= _certified_tol(dr, er)


@pytest.mark.parametrize("case", UNCERTIFIED)
def test_uncertified_estimates_fall_back_to_the_index_call(monkeypatch, case):
    # the three refused windows, injected as estimates (WINDOW set to give
    # each its half-width) on mapped rung 1's Robin even block and odd block
    # (V = -6 sech^2): dpttrf refuses the estimate one eigenvalue too high,
    # the count refuses the other two, and each solve returns its index
    # call's bits
    (n, lam1, lam2, kappa), calls = _counted_mapped_level(monkeypatch, _pt_potential(6.0), 1)
    eigh, dpttrf = spectrum.eigh_tridiagonal, spectrum._dpttrf
    for d, e, _, _ in calls:
        x, w, lam = *_uncertified_window(d, e, case), spectrum._mapped_lowest(d, e)
        made = []

        def counted_eigh(d, e, **kwargs):
            made.append(kwargs.get("select", "i"))
            return eigh(d, e, **kwargs)

        def counted_dpttrf(d, e):
            made.append("dpttrf")
            return dpttrf(d, e)

        with monkeypatch.context() as mp:
            mp.setattr(spectrum, "WINDOW", w / abs(x))
            mp.setattr(spectrum, "eigh_tridiagonal", counted_eigh)
            mp.setattr(spectrum, "_dpttrf", counted_dpttrf)
            assert spectrum._mapped_lowest(d, e, x) == lam
        refused_by_count = case != "estimate_above_lambda1"
        assert made == ["dpttrf"] + ["v"] * refused_by_count + ["i"]


@pytest.mark.parametrize("kind, value", STRONG_WELLS)
def test_windows_on_rungs_1_and_2_match_forced_index_calls(monkeypatch, kind, value):
    # each value a solve on mapped rungs 1 and 2 takes from its window lies
    # within _certified_tol of the index call on the same block, with no
    # eigenvalue below it by a Sturm count independent of LAPACK.  lambda1
    # comes from a window on both rungs, lambda2 on rung 2 (rung 1's odd
    # block has no estimate, as rung 0 solves none).  No window falls back,
    # not even in the wells nearest kappa * Y = 3 (fixture M = 0.1 and
    # nu = 0.16): closed at the rung below's kappa, the even block's lambda1
    # lies within WINDOW of the rung below's.  The even block's far entry is
    # d_far + kappa / w_N at the rung below's kappa, the odd block's at the
    # rung's own, bit for bit
    vfunc = _fixture_potential(value) if kind == "fixture" else _pt_potential(value * (value + 1.0))
    solves, lowest, eigh = [], spectrum._mapped_lowest, spectrum.eigh_tridiagonal

    def recorded(d, e, estimate=None):
        made = []

        def counted(d, e, **kwargs):
            made.append(kwargs.get("select", "i"))
            return eigh(d, e, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(spectrum, "eigh_tridiagonal", counted)
            lam = lowest(d, e, estimate)
        solves.append((d.copy(), e, estimate is not None, made, lam))
        return lam

    below = spectrum._mapped_level(vfunc, 0)
    monkeypatch.setattr(spectrum, "_mapped_lowest", recorded)
    for level in (1, 2):
        del solves[:]
        kappa_below, below = below[3], spectrum._mapped_level(vfunc, level, below)
        assert below is not None and solves[-1][4] == below[2]
        d_far, _, w, _ = spectrum._mapped_block(vfunc, level)
        ends = [d_far[-1] + kappa / w[-1] for kappa in (kappa_below, below[3])]
        assert [d[-1] for d, *_ in solves] == ends
        for d, e, _, made, lam in solves:
            if made == ["v"]:
                tol = _certified_tol(d, e)
                assert abs(lam - lowest(d, e)) <= tol and sturm_count_below(d, e, lam - tol) == 0
        assert [windowed for _, _, windowed, _, _ in solves] == [True, level == 2]
        assert [made for *_, made, _ in solves] == [["v"], ["v"] if level == 2 else ["i"]]


@settings(max_examples=15, deadline=None)
@given(kappa_y=st.floats(3.0, 15.0))
def test_fixed_point_reference_property(kappa_y):
    """V = -nu (nu + 1) sech^2 binds kappa = nu; for kappa * Y in [3, 15] the
    mapped ladder takes the fixed-point reference's route and rungs and
    agrees with it within 1e-11 in lambda1 and lambda2.  The routes part only
    within 1e-4 above kappa * Y = 3: there the reference's first Robin sweep
    on a finer rung overshoots the fixed point to below the edge and routes
    the state to the uniform ladder, while the package, which makes no sweep
    there, stays on the mapped one and finds lambda1 = -nu^2 within TOL_EIG."""
    nu = kappa_y / spectrum.HALF_WIDTH
    vfunc = _pt_potential(nu * (nu + 1.0))
    ref = fixed_point_ladder(vfunc)
    climbed = spectrum._climb(lambda level, below: spectrum._mapped_level(vfunc, level, below),
                              True)
    if ref is None:
        assert climbed is None or (kappa_y < 3.0 + 1e-4
                                   and abs(climbed[0] + nu ** 2) <= spectrum.TOL_EIG)
        return
    assert climbed is not None and climbed[2].n_points == ref[2].n_points
    assert abs(climbed[0] - ref[0]) <= 1e-11 and abs(climbed[1] - ref[1]) <= 1e-11


@settings(max_examples=8, deadline=None)
@given(
    gamma0=st.floats(0.2, 0.4),
    gamma1=st.floats(0.03, 0.1),
    gamma2=st.floats(0.2, 0.9),
    M=st.floats(0.3, 3.0),
    step=st.floats(0.02, 1.0),
)
def test_mapped_ladder_property(gamma0, gamma1, gamma2, M, step):
    """Strongly bound states: lambda1 decreases in M, and the mapped ladder
    agrees with the uniform ladder within TOL_EIG in lambda1 and lambda2."""
    p = FlowParams(M, gamma0, gamma1, gamma2, 1e-3)
    res = lowest_eigenpair(FlowState(p, 0.0), want_mode=False)
    deeper = lowest_eigenpair(FlowState(p.with_M(M * (1.0 + step)), 0.0), want_mode=False)
    assert res.convergence.n_points[0] == 2 * spectrum.MAP_ROWS - 1
    assert deeper.lambda1 < res.lambda1
    ref1, ref2 = _uniform_reference(spectrum._potential(FlowState(p, 0.0)))
    assert abs(res.lambda1 - ref1) <= spectrum.TOL_EIG
    assert abs(res.lambda2 - ref2) <= spectrum.TOL_EIG


# Sylvester inertia: an LDL^T factorization (dpttrf) of T - sigma exists exactly
# when no eigenvalue of T lies at or below sigma, which makes it the certificate
# of ``certified_window``.

M0_LINE = 4.127983142029252e-05  # the fixture's whole-line threshold amplitude (line report.json)


def _pt_well(depth, n=spectrum.UNIFORM_ROWS):
    ys = _uniform_ys(n)
    return -depth / np.cosh(ys) ** 2, ys[1] - ys[0]


def _fixture_well(M, t=0.0):
    ys = _uniform_ys()
    v = eval_potential(FlowState(FlowParams(M, 0.15, 0.03, 0.8, 1e-3), t), ys)
    return np.asarray(v, dtype=float), ys[1] - ys[0]


def _random_block(well, odd, robin):
    """A parity block of ``well`` and its three lowest eigenvalues."""
    v, h = {"poschl_teller_1": lambda: _pt_well(2.0), "poschl_teller_2": lambda: _pt_well(6.0),
            "fixture_t0": lambda: _fixture_well(0.7),
            "fixture_T": lambda: _fixture_well(0.7, t=0.02025)}[well]()
    kappa = math.sqrt(-_lowest(*_blocks(v, h, 0.0)[0])) if robin else 0.0
    d, e = _blocks(v, h, kappa)[odd]
    return d, e, spectrum.eigh_tridiagonal(d, e, select_range=(0, 2))


@settings(max_examples=40, deadline=None)
@given(
    well=st.sampled_from(["poschl_teller_1", "poschl_teller_2", "fixture_t0", "fixture_T"]),
    odd=st.booleans(),
    robin=st.booleans(),
    j=st.integers(0, 1),
    offset=st.floats(-1.5, 1.5),
)
def test_ldlt_certificate_agrees_with_sturm_counts(well, odd, robin, j, offset):
    """Random shifts about a block's two lowest eigenvalues: dpttrf factors
    the shifted block exactly when a Sturm count finds no eigenvalue below
    the shift."""
    d, e, lams = _random_block(well, odd, robin)
    sigma = lams[j] + offset * (lams[1] - lams[0])
    # a shift within rounding of an eigenvalue may count either way
    assume(min(abs(sigma - lam) for lam in lams) > 1e-9 * (lams[1] - lams[0]))
    factored = scipy.linalg.lapack.dpttrf(d - sigma, e)[2] == 0
    assert factored == (sturm_count_below(d, e, sigma) == 0)


@pytest.mark.parametrize("well", ["poschl_teller_2", "fixture_t0", "fixture_T"])
@pytest.mark.parametrize("robin", [False, True])
def test_parity_blocks_match_full_matrix(well, robin):
    # lambda1 is the even block's lowest eigenvalue and lambda2 the odd
    # block's, within the full solve's bisection tolerance
    v, h = {"poschl_teller_2": lambda: _pt_well(6.0),
            "fixture_t0": lambda: _fixture_well(0.7),
            "fixture_T": lambda: _fixture_well(0.7, t=0.02025)}[well]()
    d, e = _robin_tridiagonal(v, h, 0.0)
    kappa = math.sqrt(-_lowest_two(d, e)[0]) if robin else 0.0
    d, e = _robin_tridiagonal(v, h, kappa)
    full1, full2 = _lowest_two(d, e)
    even, odd = _blocks(v, h, kappa)
    assert abs(_lowest(*even) - full1) <= _ulp_norm(d, e)
    assert abs(_lowest(*odd) - full2) <= _ulp_norm(d, e)


def test_poschl_teller_blocks_split_the_bound_states():
    # V = -6 sech^2: the even block binds -4 only, the odd block -1 only
    # (Richardson over two grids, at the closure's kappa = 2)
    lams = []
    for n in (8193, 16385):
        v, h = _pt_well(6.0, n)
        even, odd = _blocks(v, h, 2.0)
        assert sturm_count_below(*even, -0.5) == 1 and sturm_count_below(*odd, -0.5) == 1
        lams.append((_lowest(*even), _lowest(*odd)))
    (e0, o0), (e1, o1) = lams
    assert abs(e1 + (e1 - e0) / 3.0 + 4.0) <= 1e-6
    assert abs(o1 + (o1 - o0) / 3.0 + 1.0) <= 1e-6


def _full_matrix_weak_closure(v, h, tol):
    """The weak closure on the full matrix alone: memoized index pairs and
    brentq, the calls a weak closure must make."""
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

    lam_n1 = lowest_two(0.0)[0]
    lam_star = spectrum.brentq(lambda lam: lowest_two(math.sqrt(-lam))[0] - lam, lam_n1, -1e-30,
                               xtol=tol * 1e-3, rtol=8.9e-16, maxiter=200)
    kappa = math.sqrt(-lam_star)
    return lowest_two(kappa) + (kappa,)


def test_weak_closure_makes_the_full_matrix_calls_plus_one_routing_test(monkeypatch):
    # a weakly bound eigensolve: one index call on mapped rung 0's even
    # Neumann block routes it, then the uniform base rung makes exactly the
    # calls and the bits of the full-matrix weak closure
    v, h = _fixture_well(M0_LINE)
    calls = []
    eigh = spectrum.eigh_tridiagonal

    def counted_eigh(d, e, **kwargs):
        calls.append((kwargs.get("select", "i"), kwargs["select_range"], kwargs.get("tol"), len(d),
                      d[0], d[-1]))
        return eigh(d, e, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", counted_eigh)
    expected = _full_matrix_weak_closure(v, h, spectrum.TOL_EIG)
    expected_calls, calls[:] = list(calls), []
    res = lowest_eigenpair(FlowState(FlowParams(M0_LINE, 0.15, 0.03, 0.8, 1e-3), 0.0),
                           want_mode=False)
    assert expected[2] * 20.0 < 3.0
    assert res.convergence.n_points[0] == spectrum.UNIFORM_ROWS
    assert res.convergence.raw[0] == expected[0]
    assert calls[0][:4] == ("i", (0, 0), spectrum.MAP_TOL, spectrum.MAP_ROWS)
    assert calls[1:1 + len(expected_calls)] == expected_calls


@pytest.mark.parametrize("M", [0.7016899313361670, M0_LINE, 10.0])
@pytest.mark.parametrize("t", [0.0, 0.00081])
def test_level_mirrors_the_full_grid_potential(monkeypatch, M, t):
    # the rung evaluates V for y >= 0 only; mirrored, it is the full-grid
    # potential bit for bit
    state = FlowState(FlowParams(M, 0.15, 0.03, 0.8, 1e-3), t)
    seen = []
    monkeypatch.setattr(spectrum, "_selfconsistent_box", lambda v, *rest: seen.append(v) or (0.0,) * 3)
    for level in range(5):
        n = spectrum._level(spectrum._potential(state), level)[0]
        assert np.array_equal(seen[-1], eval_potential(state, np.linspace(-20.0, 20.0, n)))


@pytest.mark.parametrize("M, at_T", [(4e-5, False), (M0_LINE, True)])
def test_weak_ladders_stay_pinned(monkeypatch, M, at_T):
    # a weakly bound state is routed once, on mapped rung 0, and every
    # uniform rung is the full-matrix index pair at its kappa, bit for bit.
    # Rung 2 runs in a forked child, out of a spy's sight, so each rung of
    # the trail is checked against the serial rung on the same state.
    p = FlowParams(M, 0.15, 0.03, 0.8, 1e-3)
    state = FlowState(p, p.horizon if at_T else 0.0)
    mapped, rungs = [], []
    real_mapped, real_box = spectrum._mapped_level, spectrum._selfconsistent_box

    def spy_mapped(vfunc, level, below):
        out = real_mapped(vfunc, level, below)
        mapped.append((level, out))
        return out

    def spy_box(v, h):
        out = real_box(v, h)
        rungs.append((v, h, out))
        return out

    monkeypatch.setattr(spectrum, "_mapped_level", spy_mapped)
    monkeypatch.setattr(spectrum, "_dpttrf", lambda *args: pytest.fail("a weak state's window"))
    res = lowest_eigenpair(state, want_mode=False)
    assert mapped == [(0, None)]
    info = res.convergence
    assert len(info.n_points) >= 3
    monkeypatch.setattr(spectrum, "_selfconsistent_box", spy_box)
    lam2s = []
    for level, (n, raw) in enumerate(zip(info.n_points, info.raw)):
        assert spectrum._level(spectrum._potential(state), level)[:2] == (n, raw)
        v, h, (lam1, lam2, kappa) = rungs[-1]
        assert kappa * spectrum.HALF_WIDTH < 3.0
        assert (lam1, lam2) == _lowest_two(*_robin_tridiagonal(v, h, kappa))
        lam2s.append(lam2)
    assert kappa == info.kappa
    assert res.lambda2 == lam2s[-1] + (lam2s[-1] - lam2s[-2]) / 3.0


# ---------------------------------------------------------------------------
# the uniform ladder's rung 2 in a forked child
# ---------------------------------------------------------------------------

TWO_CPUS = len(os.sched_getaffinity(0)) >= 2


def _counted_forks(monkeypatch):
    """Every ``os.fork`` of this process from now on, as the list of its pids."""
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _trail(res):
    info = res.convergence
    return (res.lambda1, res.lambda2, info.n_points, info.raw, info.richardson, info.kappa)


@pytest.mark.parametrize("M, at_T", [(M0_LINE, False), (M0_LINE, True), (4e-5, False)])
def test_forked_ladder_matches_a_serial_climb(monkeypatch, M, at_T):
    # with two CPUs one child climbs rung 2; the trail is a serial climb's bit for bit
    p = FlowParams(M, 0.15, 0.03, 0.8, 1e-3)
    state = FlowState(p, p.horizon if at_T else 0.0)
    vfunc = spectrum._potential(state)
    lam1, lam2, info = spectrum._climb(lambda level, _: spectrum._level(vfunc, level), False)
    forks = _counted_forks(monkeypatch)
    res = lowest_eigenpair(state, want_mode=False)
    assert len(forks) == (1 if TWO_CPUS else 0)
    assert _trail(res) == (lam1, lam2, info.n_points, info.raw, info.richardson, info.kappa)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not TWO_CPUS, reason="rung 2 forks only with two CPUs")
def test_nonconvergence_in_the_child_reaches_the_caller(monkeypatch):
    # fork inherits the patch; the error names the process that raised it
    real, caller = spectrum._level, os.getpid()

    def failing(vfunc, level):
        if level == 2:
            raise NonConvergence(f"rung 2 failed in process {os.getpid()}")
        return real(vfunc, level)

    monkeypatch.setattr(spectrum, "_level", failing)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(NonConvergence) as err:
        lowest_eigenpair(FlowState(FlowParams(M0_LINE, 0.15, 0.03, 0.8, 1e-3), 0.0),
                         want_mode=False)
    assert str(err.value) == f"rung 2 failed in process {forks[0]}" and forks[0] != caller
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not TWO_CPUS, reason="rung 2 forks only with two CPUs")
def test_a_child_that_dies_without_a_record_leaves_its_rung_to_the_caller(monkeypatch):
    # a child killed by a signal (the OOM killer, say) writes nothing: the
    # caller reaps it and climbs rung 2 itself, to a serial climb's bits
    state = FlowState(FlowParams(M0_LINE, 0.15, 0.03, 0.8, 1e-3), 0.0)
    vfunc = spectrum._potential(state)
    lam1, lam2, info = spectrum._climb(lambda level, _: spectrum._level(vfunc, level), False)
    real, caller = spectrum._level, os.getpid()

    def killed(vfunc, level):
        if level == 2 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(vfunc, level)

    monkeypatch.setattr(spectrum, "_level", killed)
    forks = _counted_forks(monkeypatch)
    res = lowest_eigenpair(state, want_mode=False)
    assert len(forks) == 1
    assert _trail(res) == (lam1, lam2, info.n_points, info.raw, info.richardson, info.kappa)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not TWO_CPUS, reason="rung 2 forks only with two CPUs")
@pytest.mark.parametrize("failing_level, error", [(0, NonConvergence), (1, KeyboardInterrupt)])
def test_an_error_in_the_callers_rung_leaves_no_child(monkeypatch, failing_level, error):
    # the child would sleep for a minute: the caller kills and reaps it at once
    real = spectrum._level

    def level(vfunc, lev):
        if lev == 2:
            time.sleep(60.0)
        if lev == failing_level:
            raise error("the caller's rung failed")
        return real(vfunc, lev)

    monkeypatch.setattr(spectrum, "_level", level)
    forks = _counted_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(error, match="the caller's rung failed"):
        lowest_eigenpair(FlowState(FlowParams(M0_LINE, 0.15, 0.03, 0.8, 1e-3), 0.0),
                         want_mode=False)
    assert len(forks) == 1 and time.monotonic() - start < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus, error", [({0}, AssertionError("forked on one CPU")),
                                         ({0, 1}, BlockingIOError(11, "no process to spare"))])
def test_without_a_child_every_rung_runs_in_the_caller(monkeypatch, cpus, error):
    # with one CPU in the affinity mask the ladder never forks, and a fork
    # that fails leaves no pipe open; either way the bits are the same
    state = FlowState(FlowParams(M0_LINE, 0.15, 0.03, 0.8, 1e-3), 0.0)
    forked = _trail(lowest_eigenpair(state, want_mode=False))

    def failing_fork():
        raise error

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", failing_fork)
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert _trail(lowest_eigenpair(state, want_mode=False)) == forked
    assert fds is None or sorted(os.listdir("/proc/self/fd")) == fds


# The switch of the closure on the fixture at t = 0: below M_EDGE the Neumann seed
# on mapped rung 0 routes the state to the uniform ladder and brentq closes it;
# above it the state climbs the mapped ladder.  The edge is a property of mapped
# rung 0 alone.
M_EDGE = 0.08933200392490606


@settings(max_examples=10, deadline=None)
@given(below=st.floats(1e-4, 3e-2), above=st.floats(1e-4, 3e-2))
def test_lambda1_is_monotone_across_the_closure_switches(below, above):
    """lambda1 of the base rung decreases in M across the closure switch."""
    lams = [spectrum._base_lambda1(FlowState(FlowParams(M, 0.15, 0.03, 0.8, 1e-3), 0.0))
            for M in (M_EDGE * (1.0 - below), M_EDGE * (1.0 + above))]
    assert lams[1] < lams[0]


@settings(max_examples=25, deadline=None)
@given(
    gamma0=st.floats(0.15, 0.4),
    gamma1=st.floats(0.02, 0.04),
    gamma2=st.floats(0.6, 0.9),
    nu=st.floats(5e-4, 2e-3),
    M=st.floats(0.3, 3.0),
    s1=st.floats(0.0, 1.0),
    s2=st.floats(0.0, 1.0),
)
def test_kstar_does_not_decrease_in_time(gamma0, gamma1, gamma2, nu, M, s1, s2):
    """k*(t) rises under diffusion over [0, T] where the narrow bump is well
    inside the wide one (gamma1 / gamma2 <= 0.045; near 0.05 it turns back
    down before T): lambda1 at the later time is not above the earlier one
    by more than 2 TOL_EIG, the two solves' own tolerance."""
    assume(gamma1 / gamma2 <= 0.045)
    p = FlowParams(M, gamma0, gamma1, gamma2, nu)
    early, late = sorted((s1, s2))
    lams = [lowest_eigenpair(FlowState(p, s * p.horizon), want_mode=False).lambda1
            for s in (early, late)]
    assert lams[1] <= lams[0] + 2.0 * spectrum.TOL_EIG


# ---------------------------------------------------------------------------
# the LAPACK binding: scipy's stebz branch, bit for bit
# ---------------------------------------------------------------------------

M_TUNED = 0.7016905534975553  # the fixture's amplitude for k*(0) = 1 - delta


def _assert_as_scipy(d, e, **kwargs):
    ours = spectrum.eigh_tridiagonal(d, e, **kwargs)
    theirs = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, **{"select": "i", **kwargs})
    assert np.array_equal(ours, theirs)


def test_binding_matches_scipy_on_the_threshold_uniform_rung():
    # line's M0 is set by bisection noise in these calls: the uniform rung-0
    # Robin matrix at the self-consistent kappa, both lowest eigenvalues at
    # LAPACK's default tolerance, as _lowest_two asks
    n, _, _, kappa = spectrum._level(_fixture_potential(M0_LINE), 0)
    ys = _uniform_ys(n)
    d, e = _robin_tridiagonal(np.asarray(_fixture_potential(M0_LINE)(ys)), ys[1] - ys[0], kappa)
    _assert_as_scipy(d, e, select_range=(0, 1))


@pytest.mark.parametrize("level", [0, 1, 2])
def test_binding_matches_scipy_on_mapped_rungs_at_T(level):
    # the index and window calls of the mapped ladder on its even and odd
    # blocks, Neumann and Robin-closed as the mode's
    d, e, w, _ = spectrum._mapped_block(_fixture_potential(M_TUNED, t=0.02025), level)
    robin = d.copy()
    robin[-1] += math.sqrt(-spectrum._mapped_lowest(d, e)) / w[-1]
    for db, eb in ((d, e), (d[1:], e[1:]), (robin, e)):
        _assert_as_scipy(db, eb, select_range=(0, 0), tol=spectrum.MAP_TOL)
        x = spectrum._mapped_lowest(db, eb)
        _assert_as_scipy(db, eb, select="v", select_range=_window(x), tol=spectrum.MAP_TOL)


def test_binding_rejects_nonfinite_input():
    d, e = np.full(8, 2.0), np.full(7, -1.0)
    d[3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectrum.eigh_tridiagonal(d, e, select_range=(0, 0))


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_failure_is_nonconvergence(monkeypatch, routine):
    real = getattr(spectrum, "_" + routine)
    monkeypatch.setattr(spectrum, "_" + routine, lambda *args: real(*args)[:-1] + (1,))
    state = FlowState(FlowParams(M_TUNED, 0.15, 0.03, 0.8, 1e-3), 0.0)
    with pytest.raises(NonConvergence, match=rf"^LAPACK {routine} failed \(info=1\)$"):
        lowest_eigenpair(state)


@pytest.mark.parametrize("missing", ["scipy", "_flapack", "_zeros", "dop853_coefficients"])
def test_binding_without_lapack_extension_is_an_import_error(monkeypatch, missing):
    # no fallback: without scipy, or without one of the files it loads by path
    # (the LAPACK wrappers, Brent's iteration, the DOP853 tableau), the
    # package cannot load
    import importlib.machinery
    import importlib.util

    if missing == "scipy":
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    else:
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            lambda name, path: None)
    for package, name in (("linalg", "_flapack"), ("optimize", "_zeros"),
                          ("integrate/_ivp", "dop853_coefficients")):
        if missing in ("scipy", name):
            with pytest.raises(ImportError, match=f"scipy/{package}/{name},"):
                spectrum._extension(package, name)
