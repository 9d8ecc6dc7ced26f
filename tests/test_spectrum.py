"""Eigensolver: exactly solvable wells, Sturm counts, variational checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscoshear import spectrum
from viscoshear.errors import ZeroNorm
from viscoshear.flow import FlowParams, FlowState, eval_potential
from viscoshear.spectrum import (
    Grid,
    _lowest_two,
    _robin_tridiagonal,
    _selfconsistent_box,
    _solve_potential,
    lowest_eigenpair,
    rayleigh_quotient,
    sturm_count_below,
)


def test_poschl_teller_single_well():
    # V = -2 sech^2: exactly one bound state at -1
    lam1, lam2, mode, info = _solve_potential(
        lambda ys: -2.0 / np.cosh(ys) ** 2, Grid(20.0, 8193), 1e-8, True
    )
    assert abs(lam1 + 1.0) <= 1e-7
    assert lam2 >= -1e-7
    assert info.converged
    # mode shape: proportional to sech(y)
    ys = Grid(20.0, 8193).ys()
    exact = 1.0 / np.cosh(ys)
    exact /= math.sqrt(np.sum(exact**2) * Grid(20.0, 8193).spacing)
    assert np.max(np.abs(mode - exact)) <= 1e-4


def test_poschl_teller_double_well():
    # V = -6 sech^2: bound states at -4 and -1
    lam1, lam2, _, _ = _solve_potential(
        lambda ys: -6.0 / np.cosh(ys) ** 2, Grid(20.0, 8193), 1e-8, False
    )
    assert abs(lam1 + 4.0) <= 1e-6
    assert abs(lam2 + 1.0) <= 1e-6


def test_couette_has_no_bound_state(couette_state, grid):
    res = lowest_eigenpair(couette_state, grid, want_mode=False)
    assert res.kstar is None
    assert res.lambda1 >= -1e-8


def test_reference_eigenvalue_regression(grid):
    p = FlowParams(2.0, 0.15, 0.03, 0.8, 1e-3)
    res = lowest_eigenpair(FlowState(p, 0.0), grid, want_mode=False)
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
    lam0 = ctx.torus.curve_lambda1[0]
    assert abs(lam0 - (-0.9801)) <= 1e-5


def test_uniqueness_certificate_via_sturm(ctx, grid):
    # at most one eigenvalue below -10*tol on the discretized operator
    state = ctx.state_T
    ys = grid.ys()
    h = grid.spacing
    v = np.asarray(eval_potential(state, ys))
    kappa = math.sqrt(-ctx.torus.curve_lambda1[-1])
    d, e = _robin_tridiagonal(v, h, kappa)
    assert sturm_count_below(d, e, -1e-7) == 1


def test_grid_convergence_stability(ctx, grid):
    state = ctx.state_T
    base = lowest_eigenpair(state, grid, want_mode=False).lambda1
    finer = lowest_eigenpair(state, Grid(grid.half_width, 2 * grid.n_points - 1),
                             want_mode=False).lambda1
    wider = lowest_eigenpair(state, Grid(30.0, 12289), want_mode=False).lambda1
    assert abs(finer - base) <= 1e-8
    assert abs(wider - base) <= 1e-8


def test_monotone_in_M(grid):
    p = FlowParams(1.0, 0.15, 0.03, 0.8, 1e-3)
    lams = [
        lowest_eigenpair(FlowState(p.with_M(m), 0.0), grid, want_mode=False).lambda1
        for m in (0.3, 0.7, 1.5, 3.0)
    ]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_rayleigh_quotient_of_mode_matches_lambda1(ctx, grid):
    state = ctx.state_T
    res = lowest_eigenpair(state, grid, want_mode=True)
    q = rayleigh_quotient(state, grid, res.mode)
    assert abs(q - res.lambda1) <= 1e-7


def test_rayleigh_quotient_min_principle(ctx, grid):
    state = ctx.state_T
    res = lowest_eigenpair(state, grid, want_mode=True)
    rng = np.random.default_rng(7)
    ys = grid.ys()
    for _ in range(4):
        noise = rng.normal(size=len(ys)) * np.exp(-(ys**2) / 9.0)
        noise = 0.5 * (noise + noise[::-1])  # keep it even
        trial = res.mode + 1e-3 * noise
        q = rayleigh_quotient(state, grid, trial)
        assert q >= res.lambda1 - 1e-7


def test_gaussian_trial_lemma_bound(grid):
    # quotient of the normalized Gaussian is <= 1 - M/C with a stable C
    p = FlowParams(1.0, 0.15, 0.03, 0.8, 1e-3)
    ys = grid.ys()
    theta = (math.pi / 2.0) ** (-0.25) * np.exp(-(ys**2))
    cs, qs = [], []
    for m in (4.0, 8.0, 16.0):
        q = rayleigh_quotient(FlowState(p.with_M(m), 0.0), grid, theta)
        assert q < 1.0
        qs.append(q)
        cs.append(m / (1.0 - q))
    assert qs[0] > qs[1] > qs[2]  # deeper well, lower quotient
    assert max(cs) / min(cs) <= 3.0  # stability of the fitted constant
    # the eigenvalue obeys the same envelope with its own stable constant
    cs_lam = []
    for m in (4.0, 8.0, 16.0):
        lam = lowest_eigenpair(FlowState(p.with_M(m), 0.0), grid, want_mode=False).lambda1
        assert lam < 1.0 - m / (2.0 * max(cs))
        cs_lam.append(m / (1.0 - lam))
    assert max(cs_lam) / min(cs_lam) <= 3.0


def test_rayleigh_quotient_zero_norm_raises(ctx, grid):
    with pytest.raises(ZeroNorm):
        rayleigh_quotient(ctx.state_T, grid, np.zeros(grid.n_points))


def test_profile_checks_at_t0(ctx):
    rep = ctx.profile_0
    assert rep.all_ok
    assert rep.fitted_C <= 20.0
    assert rep.even_defect < 1e-8
    assert rep.min_value > 0.0


def test_mode_is_normalized_and_positive(ctx, grid):
    res = lowest_eigenpair(ctx.state_T, grid, want_mode=True)
    assert abs(np.sum(res.mode**2) * grid.spacing - 1.0) <= 1e-12
    assert np.min(res.mode) > 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(20.0, 4096)  # even
    with pytest.raises(ValueError):
        Grid(5.0, 4097)  # too narrow


def _counted_closure(monkeypatch, M, grid):
    """Run one self-consistent closure on the fixture potential at t = 0.

    Returns the closure's (lambda1, lambda2, kappa), the end entries and
    size (d[0], d[-1], len(d)) of every tridiagonal it solved, the number of
    f evaluations brentq made, and the potential and spacing used.
    """
    ys = grid.ys()
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
    result = _selfconsistent_box(v, h, grid.half_width, spectrum.TOL_EIG)
    monkeypatch.undo()
    return result, ends, len(brent_evals), v, h


def _blocks(v, h, kappa):
    """The even and odd parity blocks of ``_robin_tridiagonal(v, h, kappa)``
    for an even ``v``, with the arithmetic of ``_selfconsistent_box``."""
    d, e = _robin_tridiagonal(v[len(v) // 2:], h, 0.0)
    d[-1] = d[-1] + 2.0 * kappa / h
    return (d, e), (d[1:], e[1:])


def _ulp_norm(d, e):
    """dstebz's own absolute tolerance: ULP * ||T||_1."""
    off = np.abs(e)
    return np.finfo(float).eps * float(np.max(np.abs(d) + np.r_[0.0, off] + np.r_[off, 0.0]))


def test_closure_solves_each_robin_matrix_once(monkeypatch, grid):
    # near the whole-line threshold: kappa * Y << 3, so brentq closes it
    (lam1, lam2, kappa), ends, n_brent, v, h = _counted_closure(monkeypatch, 4e-5, grid)
    assert 0.0 < kappa * grid.half_width < 3.0 and n_brent > 0
    assert len(set(ends)) == len(ends)
    # Neumann, f(0-), brentq's evaluations and the final solve, less the
    # three repeats: f(0-) is the Neumann matrix, brentq re-evaluates f(0-)
    # and the final kappa is one brentq evaluated
    assert len(ends) <= 1 + 1 + n_brent + 1 - 3
    assert (lam1, lam2) == _lowest_two(*_robin_tridiagonal(v, h, kappa))


def test_closure_fixed_point_matches_direct_solve(monkeypatch, grid):
    (lam1, lam2, kappa), ends, n_brent, v, h = _counted_closure(monkeypatch, 0.7, grid)
    assert kappa * grid.half_width >= 3.0 and n_brent == 0
    assert len(set(ends)) == len(ends)
    # every solve is on a parity block, half the rows of the full matrix
    assert {n for _, _, n in ends} <= {(len(v) + 1) // 2, (len(v) - 1) // 2}
    # the blocks' own index calls, bit for bit, and the full matrix within
    # its bisection tolerance
    even, odd = _blocks(v, h, kappa)
    assert (lam1, lam2) == (spectrum._lowest(*even), spectrum._lowest(*odd))
    d, e = _robin_tridiagonal(v, h, kappa)
    full1, full2 = _lowest_two(d, e)
    assert abs(lam1 - full1) <= _ulp_norm(d, e) and abs(lam2 - full2) <= _ulp_norm(d, e)


# Certified warm-start windows (spectrum._windowed).  A window solve is used
# only when Sturm counts certify it; otherwise the closure falls back to the
# block's own index call, bit for bit.

M0_LINE = 4.127983142029252e-05  # the fixture's whole-line threshold amplitude (line report.json)


def _pt_well(depth, grid=Grid(20.0, 8193)):
    ys = grid.ys()
    return -depth / np.cosh(ys) ** 2, ys[1] - ys[0]


def _fixture_well(M, grid=Grid(20.0, 8193), t=0.0):
    ys = grid.ys()
    v = eval_potential(FlowState(FlowParams(M, 0.15, 0.03, 0.8, 1e-3), t), ys)
    return np.asarray(v, dtype=float), ys[1] - ys[0]


@pytest.mark.parametrize("case", ["estimate_above_lambda1", "window_holds_two", "eigenvalue_in_gap"])
def test_uncertified_window_falls_back_to_index_call(case):
    # V = -6 sech^2: the even block holds lambda1 = -4, the odd block
    # lambda2 = -1, each followed by box states above 0
    v, h = _pt_well(6.0)
    blocks = _blocks(v, h, 2.0)
    windows = []
    for d, e in blocks:
        first, second = spectrum.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                                   select_range=(0, 1))
        windows.append({
            # the estimate sits one eigenvalue too high: the window holds
            # exactly one eigenvalue, and only the count below rejects it
            "estimate_above_lambda1": (second, 1e-3),
            # the window holds the block's two lowest eigenvalues
            "window_holds_two": (0.5 * (first + second), 0.75 * (second - first)),
            # the window lies in the gap below the lowest eigenvalue: nothing
            # below it and nothing in it
            "eigenvalue_in_gap": (first - 0.5, 0.1),
        }[case])
        assert spectrum._windowed(d, e, windows[-1]) is None
    lam1, lam2, kappa = _selfconsistent_box(v, h, 20.0, spectrum.TOL_EIG, tuple(windows))
    assert kappa * 20.0 >= 3.0
    even, odd = _blocks(v, h, kappa)
    assert (lam1, lam2) == (spectrum._lowest(*even), spectrum._lowest(*odd))


@pytest.mark.parametrize("well", ["poschl_teller_1", "poschl_teller_2", "fixture_M0.7"])
@pytest.mark.parametrize("robin", [False, True])
def test_certified_window_matches_index_call(well, robin):
    v, h = {"poschl_teller_1": lambda: _pt_well(2.0), "poschl_teller_2": lambda: _pt_well(6.0),
            "fixture_M0.7": lambda: _fixture_well(0.7)}[well]()
    kappa = 0.0
    if robin:
        kappa = math.sqrt(-spectrum._lowest(*_blocks(v, h, 0.0)[0]))
    for (d, e), shift in zip(_blocks(v, h, kappa), (3e-6, -3e-6)):
        lam = spectrum._lowest(d, e)
        got = spectrum._windowed(d, e, (lam + shift, 1e-5))
        assert got is not None
        assert abs(got - lam) <= _ulp_norm(d, e)


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
    assert abs(spectrum._lowest(*even) - full1) <= _ulp_norm(d, e)
    assert abs(spectrum._lowest(*odd) - full2) <= _ulp_norm(d, e)


def test_poschl_teller_blocks_split_the_bound_states():
    # V = -6 sech^2: the even block binds -4 only, the odd block -1 only
    # (Richardson over two grids, at the closure's kappa = 2)
    lams = []
    for n in (8193, 16385):
        v, h = _pt_well(6.0, Grid(20.0, n))
        even, odd = _blocks(v, h, 2.0)
        assert sturm_count_below(*even, -0.5) == 1 and sturm_count_below(*odd, -0.5) == 1
        lams.append((spectrum._lowest(*even), spectrum._lowest(*odd)))
    (e0, o0), (e1, o1) = lams
    assert abs(e1 + (e1 - e0) / 3.0 + 4.0) <= 1e-6
    assert abs(o1 + (o1 - o0) / 3.0 + 1.0) <= 1e-6


def _full_matrix_weak_closure(v, h, tol):
    """The weak closure on the full matrix alone: memoized index pairs and
    brentq, the calls a no-guess weak closure must make."""
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
    v, h = _fixture_well(M0_LINE)
    calls = []
    eigh, dpttrf = spectrum.eigh_tridiagonal, spectrum.dpttrf

    def counted_eigh(d, e, **kwargs):
        calls.append((kwargs["select"], kwargs["select_range"], d[0], d[-1], len(d)))
        return eigh(d, e, **kwargs)

    def counted_dpttrf(d, e, **kwargs):
        calls.append(("dpttrf", len(d)))
        return dpttrf(d, e, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", counted_eigh)
    expected = _full_matrix_weak_closure(v, h, spectrum.TOL_EIG)
    expected_calls, calls[:] = list(calls), []
    monkeypatch.setattr(spectrum, "dpttrf", counted_dpttrf)
    got = _selfconsistent_box(v, h, 20.0, spectrum.TOL_EIG)
    assert got == expected and got[2] * 20.0 < 3.0
    assert calls == [("dpttrf", (len(v) + 1) // 2)] + expected_calls


@pytest.mark.parametrize("M", [0.7016899313361670, M0_LINE, 10.0])
@pytest.mark.parametrize("t", [0.0, 0.00081])
def test_level_mirrors_the_full_grid_potential(monkeypatch, M, t):
    # the rung evaluates V for y >= 0 only; mirrored, it is the full-grid
    # potential bit for bit
    state = FlowState(FlowParams(M, 0.15, 0.03, 0.8, 1e-3), t)
    seen = []
    monkeypatch.setattr(spectrum, "_selfconsistent_box", lambda v, *rest: seen.append(v) or (0.0,) * 3)
    for level in range(5):
        n = spectrum._level(spectrum._potential(state), Grid(), level, spectrum.TOL_EIG)[0]
        assert np.array_equal(seen[-1], eval_potential(state, np.linspace(-20.0, 20.0, n)))


@pytest.mark.parametrize("M, at_T", [(4e-5, False), (M0_LINE, True)])
def test_weak_ladders_stay_pinned(monkeypatch, grid, M, at_T):
    p = FlowParams(M, 0.15, 0.03, 0.8, 1e-3)
    state = FlowState(p, p.horizon if at_T else 0.0)
    windowed, rungs = [], []
    real_windowed, real_box = spectrum._windowed, spectrum._selfconsistent_box

    def spy_windowed(*args):
        windowed.append(args)
        return real_windowed(*args)

    def spy_box(v, h, half_width, tol, guess=()):
        out = real_box(v, h, half_width, tol, guess)
        rungs.append((v, h, out))
        return out

    monkeypatch.setattr(spectrum, "_windowed", spy_windowed)
    monkeypatch.setattr(spectrum, "_selfconsistent_box", spy_box)
    res = lowest_eigenpair(state, grid, want_mode=False)
    monkeypatch.undo()
    assert windowed == []
    assert len(rungs) == len(res.convergence.n_points) >= 3
    for v, h, (lam1, lam2, kappa) in rungs:
        assert kappa * grid.half_width < 3.0
        assert (lam1, lam2) == _lowest_two(*_robin_tridiagonal(v, h, kappa))


@settings(max_examples=12, deadline=None)
@given(
    gamma0=st.floats(0.2, 0.4),
    gamma1=st.floats(0.03, 0.1),
    gamma2=st.floats(0.2, 0.9),
    M=st.floats(0.3, 3.0),
    step=st.floats(0.02, 1.0),
)
def test_windowed_ladder_property(gamma0, gamma1, gamma2, M, step):
    """Strongly bound states on the 8193-point grid: lambda1 decreases in M,
    and the windowed ladder agrees with the all-index ladder within 10 tol_eig."""
    grid = Grid(20.0, 8193)
    p = FlowParams(M, gamma0, gamma1, gamma2, 1e-3)
    certified = []
    real_windowed = spectrum._windowed

    def spy_windowed(*args):
        out = real_windowed(*args)
        certified.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_windowed", spy_windowed)
        res = lowest_eigenpair(FlowState(p, 0.0), grid, want_mode=False)
        deeper = lowest_eigenpair(FlowState(p.with_M(M * (1.0 + step)), 0.0), grid,
                                  want_mode=False)
    assert res.convergence.kappa * grid.half_width >= 3.0
    assert any(certified)
    assert deeper.lambda1 < res.lambda1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_windowed", lambda d, e, windows: None)
        pinned = lowest_eigenpair(FlowState(p, 0.0), grid, want_mode=False)
    assert abs(res.lambda1 - pinned.lambda1) <= 10 * spectrum.TOL_EIG
    assert abs(res.lambda2 - pinned.lambda2) <= 10 * spectrum.TOL_EIG
