"""Rayleigh solutions and the Wronskian: closed-form Couette oracles,
symmetry, quadrature honesty, root structure, and the bound suites."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from viscoshear import _ode, rayleigh as ray
from viscoshear.errors import TailDominance
from viscoshear.flow import FlowParams, FlowState, eval_b, eval_b_derivs
from viscoshear.spectrum import HALF_WIDTH, lowest_eigenpair


def w_couette_exact(k, c):
    """Closed form of the Couette Wronskian on the imaginary axis.

    With b = y the regular solution is phi = -ic cosh(ky) + sinh(ky)/k and
    the substitution u = tanh(ky) collapses the integral to -2k/(1+k^2c^2).
    """
    return -2.0 * k / (1.0 + k * k * c * c)


def w_one(state, k, c):
    """W(ic, k) and its quad_error from a one-channel pass."""
    w, qe = ray.wronskian_many(state, [k], [c])
    return w[0], qe[0]


# ---------------------------------------------------------------------------
# Couette oracles
# ---------------------------------------------------------------------------


def test_couette_phi1_is_sinh(couette_state):
    ys = np.linspace(-10.0, 10.0, 161)
    for k in (0.5, 1.0, 2.0):
        sol = ray.solve_phi(couette_state, k, 0.0, ys)
        mask = np.abs(sol.ys) > 1e-9
        exact = np.sinh(k * sol.ys[mask]) / (k * sol.ys[mask])
        assert np.max(np.abs(sol.phi1[mask] - exact) / exact) <= 1e-8
        # spec literal: phi1(2) = sinh(2)/2 at k = 1
    sol = ray.solve_phi(couette_state, 1.0, 0.0, np.array([-2.0, 2.0]))
    i2 = int(np.argmin(np.abs(sol.ys - 2.0)))
    assert abs(sol.phi1[i2] - math.sinh(2.0) / 2.0) <= 1e-8


def test_phi1_invariants(ctx):
    sol = ray.solve_phi(ctx.state_T, 1.0, 0.0, np.linspace(-15, 15, 121))
    assert np.all(sol.phi1 >= 1.0 - 1e-9)
    assert np.all(sol.ys * sol.dphi1 >= -1e-10 * (1.0 + np.abs(sol.ys)))


def test_couette_wronskian_exact(couette_state):
    for (k, c) in [(1.0, 0.1), (1.0, 0.01), (0.7, 0.3), (1.3, 1e-4), (1.0, 1e-6), (2.0, 0.45)]:
        w, _ = w_one(couette_state, k, c)
        exact = w_couette_exact(k, c)
        assert abs(w - exact) <= 1e-8 * abs(exact)


@pytest.mark.parametrize("k", [0.01, 0.05, 0.2])
def test_couette_wronskian_exact_at_small_k(couette_state, k):
    # the old window max(20, 12/k) reached y = 1200 at k = 0.01; the cut
    # closes every pass at 6 gamma0 = 0.9 with the exact tail
    for c in (0.0, 1e-6, 1e-3, 0.1, 0.5):
        w, _ = w_one(couette_state, k, c)
        exact = w_couette_exact(k, c)
        assert abs(w - exact) <= 1e-8 * abs(exact)


def test_couette_boundary_value(couette_state):
    for k in (0.5, 1.0, 2.0):
        wb, _ = ray.wronskian_many(couette_state, [k], [0.0])
        assert abs(wb[0] + 2.0 * k) <= 1e-9 * 2.0 * k
        assert wb.dtype == np.float64


def test_couette_has_no_roots(couette_state):
    for k in (0.2, 1.0, 2.0):
        assert ray.eigenvalue_for_k(couette_state, k) is None


def test_couette_phi2_closed_form(couette_state):
    k, c = 1.0, 0.05
    sol = ray.solve_phi(couette_state, k, c, np.linspace(-8, 8, 81))
    mask = np.abs(sol.ys) > 1e-5
    ys = sol.ys[mask]
    phi_exact = -1j * c * np.cosh(k * ys) + np.sinh(k * ys) / k
    phi2_exact = phi_exact / ((ys - 1j * c) * sol.phi1[mask])
    assert np.max(np.abs(sol.phi2[mask] - phi2_exact) / np.abs(phi2_exact)) <= 1e-7


def test_phi2_symmetry_and_trivial_case(ctx):
    k, c = 1.0, 1e-3
    ys = np.linspace(-12, 12, 97)
    sol = ray.solve_phi(ctx.state_T, k, c, ys)
    assert np.max(np.abs(sol.phi2.real - sol.phi2.real[::-1])) <= 1e-8
    assert np.max(np.abs(sol.phi2.imag + sol.phi2.imag[::-1])) <= 1e-8
    # at c_i = 0 the same pass leaves phi2 at its seed, exactly
    zero = ray.solve_phi(ctx.state_T, k, 0.0, ys)
    assert np.all(zero.phi2 == 1.0) and np.all(zero.dphi2 == 0.0)
    with pytest.raises(ValueError):
        ray.solve_phi(ctx.state_T, k, -c, ys)


def test_assemble_phi_checks_and_reflection(ctx):
    k, c = 1.0, 1e-3
    samples = np.linspace(-12, 12, 97)
    ys, phi = oracles.assemble_phi(ctx.state_T, ray.solve_phi(ctx.state_T, k, c, samples))
    refl = np.abs(phi + np.conj(phi[::-1])) / (1.0 + np.abs(phi))
    assert np.max(refl) <= 1e-8
    # c_i = 0 vanishes at the critical point
    ys0, phi0 = oracles.assemble_phi(ctx.state_T, ray.solve_phi(ctx.state_T, k, 0.0, samples))
    assert abs(phi0[int(np.argmin(np.abs(ys0)))]) == 0.0


def test_assemble_phi_couette_closed_form(couette_state):
    k, c = 1.0, 0.05
    sol = ray.solve_phi(couette_state, k, c, np.linspace(-6, 6, 49))
    ys, phi = oracles.assemble_phi(couette_state, sol)
    exact = -1j * c * np.cosh(k * ys) + np.sinh(k * ys) / k
    assert np.max(np.abs(phi - exact) / (1.0 + np.abs(exact))) <= 1e-8


def test_only_the_det_check_integrates_qf(couette_state, monkeypatch):
    # the step control weighs every column, so the package's passes (W,
    # solve_phi, phiB) carry only the five it reads; the oracle adds qF
    widths = []
    real = ray.integrate

    def spy(rhs, y0, y1, st0, **kwargs):
        widths.append(st0.shape[1])
        return real(rhs, y0, y1, st0, **kwargs)

    monkeypatch.setattr(ray, "integrate", spy)
    ray.wronskian_many(couette_state, [1.0, 1.0], [0.1, 0.0])
    ray.solve_phi(couette_state, 1.0, 0.1, np.linspace(-2.0, 2.0, 9))
    ray.neutral_mode_phiB(couette_state, 1.0, np.linspace(-20.0, 20.0, 9), np.full(9, 5.0))
    assert widths == [5, 5, 5]
    widths.clear()
    oracles.wronskian_det_check(couette_state, 1.0, 0.1, [-1.0, 1.0])
    assert sorted(widths) == [5, 6, 6]  # the reference W, then qF on both sides


def test_quadrature_honesty(ctx, couette_state, monkeypatch):
    # tightening the integrator tolerance moves W by less than quad_error
    for state, k, c in [(couette_state, 1.0, 0.02), (ctx.state_T, 1.0, 3e-4)]:
        base, quad_error = w_one(state, k, c)
        with monkeypatch.context() as m:
            m.setattr(_ode, "RTOL", 1e-11)
            m.setattr(_ode, "ATOL", 1e-14)
            tight, _ = w_one(state, k, c)
        assert abs(base - tight) <= quad_error


def test_det_check_reference_and_couette(ctx, couette_state):
    rep = oracles.wronskian_det_check(couette_state, 1.0, 0.1, [-1.0, 1.0])
    assert rep.max_rel_dev <= 1e-6
    assert abs(rep.dets[0] - rep.dets[1]) <= 1e-6 * abs(rep.W)
    rep2 = oracles.wronskian_det_check(ctx.state_T, 1.2, 0.01, [-1.0, 1.0])
    assert rep2.max_rel_dev <= 1e-6
    # near the root |W| -> 0, so agreement there is absolute-scale:
    rep3 = oracles.wronskian_det_check(ctx.state_T, 1.0, ctx.torus.ci_at_k1 / 2, [-1.5, 0.5])
    assert np.max(np.abs(rep3.dets - rep3.dets[0])) <= 1e-9
    assert np.max(np.abs(rep3.dets - rep3.W)) <= 1e-6 * max(1.0, abs(rep3.W))
    # the mirror phi(-y) = -conj phi(y) that makes the one-sided W real: the
    # two-sided determinants are real too.  rep3's, near the root, on the
    # absolute scale of its other checks: its determinant sums the two sides'
    # qF integrals, about 3.3e3 i each, which the passes reach through
    # different steps (the probes differ), so its imaginary part is rounding
    # of 4.5e-13 to 9.1e-13; a left pass whose RHS is off by 1e-9 i leaves 1.3e-8
    for r, scale in ((rep, 1e-12 * abs(rep.W)), (rep2, 1e-12 * abs(rep2.W)),
                     (rep3, 1e-11 * max(1.0, abs(rep3.W)))):
        assert np.max(np.abs(r.dets.imag)) <= scale


def test_left_pass_is_exact_mirror(ctx, couette_state):
    # the one-sided assembly takes the left half line from this identity,
    # for the boundary value's c = 0 channel as for c > 0
    ks = np.array([1.0, 0.95, 2.0, 1.0])
    cs = np.array([1e-6, 5e-4, 0.1, 0.0])
    for state in (ctx.state_T, couette_state):
        system = ray._WSystem(state, ks, cs)
        eps = ray._eps_start(cs)
        st_r, _, _ = ray._run(system, eps, 20.0)
        st_l, _, _ = oracles.left_pass(system, eps, 20.0)
        assert np.array_equal(st_l, ray._mirror(st_r))
    # and the neutral mode's quadrature system, at c = 0 and k*, sampled on
    # the mode's nodes out to the half width as phiB samples them
    res = lowest_eigenpair(ctx.state_T, want_mode=True)
    assert res.ys[-1] == HALF_WIDTH
    system = ray._PhiBSystem(ctx.state_T, np.array([res.kstar]), np.array([0.0]))
    pos = res.ys[len(res.ys) // 2 + 1:]
    _, rec_r, _ = ray._run(system, ray.EPS_MAX, HALF_WIDTH, samples=list(pos))
    _, rec_l, _ = oracles.left_pass(system, ray.EPS_MAX, HALF_WIDTH, samples=list(-pos))
    assert np.array_equal(rec_l, ray._mirror(rec_r))


def test_passes_run_forward_on_the_right_half_line(ctx, couette_state, monkeypatch):
    # the package integrates toward y < 0 nowhere: every pass starts at the
    # seed offset eps > 0 and runs to a larger y
    state, spans, real = ctx.state_T, [], ray.integrate  # built first: it runs the torus scenario

    def spy(rhs, t0, t1, y0, **kwargs):
        spans.append((t0, t1))
        return real(rhs, t0, t1, y0, **kwargs)

    monkeypatch.setattr(ray, "integrate", spy)
    ray.wronskian_many(state, [1.0, 1.0], [1e-3, 0.0])
    ray.solve_phi(state, 1.0, 1e-3, np.linspace(-12.0, 12.0, 49))
    ray.neutral_mode_phiB(couette_state, 1.0, np.linspace(-20.0, 20.0, 9), np.full(9, 5.0))
    assert len(spans) == 3
    assert all(0.0 < t0 < t1 for t0, t1 in spans)


@settings(max_examples=8, deadline=None)
@given(
    gamma0=st.floats(0.1, 0.4),
    gamma1=st.floats(0.01, 0.1),
    gamma2=st.floats(0.3, 0.9),
    nu=st.floats(1e-4, 1e-2),
    M=st.floats(0.0, 3.0),
    t_over_T=st.floats(0.0, 2.0),
)
def test_left_pass_mirrors_the_right_at_random_states(gamma0, gamma1, gamma2, nu, M, t_over_T):
    p = FlowParams(M, gamma0, gamma1, gamma2, nu)
    state = FlowState(p, t_over_T * p.horizon)
    # a W pass with a c = 0 channel
    ks, cs = np.array([1.0, 0.7]), np.array([0.0, 2e-3])
    system = ray._WSystem(state, ks, cs)
    eps = ray._eps_start(cs)
    st_r, _, _ = ray._run(system, eps, 4.0)
    st_l, _, _ = oracles.left_pass(system, eps, 4.0)
    assert np.array_equal(st_l, ray._mirror(st_r))
    # a sampled pass on a bit-symmetric sample set
    samples = np.array([1e-3, 0.05, 0.3, 1.7, 4.0])
    system = ray._WSystem(state, np.array([1.0]), np.array([1e-3]))
    eps = ray._eps_start(np.array([1e-3]))
    _, rec_r, _ = ray._run(system, eps, 4.0, samples=list(samples))
    _, rec_l, _ = oracles.left_pass(system, eps, 4.0, samples=list(-samples))
    assert np.array_equal(rec_l, ray._mirror(rec_r))


@settings(max_examples=8, deadline=None)
@given(
    gamma0=st.floats(0.1, 0.4),
    gamma1=st.floats(0.01, 0.1),
    gamma2=st.floats(0.3, 0.9),
    nu=st.floats(1e-4, 1e-2),
    M=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    t_over_T=st.floats(0.0, 2.0),
    k=st.floats(0.5, 2.0),
)
def test_w_is_couette_at_zero_amplitude_and_real_at_random_states(gamma0, gamma1, gamma2, nu,
                                                                   M, t_over_T, k):
    # one guarded pass with a c = 0 channel and two c > 0 channels
    p = FlowParams(M, gamma0, gamma1, gamma2, nu)
    state = FlowState(p, t_over_T * p.horizon)
    cs = np.array([0.0, 1e-3, 0.2])
    w, _ = ray.wronskian_many(state, np.full(3, k), cs)
    assert w.dtype == np.float64 and np.all(np.isfinite(w))
    if M == 0.0:  # b = y: the Couette closed form, W(0, k) = -2k included
        for c, wc in zip(cs, w):
            exact = w_couette_exact(k, c)
            assert abs(wc - exact) <= 1e-8 * abs(exact)


def _two_sided_samples(state, k, c_i, ys):
    """phi1, phi1', phi2, phi2' at the ys off the seed strip, one pass per
    half line: the reference the one-sided sampled pass must reproduce."""
    system = ray._WSystem(state, np.array([k]), np.array([c_i]))
    eps = ray._eps_start(np.array([c_i]))
    ymax = float(np.max(np.abs(ys)))
    neg, pos = ys[ys < -eps], ys[ys > eps]
    _, rec_l, _ = oracles.left_pass(system, eps, ymax, samples=list(neg[::-1]))
    _, rec_r, _ = ray._run(system, eps, ymax, samples=list(pos))
    st = np.concatenate([rec_l[::-1], rec_r])[:, 0]
    b = eval_b(state, np.concatenate([neg, pos]))
    u = b - 1j * c_i
    phi1 = 1.0 + st[:, 0].real
    return np.abs(ys) > eps, (phi1, (st[:, 1] / (b * b)).real, 1.0 + st[:, 2],
                              st[:, 3] / (u * u * phi1 ** 2))


@pytest.mark.parametrize("k, c_i", [(1.0, 1e-3), (0.8, 0.05)])
def test_sampled_passes_are_one_sided(ctx, monkeypatch, k, c_i):
    # one right half-line pass per solve, for phi1 and phi2 together and at
    # c_i = 0 as well; the left half is its mirror
    state, calls = ctx.state_T, []
    real = ray.integrate

    def spy(*args, **kwargs):
        calls.append(kwargs.get("samples"))
        return real(*args, **kwargs)

    monkeypatch.setattr(ray, "integrate", spy)
    sol = ray.solve_phi(state, k, c_i, np.linspace(-12.0, 12.0, 101))
    assert len(calls) == 1
    zero = ray.solve_phi(state, k, 0.0, np.linspace(-12.0, 12.0, 101))
    assert len(calls) == 2
    monkeypatch.undo()
    far, ref = _two_sided_samples(state, k, c_i, sol.ys)
    _, ref0 = _two_sided_samples(state, k, 0.0, sol.ys)
    for got, want in zip((sol.phi1, sol.dphi1, sol.phi2, sol.dphi2, zero.phi1, zero.dphi1),
                         ref + ref0[:2]):
        assert np.all(np.abs(got[far] - want) <= 1e-12 * np.abs(want))


def test_eigencurve_shares_window_and_polish(ctx, monkeypatch):
    passes = []
    real_many = ray.wronskian_many

    def counted(state, ks, cs, *args, **kwargs):
        w, qe = real_many(state, ks, cs, *args, **kwargs)
        passes.append((np.asarray(cs), w))
        return w, qe

    state = ctx.state_T  # built first: it runs the torus scenario
    monkeypatch.setattr(ray, "wronskian_many", counted)
    curve = ray.eigencurve(state, [0.95, 1.0], ctx.torus.eig_T)
    (window_cs, window), polish = passes[0], passes[1:]
    # both rows are seeded: one window pass of the law's nodes and C_MAX, no full scan
    assert len(window) <= 2 * (2 * ray.C_SEED_WINDOW + 1) + 2
    assert len(polish) == 1 and len(polish[0][1]) <= 2  # the window's interpolant lands the roots
    scales = np.abs(window[window_cs == ray._scan_grid()[-1]])
    assert len(scales) == 2
    for (_, _, resid), scale in zip(curve.points, scales):
        assert resid <= 1e-10 * scale


def test_polish_from_the_interpolant_matches_the_midpoint_start(ctx, monkeypatch):
    # roots from c = 0.2 down to 5e-4; k = 0.2 is the one whose first
    # interpolated point misses the tolerance
    ks, state, passes = (0.2, 0.6, 0.9, 0.99, 1.0), ctx.state_T, []
    real_many = ray.wronskian_many
    monkeypatch.setattr(ray, "wronskian_many", lambda *a: passes.append(a) or real_many(*a))
    roots, _, w = ray.eigenvalues_for_ks(state, ks)
    assert 2 <= len(passes) <= 1 + 2  # the scan, then at most two polish passes
    for root, row in zip(roots, w):
        assert root[1] <= ray.ROOT_RTOL * abs(row[-1])
    monkeypatch.setattr(ray, "_polish_start", lambda cs, wr, j, scale: np.full(len(j), 0.5))
    midpoint, _, _ = ray.eigenvalues_for_ks(state, ks)
    for root, mid in zip(roots, midpoint):
        assert abs(root[0] - mid[0]) <= 1e-9 * mid[0]


def _scan_row(cs, root):
    """A strictly decreasing smooth Re W in log c with its zero at ``root``, as one row."""
    x = np.log(cs) - math.log(root)
    return -(x + 0.1 * x ** 3)[None, :]


def test_polish_start_is_the_inverse_interpolant_of_the_scan():
    cs = np.logspace(-8.0, math.log10(0.5), ray.C_SCAN_POINTS)
    j = np.array([40, 120])
    roots = [cs[40] * 1.05, cs[120] * 1.02]  # scan nodes are 9.3 % apart
    wr = np.vstack([_scan_row(cs, roots[0]), -_scan_row(cs, roots[1])])  # falls, then rises
    t = ray._polish_start(cs, wr, j, np.array([2.0, 0.5]))
    x = np.log(cs[j]) + t * (np.log(cs[j + 1]) - np.log(cs[j]))
    assert np.all((0.0 < t) & (t < 1.0))
    assert np.allclose(x, np.log(roots), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("why", ["wiggle", "first", "last", "zero"])
def test_polish_start_falls_back_to_the_midpoint(why):
    cs = np.logspace(-8.0, math.log10(0.5), ray.C_SCAN_POINTS)
    n = ray.C_SEED_WINDOW
    jr = {"wiggle": 100, "first": n - 2, "last": len(cs) - n, "zero": 100}[why]
    row = _scan_row(cs, cs[jr] * 1.01)
    if why == "wiggle":  # Re W turns back inside the window, far from the bracket
        row[0, jr - n + 2] = row[0, jr - n + 3] - 1e-6
    if why == "zero":  # still strictly decreasing
        row[0, jr + 1] = 0.0
    t = ray._polish_start(cs, row, np.array([jr]), np.array([1.0]))
    assert t.tolist() == [0.5]
    if why in ("first", "last"):  # one node further in, the window fits
        j_in = jr + (1 if why == "first" else -1)
        row = _scan_row(cs, cs[j_in] * 1.01)
        assert ray._polish_start(cs, row, np.array([j_in]), np.array([1.0]))[0] != 0.5


def test_batched_roots_match_single_wave_number(ctx):
    state = ctx.state_T
    ks = (1.0, 0.95, 1.5)
    roots, _, w = ray.eigenvalues_for_ks(state, ks)
    assert roots[2] is None
    for k, root, row in zip(ks, roots, w):
        single = ray.eigenvalue_for_k(state, k)
        if single is None:
            assert root is None
            continue
        tol_root = 1e-10 * abs(row[-1])
        assert root[1] <= tol_root
        w_alone, _ = ray.wronskian_many(state, [k], [root[0]])
        assert abs(w_alone[0]) <= tol_root
        _, dw_dci = ray.wronskian_partials(state, k, root[0])
        assert abs(root[0] - single[0]) * abs(dw_dci) <= 2.0 * tol_root


def test_eigencurve_of_empty_grid_is_empty(couette_state, ctx):
    for state, eig in ((couette_state, None), (ctx.state_T, ctx.torus.eig_T)):
        curve = ray.eigencurve(state, [], eig)
        assert curve.points == () and curve.k_zero is None


@given(st.lists(st.sampled_from([0.95, 1.0, 0.5, -0.0, 0.0, 1e-3, -20.0, 2.0]), max_size=12))
def test_unique_is_np_unique_without_numpy_ma(values):
    # eigencurve's and phi_solution's de-duplication: np.unique's values,
    # bit for bit, by a sort and a mask that need no numpy.ma
    values = np.array(values, dtype=float)
    got, want = ray._unique(values), np.unique(values)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ks", [[0.0, 0.5], [-1.0, 0.5], [0.5, -0.25], [math.nan, 0.5]])
def test_root_searches_reject_nonpositive_k(couette_state, ks):
    # k = 0 used to end in a ZeroDivisionError of the window size, and a
    # negative k returned roots as if it were a wave number
    with pytest.raises(ValueError, match="wave numbers must be positive"):
        ray.scan_wronskian(couette_state, ks)
    with pytest.raises(ValueError, match="wave numbers must be positive"):
        ray.eigenvalues_for_ks(couette_state, ks)
    with pytest.raises(ValueError, match="wave numbers must be positive"):
        ray.eigenvalue_for_k(couette_state, min(ks))
    with pytest.raises(ValueError, match="wave numbers must be positive"):
        ray.eigencurve(couette_state, ks, None)
    # every W pass checks k itself: a value at k = 0, or TailDominance (the
    # exit-3 class) at k < 0 or NaN, would hide the bad input
    with pytest.raises(ValueError, match="wave numbers must be positive"):
        ray.wronskian_many(couette_state, ks, np.full(len(ks), 0.1))
    # the neutral mode builds the same system before its domain test
    ys = np.linspace(-20.0, 20.0, 9)
    with pytest.raises(ValueError, match="wave numbers must be positive"):
        ray.neutral_mode_phiB(couette_state, min(ks), ys, np.full(len(ys), 5.0))


def test_wronskian_rejects_negative_ci(ctx):
    for c_i in (-1e-3, -1e-4, math.nan):
        with pytest.raises(ValueError, match="c_i >= 0"):
            ray.wronskian_many(ctx.state_T, [1.0], [c_i])
    # the partials step c_i by at most c_i / 2, so they need c_i > 0
    for c_i in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="c_i > 0"):
            ray.wronskian_partials(ctx.state_T, 1.0, c_i)
    with pytest.raises(ValueError, match="c_i >= 0"):
        ray.solve_phi(ctx.state_T, 1.0, math.nan, np.linspace(-2.0, 2.0, 9))


def test_partials_below_the_c_step_stay_on_the_imaginary_axis(ctx):
    # c_i = 3e-6 is below the 1e-4 gamma0 = 1.5e-5 step, which used to put the
    # lower channel at c_i < 0; the step shrinks to c_i / 2 instead
    dk, dci = ray.wronskian_partials(ctx.state_T, 1.0, 3e-6)
    assert np.isfinite(dk) and np.isfinite(dci)
    assert dk < 0.0 and dci < 0.0


def test_wronskian_evaluates_at_its_root(ctx):
    # |W| -> 0 at a root; the tail guard must not scale with it
    w, _ = w_one(ctx.state_T, 1.0, ctx.torus.ci_at_k1)
    assert abs(w) <= 1e-10 * ctx.torus.w_scale


def test_wronskian_tail_guard_flags_truncated_domain(ctx, monkeypatch):
    # a cut inside the bump, where b' is not 1.0, has no exact Couette tail
    monkeypatch.setattr(ray, "_y_cut", lambda state, eps: 0.3)
    with pytest.raises(TailDominance, match=r"b' - 1 = [0-9.e-]+.* at k=1, c_i=[0-9.e-]+;"):
        w_one(ctx.state_T, 1.0, ctx.torus.ci_at_k1)


@pytest.mark.parametrize("search", ["scan", "roots"])
def test_batched_passes_carry_the_tail_guard(ctx, monkeypatch, search):
    # the scans and root searches go through the same guarded assembly
    monkeypatch.setattr(ray, "_y_cut", lambda state, eps: 0.3)
    with pytest.raises(TailDominance, match=r"at k=1(\.05)?, c_i=[0-9.e-]+;"):
        if search == "scan":
            ray.scan_wronskian(ctx.state_T, [1.05, 1.0])
        else:
            ray.eigenvalues_for_ks(ctx.state_T, [1.0])


def test_tail_guard_asks_phi_to_grow_past_the_cut(couette_state, monkeypatch):
    # on Couette b' is 1.0 everywhere, but at y = 0.01 and c_i = 0.5 phi is
    # still about -ic, so Re(mu/k) is 0.04 and a decaying part could vanish
    # beyond the cut; the guard names the first such channel
    monkeypatch.setattr(ray, "_y_cut", lambda state, eps: 0.01)
    with pytest.raises(TailDominance, match=r"Re\(mu/k\) = 0\.0[0-9e-]*\) at k=1, c_i=0\.5;"):
        ray.wronskian_many(couette_state, [1.0, 1.0], [0.01, 0.5])


def test_w_passes_end_at_the_cut(ctx, monkeypatch):
    # the profile is Couette to rounding from y = 0.94 on at T, so one W pass
    # at k = 1, c_i = 1e-3 stops there (47 steps; 122 to the old window
    # max(20, 12/k)), while the determinant oracle keeps that long window
    state, ends, steps, real = ctx.state_T, [], [], ray.integrate

    def counted(rhs, y0, y1, st0, **kwargs):
        out = real(rhs, y0, y1, st0, **kwargs)
        ends.append(y1)
        steps.append(out[2])
        return out

    monkeypatch.setattr(ray, "integrate", counted)
    w_one(state, 1.0, 1e-3)
    assert ends == [ray._y_cut(state, ray._eps_start(np.array([1e-3])))]
    assert 0.9 < ends[0] < 1.0 and steps[0] <= 60
    oracles.wronskian_det_check(state, 1.0, 1e-3, [-1.0, 1.0])
    ymax = oracles._ymax_for(1.0)
    # qF on both sides (the left as the reflected system, forward to +ymax),
    # then the reference W
    assert ends[1:] == [ymax, ymax, ends[0]]


def test_ir_panels_carry_numpys_12_point_gauss_legendre_rule():
    # the rule is written out so that no command imports numpy.polynomial;
    # it must stay leggauss(12) to the bit, or every I(c) moves
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(12)
    assert np.array_equal(ray._IrPanels.GL_X, x) and np.array_equal(ray._IrPanels.GL_W, w)


def test_ir_blocks_bound_the_log_kernel_and_keep_its_values(ctx):
    # a 400-channel batch (the fixture's two-k scan) holds one block of the
    # log kernel at a time, not the 400 x 492 matrix (3.0 MB), and each row's
    # product is the one-matrix form's to the bit
    panels = ray._IrPanels(ctx.state_T)
    cs = np.tile(np.logspace(math.log10(ray.C_SCAN_LO), math.log10(ray.C_MAX),
                             ray.C_SCAN_POINTS), 2)
    panels.i_r(cs)
    tracemalloc.start()
    try:
        got = panels.i_r(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
    one = np.log(panels.v2[None, :] + cs[:, None] ** 2) @ panels.wgp
    assert np.array_equal(got, -(one + np.array([panels._head(c) for c in cs])))


def _ir_reference(state, c):
    """I(c) = Re of the whole-line integral of (b - ic)^(-2) in 30 digits:
    twice the half line, by quadrature on [0, 10] and the exact Couette tail
    Re 1 / (b(10) - ic) beyond."""
    p = state.params
    with mpmath.workdps(30):
        c = mpmath.mpf(c)
        half = mpmath.mpf(p.M) * mpmath.sqrt(mpmath.pi) / 2
        r1, r2 = mpmath.sqrt(mpmath.mpf(state.s1)), mpmath.sqrt(mpmath.mpf(state.s2))

        def b(y):
            return y + half * (state.amp1 * mpmath.erf(y / r1) - state.amp2 * mpmath.erf(y / r2))

        def re_kernel(y):
            b2 = b(y) ** 2
            return (b2 - c * c) / (b2 + c * c) ** 2

        breaks = sorted({mpmath.mpf(x) for x in (0, "0.01", "0.05", "0.2", 1, 3, 10)}
                        | {c / 10, c, 10 * c})
        b10 = b(mpmath.mpf(10))
        return float(2 * (mpmath.quad(re_kernel, breaks) + b10 / (b10 ** 2 + c * c)))


def test_ir_matches_a_30_digit_quadrature(ctx):
    # the log-kernel panels against a direct quadrature of the c-peaked
    # integrand, on the bumped fixture profile at t = 0 and at T
    for state in (ctx.state_0, ctx.state_T):
        cs = np.array([1e-3, 0.05, 0.5])
        got = ray._IrPanels(state).i_r(cs)
        for c, value in zip(cs, got):
            ref = _ir_reference(state, c)
            assert abs(value - ref) <= 1e-14 * abs(ref)


def test_cut_stays_inside_the_old_window_over_the_validator_ranges():
    # the widest Gaussian and the largest amplitude the validator accepts,
    # at the horizon: the cut is still below 10
    p = FlowParams(1e50, 0.5, 0.5 - 1e-9, 0.5, 1e-3)
    y_cut = ray._y_cut(FlowState(p, p.horizon), ray.EPS_MAX)
    assert 8.0 < y_cut < 10.0
    # Couette: erf(y/sqrt(s1)) = 1.0 alone sets it, at 6 sqrt(s1)
    couette = FlowState(p.with_M(0.0), 0.0)
    assert ray._y_cut(couette, ray.EPS_MAX) == 6.0 * math.sqrt(couette.s1)
    # and never at or below the seed offset
    tiny = FlowState(FlowParams(0.0, 1e-8, 0.02, 0.5, 1e-3), 0.0)
    assert ray._y_cut(tiny, ray.EPS_MAX) == 2.0 * ray.EPS_MAX


def test_one_pass_mixes_far_apart_wave_numbers(ctx):
    # the old window max(20, 12/min k) took the k = 2 channel to y = 240,
    # where phi^2 overflows; the cut is the same for every k
    ks, cs = np.array([0.05, 2.0]), np.array([1e-3, 1e-3])
    w, qe = ray.wronskian_many(ctx.state_T, ks, cs)
    for k, c, wk, q in zip(ks, cs, w, qe):
        alone, q_alone = w_one(ctx.state_T, k, c)
        assert np.isfinite(wk) and abs(wk - alone) <= q + q_alone


@pytest.mark.parametrize("k", [0.1, 1.0, 2.0])
def test_cut_assembly_matches_the_long_window_determinant(ctx, k):
    # wronskian_det_check integrates both half lines to max(20, 12/k) with
    # the old asymptotic tail; its determinants are the oracle for the
    # assembly closed at the cut
    rep = oracles.wronskian_det_check(ctx.state_T, k, 0.01, [-1.5, -0.5, 0.5, 1.5])
    assert np.max(np.abs(rep.dets - rep.W)) <= 1e-7 * max(1.0, abs(rep.W))


def _measured(rep, name):
    return next(c.measured for c in rep.checks if c.name == name)


def test_root_at_reference(ctx):
    rep = ctx.torus
    assert rep.ci_at_k1 is not None
    assert 5.0e-4 <= rep.ci_at_k1 <= 6.0e-4  # frozen regression band
    assert _measured(rep, "root_residual") <= 1e-10 * rep.w_scale


def test_boundary_consistency_with_limit(ctx):
    st = ctx.state_T
    wb, _ = w_one(st, 1.0, 0.0)
    w6, _ = w_one(st, 1.0, 1e-6)
    w3, _ = w_one(st, 1.0, 5e-7)
    richardson = 2.0 * w3 - w6
    assert abs(richardson - wb) <= 1e-4 * abs(wb)


def test_boundary_vanishes_at_kstar(ctx):
    assert _measured(ctx.torus, "boundary_wronskian_at_kstar") <= 1e-4


def test_eigencurve_structure(ctx):
    curve = ctx.curve
    cis = [c for _, c, _ in curve.points]
    assert all(b < a for a, b in zip(cis, cis[1:]))
    assert all(s < 0 for _, s in curve.slope_samples)
    rel = abs(curve.k_zero - ctx.torus.kstarT) / ctx.torus.kstarT
    assert rel <= 1e-3


def test_partials_and_slope_composition(ctx):
    dk, dci = ctx.partials
    g0 = ctx.params.gamma0
    assert -20.0 <= dk <= -1.0 / 20.0
    assert -20.0 <= dci * g0 <= -1.0 / 20.0
    slope_ift = -dk / dci
    k_near, slope_curve = min(ctx.curve.slope_samples, key=lambda t: abs(t[0] - 1.0))
    assert abs(slope_ift - slope_curve) <= 0.2 * abs(slope_curve)


def test_phiB_construction(ctx):
    state = ctx.state_T
    res = lowest_eigenpair(state, want_mode=True)
    mode = ray.neutral_mode_phiB(state, res.kstar, res.ys, res.weights)
    l2 = math.sqrt(np.sum((mode - res.mode) ** 2 * res.weights))
    assert l2 <= 1e-3
    # continuous through the origin: the raw mode is -1/b'(0) there and
    # moves by at most 10 h to its neighbour, h the first mapped cell;
    # normalizing divides both
    _, b1, _, _ = eval_b_derivs(state, 0.0)
    mid = len(mode) // 2
    assert mode[mid] > 0.0
    h = res.ys[mid + 1] - res.ys[mid]
    assert abs(mode[mid - 1] - mode[mid]) <= 10.0 * h * b1 * mode[mid]
    # exponential decay beyond the plateau
    ys = res.ys
    tail = np.abs(ys) >= 1.0 / res.kstar
    envelope = 20.0 * math.sqrt(res.kstar) * np.exp(-res.kstar * np.abs(ys[tail]) / 20.0)
    assert np.all(np.abs(mode[tail]) <= envelope)


def test_phiB_pass_steps(ctx, monkeypatch):
    # the one sampled pass of phiB at T takes at most 600 steps: the mapped
    # nodes are dense only near the origin, where its steps are short anyway,
    # and its quadrature integrand carries no rounding noise for the step
    # control to chase
    res = lowest_eigenpair(ctx.state_T, want_mode=True)
    steps, integrate = [], ray.integrate

    def counted(*args, **kwargs):
        out = integrate(*args, **kwargs)
        steps.append(out[2])
        return out

    monkeypatch.setattr(ray, "integrate", counted)
    ray.neutral_mode_phiB(ctx.state_T, res.kstar, res.ys, res.weights)
    assert len(steps) == 1 and steps[0] <= 600


def test_multiple_roots_detected(monkeypatch, couette_state):
    def fake_many(state, ks, cs):
        cs = np.asarray(cs, float)
        w = np.cos(3.0 * np.log(cs / 1e-8))  # several sign flips
        return w, np.zeros_like(cs)

    monkeypatch.setattr(ray, "wronskian_many", fake_many)
    with pytest.raises(ray.MultipleRoots):
        ray.eigenvalue_for_k(couette_state, 1.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exact_zero_at_a_scan_node_is_one_sign_change(monkeypatch, couette_state, sign):
    # W = sign * (log c - log c_m), exactly 0 at scan node m: the rows
    # [.., 1, 0, -1, ..] and [.., -1, 0, 1, ..].  The one bracket must have
    # the node as an end, which meets the tolerance as it is
    cs = np.logspace(math.log10(ray.C_SCAN_LO), math.log10(ray.C_MAX), ray.C_SCAN_POINTS)
    m = 90

    def fake_many(state, ks, cs_in):
        cs_in = np.asarray(cs_in, float)
        return sign * (np.log(cs_in) - math.log(cs[m])), np.zeros_like(cs_in)

    monkeypatch.setattr(ray, "wronskian_many", fake_many)
    roots, _, w = ray.eigenvalues_for_ks(couette_state, [1.0])
    assert w[0, m] == 0.0
    assert abs(roots[0][0] / cs[m] - 1.0) <= 1e-12


def test_phiB_requires_wide_enough_domain(ctx):
    from viscoshear.errors import TailDominance

    ys = np.linspace(-20.0, 20.0, 513)
    with pytest.raises(TailDominance):
        ray.neutral_mode_phiB(ctx.state_T, 0.1, ys, np.full(len(ys), ys[1] - ys[0]))
