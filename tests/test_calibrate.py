"""Amplitude calibration: bracket certificates, orderings, thresholds, budgets."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from viscoshear import calibrate, spectrum
from viscoshear.calibrate import find_critical_M0, kstar_time_sweep, tune_M_for_kstar
from viscoshear.errors import BracketFailure, NonConvergence
from viscoshear.flow import FlowParams, FlowState, kappa1
from viscoshear.spectrum import TOL_EIG, lowest_eigenpair

P = FlowParams(1.0, 0.15, 0.03, 0.8, 1e-3)


def test_tune_hits_target(ctx):
    cal_M = ctx.torus.M
    assert abs(ctx.torus.kstar0 - 0.99) <= 1e-6
    # regression band for the tuned amplitude on the frozen fixture
    assert 0.700 <= cal_M <= 0.704


def test_tune_is_deterministic():
    a = tune_M_for_kstar(P, 0.0, 0.99)
    calibrate._lambda_pair.cache_clear()  # re-solve rather than reuse
    b = tune_M_for_kstar(P, 0.0, 0.99)
    assert a == b
    assert abs(a.achieved - 0.99) <= 1e-6


def test_target_outside_calibration_range_rejected(monkeypatch):
    # lambda1 = -M, so k* = sqrt(M) is reachable for any positive target
    monkeypatch.setattr(calibrate, "_lambda1", lambda params, M, t, base=False: -M)
    for target in (1.45, 0.0, -2.0):
        with pytest.raises(ValueError, match="target_kstar"):
            tune_M_for_kstar(P, 0.0, target)
    assert abs(tune_M_for_kstar(P, 0.0, 0.99).achieved - 0.99) <= 1e-6


def test_bracket_certificate(ctx):
    lo, hi = ctx.torus.calibration.bracket  # tune_M_for_kstar(P, 0.0, 0.99)
    k_lo = lowest_eigenpair(FlowState(P.with_M(lo), 0.0), want_mode=False).kstar or 0.0
    k_hi = lowest_eigenpair(FlowState(P.with_M(hi), 0.0), want_mode=False).kstar or 0.0
    assert k_lo < 0.99 < k_hi


def test_amplitude_ordering_with_target(ctx):
    m_low = ctx.torus.M
    m_high = tune_M_for_kstar(P, 0.0, 1.4).M
    assert m_high > m_low


def test_small_target_approaches_threshold(ctx):
    m0 = ctx.line.M  # find_critical_M0(P): the session's line scenario holds it
    m_small = tune_M_for_kstar(P, 0.0, 0.05).M
    assert m0 < m_small < 0.70


def test_bracket_failure_signals_bad_range(monkeypatch):
    monkeypatch.setattr(calibrate, "M_BRACKET", (0.01, 0.02))
    with pytest.raises(BracketFailure):
        tune_M_for_kstar(P, 0.0, 0.99)


def test_critical_M0_properties(ctx):
    rep = ctx.line
    m0 = rep.M
    lam0 = next(c.measured for c in rep.checks if c.name == "critical_M0")
    assert -1e-8 <= lam0 <= 0.0
    assert 3.5e-5 <= m0 <= 4.6e-5  # frozen regression band
    lam_half = lowest_eigenpair(FlowState(P.with_M(m0 / 2), 0.0), want_mode=False)
    assert lam_half.kstar is None
    lam_double = lowest_eigenpair(FlowState(P.with_M(2 * m0), 0.0), want_mode=False)
    assert lam_double.kstar is not None


def test_critical_M0_bracket_straddles(ctx):
    lo, hi = ctx.line.calibration.bracket  # find_critical_M0(P)
    assert hi - lo <= 1e-4 * hi
    lam_lo = lowest_eigenpair(FlowState(P.with_M(lo), 0.0), want_mode=False).lambda1
    lam_hi = lowest_eigenpair(FlowState(P.with_M(hi), 0.0), want_mode=False).lambda1
    assert lam_lo > -1e-8
    assert lam_hi < -0.5e-8


def _spy_ruled(monkeypatch):
    """Route calibrate._ruled through a spy; returns the (M, side) of each ruled step."""
    ruled, rule = [], calibrate._ruled

    def spy(M, M_lin):
        side = rule(M, M_lin)
        if side is not None:
            ruled.append((M, side))
        return side

    monkeypatch.setattr(calibrate, "_ruled", spy)
    return ruled


def test_first_order_rule_takes_five_fixture_steps_on_their_solved_side(ctx, monkeypatch):
    # replay the fixture's bisection on lambda1 = level (M / M0)^2, which puts
    # every midpoint on the side of the level its solve puts it, so the
    # replay retraces the fixture's steps; then solve the ruled midpoints
    cal = ctx.line.calibration  # find_critical_M0(P)
    level = -TOL_EIG / 2.0
    ruled = _spy_ruled(monkeypatch)
    precise, _ = _count_lambda1(monkeypatch, lambda params, M, t, base: level * (M / cal.M) ** 2)
    replay = find_critical_M0(P)
    assert (replay.M, replay.bracket, replay.iterations) == (cal.M, cal.bracket, 19)
    assert [M for M, _ in ruled] == pytest.approx(
        [3.1623e-3, 5.6234e-5, 7.4989e-6, 2.0535e-5, 3.3982e-5], rel=1e-4)
    assert len(set(precise)) == 13 and not set(calibrate.M0_BRACKET) & set(precise)
    monkeypatch.undo()
    for M, bound in ruled:
        lam = lowest_eigenpair(FlowState(P.with_M(M), 0.0), want_mode=False).lambda1
        assert (lam <= level) == bound


@pytest.mark.parametrize("factor", [3.0, 1.0 / 3.0])
def test_misruled_steps_rerun_as_the_plain_bisection(monkeypatch, factor):
    # a decreasing lambda1 whose threshold sits a factor 3 above, then below,
    # the first-order one: a misruled end breaks the straddle once solved, and
    # the bisection reruns with every step solved
    level = -TOL_EIG / 2.0
    M_true = factor * math.sqrt(-level) / kappa1(FlowState(P, 0.0))
    precise, _ = _count_lambda1(monkeypatch, lambda params, M, t, base: level * (M / M_true) ** 2)
    ruled = _spy_ruled(monkeypatch)
    cal = find_critical_M0(P)
    assert any(bound != (M >= M_true) for M, bound in ruled)  # a step took the wrong side
    assert cal.M in precise and cal.achieved == level * (cal.M / M_true) ** 2
    monkeypatch.setattr(calibrate, "_ruled", lambda M, M_lin: None)
    plain = find_critical_M0(P)
    assert (cal.M, cal.bracket, cal.achieved, cal.iterations) == (
        plain.M, plain.bracket, plain.achieved, plain.iterations)
    lo, hi = cal.bracket
    assert lo < M_true <= hi and hi - lo <= 1e-4 * hi


@pytest.mark.parametrize("offset", [0.08, -0.08])
def test_threshold_inside_the_margin_is_the_plain_bisections(monkeypatch, offset):
    # a smooth lambda1 whose threshold sits e^(+-0.08) from the first-order
    # one, inside the rule's margin of 0.1 in ln M: every ruled step takes
    # its true side, so the ruled pass certifies the plain bisection's M0
    level = -TOL_EIG / 2.0
    M_true = math.exp(offset) * math.sqrt(-level) / kappa1(FlowState(P, 0.0))
    precise, _ = _count_lambda1(monkeypatch, lambda params, M, t, base: level * (M / M_true) ** 2)
    ruled = _spy_ruled(monkeypatch)
    cal = find_critical_M0(P)
    assert ruled and all(bound == (M >= M_true) for M, bound in ruled)
    assert not set(calibrate.M0_BRACKET) & set(precise)  # a rerun would solve the ends
    monkeypatch.setattr(calibrate, "_ruled", lambda M, M_lin: None)
    plain = find_critical_M0(P)
    assert (cal.M, cal.bracket, cal.achieved, cal.iterations) == (
        plain.M, plain.bracket, plain.achieved, plain.iterations)


def test_unsolvable_bracket_ends_leave_the_certified_threshold(monkeypatch):
    # the ruled pass never solves an M0_BRACKET end, so ends whose eigensolve
    # cannot converge do not stop a threshold that its final bracket certifies
    level = -TOL_EIG / 2.0
    M_true = math.sqrt(-level) / kappa1(FlowState(P, 0.0))

    def lambda1(params, M, t, base):
        if M in calibrate.M0_BRACKET:
            raise NonConvergence(f"no eigenvalue at M = {M:g}")
        return level * (M / M_true) ** 2

    _count_lambda1(monkeypatch, lambda1)
    cal = find_critical_M0(P)
    lo, hi = cal.bracket
    assert lo < M_true <= hi and hi - lo <= 1e-4 * hi
    assert cal.M == hi and cal.achieved == level * (hi / M_true) ** 2


def test_threshold_bisection_that_does_not_shrink_raises(monkeypatch):
    # three steps leave the bracket far wider than 1e-4 M0: no threshold
    level = -TOL_EIG / 2.0
    M_true = math.sqrt(-level) / kappa1(FlowState(P, 0.0))
    _count_lambda1(monkeypatch, lambda params, M, t, base: level * (M / M_true) ** 2)
    monkeypatch.setattr(calibrate, "M0_MAX_ITER", 3)
    with pytest.raises(NonConvergence, match="^find_critical_M0: bracket did not shrink$"):
        find_critical_M0(P)


def test_crossing_on_a_step_raises_at_the_rounding_level_bracket():
    # k* jumps across the target at x = 0.5: the bracket shrinks to rounding
    # level around the jump with |k* - target| = 1 left at its last point
    with pytest.raises(NonConvergence, match=r"^step: \|k\* - 1\| > 1e-06 on a rounding-level"):
        calibrate._crossing(lambda x: 0.0 if x < 0.5 else 2.0, (0.0, 1.0), (0.0, 2.0), 1.0,
                            "step")


def test_kappa1_closed_forms_on_the_fixture():
    g1, g2 = P.gamma1, P.gamma2
    p = P.with_M(4.1279831420292519e-05)
    k0, kT = kappa1(FlowState(p, 0.0)), kappa1(FlowState(p, p.horizon))
    root_pi_M = math.sqrt(math.pi) * p.M
    assert k0 == pytest.approx(root_pi_M * (1.0 - g1 * g2), rel=1e-15)
    assert kT == pytest.approx(root_pi_M * (1.0 / (1.0 + 4.0 * g1 ** 2) - g1 * g2 / 5.0),
                               rel=1e-15)
    assert kT / k0 == pytest.approx(1.0159968, abs=5e-8)  # R = kappa1(T) / kappa1(0)


def test_kappa1_is_the_shot_decay_rate_to_first_order():
    # the law the threshold rule rests on: the Jost-shot kappa of the weakly
    # bound state differs from kappa1 by O(M^2) from the fixture's M0 to 1e-3,
    # and at M0 by Simon's second-order term
    Ms = np.geomspace(4.1279831420292519e-05, 1e-3, 5)
    for t in (0.0, P.horizon):
        states = [FlowState(P.with_M(M), t) for M in Ms]
        first = np.array([kappa1(state) for state in states])
        gap = oracles.jost_kappa(states, first) - first
        assert np.polyfit(np.log(Ms), np.log(np.abs(gap)), 1)[0] == pytest.approx(2.0, abs=0.2)
        assert gap[0] / Ms[0] ** 2 == pytest.approx(oracles.kappa_second_order(states[0]), rel=1e-3)


def test_sweep_monotone_and_crossing(ctx):
    rep = ctx.torus
    ks = rep.curve.kstars
    assert all(k is not None for k in ks)
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    assert rep.Ttilde is not None
    assert 0.0 < rep.Ttilde < rep.T
    assert ks[0] < 1.0 < ks[-1]
    # regression bands on the frozen fixture
    assert 1.004 <= rep.kstarT <= 1.006
    assert 0.15 <= rep.Ttilde / rep.T <= 0.30


def test_nu_enters_only_through_nu_t(ctx):
    # nu enters only through 4*nu*t: the tune runs at t = 0, so the tuned M
    # holds for any nu, and doubling nu halves T and every sample time
    # exactly, so every k*(t_j) and Ttilde/T keeps its bits
    rep, cfg, p = ctx.torus, ctx.cfg, ctx.params
    p2 = FlowParams(p.M, p.gamma0, p.gamma1, p.gamma2, 2.0 * p.nu)
    curve = kstar_time_sweep(rep.M, p2, cfg.n_times)
    assert curve.T == rep.T / 2.0
    assert curve.kstars == rep.curve.kstars
    assert curve.Ttilde / curve.T == rep.Ttilde / rep.T


def test_sweep_couette_all_absent(couette_state):
    curve = kstar_time_sweep(0.0, couette_state.params, 8)
    assert all(k is None for k in curve.kstars)
    assert curve.Ttilde is None


def test_sweep_requires_enough_samples():
    with pytest.raises(ValueError):
        kstar_time_sweep(0.7, P, 5)


def test_truncation_independence(ctx, monkeypatch):
    # same k* on a wider box; the session's torus is solved on the default one
    m, kstar0 = ctx.torus.M, ctx.torus.kstar0
    monkeypatch.setattr(spectrum, "HALF_WIDTH", 24.0)
    k_wide = lowest_eigenpair(FlowState(P.with_M(m), 0.0), want_mode=False).kstar
    assert abs(k_wide - kstar0) <= 1e-6


def _count_lambda1(monkeypatch, lambda1):
    """Route calibrate._lambda1 through ``lambda1`` and record the M of each call.

    Returns (precise, base): the amplitudes of the converged solves and of
    the base-grid solves, in call order.
    """
    precise, base_calls = [], []

    def counted(params, M, t, base=False):
        (base_calls if base else precise).append(M)
        return lambda1(params, M, t, base)

    monkeypatch.setattr(calibrate, "_lambda1", counted)
    return precise, base_calls


def _offset_lambda1(eps):
    """lambda1 = -M converged, so k* = sqrt(M); base-grid k* is (1 + eps) sqrt(M)."""
    return lambda params, M, t, base: -M * ((1.0 + eps) ** 2 if base else 1.0)


def test_tune_converges_superlinearly(monkeypatch):
    # lambda1 = -M: k* = sqrt(M), smooth and monotone like the real one
    precise, base = _count_lambda1(monkeypatch, _offset_lambda1(0.0))
    cal = tune_M_for_kstar(P, 0.0, 0.99)
    assert abs(cal.achieved - 0.99) <= 1e-6
    assert cal.M in precise  # the reported M is one that was solved
    assert len(base) <= 10  # locate: two bracket ends plus its iterations
    assert len(precise) <= 4  # finish: two window ends plus its iterations
    assert cal.iterations == len(precise) - 2
    lo, hi = cal.bracket
    assert math.sqrt(lo) < 0.99 < math.sqrt(hi)


@pytest.mark.parametrize("eps", [1e-5, 1e-2, 0.2, -0.2])
def test_tune_finishes_on_converged_solves(monkeypatch, eps):
    precise, base = _count_lambda1(monkeypatch, _offset_lambda1(eps))
    cal = tune_M_for_kstar(P, 0.0, 0.99)
    assert abs(math.sqrt(cal.M) - 0.99) <= 1e-6  # converged k*, not the base grid's
    assert cal.achieved == math.sqrt(cal.M)
    lo, hi = cal.bracket
    assert lo in precise and hi in precise
    assert math.sqrt(lo) < 0.99 < math.sqrt(hi)
    assert cal.iterations == len(precise) - 2
    if abs(eps) <= 1e-5:  # the first window straddles and its midpoint lands
        assert len(precise) <= 3


def test_tune_base_grid_straddle_alone_is_a_bracket_failure(monkeypatch):
    # converged k*(0.9) = 0.949 < 0.99 < base-grid k*(0.9) = 1.138
    precise, base = _count_lambda1(monkeypatch, _offset_lambda1(0.2))
    monkeypatch.setattr(calibrate, "M_BRACKET", (0.01, 0.9))
    with pytest.raises(BracketFailure):
        tune_M_for_kstar(P, 0.0, 0.99)
    assert base  # the base grid located a root
    assert precise.count(pytest.approx(0.01, rel=1e-12)) == 1  # both ends solved
    assert precise.count(pytest.approx(0.9, rel=1e-12)) == 1


def test_tune_converged_straddle_alone_converges(monkeypatch):
    # base-grid k*(1.2) = 0.876 < 0.99 < converged k*(1.2) = 1.095
    precise, base = _count_lambda1(monkeypatch, _offset_lambda1(-0.2))
    monkeypatch.setattr(calibrate, "M_BRACKET", (0.01, 1.2))
    cal = tune_M_for_kstar(P, 0.0, 0.99)
    assert len(base) == 2  # the two ends only; locating is skipped
    assert abs(cal.achieved - 0.99) <= 1e-6
    lo, hi = cal.bracket
    assert math.sqrt(lo) < 0.99 < math.sqrt(hi)
    assert cal.iterations == len(precise) - 2


def test_tune_rejects_non_straddling_bracket(monkeypatch):
    precise, base = _count_lambda1(monkeypatch, _offset_lambda1(0.0))
    monkeypatch.setattr(calibrate, "M_BRACKET", (0.01, 0.5))
    with pytest.raises(BracketFailure):
        tune_M_for_kstar(P, 0.0, 0.99)
    assert len(precise) == 2  # only the two ends were solved


def test_tune_gives_up_after_max_iter(monkeypatch):
    _count_lambda1(monkeypatch, _offset_lambda1(0.0))
    monkeypatch.setattr(calibrate, "MAX_ITER", 1)
    with pytest.raises(NonConvergence, match="base grid"):
        tune_M_for_kstar(P, 0.0, 0.99)


def test_tune_finish_gives_up_after_max_iter(monkeypatch):
    # the base grid meets TOL_CAL at the lower bracket end without iterating;
    # the converged k*, 1 % lower, needs more than one finishing iteration
    _count_lambda1(monkeypatch, _offset_lambda1(0.01))
    lo = (0.99 / 1.01) ** 2 * (1.0 - 1e-7)
    monkeypatch.setattr(calibrate, "M_BRACKET", (lo, 100.0))
    monkeypatch.setattr(calibrate, "MAX_ITER", 1)
    with pytest.raises(NonConvergence, match="tune_M_for_kstar:"):
        tune_M_for_kstar(P, 0.0, 0.99)


@pytest.mark.parametrize("miss", [0.0, 1e-30])
def test_window_without_interior_falls_back_to_symmetric(miss):
    # converged k* misses the target at x1 by nothing, or by far less than
    # the resolution of x1: the corrected window x1 .. x1 - 2r/s is one point
    def precise(x):
        return x - 1.0 + miss

    lo, hi = calibrate._window(precise, lambda x: x, 1.0, 1.0, (-5.0, 5.0), 0.0)
    assert (lo, hi) == (1.0 - calibrate.WINDOW, 1.0 + calibrate.WINDOW)
    assert precise(lo) < 0.0 < precise(hi)


def test_window_miss_finishes_over_the_whole_bracket(monkeypatch):
    # base-grid k* = M^1.5 is three times steeper in log M than converged
    # k* = sqrt(M), so the corrected first window stops short of the root
    # at log M = 2 log 0.99; the finish runs over M_BRACKET instead
    def precise(x):
        return math.exp(x / 2.0) - 0.99

    ends = tuple(map(math.log, calibrate.M_BRACKET))
    x1 = 2.0 / 3.0 * math.log(0.99)
    assert calibrate._window(precise, lambda x: math.exp(1.5 * x), x1, 0.99, ends, 0.0) == ends
    precise_Ms, _ = _count_lambda1(monkeypatch, lambda params, M, t, base: -M ** (3 if base else 1))
    cal = tune_M_for_kstar(P, 0.0, 0.99)
    assert abs(cal.achieved - 0.99) <= calibrate.TOL_CAL
    # x1 and the window's missed low end, then both ends of M_BRACKET
    assert precise_Ms[2:4] == pytest.approx(calibrate.M_BRACKET, rel=1e-12)


def test_crossing_search_reuses_sweep_samples(monkeypatch):
    T = P.horizon
    solved = []

    def fake_eigenpair(state, want_mode=True):
        solved.append(state.t)
        k = 0.99 + 0.03 * (1.0 - math.exp(-3.0 * state.t / T))
        return SimpleNamespace(lambda1=-k * k, lambda2=0.5, kstar=k)

    monkeypatch.setattr(calibrate, "lowest_eigenpair", fake_eigenpair)
    n_times = 9
    curve = kstar_time_sweep(0.7, P, n_times)
    samples = set(curve.times.tolist())
    assert solved[:n_times] == curve.times.tolist()
    assert not samples & set(solved[n_times:])  # no sample time is solved twice
    assert len(solved) <= n_times + 4
    t_cross = -T * math.log(1.0 - 1.0 / 3.0) / 3.0
    assert abs(curve.Ttilde - t_cross) <= 1e-6 * T


def test_fixture_eigensolve_budget(monkeypatch):
    solves = []
    eigenpair = calibrate.lowest_eigenpair

    def counted(*args, **kwargs):
        solves.append(args[0].t)
        return eigenpair(*args, **kwargs)

    monkeypatch.setattr(calibrate, "lowest_eigenpair", counted)
    cal = tune_M_for_kstar(P, 0.0, 0.99)
    assert abs(cal.achieved - 0.99) <= calibrate.TOL_CAL
    assert len(solves) <= 3
    solves.clear()
    curve = kstar_time_sweep(cal.M, P, 9)
    assert curve.Ttilde is not None
    assert len(solves) <= 9 + 4


def test_fixture_tune_stays_off_the_uniform_ladder(monkeypatch):
    # the base grid is mapped rung 0 for every state, so the fixture's M = 0.01
    # bracket end is one Neumann index call: no uniform rung, no brentq closure
    uniform = []

    def spy(name):
        real = getattr(spectrum, name)
        return lambda *args: uniform.append(name) or real(*args)

    for name in ("_level", "_selfconsistent_box"):
        monkeypatch.setattr(spectrum, name, spy(name))
    cal = tune_M_for_kstar(P, 0.0, 0.99)
    assert abs(cal.achieved - 0.99) <= calibrate.TOL_CAL
    assert uniform == []


def test_sweep_reuses_tuned_state(monkeypatch):
    solved = []
    eigenpair = calibrate.lowest_eigenpair

    def counted(state, *args, **kwargs):
        res = eigenpair(state, *args, **kwargs)
        solved.append((state, res.lambda1))
        return res

    monkeypatch.setattr(calibrate, "lowest_eigenpair", counted)
    cal = tune_M_for_kstar(P, 0.0, 0.99)
    curve = kstar_time_sweep(cal.M, P, 9)
    tuned = FlowState(P.with_M(cal.M), 0.0)
    lam_tuned = [lam for state, lam in solved if state == tuned]
    assert len(lam_tuned) == 1  # solved by the tune, reused by the sweep
    assert curve.lambda1s[0] == lam_tuned[0]
