"""Scenario pipelines: reports, dichotomy, budget failures, determinism, and
the neutral mode's profile check."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from viscoshear import calibrate, scenario
from viscoshear import rayleigh as ray
from viscoshear.errors import BracketFailure
from viscoshear.flow import FlowParams, FlowState
from viscoshear.report import json_text, scenario_report_dict
from viscoshear.scenario import _fit_min_C, profile_checked, run_line_scenario, run_torus_scenario
from viscoshear.spectrum import SpectralResult


def test_torus_report_passes_on_reference(ctx):
    rep = ctx.torus
    assert rep.all_passed
    assert rep.kstar0 < 1.0 < rep.kstarT
    assert 0.0 < rep.Ttilde < rep.T
    assert rep.ci_at_k1 > 0.0
    assert rep.slope_at_k1 < 0.0


def test_every_check_carries_value_and_band(ctx):
    d = scenario_report_dict(ctx.torus)
    assert d["kind"] == "torus"
    for c in d["checks"]:
        assert set(c) == {"name", "passed", "measured", "band", "note"}


def test_dichotomy_ordering(ctx):
    # the checks run in time order: no root up to Ttilde, a root after it
    dichotomy = [c for c in ctx.torus.checks if c.name.startswith("dichotomy_t")]
    want_root = [c.note == "expect root" for c in dichotomy]
    assert want_root == sorted(want_root) and 0 < sum(want_root) < len(want_root)
    for c, root in zip(dichotomy, want_root):
        assert c.passed and c.note == ("expect root" if root else "expect no root")
        assert c.measured > 0.0 if root else c.measured is None


def test_dichotomy_grid_names_each_time_once():
    # the probe Ttilde - 0.02 T lands 3e-5 T past the grid time T/6 and prints
    # as it, so it adds no second check of that name
    T, ttilde = 1.0, 1.0 / 6.0 + 0.02 + 3e-5
    grid = scenario._dichotomy_grid(T, ttilde)
    times = list(grid.values())
    assert list(grid) == [f"dichotomy_t{t / T:.4f}T" for t in times]
    assert times == sorted(set(times)) and len(times) == 8
    assert grid["dichotomy_t0.1667T"] == np.linspace(0.0, T, 7)[1]
    assert grid["dichotomy_t0.2067T"] == ttilde + 0.02 * T


def test_mismatched_delta_flags_budget(cfg):
    rep = run_torus_scenario(cfg.params(), delta=0.2, n_times=8)
    assert not rep.all_passed
    assert rep.kstarT < 1.0
    budget = next(c for c in rep.checks if c.name == "transition_budget_sufficient")
    assert not budget.passed
    why = "k*(T) - k*(0) = 0.01236: k* reaches 1 by T only for delta below about 0.01236"
    assert budget.note == f"transition budget insufficient; {why}"
    ttilde = next(c for c in rep.checks if c.name == "Ttilde_inside")
    assert not ttilde.passed
    assert ttilde.note == f"no crossing of k* = 1; {why}"


def test_slope_stencil_fits_below_kstarT(cfg):
    # delta = 0.0137 leaves k*(T) - 1 = 1.44e-3, under the fixed dk = 2e-3 of
    # the fixture: the stencil k = 1 +/- dk shrinks to half of k*(T) - 1
    rep = run_torus_scenario(cfg.params(), delta=0.0137, n_times=cfg.n_times)
    assert 0.0 < rep.kstarT - 1.0 < 2e-3
    assert rep.all_passed and len(rep.checks) == 25
    assert rep.slope_at_k1 < 0.0


def test_falling_kstar_names_the_monotone_regime(ctx):
    # gamma1/gamma2 = 0.075: k*(t) peaks before T; delta = 0.1 keeps k* below
    # 1, so the run ends at the crossing search
    rep = run_torus_scenario(FlowParams(1.0, 0.15, 0.06, 0.8, 1e-3), delta=0.1, n_times=8)
    mono = next(c for c in rep.checks if c.name == "kstar_nondecreasing")
    assert not mono.passed and mono.measured < 0.0
    assert mono.note == ("gamma1/gamma2 = 0.075; k*(t) was measured monotone only for "
                         "gamma1/gamma2 <= 0.045 (README, calibrate)")
    assert next(c for c in ctx.torus.checks if c.name == "kstar_nondecreasing").note == ""


def test_line_report_structure(ctx):
    rep = ctx.line
    names = [c.name for c in rep.checks]
    assert names == ["critical_M0", "kstar_absent_t0", "kstar_present_T",
                     "kstarT_over_g1g2", "root_at_half_kstarT"]
    assert next(c for c in rep.checks if c.name == "kstar_absent_t0").passed
    assert next(c for c in rep.checks if c.name == "kstar_present_T").note == (
        "first order: kappa1(0) = 7.141060e-05 and kappa1(T) = 7.255294e-05 give "
        "R^2 = 1.0322496; the check needs R^2 >= 2 at M0")


def test_line_records_a_threshold_bracket_failure(monkeypatch, cfg):
    # lambda1 below the level at both bracket ends: no threshold to bisect for
    monkeypatch.setattr(calibrate, "_lambda1", lambda params, M, t, base=False: -1.0)
    with pytest.raises(BracketFailure, match="does not straddle"):
        calibrate.find_critical_M0(cfg.params(M=1.0))
    rep = run_line_scenario(cfg.params(M=1.0))
    assert [(c.name, c.passed) for c in rep.checks] == [("critical_M0", False)]
    assert rep.checks[0].note.startswith("BracketFailure: lambda1 does not straddle")
    assert rep.calibration is None


def test_line_scenario_deterministic(ctx, cfg):
    rep2 = run_line_scenario(cfg.params())
    assert json_text(scenario_report_dict(rep2)) == json_text(scenario_report_dict(ctx.line))


def test_report_serialization_roundtrip(ctx):
    import json

    text = json_text(scenario_report_dict(ctx.torus))
    parsed = json.loads(text)
    assert parsed["all_passed"] is True
    assert parsed["Ttilde"] == ctx.torus.Ttilde
    # 17 significant digits round-trip the stored doubles exactly
    assert parsed["ci_at_k1"] == ctx.torus.ci_at_k1


P = FlowParams(1.0, 0.15, 0.03, 0.8, 1e-3)


def _fake_kstar(state):
    """k* = sqrt(M) (1 + 0.05 t / T): tuned to 0.99 at t = 0, crosses 1 inside (0, T)."""
    return math.sqrt(state.params.M) * (1.0 + 0.05 * state.t / P.horizon)


def _fake_eigensolves(monkeypatch):
    """Route calibrate's and scenario's eigensolves to ``_fake_kstar``; the
    states solved, in call order."""
    solved = []

    def fake_eigenpair(state, want_mode=True):
        solved.append(state)
        return SimpleNamespace(lambda1=-_fake_kstar(state) ** 2, lambda2=0.5,
                               kstar=_fake_kstar(state))

    monkeypatch.setattr(calibrate, "lowest_eigenpair", fake_eigenpair)
    monkeypatch.setattr(scenario, "lowest_eigenpair", fake_eigenpair)
    monkeypatch.setattr(calibrate, "_base_lambda1", lambda state: -_fake_kstar(state) ** 2)
    return solved


def test_torus_solves_the_crossing_state_once(monkeypatch, cfg):
    solved = _fake_eigensolves(monkeypatch)
    # no root at t = T ends the scenario right after the crossing checks
    monkeypatch.setattr(ray, "eigenvalues_for_ks",
                        lambda state, ks: ([None] * len(ks), np.ones(2), np.ones((len(ks), 2))))
    rep = run_torus_scenario(P, cfg.delta, cfg.n_times)
    assert 0.0 < rep.Ttilde < P.horizon
    assert next(c for c in rep.checks if c.name == "kstar_at_Ttilde").passed
    assert solved.count(FlowState(P.with_M(rep.M), rep.Ttilde)) == 1


def test_torus_names_the_missing_slope_roots(monkeypatch, cfg):
    # a root at k = 1 and none at 1 -/+ dk: no slope, and the check says why;
    # the scenario goes on to the stable probes and the dichotomy
    _fake_eigensolves(monkeypatch)
    monkeypatch.setattr(ray, "eigenvalues_for_ks", lambda state, ks: (
        [(1e-3, 0.0)] + [None] * (len(ks) - 1), np.ones(2), np.ones((len(ks), 2))))
    monkeypatch.setattr(ray, "eigenvalue_for_k",
                        lambda state, k: (1e-3, 0.0) if k < _fake_kstar(state) else None)
    monkeypatch.setattr(scenario, "lowest_eigenpair",
                        lambda state, want_mode=True: SimpleNamespace(kstar=None))
    rep = run_torus_scenario(P, cfg.delta, cfg.n_times)
    assert rep.ci_at_k1 == 1e-3 and rep.slope_at_k1 is None
    checks = {c.name: c for c in rep.checks}
    assert checks["slope_band"] == scenario.Check("slope_band", False, None, None,
                                                  "roots at k = 1 +/- dk not found")
    assert checks["no_root_k1.5"].passed and checks["no_root_k2"].passed
    assert all(c.passed for name, c in checks.items() if name.startswith("dichotomy_t"))


@pytest.mark.parametrize("root", [(3e-4, 1e-12), None], ids=["root", "no_root"])
def test_line_measures_a_resolved_kstarT(monkeypatch, root):
    # at the threshold k*(T) stays unresolved on every config the validator
    # accepts (R^2 <= 1.097, and the check needs 2); with fakes that resolve
    # it, the last two checks measure k*(T) / (gamma1 gamma2) and search for
    # a root at half of k*(T)
    k_T, asked = 0.02, []
    cal = calibrate.CalibrationResult(M=4e-5, achieved=-5e-9, iterations=0,
                                      bracket=(3.9999e-5, 4e-5))
    monkeypatch.setattr(scenario, "find_critical_M0", lambda p: cal)
    monkeypatch.setattr(scenario, "lowest_eigenpair", lambda state, want_mode=True:
                        SimpleNamespace(lambda1=-k_T ** 2, kstar=k_T))
    monkeypatch.setattr(ray, "eigenvalue_for_k", lambda state, k: asked.append((state, k)) or root)
    rep = run_line_scenario(P)
    assert [(c.name, c.passed, c.measured) for c in rep.checks[2:]] == [
        ("kstar_present_T", True, -k_T ** 2),
        ("kstarT_over_g1g2", True, k_T / (P.gamma1 * P.gamma2)),
        ("root_at_half_kstarT", root is not None, root and root[0])]
    assert asked == [(FlowState(P.with_M(cal.M), P.horizon), k_T / 2.0)]


def test_profile_checks_at_t0(ctx):
    # the fixture's t = 0 and T modes pass with the fitted C, bit for bit
    check = profile_checked("profile_checks_t0", ctx.mode_0, ctx.state_0)
    assert (check.passed, check.measured, check.band, check.note) == (
        True, 2.6782686041287787, (1.0, 20.0), "")
    check = next(c for c in ctx.torus.checks if c.name == "profile_checks")
    assert (check.passed, check.measured, check.note) == (True, 2.683703865333369, "")


# a state to cut the synthetic modes at: Y_c = 0.94, so their decay rate
# is fitted on 0.94 < y < 20
CUT_STATE = FlowState(FlowParams(0.7, 0.15, 0.03, 0.8, 1e-3), 0.0)


def _mode(kstar, rate, reshape=lambda ys, u: u):
    """sqrt(k*) exp(-rate |y|) on nodes mirrored about 0, as ``spectrum`` lays
    them out on [-20, 20], after ``reshape(ys, u)``."""
    y = np.linspace(0.0, 20.0, 2001)
    ys = np.concatenate((-y[:0:-1], y))
    u = math.sqrt(kstar) * np.exp(-rate * np.abs(ys))
    return SpectralResult(-kstar ** 2, 0.0, kstar, reshape(ys, u), ys, None, None)


def test_profile_check_fits_the_exact_decay():
    # e^{-k|y|} meets the envelope with C = 1, and the plateau asks u(1/k) >= sqrt(k)/C
    for kstar in (0.5, 1.0, 4.0):
        check = profile_checked("p", _mode(kstar, kstar), CUT_STATE)
        assert check.passed and check.note == ""
        assert abs(check.measured - math.e) <= 1e-9


def _odd_part(ys, u):
    u = u.copy()
    u[ys < 0.0] *= 1.0 + 1e-6  # y >= 0 untouched, so only evenness breaks
    return u


def _negative_ends(ys, u):
    u = u.copy()
    u[[0, -1]] *= -1.0  # the node pair at |y| = 20: the mode stays even
    return u


def _bump(ys, u):
    return u + 1e-3 * np.exp(-((np.abs(ys) - 8.0) / 0.2) ** 2)


@pytest.mark.parametrize("kstar, rate, reshape, reason", [
    (1.0, 1.0, _odd_part, "even defect 9.9e-07 >= 1e-8"),
    (1.0, 1.0, _negative_ends, "minimum -2.06e-09 <= 0"),
    (1.0, 1.0, _bump, "largest rise on y >= 0 3.9e-05 > 1e-10 u(0)"),
    # decay 1000 times too slow: on [-20, 20] it needs C of about 24, and
    # the fitted rate of ln u, k*/1000, fails too: this mode names two tests
    (4.0, 4e-3, lambda ys, u: u,
     "fitted C 24.4 > 20; decay rate past Y_c 0.004 off k* = 4 by > 1e-2"),
    # no decay, or 1000 times too slow, at k* = 1: C = 9.07 and 9.01 fit the
    # envelope on [-20, 20], so only the fitted rate of ln u sees the tail
    (1.0, 0.0, lambda ys, u: u, "decay rate past Y_c 0 off k* = 1 by > 1e-2"),
    (1.0, 1e-3, lambda ys, u: u, "decay rate past Y_c 0.001 off k* = 1 by > 1e-2"),
], ids=["mirror_odd", "negative_node", "bump", "slow_tail", "flat", "slow_at_kstar_1"])
def test_profile_check_names_its_one_failed_test(kstar, rate, reshape, reason):
    check = profile_checked("p", _mode(kstar, rate, reshape), CUT_STATE)
    assert not check.passed
    assert check.note == reason
    assert check.band == (1.0, 20.0)


def test_decay_rate_is_fitted_past_the_cut_and_below_the_edge():
    # a rate 1.1 % off k* fails and 0.9 % off passes; what u does at or below
    # Y_c, or at the box's edge Y, does not reach the fit
    for rate, passed in ((0.989, False), (1.011, False), (0.991, True), (1.009, True)):
        assert profile_checked("p", _mode(1.0, rate), CUT_STATE).passed == passed

    def kinked(ys, u):  # decays at 2 k* inside the cut
        inside = np.abs(ys) <= 0.9
        return np.where(inside, np.exp(-2.0 * np.abs(ys) + 0.9), u)

    check = profile_checked("p", _mode(1.0, 1.0, kinked), CUT_STATE)
    assert "decay rate" not in check.note
    check = profile_checked("p", _mode(1.0, 1.0, _negative_ends), CUT_STATE)
    assert "decay rate" not in check.note


def test_profile_check_needs_a_bound_mode():
    unbound = SpectralResult(-1e-9, 0.0, None, None, None, None, None)
    no_mode = SpectralResult(-1.0, 0.0, 1.0, None, None, None, None)
    for result in (unbound, no_mode):
        with pytest.raises(ValueError, match="bound state with its mode"):
            profile_checked("p", result, CUT_STATE)


def test_fit_min_C_bisects_to_the_threshold():
    assert _fit_min_C(lambda C: True) == 1.0
    assert _fit_min_C(lambda C: C >= 2e6) == math.inf
    assert _fit_min_C(lambda C: C >= 24.0, hi=20.0) == math.inf
    for c0 in (1.5, 7.3, 9e5):
        fitted = _fit_min_C(lambda C: C >= c0)
        assert c0 <= fitted <= c0 * (1.0 + 1e-12)
