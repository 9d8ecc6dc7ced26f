"""Scenario pipelines: reports, dichotomy, budget failures, determinism."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from viscoshear import calibrate, scenario
from viscoshear import rayleigh as ray
from viscoshear.errors import BracketFailure
from viscoshear.flow import FlowParams, FlowState
from viscoshear.report import json_text, scenario_report_dict
from viscoshear.scenario import run_line_scenario, run_torus_scenario


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


def test_torus_solves_the_crossing_state_once(monkeypatch, cfg):
    # k* = sqrt(M) (1 + 0.05 t / T): tuned to 0.99 at t = 0, crosses 1 inside (0, T)
    params = FlowParams(1.0, 0.15, 0.03, 0.8, 1e-3)
    T = params.horizon
    solved = []

    def kstar(state):
        return math.sqrt(state.params.M) * (1.0 + 0.05 * state.t / T)

    def fake_eigenpair(state, want_mode=True):
        solved.append(state)
        return SimpleNamespace(lambda1=-kstar(state) ** 2, lambda2=0.5, kstar=kstar(state))

    monkeypatch.setattr(calibrate, "lowest_eigenpair", fake_eigenpair)
    monkeypatch.setattr(scenario, "lowest_eigenpair", fake_eigenpair)
    monkeypatch.setattr(calibrate, "_base_lambda1", lambda state: -kstar(state) ** 2)
    # no root at t = T ends the scenario right after the crossing checks
    monkeypatch.setattr(ray, "eigenvalues_for_ks",
                        lambda state, ks: ([None] * len(ks), np.ones(2), np.ones((len(ks), 2))))
    rep = run_torus_scenario(params, cfg.delta, cfg.n_times)
    assert 0.0 < rep.Ttilde < T
    assert next(c for c in rep.checks if c.name == "kstar_at_Ttilde").passed
    assert solved.count(FlowState(params.with_M(rep.M), rep.Ttilde)) == 1
