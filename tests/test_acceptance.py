"""The acceptance gate: one test per criterion, at the stated tolerances.

Each test prints its criterion's pass/fail line and asserts every check.
Criterion 9's threshold-amplitude sub-checks are expected to fail at desk
scale (see the ``_lowest_two`` FOUND entry in CHANGES.md and ROADMAP item
4): the eigenvalue at the threshold amplitude is quadratically small in M,
so the diffusion-induced shift sits below the spectral resolution and the
stated band is out of reach; the test states the criterion faithfully and
reports the measured values.
"""

import numpy as np
import pytest

from viscoshear import acceptance as acc
from viscoshear import rayleigh as ray
from viscoshear import scenario
from viscoshear.calibrate import CalibrationResult
from viscoshear.errors import BracketFailure, NonConvergence
from viscoshear.rayleigh import EigenCurve


def _run(ctx, criterion, number):
    results = criterion(ctx)
    ok = all(r.passed for r in results)
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}]")
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"    [{mark}] {r.name}: measured={r.measured} band={r.band} {r.note}")
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"criterion {number} failed checks: {failed}"


def test_criterion_01_closed_form_fidelity(ctx):
    _run(ctx, acc.criterion_1, 1)


def test_criterion_02_couette_oracle(ctx):
    _run(ctx, acc.criterion_2, 2)


def test_criterion_03_h1_identity(ctx):
    _run(ctx, acc.criterion_3, 3)


def test_criterion_04_spectral_structure(ctx):
    _run(ctx, acc.criterion_4, 4)


def test_criterion_05_transition(ctx):
    _run(ctx, acc.criterion_5, 5)


def test_criterion_06_unstable_eigenvalue(ctx):
    _run(ctx, acc.criterion_6, 6)


def test_criterion_07_implicit_curve(ctx):
    _run(ctx, acc.criterion_7, 7)


def test_criterion_08_cross_solver_consistency(ctx):
    _run(ctx, acc.criterion_8, 8)


def test_criterion_09_whole_line_scenario(ctx):
    _run(ctx, acc.criterion_9, 9)


def test_criterion_10_bound_suites(ctx):
    _run(ctx, acc.criterion_10, 10)


def test_criterion_10_makes_one_pass_per_state(ctx, monkeypatch):
    # phi1 and phi2 share one sampled pass, so two states take two passes
    from viscoshear import rayleigh as ray

    ctx.torus  # the root the suites are built at, computed outside the count
    calls = []
    real = ray.integrate

    def spy(*args, **kwargs):
        calls.append(kwargs["samples"])
        return real(*args, **kwargs)

    monkeypatch.setattr(ray, "integrate", spy)
    acc.criterion_10(ctx)
    assert len(calls) == len(ctx.suite_states) == 2 and all(s for s in calls)


def test_bound_suites(ctx):
    ys = np.linspace(-20.0, 20.0, 401)
    state = ctx.state_T
    ci = ctx.torus.ci_at_k1
    sol = ray.solve_phi(state, 1.0, ci, ys)
    constants, signs_ok = acc.bound_report(state, sol)
    assert signs_ok
    assert len(constants) == 9  # A4 to A13, A8 and A9 fitted as one
    assert all(c <= 50.0 for c in constants.values())
    assert constants["A4_envelope"] <= 10.0


def test_criterion_11_determinism(ctx):
    _run(ctx, acc.criterion_11, 11)


def test_criterion_11_without_pythonpath(ctx, monkeypatch):
    # the CLI child process must find the package by itself
    monkeypatch.delenv("PYTHONPATH", raising=False)
    _run(ctx, acc.criterion_11, 11)


def test_criteria_name_where_the_torus_stopped(cfg, monkeypatch):
    # a torus stopped at its calibration leaves criteria 4-8 and 10 without
    # inputs: each returns only failed checks that name the stage
    def fail(*args):
        raise BracketFailure("no straddle")

    monkeypatch.setattr(scenario, "tune_M_for_kstar", fail)
    ctx = acc.AcceptanceContext(cfg)
    assert [c.name for c in ctx.torus.checks] == ["calibration"]
    for criterion in (acc.criterion_4, acc.criterion_5, acc.criterion_6, acc.criterion_7,
                      acc.criterion_8, acc.criterion_10):
        checks = criterion(ctx)
        assert checks and not any(c.passed for c in checks)
        assert all("torus stopped at calibration: BracketFailure: no straddle" in c.note
                   for c in checks)


def _reached_torus(ctx):
    """A torus report that reached t = T, with the two checks criterion 8 reads."""
    reached = [scenario.Check(name, True, None, None)
               for name in ("boundary_wronskian_at_kstar", "phiB_matches_eigenmode")]
    cal = CalibrationResult(M=0.7, achieved=0.99, iterations=0, bracket=(0.7, 0.7))
    return scenario.ScenarioReport("torus", ctx.params, 0.02, calibration=cal, kstarT=1.05,
                                   ci_at_k1=1e-3, checks=reached)


def test_criterion_6_returns_each_dichotomy_check_once(cfg):
    # two checks of one name, the second failed: criterion 6 returns both,
    # each once, and does not report the failed one as the passed one
    ctx = acc.AcceptanceContext(cfg)
    ctx.torus = _reached_torus(ctx)
    dichotomy = [scenario.Check("dichotomy_t0.1667T", True, None, None, "expect no root"),
                 scenario.Check("dichotomy_t0.1667T", False, 1e-4, None, "expect no root")]
    ctx.torus.checks += dichotomy
    assert [c for c in acc.criterion_6(ctx) if c.name.startswith("dichotomy_")] == dichotomy


def test_criteria_7_and_8_name_where_the_curve_stopped(cfg, monkeypatch):
    # a k-grid past k*(T) stops the eigenvalue curve: criteria 7 and 8 fail
    # the curve's checks with the exception in the note, and keep the rest
    def fail(*args):
        raise NonConvergence("no root at k=0.821448; grid extends past k*")

    monkeypatch.setattr(ray, "eigencurve", fail)
    ctx = acc.AcceptanceContext(cfg)
    ctx.torus = _reached_torus(ctx)
    ctx.partials = (-1.0, -10.0)
    checks = {c.name: c for c in acc.criterion_7(ctx) + acc.criterion_8(ctx)}
    stopped = ("curve_ci_strictly_decreasing", "curve_slope_band", "ift_slope_matches_curve",
               "curve_zero_matches_kstarT")
    for name in stopped:
        assert not checks[name].passed
        assert checks[name].note == ("eigencurve stopped: NonConvergence: no root at "
                                     "k=0.821448; grid extends past k*")
    assert all(c.passed for name, c in checks.items() if name not in stopped)


def test_curve_reads_the_torus_eigensolve(cfg, ctx, monkeypatch):
    # the torus holds its t = T eigensolve with the mode, so verify's curve
    # solves no eigenproblem of its own and equals the shared context's
    from viscoshear import spectrum

    assert ctx.torus.eig_T is not None
    want = ctx.curve
    fresh = acc.AcceptanceContext(cfg)
    fresh.torus = ctx.torus
    climbs = []
    monkeypatch.setattr(spectrum, "_solve_potential", lambda *args: climbs.append(args))
    assert fresh.curve == want and climbs == []


@pytest.mark.parametrize("n_points", [1, 2])
def test_criteria_7_and_8_on_a_short_curve(cfg, n_points):
    # a k_grid of one or two wave numbers gives no slope samples, and one
    # gives no curve zero: those checks fail with a note instead of raising
    ctx = acc.AcceptanceContext(cfg)
    ctx.torus = _reached_torus(ctx)
    points = ((0.95, 2e-3, 0.0), (1.0, 1e-3, 0.0))[:n_points]
    ctx.curve = EigenCurve(points, (), 1.05 if n_points == 2 else None)
    ctx.partials = (-1.0, -10.0)
    checks = {c.name: c for c in acc.criterion_7(ctx) + acc.criterion_8(ctx)}
    assert checks["curve_ci_strictly_decreasing"].passed == (n_points == 2)
    assert checks["dWr_dk_band"].passed and checks["dWr_dci_band"].passed
    for name in ("curve_slope_band", "ift_slope_matches_curve"):
        assert not checks[name].passed and "no slope samples" in checks[name].note
    assert checks["curve_zero_matches_kstarT"].passed == (n_points == 2)
