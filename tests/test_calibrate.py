"""Amplitude calibration: bisection certificates, orderings, thresholds."""

import pytest

from viscoshear.calibrate import find_critical_M0, kstar_time_sweep, tune_M_for_kstar
from viscoshear.errors import BracketFailure
from viscoshear.flow import FlowParams, FlowState
from viscoshear.spectrum import Grid, lowest_eigenpair

P = FlowParams(1.0, 0.15, 0.03, 0.8, 1e-3)


def test_tune_hits_target(ctx):
    cal_M = ctx.torus.M
    assert abs(ctx.torus.kstar0 - 0.99) <= 1e-6
    # regression band for the tuned amplitude on the frozen fixture
    assert 0.700 <= cal_M <= 0.704


def test_tune_is_deterministic(grid):
    a = tune_M_for_kstar(P, 0.0, 0.99, grid)
    b = tune_M_for_kstar(P, 0.0, 0.99, grid)
    assert a == b
    assert abs(a.achieved - 0.99) <= 1e-6


def test_target_outside_calibration_range_rejected(monkeypatch):
    from viscoshear import calibrate

    # lambda1 = -M, so k* = sqrt(M) is reachable for any positive target
    monkeypatch.setattr(calibrate, "_lambda1", lambda params, M, t, grid, tol_eig: -M)
    for target in (1.45, 0.0, -2.0):
        with pytest.raises(ValueError, match="target_kstar"):
            tune_M_for_kstar(P, 0.0, target)
    assert abs(tune_M_for_kstar(P, 0.0, 0.99).achieved - 0.99) <= 1e-6


def test_bracket_certificate(grid):
    cal = tune_M_for_kstar(P, 0.0, 0.99, grid)
    lo, hi = cal.bracket
    k_lo = lowest_eigenpair(FlowState(P.with_M(lo), 0.0), grid, want_mode=False).kstar or 0.0
    k_hi = lowest_eigenpair(FlowState(P.with_M(hi), 0.0), grid, want_mode=False).kstar or 0.0
    assert k_lo < 0.99 < k_hi


def test_amplitude_ordering_with_target(ctx, grid):
    m_low = ctx.torus.M
    m_high = tune_M_for_kstar(P, 0.0, 1.4, grid).M
    assert m_high > m_low


def test_small_target_approaches_threshold(grid):
    m0 = find_critical_M0(P, grid).M
    m_small = tune_M_for_kstar(P, 0.0, 0.05, grid).M
    assert m0 < m_small < 0.70


def test_bracket_failure_signals_bad_range(grid):
    with pytest.raises(BracketFailure):
        tune_M_for_kstar(P, 0.0, 0.99, grid, bracket=(0.01, 0.02))


def test_critical_M0_properties(ctx, grid):
    rep = ctx.line
    m0 = rep.M
    lam0 = next(c.measured for c in rep.checks if c.name == "critical_M0")
    assert -1e-8 <= lam0 <= 0.0
    assert 3.5e-5 <= m0 <= 4.6e-5  # frozen regression band
    lam_half = lowest_eigenpair(FlowState(P.with_M(m0 / 2), 0.0), grid, want_mode=False)
    assert lam_half.kstar is None
    lam_double = lowest_eigenpair(FlowState(P.with_M(2 * m0), 0.0), grid, want_mode=False)
    assert lam_double.kstar is not None


def test_critical_M0_bracket_straddles(grid):
    cal = find_critical_M0(P, grid)
    lo, hi = cal.bracket
    assert hi - lo <= 1e-4 * hi
    lam_lo = lowest_eigenpair(FlowState(P.with_M(lo), 0.0), grid, want_mode=False).lambda1
    lam_hi = lowest_eigenpair(FlowState(P.with_M(hi), 0.0), grid, want_mode=False).lambda1
    assert lam_lo > -1e-8
    assert lam_hi < -0.5e-8


def test_sweep_monotone_and_crossing(ctx):
    rep = ctx.torus
    ks = [k for k in rep.curve_kstars]
    assert all(k is not None for k in ks)
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    assert rep.Ttilde is not None
    assert 0.0 < rep.Ttilde < rep.T
    assert ks[0] < 1.0 < ks[-1]
    # regression bands on the frozen fixture
    assert 1.004 <= rep.kstarT <= 1.006
    assert 0.15 <= rep.Ttilde / rep.T <= 0.30


def test_sweep_couette_all_absent(couette_state, grid):
    curve = kstar_time_sweep(0.0, couette_state.params, 8, grid)
    assert all(k is None for k in curve.kstars)
    assert curve.Ttilde is None


def test_sweep_requires_enough_samples(grid):
    with pytest.raises(ValueError):
        kstar_time_sweep(0.7, P, 5, grid)


def test_truncation_independence(ctx):
    # same k* on a wider box at comparable spacing
    m = ctx.torus.M
    k_wide = lowest_eigenpair(
        FlowState(P.with_M(m), 0.0), Grid(24.0, 9831), want_mode=False
    ).kstar
    assert abs(k_wide - ctx.torus.kstar0) <= 1e-6
