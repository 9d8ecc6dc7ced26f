"""Closed-form profile: oracles against high-precision quadrature and
finite differences, plus the structural invariants as property tests."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erf

from viscoshear.flow import (
    FlowParams,
    FlowState,
    eval_b,
    eval_b_derivs,
    eval_b_slope,
    eval_potential,
    h1_diagnostics,
    h1_value,
    heat_residual,
    potential_series_coeffs,
)

SQRT_PI = math.sqrt(math.pi)


def b_quadrature(params, t, y, dps=30):
    """Independent oracle: the defining quadratures at high precision."""
    with mpmath.workdps(dps):
        s1 = mpmath.mpf(4) * params.nu * t + mpmath.mpf(params.gamma0) ** 2
        s2 = mpmath.mpf(4) * params.nu * t + (mpmath.mpf(params.gamma0) * params.gamma1) ** 2
        i1 = mpmath.quad(lambda z: mpmath.exp(-(z ** 2) / s1), [0, y]) / mpmath.sqrt(s1)
        i2 = mpmath.quad(lambda z: mpmath.exp(-(z ** 2) / s2), [0, y]) / mpmath.sqrt(s2)
        g0 = mpmath.mpf(params.gamma0)
        val = y + params.M * (g0 ** 2 * i1 - params.gamma2 * g0 ** 2 * params.gamma1 ** 3 * i2)
        return float(val)


def test_b_matches_quadrature_oracle(spec_point_params):
    st0 = FlowState(spec_point_params, 0.0)
    st1 = FlowState(spec_point_params, 0.42)
    for state in (st0, st1):
        for y in (0.3, 1.7, 3.7):
            oracle = b_quadrature(state.params, state.t, y)
            assert abs(eval_b(state, y) - oracle) <= 1e-13 * abs(oracle)


def test_b_zero_and_couette(spec_point_params):
    st0 = FlowState(spec_point_params, 0.123)
    assert eval_b(st0, 0.0) == 0.0
    couette = FlowState(FlowParams(0.0, 0.1, 0.05, 0.4, 1e-3), 0.7)
    ys = np.linspace(-7, 7, 11)
    assert np.all(eval_b(couette, ys) == ys)
    b, b1, b2, b3 = eval_b_derivs(couette, 3.7)
    assert (b, b1, b2, b3) == (3.7, 1.0, 0.0, -0.0) or (b, b1, b2, b3) == (3.7, 1.0, 0.0, 0.0)
    assert eval_potential(couette, 1.3) == 0.0


def test_b_asymptotic_offset(spec_point_params):
    # erf -> 1 limit of both bumps
    state = FlowState(spec_point_params, 0.0)
    offset = (SQRT_PI / 2.0) * 0.01 * (1.0 - 0.4 * 0.05 ** 3)
    y = 50.0
    assert abs((eval_b(state, y) - y) - offset) <= 1e-14


def test_deriv_literals_at_origin(spec_point_params):
    state = FlowState(spec_point_params, 0.0)
    _, b1, b2, b3 = eval_b_derivs(state, 0.0)
    assert b2 == 0.0
    assert abs(b1 - 1.0999) <= 1e-12
    assert abs(b3 - (-12.0)) <= 1e-10


def test_potential_origin_value_and_cross_check(spec_point_params):
    state = FlowState(spec_point_params, 0.0)
    v0 = eval_potential(state, 0.0)
    assert abs(v0 - (-12.0 / 1.0999)) <= 1e-10
    b, _, b2, _ = eval_b_derivs(state, 1e-6)
    assert abs(b2 / b - v0) <= 1e-5 * abs(v0)
    # series branch joins the direct ratio continuously at the window edge
    eps = state.eps_sing
    assert abs(eval_potential(state, eps * 0.99) - eval_potential(state, eps * 1.01)) <= 1e-8 * abs(v0)


def test_potential_depth_scales_like_M_over_gamma0():
    for (m, g0, g1, g2) in [(1.0, 0.1, 0.05, 0.4), (0.7, 0.15, 0.03, 0.8), (2.0, 0.2, 0.02, 0.3)]:
        state = FlowState(FlowParams(m, g0, g1, g2, 1e-3), 0.0)
        v0 = eval_potential(state, 0.0)
        assert v0 < 0.0
        assert 0.05 <= abs(v0) * g0 / m <= 5.0


def test_heat_residual_spec_points(spec_point_params):
    state = FlowState(spec_point_params, 1.0)
    assert heat_residual(state, 0.05, 1e-3) < 1e-8
    assert heat_residual(state, 5.0, 1e-3) < 1e-10
    couette = FlowState(FlowParams(0.0, 0.1, 0.05, 0.4, 1e-3), 1.0)
    assert heat_residual(couette, 0.3, 1e-3) == 0.0
    with pytest.raises(ValueError):
        heat_residual(FlowState(spec_point_params, 1e-5), 0.1, 1e-3)


def test_h1_total_closed_form_spec_value():
    p = FlowParams(1.0, 0.1, 0.05, 0.4, 1e-3)
    t = p.horizon  # 0.025
    assert abs(t - 0.025) < 1e-15
    diag = h1_diagnostics(p, t)
    expected = -SQRT_PI * 0.4 * (4 * 2.5e-5 * 0.05) / ((4 * 2.5e-5 + 2.5e-5) * 0.01)
    assert abs(diag.total_integral - expected) <= 1e-14 * abs(expected)
    val, _ = quad(lambda y: h1_value(p, t, y), -1.0, 1.0, points=[0.0],
                  limit=300, epsabs=1e-16, epsrel=1e-13)
    assert abs(val - diag.total_integral) <= 1e-10 * abs(diag.total_integral)


def test_h1_zero_point_and_negative_part():
    p = FlowParams(1.0, 0.1, 0.05, 0.4, 1e-3)
    g01 = p.gamma0 * p.gamma1
    for t in (p.horizon / 4, p.horizon):
        diag = h1_diagnostics(p, t)
        assert math.sqrt(1.5) * g01 <= diag.zero_point <= 10.0 * g01
        assert abs(h1_value(p, t, diag.zero_point)) <= 1e-12
        assert h1_value(p, t, 0.0) < 0.0
        assert diag.negative_part_integral < 0.0
        outside = diag.total_integral - diag.negative_part_integral
        assert abs(diag.negative_part_integral) >= abs(outside)


def test_h1_vanishes_at_small_t_and_rejects_zero():
    p = FlowParams(1.0, 0.1, 0.05, 0.4, 1e-3)
    t9 = h1_diagnostics(p, 1e-9 * p.horizon).total_integral
    t10 = h1_diagnostics(p, 1e-10 * p.horizon).total_integral
    assert abs(t9) < 1e-7
    assert abs(t10 - t9 / 10.0) <= 1e-3 * abs(t9)  # linear vanishing rate
    with pytest.raises(ValueError):
        h1_diagnostics(p, 0.0)


def test_erf_relative_accuracy_vs_mpmath():
    xs = np.concatenate([np.logspace(-8, 0.6, 40), [1e-300, 25.0]])
    with mpmath.workdps(40):
        for x in xs:
            ours = float(erf(x))
            exact = float(mpmath.erf(mpmath.mpf(float(x))))
            if exact != 0.0:
                assert abs(ours - exact) <= 1e-14 * abs(exact)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        FlowParams(1.0, 0.1, 0.05, 1.5, 1e-3)
    with pytest.raises(ValueError):
        FlowParams(1.0, 0.1, 0.5, 0.4, 1e-3)  # gamma1 >= gamma2
    with pytest.raises(ValueError):
        FlowParams(1.0, 0.7, 0.05, 0.4, 1e-3)
    with pytest.raises(ValueError):
        FlowParams(-1.0, 0.1, 0.05, 0.4, 1e-3)
    with pytest.raises(ValueError):
        FlowState(FlowParams(1.0, 0.1, 0.05, 0.4, 1e-3), -0.1)


@st.composite
def flow_states(draw):
    gamma2 = draw(st.floats(0.1, 0.95))
    gamma1 = draw(st.floats(0.01, min(0.5, 0.9 * gamma2)))
    gamma0 = draw(st.floats(0.05, 0.5))
    m = draw(st.floats(0.0, 5.0))
    nu = draw(st.floats(1e-4, 1e-2))
    t = draw(st.floats(0.0, 0.5))
    return FlowState(FlowParams(m, gamma0, gamma1, gamma2, nu), t)


@settings(max_examples=60, deadline=None)
@given(flow_states(), st.floats(-30.0, 30.0))
def test_oddness_and_parity(state, y):
    assert abs(eval_b(state, y) + eval_b(state, -y)) <= 1e-12 * (1.0 + abs(y))
    _, b1p, _, _ = eval_b_derivs(state, y)
    _, b1m, _, _ = eval_b_derivs(state, -y)
    assert abs(b1p - b1m) <= 1e-12 * (1.0 + abs(b1p))
    assert abs(eval_potential(state, y) - eval_potential(state, -y)) <= 1e-9


# the fixture's tuned amplitude; math.erf and scipy's erf give b different
# last bits at the example y at t = T
_TUNED = FlowParams(0.70168993133616697, 0.15, 0.03, 0.8, 1e-3)


@settings(max_examples=150, deadline=None)
@given(flow_states(), st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=16))
@example(FlowState(_TUNED, _TUNED.horizon), [0.036389535176237775])
def test_mirror_identity_is_exact(state, ys):
    # the Rayleigh assembly integrates the right half line only and takes the
    # left one from b(-y) = -b(y), b'(-y) = b'(y); a scalar y, as an ODE
    # step passes it, must give the bits it has inside an array
    ys = np.array(ys)
    right = eval_b_derivs(state, ys)
    left = eval_b_derivs(state, -ys)
    for j, (r, l) in enumerate(zip(right, left)):
        assert np.array_equal(l, -r if j % 2 == 0 else r)
    for i, y in enumerate(ys.tolist()):
        assert [d[i] for d in right] == list(eval_b_derivs(state, y))


@settings(max_examples=60, deadline=None)
@given(flow_states(), st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=16))
def test_slope_entry_gives_the_derivs_bits(state, ys):
    # eval_b_slope and eval_b return the b and b' of eval_b_derivs bit for
    # bit, for an array and for each of its elements as a scalar
    ys = np.array(ys)
    b, b1, _, _ = eval_b_derivs(state, ys)
    slope = eval_b_slope(state, ys)
    assert np.array_equal(slope[0], b) and np.array_equal(slope[1], b1)
    for i, y in enumerate(ys.tolist()):
        assert eval_b_slope(state, y) == (b[i], b1[i]) and eval_b(state, y) == b[i]


@settings(max_examples=60, deadline=None)
@given(flow_states(), st.floats(-30.0, 30.0))
def test_monotone_profile(state, y):
    _, b1, _, _ = eval_b_derivs(state, y)
    assert b1 > 0.0


@settings(max_examples=60, deadline=None)
@given(flow_states(), st.floats(0.01, 1.0))
@example(FlowState(FlowParams(5e-324, 0.05, 0.01, 0.1, 1e-4), 0.0), 0.5)
def test_sign_structure(state, y_frac):
    if state.params.M == 0.0:
        return
    y = y_frac * 3.0 * math.sqrt(state.s1)  # inside the Gaussian support
    _, _, b2, _ = eval_b_derivs(state, y)
    v = eval_potential(state, y)
    if state.params.M >= sys.float_info.min:
        assert b2 < 0.0
        assert v < 0.0
    else:  # subnormal M: b'' may underflow, but only to -0.0
        assert math.copysign(1.0, b2) < 0.0
        assert math.copysign(1.0, v) < 0.0
    assert eval_potential(state, 30.0) <= 0.0


def test_potential_series_consistency():
    # the series coefficients agree with small-y direct ratios
    p = FlowParams(0.7, 0.15, 0.03, 0.8, 1e-3)
    state = FlowState(p, p.horizon)
    v0, v2, v4, v6 = potential_series_coeffs(state)
    for y in (3e-4, 1e-3):
        b, _, b2, _ = eval_b_derivs(state, y)
        series = v0 + y ** 2 * (v2 + y ** 2 * (v4 + y ** 2 * v6))
        assert abs(series - b2 / b) <= 1e-8 * abs(b2 / b)
