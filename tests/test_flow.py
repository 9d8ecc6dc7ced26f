"""Closed-form profile: oracles against high-precision quadrature and
finite differences, plus the structural invariants as property tests."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.special
from scipy.integrate import quad

from viscoshear.flow import (
    FlowParams,
    FlowState,
    erf,
    eval_b,
    eval_b_derivs,
    eval_b_slope,
    eval_b_slope_excess,
    eval_potential,
    h1_diagnostics,
    h1_value,
    heat_residual,
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
    with pytest.raises(ValueError, match="t >= 2"):
        heat_residual(FlowState(spec_point_params, 1e-5), 0.1, 1e-3)
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt must be positive"):
            heat_residual(state, 0.1, dt)


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


# every magnitude erf sees: tiny, the curved middle, the approach to 1.0 at 6
_ERF_XS = np.concatenate([[0.0, 5e-324, 1e-300, 1e-8], np.logspace(-6, 0.78, 4000),
                          np.linspace(0.0, 6.5, 20001), [5.9999999999, 6.0, 7.0, 40.0, np.inf]])


def test_erf_is_odd_bit_for_bit():
    # b is exactly odd, and the Rayleigh passes mirror the right half line, only
    # because erf(-x) is -erf(x) to the bit
    assert np.array_equal(erf(-_ERF_XS), -erf(_ERF_XS))
    assert all(erf(-x) == -erf(x) for x in _ERF_XS[::97].tolist())
    assert math.copysign(1.0, erf(-0.0)) == -1.0


def test_erf_is_one_from_six_and_keeps_nan():
    xs = np.array([6.0, 6.5, 1e3, np.inf, -6.0, -np.inf, np.nan, -np.nan])
    out = erf(xs)
    assert np.array_equal(out[:6], [1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    assert np.isnan(out[6:]).all() and math.isnan(erf(math.nan))
    # the cut-off writes the value the call gives there
    assert [erf(float(x)) for x in xs[:6]] == out[:6].tolist()


def test_erf_scalar_has_the_array_bits():
    # a Rayleigh RHS call passes a scalar y, the eigensolver an array
    xs = np.concatenate([-_ERF_XS[::-37], _ERF_XS[::37]])
    out = erf(xs)
    assert [erf(x) for x in xs.tolist()] == out.tolist()
    assert [erf(np.float64(x)) for x in xs[::11].tolist()] == out[::11].tolist()
    assert erf(np.array(0.25)) == erf(np.array([0.25]))[0] == erf(0.25)


def test_erf_accuracy_vs_mpmath_and_scipy():
    # within 1 ulp of the 40-digit erf; scipy's erf, which the package read
    # before, is itself up to 2.6 ulp off near |x| = 0.9, so the two agree
    # within 3 ulp on a dense grid
    xs = _ERF_XS[np.isfinite(_ERF_XS)]
    ours = erf(xs)
    with mpmath.workdps(40):
        for x, v in zip(xs[::13].tolist(), ours[::13].tolist()):
            exact = mpmath.erf(mpmath.mpf(x))
            assert abs(mpmath.mpf(v) - exact) <= np.spacing(float(exact)), x
    dense = np.linspace(-7.0, 7.0, 200_001)
    ulps = np.abs(erf(dense) - scipy.special.erf(dense)) / np.spacing(np.abs(erf(dense)))
    assert ulps.max() <= 3.0


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
        FlowParams(1.0, 0.1, 0.05, 0.4, math.inf)  # horizon 0, s1 NaN at t = 0
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
# last bits at the example y at t = T, so a scalar path and an array path
# that took erf from different places would fail there
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


@pytest.mark.parametrize("at_T", [False, True])
def test_slope_excess_vs_mpmath(at_T):
    # b'(y) - b'(0) from the defining Gaussians at 40 digits, where exp - 1
    # loses nothing: the excess is O(y^2) at small y, and the closed form
    # keeps every digit of it
    state = FlowState(_TUNED, _TUNED.horizon if at_T else 0.0)
    ys = np.logspace(-8, math.log10(3.0), 60)
    _, excess = eval_b_slope_excess(state, ys)
    with mpmath.workdps(40):
        m, a1, a2, s1, s2 = (mpmath.mpf(v) for v in (_TUNED.M, state.amp1, state.amp2,
                                                      state.s1, state.s2))
        for y, ours in zip(ys, excess):
            y2 = mpmath.mpf(float(y)) ** 2
            exact = m * (a1 / mpmath.sqrt(s1) * (mpmath.exp(-y2 / s1) - 1)
                         - a2 / mpmath.sqrt(s2) * (mpmath.exp(-y2 / s2) - 1))
            assert abs(ours - exact) <= 1e-12 * abs(exact)
    assert eval_b_slope_excess(state, 0.0)[1] == 0.0
    assert np.array_equal(eval_b_slope_excess(state, ys)[0], eval_b(state, ys))


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


def _potential_oracle(state, y, dps=40):
    """b''/b of the state's doubles at ``dps`` digits, and at y = 0 its limit b'''(0)/b'(0)."""
    with mpmath.workdps(dps):
        m, y = mpmath.mpf(state.params.M), mpmath.mpf(y)
        bumps = [(mpmath.mpf(a), mpmath.mpf(s)) for a, s in ((state.amp1, state.s1),
                                                             (-state.amp2, state.s2))]
        if y == 0:
            return float(-2 * m * sum(a / s ** 1.5 for a, s in bumps)
                         / (1 + m * sum(a / mpmath.sqrt(s) for a, s in bumps)))
        b = y + m * mpmath.sqrt(mpmath.pi) / 2 * sum(a * mpmath.erf(y / mpmath.sqrt(s))
                                                     for a, s in bumps)
        b2 = -2 * y * m * sum(a / s ** 1.5 * mpmath.exp(-y ** 2 / s) for a, s in bumps)
        return float(b2 / b)


_NEAR_ORIGIN = {"t0": FlowState(_TUNED, 0.0),
                "tT": FlowState(_TUNED, _TUNED.horizon),
                "M1e50": FlowState(_TUNED.with_M(1e50), 0.0),
                "g0g1_1e-10": FlowState(FlowParams(0.7, 0.01, 1e-8, 0.4, 1e-3), 0.0)}


@pytest.mark.parametrize("name", sorted(_NEAR_ORIGIN))
def test_potential_matches_mpmath_near_origin(name):
    # the direct ratio down to the smallest normal |y|, its limit below it
    state = _NEAR_ORIGIN[name]
    ys = np.r_[np.geomspace(2.3e-308, 1e-3, 40), -1e-200, -3e-4]
    vs = eval_potential(state, ys)
    for y, v in zip(ys, vs):
        oracle = _potential_oracle(state, y)
        assert abs(v - oracle) <= 1e-13 * abs(oracle), y
        assert eval_potential(state, float(y)) == v
    _, b1, _, b3 = eval_b_derivs(state, 0.0)
    limit = _potential_oracle(state, 0.0)
    assert abs(b3 / b1 - limit) <= 1e-13 * abs(limit)
    for y in (0.0, -0.0, 1e-310, -1e-310, 5e-324):
        assert eval_potential(state, y) == b3 / b1
    assert np.array_equal(eval_potential(state, np.array([1e-310, 0.0, 1e-3])),
                          [b3 / b1, b3 / b1, eval_potential(state, 1e-3)])
