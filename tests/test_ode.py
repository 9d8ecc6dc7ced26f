"""The DOP853 integrator: the order conditions of its loaded tableau,
closed-form oracles, per-channel error control, exact sample capping, the one
sample-recording rule, the step budget and the forward-only contract.  Each
call passes h = span * 1e-6 as its first step."""

import numpy as np
import pytest

from viscoshear import _ode, rayleigh as ray
from viscoshear._ode import integrate
from viscoshear.errors import StepFailure


def test_loaded_tableau_is_dop853():
    # the tableau is scipy's file, read by path: whatever scipy is installed,
    # it must be Dormand-Prince's 8(5,3) pair, and _C, _A_ROWS, _B and _E its
    # casts, the arrays complex so that no stage casts a row
    tab = _ode._TABLEAU
    c, b = tab.C[:12], tab.B
    e5, e3 = tab.E5[:12], tab.E3[:12]
    assert np.abs(tab.A.sum(axis=1) - tab.C).max() <= 1e-14
    for weights, order in ((b, 8), (b - e5, 5), (b - e3, 3)):
        for q in range(order):
            assert abs(weights @ c**q - 1.0 / (q + 1)) <= 1e-14, (order, q)
    assert abs(e5.sum()) <= 1e-14 and abs(e3.sum()) <= 1e-14
    assert c[11] == 1.0
    assert _ode._C == tuple(c)
    assert _ode._B.dtype == complex and np.array_equal(_ode._B, b)
    assert _ode._E.dtype == complex and np.array_equal(_ode._E, [e5, e3])
    for i, row in enumerate(_ode._A_ROWS):
        assert row.dtype == complex and np.array_equal(row, tab.A[i, :i])


def test_linear_oscillator(monkeypatch):
    lam = 1.5 - 2.3j
    monkeypatch.setattr(_ode, "RTOL", 1e-11)
    y, _, _ = integrate(lambda t, y: lam * y, 0.0, 3.0, np.array([1.0 + 0j]), 3e-6)
    exact = np.exp(lam * 3.0)
    assert abs(y[0] - exact) / abs(exact) <= 1e-9


def test_step_budget_raises(monkeypatch):
    monkeypatch.setattr(_ode, "MAX_STEPS", 3)
    with pytest.raises(StepFailure, match="step budget"):
        integrate(lambda t, y: -y, 0.0, 1.0, np.array([1.0 + 0j]), 1e-6)


def test_rejected_steps_shrink_to_the_tolerance():
    # a first trial step of the whole span is rejected again and again; each
    # attempt costs 11 RHS calls, each accepted step 1 more (FSAL), the seed 1
    calls = []

    def rhs(t, y):
        calls.append(t)
        return 50j * y

    y, _, steps = integrate(rhs, 0.0, 3.0, np.array([1.0 + 0j]), 3.0)
    attempts = (len(calls) - 1 - steps) / 11
    assert attempts == int(attempts) and attempts > steps
    assert abs(y[0] - np.exp(150j)) <= 1e-8


@pytest.mark.parametrize("t_nan", [0.5, -1.0], ids=["nan_past_half", "nan_everywhere"])
def test_nan_error_estimate_is_a_step_failure(t_nan):
    # a NaN estimate must not read as an exact step and grow the next tenfold
    def rhs(t, y):
        return np.full_like(y, np.nan) if t > t_nan else -y

    with np.errstate(invalid="ignore"), pytest.raises(StepFailure, match="non-finite .* at t="):
        integrate(rhs, 0.0, 1.0, np.array([1.0 + 0j]), 1e-3)


@pytest.mark.parametrize(
    "t0, t1, samples",
    [(3.0, 0.0, []), (0.0, 3.0, [-0.5]), (0.0, 3.0, [1.0, 3.5]), (0.0, 3.0, [np.nan])],
    ids=["backward_span", "sample_before_t0", "sample_past_t1", "nan_sample"],
)
def test_backward_spans_and_stray_samples_are_rejected(t0, t1, samples):
    # one direction only: a left half line is the reflected system run forward
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    with pytest.raises(ValueError):
        integrate(rhs, t0, t1, np.array([1.0 + 0j]), 3e-6, samples=samples)
    assert calls == []


@pytest.mark.parametrize("rhs, why", [
    (lambda t, y: np.full_like(y, 1.0 / (t - 0.5)), r"$"),
    (lambda t, y: np.full_like(y, 1e8 if t >= 0.5 else 0.0), r" \(err [0-9.e+]+\)$"),
], ids=["pole", "jump"])
def test_step_size_underflow_is_a_step_failure(rhs, why):
    # a pole stops the steps at t = 0.5 (accepted ones that shrink below the
    # floor); a 1e8 jump in y' there is rejected until the retry is below it
    with pytest.raises(StepFailure, match=r"^step size underflow at t=0\.5" + why):
        integrate(rhs, 0.0, 1.0, np.array([0j]), 1e-6)


def test_descending_samples_are_not_reached():
    # samples are recorded in the order given: after 0.6, t never returns to 0.4
    with pytest.raises(StepFailure, match="^sample points were not reached$"):
        integrate(lambda t, y: -y, 0.0, 1.0, np.array([1.0 + 0j]), 1e-6, samples=(0.6, 0.4))


def test_zero_derivative_mates_change_nothing():
    # a batch-wide RMS norm lets 99 idle channels dilute the fast one's error
    def fast_first(t, y):
        out = np.zeros_like(y)
        out[0] = 50j * y[0]
        return out

    alone, _, steps_alone = integrate(fast_first, 0.0, 3.0, np.ones(1, complex), 3e-6)
    batch, _, steps_batch = integrate(fast_first, 0.0, 3.0, np.ones(100, complex), 3e-6)
    assert steps_alone == steps_batch
    assert abs(batch[0] - alone[0]) <= 1e-12
    assert np.all(batch[1:] == 1.0)


def test_every_channel_meets_the_closed_form():
    omegas = np.geomspace(0.1, 100.0, 20)
    y, _, _ = integrate(lambda t, y: 1j * omegas * y, 0.0, 3.0, np.ones(20, complex), 3e-6)
    assert np.max(np.abs(y - np.exp(3j * omegas))) <= 1e-8


def test_wronskian_does_not_depend_on_batch_mates(ctx):
    alone, _ = ray.wronskian_many(ctx.state_T, [1.0], [1e-3])
    mated, _ = ray.wronskian_many(ctx.state_T, [1.0, 1.0], [1e-3, 1e-8])
    assert abs(mated[0] - alone[0]) <= 1e-10 * abs(alone[0])


@pytest.mark.parametrize("t0, t1", [(0.0, 3.0)])
def test_samples_are_hit_exactly(t0, t1):
    omegas = np.array([0.5, 40.0])
    samples = [0.25, 1.234, 2.0, 3.0]
    times = []

    def rhs(t, y):
        times.append(t)
        return 1j * omegas * y

    _, rec, _ = integrate(rhs, t0, t1, np.exp(1j * omegas * t0), 3e-6, samples=samples)
    assert rec.shape == (len(samples), 2)
    for s, y in zip(samples, rec):
        # a step ends on every sample: no interpolation error in what is recorded
        assert min(abs(t - s) for t in times) <= 1e-12
        assert np.max(np.abs(y - np.exp(1j * omegas * s))) <= 1e-8


@pytest.mark.parametrize(
    "t0, t1, samples",
    [
        (0.0, 3.0, [0.5, 1.234, 1.234, 3.0, 3.0]),
        (0.0, 3.0, [np.nextafter(1.0, 0.0), 1.0, 2.0]),
        (0.0, 3.0, [0.0, 0.0, 2.0]),
        (1.5, 1.5, [1.5, 1.5]),
        (1.5, 1.5, []),
    ],
    ids=["repeated", "one_ulp_pair", "at_t0", "zero_span", "zero_span_no_samples"],
)
def test_one_rule_records_every_sample(t0, t1, samples):
    # at the start and after every accepted step, each pending sample within
    # 1e-12 max(1, |t|) of t is recorded
    omegas = np.array([0.5, 40.0])
    _, rec, _ = integrate(lambda t, y: 1j * omegas * y, t0, t1, np.exp(1j * omegas * t0),
                          (t1 - t0) * 1e-6, samples=samples)
    assert len(rec) == len(samples)
    for s, y in zip(samples, rec):
        assert np.max(np.abs(y - np.exp(1j * omegas * s))) <= 1e-8
