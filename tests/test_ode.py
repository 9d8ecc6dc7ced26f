"""The DOP853 integrator: closed-form oracles, per-channel error control,
exact sample capping, the one sample-recording rule, the step budget and the
forward-only contract.  Each call passes h = span * 1e-6 as its first step."""

import numpy as np
import pytest

from viscoshear import _ode, rayleigh as ray
from viscoshear._ode import integrate
from viscoshear.errors import StepFailure


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
