"""The DOP853 integrator: closed-form oracles, per-channel error control,
exact sample capping, the one sample-recording rule and the step budget."""

import numpy as np
import pytest

from viscoshear import rayleigh as ray
from viscoshear._ode import integrate
from viscoshear.errors import StepFailure


def test_linear_oscillator():
    lam = 1.5 - 2.3j
    y, _, _ = integrate(lambda t, y: lam * y, 0.0, 3.0, np.array([1.0 + 0j]), rtol=1e-11)
    exact = np.exp(lam * 3.0)
    assert abs(y[0] - exact) / abs(exact) <= 1e-9


def test_step_budget_raises():
    with pytest.raises(StepFailure):
        integrate(lambda t, y: -y, 0.0, 1.0, np.array([1.0 + 0j]), max_steps=3)


def test_zero_derivative_mates_change_nothing():
    # a batch-wide RMS norm lets 99 idle channels dilute the fast one's error
    def fast_first(t, y):
        out = np.zeros_like(y)
        out[0] = 50j * y[0]
        return out

    alone, _, steps_alone = integrate(fast_first, 0.0, 3.0, np.ones(1, complex))
    batch, _, steps_batch = integrate(fast_first, 0.0, 3.0, np.ones(100, complex))
    assert steps_alone == steps_batch
    assert abs(batch[0] - alone[0]) <= 1e-12
    assert np.all(batch[1:] == 1.0)


def test_every_channel_meets_the_closed_form():
    omegas = np.geomspace(0.1, 100.0, 20)
    y, _, _ = integrate(lambda t, y: 1j * omegas * y, 0.0, 3.0, np.ones(20, complex))
    assert np.max(np.abs(y - np.exp(3j * omegas))) <= 1e-8


def test_wronskian_does_not_depend_on_batch_mates(ctx):
    alone, _ = ray.wronskian_many(ctx.state_T, [1.0], [1e-3])
    mated, _ = ray.wronskian_many(ctx.state_T, [1.0, 1.0], [1e-3, 1e-8])
    assert abs(mated[0] - alone[0]) <= 1e-10 * abs(alone[0])


@pytest.mark.parametrize("t0, t1", [(0.0, 3.0), (3.0, 0.0)])
def test_samples_are_hit_exactly(t0, t1):
    omegas = np.array([0.5, 40.0])
    samples = [0.25, 1.234, 2.0, 3.0] if t1 > t0 else [2.75, 1.234, 1.0, 0.0]
    times = []

    def rhs(t, y):
        times.append(t)
        return 1j * omegas * y

    _, rec, _ = integrate(rhs, t0, t1, np.exp(1j * omegas * t0), samples=samples)
    assert rec.shape == (len(samples), 2)
    for s, y in zip(samples, rec):
        # a step ends on every sample: no interpolation error in what is recorded
        assert min(abs(t - s) for t in times) <= 1e-12
        assert np.max(np.abs(y - np.exp(1j * omegas * s))) <= 1e-8


@pytest.mark.parametrize(
    "t0, t1, samples",
    [
        (0.0, 3.0, [0.5, 1.234, 1.234, 3.0, 3.0]),
        (3.0, 0.0, [2.0, 1.0, np.nextafter(1.0, 0.0)]),
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
                          samples=samples)
    assert len(rec) == len(samples)
    for s, y in zip(samples, rec):
        assert np.max(np.abs(y - np.exp(1j * omegas * s))) <= 1e-8
