"""Adaptive embedded Runge-Kutta 8(5,3) (DOP853) for batched complex ODE systems.

The tableau is Dormand and Prince's eighth-order pair (J. Comput. Appl.
Math. 6 (1980) 19) in the form of Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed. 1993, section II.10, read from
scipy's own copy, ``scipy/integrate/_ivp/dop853_coefficients.py``, loaded by
path (``spectrum._extension``), so no scipy package is imported: twelve
stages, the derivative at (t + h, y_new) of an accepted step reused as the
next step's first stage (FSAL), and the combined 5th/3rd-order error
estimate

    err = h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n)

with the step factor 0.9 err^(-1/8) clipped to [0.2, 10].

``integrate`` runs forward only, t0 <= t1 (a left half line is the
reflected system in s = -t), with the error scale ATOL + RTOL |y| per
component and at most MAX_STEPS accepted steps.  The state is a complex
ndarray whose axis 0 indexes independent channels (e.g. Wronskian
integrations at many spectral parameters).  A batch integrates in one pass
with a shared step size, which amortizes the per-step Python overhead, but
the error estimate is taken per channel and the step is controlled by the
largest: every channel meets the tolerance on its own, so its result does
not depend on what it is batched with beyond rounding.

Sample points are hit by capping the step, so recorded values carry no
interpolation error.  One rule records them: at the start and after every
accepted step, every pending sample within 1e-12 max(1, |t|) of t takes the
state at t.  Repeated samples, 1-ulp neighbours, a sample at t0 and a zero
span therefore need no special case.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import StepFailure
from .spectrum import _extension

__all__ = ["integrate"]

_STAGES = 12
_TABLEAU = _extension("integrate/_ivp", "dop853_coefficients")
_C = tuple(_TABLEAU.C[:_STAGES].tolist())  # floats: a numpy scalar slows every t + c h
# complex, the state's dtype, so no stage casts a row: a + 0j times the
# state gives the bits a real a gives
_A_ROWS = tuple(_TABLEAU.A[i, :i].astype(complex) for i in range(_STAGES))  # stage i's couplings
_B = _TABLEAU.B.astype(complex)  # eighth-order weights
# error weights: eighth order minus the embedded fifth- and third-order ones
_E = np.array([_TABLEAU.E5[:_STAGES], _TABLEAU.E3[:_STAGES]], dtype=complex)

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
RTOL = 1e-10
ATOL = 1e-13
MAX_STEPS = 2_000_000


def _error_norm(h: float, err: np.ndarray, scale: np.ndarray) -> float:
    """Largest per-channel error estimate; ``err`` stacks (e5, e3) on axis 0.
    A zero estimate is exact; a NaN in ``err`` or ``scale`` gives NaN."""
    ratio = np.square(np.abs(err.reshape((2,) + scale.shape) / scale))
    e5, e3 = ratio.sum(axis=2)
    denom = (e5 + 0.01 * e3) * scale.shape[1]
    per_channel = np.divide(e5, np.sqrt(denom), out=np.zeros_like(e5), where=denom != 0.0)
    return h * float(per_channel.max(initial=0.0))


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray], t0: float, t1: float,
              y0: np.ndarray, h: float, samples: Sequence[float] = ()):
    """Integrate y' = rhs(t, y) forward from t0 to t1 >= t0, h the first trial step.

    Returns ``(y_final, sampled, n_steps)``, ``sampled`` the states at the
    ascending ``samples``.  Raises ``ValueError`` for t1 < t0 or a sample
    outside [t0, t1], ``StepFailure`` when the step underflows, MAX_STEPS
    runs out, a sample is not reached or the error estimate is not finite
    (a NaN or an infinity in a stage).
    """
    if not t1 >= t0:
        raise ValueError(f"integrate runs forward only, got t0={t0:g} > t1={t1:g}")
    sample_list = list(samples)
    if not all(s - t0 >= -1e-15 and t1 - s >= -1e-15 for s in sample_list):
        raise ValueError("sample point outside integration span")
    y = np.array(y0, dtype=complex)
    shape, channels = y.shape, (len(y), math.prod(y.shape[1:]))
    t, recorded = t0, []

    def record():
        # every pending sample within 1e-12 max(1, |t|) of t takes the state at t
        while len(recorded) < len(sample_list) and abs(
                t - sample_list[len(recorded)]) <= 1e-12 * max(1.0, abs(t)):
            recorded.append(y.copy())

    h = min(h, t1 - t0)
    # stage derivatives, flat for the weighted sums, written in the state's shape
    K = np.empty((_STAGES, y.size), dtype=complex)
    K_shaped = K.reshape((_STAGES,) + shape)
    K_shaped[0] = rhs(t, y)
    steps = 0
    record()
    while t1 - t > 1e-15 * max(abs(t), abs(t1), 1.0):
        if steps >= MAX_STEPS:
            raise StepFailure(f"step budget exhausted at t={t:g}")
        h_floor = 1e-15 * max(abs(t), 1e-30)  # a step this small cannot move t
        # cap the step at the next pending sample point and the endpoint
        h_try = min(h, t1 - t)
        if len(recorded) < len(sample_list):
            h_try = min(h_try, abs(sample_list[len(recorded)] - t))
        if h_try < h_floor:
            raise StepFailure(f"step size underflow at t={t:g}")

        y_flat = y.reshape(-1)
        for i in range(1, _STAGES):
            stage = _A_ROWS[i] @ K[:i]
            stage *= h_try
            stage += y_flat
            K_shaped[i] = rhs(t + _C[i] * h_try, stage.reshape(shape))
        y_new = y + h_try * (_B @ K).reshape(shape)
        scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _error_norm(h_try, _E @ K, scale.reshape(channels))
        if math.isnan(err_norm):
            raise StepFailure(f"non-finite error estimate at t={t:g} (step {h_try:g})")

        if err_norm <= 1.0:
            t = t + h_try
            y = y_new
            K_shaped[0] = rhs(t, y)  # FSAL: the next step's first stage
            steps += 1
            record()
            grow = _SAFETY * err_norm ** -0.125 if err_norm > 0.0 else _MAX_FACTOR
            h = h_try * min(_MAX_FACTOR, grow)
        else:
            h = h_try * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.125)
            if h < h_floor:
                raise StepFailure(f"step size underflow at t={t:g} (err {err_norm:g})")
    if len(recorded) < len(sample_list):
        raise StepFailure("sample points were not reached")
    return y, np.array(recorded), steps
