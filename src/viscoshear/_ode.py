"""Adaptive embedded Runge-Kutta 8(5,3) (DOP853) for batched complex ODE systems.

The tableau is Dormand and Prince's eighth-order pair (J. Comput. Appl.
Math. 6 (1980) 19) in the form of Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed. 1993, section II.10: twelve
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

__all__ = ["integrate"]

_STAGES = 12


def _dense(*rows: dict) -> np.ndarray:
    # complex, the state's dtype, so no stage casts a row: a + 0j times the
    # state gives the bits a real a gives
    out = np.zeros((len(rows), _STAGES), dtype=complex)
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


_C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
# stage couplings a[i][j] (j < i), nonzero entries only
_A = _dense(
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {
        0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    {
        0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    {
        0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2,
    },
    {
        0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    {
        0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1,
    },
    {
        0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    {
        0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022,
    },
    {
        0: 2.27331014751653820792359768449,
        3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1,
        7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258,
        9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
)
# eighth-order weights
_B = _dense({
    0: 5.42937341165687622380535766363e-2,
    5: 4.45031289275240888144113950566,
    6: 1.89151789931450038304281599044,
    7: -5.8012039600105847814672114227,
    8: 3.1116436695781989440891606237e-1,
    9: -1.52160949662516078556178806805e-1,
    10: 2.01365400804030348374776537501e-1,
    11: 4.47106157277725905176885569043e-2,
})[0]
# error weights: eighth order minus the embedded fifth-order pair (row 0, as
# tabulated) and minus the embedded third-order weights (row 1, tabulated as
# the weights themselves and subtracted below)
_E = _dense(
    {
        0: 0.1312004499419488073250102996e-1,
        5: -0.1225156446376204440720569753e+1,
        6: -0.4957589496572501915214079952,
        7: 0.1664377182454986536961530415e+1,
        8: -0.3503288487499736816886487290,
        9: 0.3341791187130174790297318841,
        10: 0.8192320648511571246570742613e-1,
        11: -0.2235530786388629525884427845e-1,
    },
    {
        0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1,
    },
)
_E[1] = _B - _E[1]
_A_ROWS = tuple(_A[i, :i] for i in range(_STAGES))  # stage i's couplings to the earlier ones

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
RTOL = 1e-10
ATOL = 1e-13
MAX_STEPS = 2_000_000


def _error_norm(h: float, err: np.ndarray, scale: np.ndarray) -> float:
    """Largest per-channel error estimate; ``err`` stacks (e5, e3) on axis 0."""
    ratio = np.square(np.abs(err.reshape((2,) + scale.shape) / scale))
    e5, e3 = ratio.sum(axis=2)
    denom = (e5 + 0.01 * e3) * scale.shape[1]
    per_channel = np.divide(e5, np.sqrt(denom), out=np.zeros_like(e5), where=denom > 0.0)
    return h * float(per_channel.max(initial=0.0))


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray], t0: float, t1: float,
              y0: np.ndarray, h: float, samples: Sequence[float] = ()):
    """Integrate y' = rhs(t, y) forward from t0 to t1 >= t0, h the first trial step.

    Returns ``(y_final, sampled, n_steps)``, ``sampled`` the states at the
    ascending ``samples``.  Raises ``ValueError`` for t1 < t0 or a sample
    outside [t0, t1], ``StepFailure`` when the step underflows, MAX_STEPS
    runs out or a sample is not reached.
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
