"""Seeded workload inputs: one viscoshear config file per (workload, seed).

Seed 0 is the reference fixture of the README (gamma0 = 0.15,
gamma1 = 0.03, gamma2 = 0.8, nu = 1e-3, delta = 0.01, M auto-tuned).  Any
other seed draws nu log-uniformly from [NU_REF / NU_SPAN, NU_REF * NU_SPAN]
and keeps the rest of the fixture.

Why nu and not delta: the physics enters only through 4*nu*t and the sweep
times scale with the horizon T = gamma0^2 gamma1^2 / nu, so a seed changes
the config and every time the program reports, while the spectral numbers
and the amount of work stay those of the fixture; the outputs at any nu
follow from the reference at NU_REF by that scaling.  delta moves the tuned
amplitude M and with it the bisection counts: over delta = 0.0095, 0.01,
0.0105 one kstar-sweep request took 9.04, 7.81 and 8.52 s, a spread that
alone would exceed the wall-time bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FIXTURE_TEXT = "gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\n"
GAMMA0, GAMMA1, GAMMA2 = 0.15, 0.03, 0.8
NU_REF = 1e-3
DELTA = 0.01  # the config default, so k*(0) is tuned to 1 - DELTA
NU_SPAN = 1.25


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    expect_rc: int
    extra_config: str


WORKLOADS = {
    # Rayleigh root finding and the batched ODE: one 200-channel scan plus a
    # serial single-channel polish per wave number.  The full ``torus``
    # pipeline spends 92 % of its time in exactly this path, but one torus
    # request (about 100 s) does not fit the per-run time budget; two
    # eigencurve points cost about a quarter of that.
    "eigencurve": Workload("eigencurve", "eigencurve", 0, "k_grid = 0.95:1:2\n"),
    # Amplitude tuning plus the k*(t) sweep: strongly bound states, a
    # fixed-point Robin closure, no Rayleigh work at all.
    "sweep": Workload("sweep", "kstar-sweep", 0, ""),
    # Threshold search on the whole line: weakly bound states whose Robin
    # closure is solved by brentq.  Exit code 1 with the three criterion-9
    # failures is the correct outcome at desk scale.
    "line": Workload("line", "line", 1, ""),
}


@dataclass(frozen=True)
class Inputs:
    nu: float
    config_text: str


def inputs_for(workload: Workload, nu: float) -> Inputs:
    text = FIXTURE_TEXT
    if nu != NU_REF:
        text = text.replace("nu = 1e-3", f"nu = {nu!r}")
    return Inputs(nu, text + workload.extra_config)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The config for one seed; the same seed always gives the same text."""
    if seed == 0:
        return inputs_for(workload, NU_REF)
    return inputs_for(workload, NU_REF * NU_SPAN ** random.Random(seed).uniform(-1.0, 1.0))
