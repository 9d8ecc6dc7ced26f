"""viscoshear: spectral stability of diffusing shear flows.

A closed-form family of shear profiles spreads under heat diffusion; this
package computes the critical wave number and neutral mode of the associated
Rayleigh problem, calibrates the amplitude to prescribed targets, locates the
purely imaginary unstable eigenvalue through the Wronskian of the Rayleigh
equation, and packages end-to-end stability-transition scenarios behind a
small CLI.
"""

from .errors import (
    BracketFailure,
    ConfigError,
    MultipleRoots,
    NonConvergence,
    ParseError,
    StepFailure,
    TailDominance,
    ValidationError,
    ViscoshearError,
)
from .flow import (
    FlowParams,
    FlowState,
    H1Diagnostics,
    eval_b,
    eval_b_derivs,
    eval_potential,
    h1_diagnostics,
    heat_residual,
)
from .spectrum import SpectralResult, lowest_eigenpair
from .calibrate import (
    CalibrationResult,
    KstarCurve,
    find_critical_M0,
    kstar_time_sweep,
    tune_M_for_kstar,
)
from .rayleigh import (
    EigenCurve,
    PhiSolution,
    eigencurve,
    eigenvalue_for_k,
    eigenvalues_for_ks,
    neutral_mode_phiB,
    solve_phi,
    wronskian_partials,
)
from .scenario import ScenarioReport, run_line_scenario, run_torus_scenario
from .config import Config, load_config, parse_config

__version__ = "0.1.0"
