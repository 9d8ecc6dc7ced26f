"""The acceptance gate: every quantitative claim checked at desk scale.

Each criterion is a function of a lazily computed shared context (tuned
amplitude, time sweep, Wronskian roots, eigenvalue curve), so the CLI
``verify`` command and the pytest acceptance module exercise exactly the
same code and numbers.  Checks carry measured values and bands; timings are
printed but never serialized, keeping reports byte-reproducible.

Criterion 10's pointwise bound suite (``bound_report``: fitted envelope,
derivative and decay constants of phi1, phi2 and phi) lives here, beside its
one caller, so only ``verify`` and the tests load it.
"""

from __future__ import annotations

import math
import time
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from . import rayleigh as ray
from .config import Config
from .errors import ViscoshearError
from .flow import (
    FlowParams,
    FlowState,
    eval_b,
    eval_b_derivs,
    eval_b_slope,
    h1_diagnostics,
    h1_value,
    heat_residual,
)
from .report import check_dict, json_text, scenario_report_dict
from .scenario import (Check, ScenarioReport, _fit_min_C, profile_checked, run_line_scenario,
                       run_torus_scenario)
from .spectrum import lowest_eigenpair

__all__ = ["AcceptanceContext", "run_verify", "CRITERIA"]


class AcceptanceContext:
    """Shared lazily-computed artifacts for the acceptance criteria."""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.params = cfg.params(M=1.0)

    @cached_property
    def torus(self) -> ScenarioReport:
        return run_torus_scenario(self.params, self.cfg.delta, self.cfg.n_times)

    @cached_property
    def line(self) -> ScenarioReport:
        return run_line_scenario(self.params)

    @cached_property
    def state_T(self) -> FlowState:
        return FlowState(self.params.with_M(self.torus.M), self.params.horizon)

    @cached_property
    def state_Ttilde(self) -> FlowState:
        return FlowState(self.params.with_M(self.torus.M), self.torus.Ttilde)

    @cached_property
    def state_0(self) -> FlowState:
        return FlowState(self.params.with_M(self.torus.M), 0.0)

    @cached_property
    def mode_0(self):
        """The t = 0 eigensolve with its neutral mode, which criterion 4 checks."""
        return lowest_eigenpair(self.state_0, want_mode=True)

    @cached_property
    def curve(self):
        ks = self.cfg.k_grid_values(self.torus.kstarT)
        return ray.eigencurve(self.state_T, ks, self.torus.eig_T or lowest_eigenpair(self.state_T))

    @cached_property
    def curve_stopped(self) -> str:
        """Why ``curve`` could not be built (a k-grid past k*, say), or ""."""
        try:
            self.curve
        except ViscoshearError as exc:
            return f"eigencurve stopped: {type(exc).__name__}: {exc}"
        return ""

    @cached_property
    def partials(self):
        ci = self.torus.ci_at_k1
        return ray.wronskian_partials(self.state_T, 1.0, ci / 2.0)

    @cached_property
    def suite_states(self):
        ci = self.torus.ci_at_k1
        return [(self.state_T, 1.0, ci), (self.state_Ttilde, 1.0, 1e-4)]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1(ctx: AcceptanceContext):
    """Closed-form fidelity: heat residual and derivative cross-checks."""
    out = []
    p = ctx.params.with_M(1.0)
    T = p.horizon
    dt = T / 200.0
    ts = np.linspace(T / 5.0, T, 5)
    ys = np.array([0.05, 0.1, 0.3, 1.0, 3.0])
    worst = 0.0
    for t in ts:
        st = FlowState(p, t)
        for y in ys:
            worst = max(worst, heat_residual(st, y, dt))
    out.append(Check("heat_residual_25pts", worst < 1e-6, worst, (0, 1e-6)))

    # In float64 the b''' stencil has no viable step at t = 0 (the narrow
    # bump makes b^(5)/b''' ~ 1e6, so truncation and eps|b|/h^3 rounding
    # never both drop below 1e-6), so the stencils run in 40-digit
    # arithmetic on the profile quadrature form; this cross-checks the
    # derivative algebra independently of the closed-form expressions.
    import mpmath

    h = mpmath.mpf("1e-8")
    worst_rel = 0.0
    with mpmath.workdps(40):
        for t in (0.0, T / 2):
            st = FlowState(p, t)

            def b_mp(yv):
                s1 = mpmath.mpf(4) * p.nu * t + mpmath.mpf(p.gamma0) ** 2
                s2 = mpmath.mpf(4) * p.nu * t + (mpmath.mpf(p.gamma0) * p.gamma1) ** 2
                amp1 = mpmath.mpf(p.gamma0) ** 2
                amp2 = mpmath.mpf(p.gamma2) * p.gamma0 ** 2 * mpmath.mpf(p.gamma1) ** 3
                return yv + p.M * mpmath.sqrt(mpmath.pi) / 2 * (
                    amp1 * mpmath.erf(yv / mpmath.sqrt(s1))
                    - amp2 * mpmath.erf(yv / mpmath.sqrt(s2))
                )

            for y in (0.0, 1e-4, 1e-3, 0.02, 0.3):
                _, b1, b2, b3 = eval_b_derivs(st, y)
                bp = [b_mp(mpmath.mpf(y) + j * h) for j in (-2, -1, 0, 1, 2)]
                fd1 = float((bp[3] - bp[1]) / (2 * h))
                fd2 = float((bp[3] - 2 * bp[2] + bp[1]) / h ** 2)
                fd3 = float((bp[4] - 2 * bp[3] + 2 * bp[1] - bp[0]) / (2 * h ** 3))
                scale2 = max(abs(b2), 1e-6 * abs(b3))
                scale3 = max(abs(b3), 1e-6)
                worst_rel = max(
                    worst_rel,
                    abs(fd1 - b1) / abs(b1),
                    abs(fd2 - b2) / scale2,
                    abs(fd3 - b3) / scale3,
                )
    out.append(Check("derivs_vs_fd", worst_rel < 1e-6, worst_rel, (0, 1e-6)))
    return out


def criterion_2(ctx: AcceptanceContext):
    """Couette oracle for the regular Rayleigh solution."""
    p = FlowParams(0.0, ctx.params.gamma0, ctx.params.gamma1, ctx.params.gamma2, ctx.params.nu)
    st = FlowState(p, 0.0)
    ys = np.linspace(-10.0, 10.0, 161)
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        sol = ray.solve_phi(st, k, 0.0, ys)
        mask = np.abs(sol.ys) > 1e-9
        exact = np.sinh(k * sol.ys[mask]) / (k * sol.ys[mask])
        worst = max(worst, float(np.max(np.abs(sol.phi1[mask] - exact) / exact)))
    return [Check("couette_phi1_sinh", worst < 1e-8, worst, (0, 1e-8))]


def criterion_3(ctx: AcceptanceContext):
    """Narrow-bump dissipation diagnostics against adaptive quadrature."""
    out = []
    p = ctx.params
    T = p.horizon
    worst = 0.0
    for t in (T / 4, T / 2, T):
        diag = h1_diagnostics(p, t)
        val, _ = quad(lambda y: h1_value(p, t, y), -1.0, 1.0,
                      points=[0.0], limit=300, epsabs=1e-16, epsrel=1e-13)
        worst = max(worst, abs(val - diag.total_integral) / abs(diag.total_integral))
    out.append(Check("h1_total_vs_quadrature", worst < 1e-10, worst, (0, 1e-10)))
    g01 = p.gamma0 * p.gamma1
    zp = [h1_diagnostics(p, t).zero_point for t in (T / 4, T / 2, T)]
    lo, hi = math.sqrt(1.5) * g01, 10.0 * g01
    ok = all(lo <= z <= hi for z in zp)
    out.append(Check("h1_zero_point_bracket", ok, max(zp) / g01, (math.sqrt(1.5), 10.0)))
    return out


def _stopped(rep: ScenarioReport) -> str:
    """Where ``rep``'s pipeline stopped: its last check's name and note."""
    last = rep.checks[-1]
    return f"{rep.kind} stopped at {last.name}: {last.note}"


def _unreached(rep: ScenarioReport, names):
    """Failed checks for ``names``, whose inputs ``rep``'s pipeline never computed."""
    return [Check(name, False, None, None, _stopped(rep)) for name in names]


def _from_report(rep: ScenarioReport, names):
    """The report's own check of each name (the first one), else a failed
    "check missing" record that says where the pipeline stopped."""
    by_name = {}
    for c in rep.checks:
        by_name.setdefault(c.name, c)
    note = f"check missing; {_stopped(rep)}"
    return [by_name.get(name) or Check(name, False, None, None, note) for name in names]


def criterion_4(ctx: AcceptanceContext):
    """Spectral structure: single bound state and neutral-mode profile."""
    out = _from_report(ctx.torus, ["lambda2_nonnegative_sweep", "profile_checks"])
    if ctx.torus.M is None:
        return out + _unreached(ctx.torus, ["profile_checks_t0"])
    return out + [profile_checked("profile_checks_t0", ctx.mode_0, ctx.state_0)]


def criterion_5(ctx: AcceptanceContext):
    """Transition of the critical wave number across the horizon."""
    return _from_report(
        ctx.torus,
        [
            "kstar0_calibrated",
            "kstar_nondecreasing",
            "transition_budget_sufficient",
            "Ttilde_inside",
            "kstar_at_Ttilde",
            "excess_over_gamma1gamma2",
        ],
    )


def criterion_6(ctx: AcceptanceContext):
    """Unique unstable eigenvalue at k = 1 and the stability dichotomy; W is real
    by the mirror identity, which the two-sided determinant check tests."""
    rep = ctx.torus
    names = ["ci_root_at_k1", "root_residual", "ci_over_g0g1g2", "no_root_k1.5", "no_root_k2"]
    return _from_report(rep, names) + [c for c in rep.checks if c.name.startswith("dichotomy_")]


def criterion_7(ctx: AcceptanceContext):
    """The implicit eigenvalue curve and the Wronskian partials."""
    if ctx.torus.kstarT is None or ctx.torus.ci_at_k1 is None:
        return _unreached(ctx.torus, ["curve_ci_strictly_decreasing", "curve_slope_band",
                                      "dWr_dk_band", "dWr_dci_band", "ift_slope_matches_curve"])
    g0 = ctx.params.gamma0
    dw_dk, dw_dci = ctx.partials
    partials = [Check("dWr_dk_band", -20.0 <= dw_dk <= -1 / 20, dw_dk, (-20, -1 / 20)),
                Check("dWr_dci_band", -20.0 <= dw_dci * g0 <= -1 / 20, dw_dci * g0,
                      (-20, -1 / 20))]
    if ctx.curve_stopped:
        return partials + [Check(name, False, None, None, ctx.curve_stopped) for name in (
            "curve_ci_strictly_decreasing", "curve_slope_band", "ift_slope_matches_curve")]
    out = []
    curve = ctx.curve
    steps = [float(d) for d in np.diff([c for _, c, _ in curve.points])]
    out.append(Check("curve_ci_strictly_decreasing", bool(steps) and max(steps) < 0.0,
                     max(steps, default=None), (None, 0.0),
                     "" if steps else "fewer than 2 curve points"))
    ratios = [abs(s) / g0 for _, s in curve.slope_samples]
    ok = bool(ratios) and all(s < 0 for _, s in curve.slope_samples) and all(
        1 / 20 <= r <= 20 for r in ratios
    )
    no_slopes = "" if ratios else "no slope samples: fewer than 3 curve points"
    out.append(Check("curve_slope_band", ok, max(ratios, default=None), (1 / 20, 20), no_slopes))
    out += partials
    if not ratios:
        return out + [Check("ift_slope_matches_curve", False, None, (0, 0.2), no_slopes)]
    slope_ift = -dw_dk / dw_dci
    k_near = min(curve.slope_samples, key=lambda t: abs(t[0] - 1.0))
    rel = abs(slope_ift - k_near[1]) / abs(k_near[1])
    out.append(Check("ift_slope_matches_curve", rel <= 0.2, rel, (0, 0.2)))
    return out


def criterion_8(ctx: AcceptanceContext):
    """Cross-solver consistency of the neutral point and mode."""
    out = _from_report(ctx.torus, ["boundary_wronskian_at_kstar", "phiB_matches_eigenmode"])
    if ctx.torus.kstarT is None:
        return out + _unreached(ctx.torus, ["curve_zero_matches_kstarT"])
    if ctx.curve_stopped:
        return out + [Check("curve_zero_matches_kstarT", False, None, None, ctx.curve_stopped)]
    if ctx.curve.k_zero is None:
        return out + [Check("curve_zero_matches_kstarT", False, None, (0, 1e-3),
                            "no curve zero: fewer than 2 distinct curve points")]
    rel = abs(ctx.curve.k_zero - ctx.torus.kstarT) / ctx.torus.kstarT
    out.append(Check("curve_zero_matches_kstarT", rel <= 1e-3, rel, (0, 1e-3)))
    return out


def criterion_9(ctx: AcceptanceContext):
    """Whole-line scenario at the threshold amplitude."""
    return _from_report(
        ctx.line,
        ["kstar_absent_t0", "kstar_present_T", "kstarT_over_g1g2", "root_at_half_kstarT"],
    )


def bound_report(state: FlowState, sol: ray.PhiSolution):
    """Envelope, derivative and decay constants for phi1 (A4 to A9), the
    smallness of the phi2 correction at wave speed ic_i (A10 to A12) and the
    two-sided modulus envelope of the assembled phi (A13), fitted as
    ``(constants, signs_ok)``; ``signs_ok`` says phi1 >= 1 and y phi1' >= 0."""
    k, c_i, ys = sol.k, sol.c_i, sol.ys
    f, df = sol.phi1, sol.dphi1
    signs_ok = bool(np.all(f >= 1.0 - 1e-9) and np.all(ys * df >= -1e-10 * (1.0 + np.abs(ys))))

    def env(C):
        grow = np.exp(np.minimum(C * k * np.abs(ys), 690.0))
        return bool(np.all(f <= C * grow) and np.all(f >= np.exp(k * np.abs(ys) / C) / C))

    c_env = _fit_min_C(env)
    mask = np.abs(ys) >= 1e-4
    c_dphi = float(np.max(np.abs(df[mask]) / (k * np.minimum(k * np.abs(ys[mask]), 1.0) * f[mask])))
    b, b1 = eval_b_slope(state, ys[mask])
    ddf = k * k * f[mask] - 2.0 * (b1 / b) * df[mask]
    c_ddphi = float(np.max(np.abs(ddf) / (k * k * f[mask])))
    c_excess = float(np.max((f[mask] - 1.0) / (np.minimum(1.0, (k * ys[mask]) ** 2) * f[mask])))

    left = ys <= 0.0
    yl, fl = ys[left], f[left]
    dmat = yl[None, :] - yl[:, None]
    ratio = fl[None, :] / fl[:, None]
    upper = np.triu(np.ones_like(dmat, dtype=bool), k=1)

    def decay(C):
        return bool(np.all(ratio[upper] <= C * np.exp(-k * dmat[upper] / C)))

    c_decay = _fit_min_C(decay)

    y = ys[mask]
    f2 = sol.phi2[mask]
    df2 = sol.dphi2[mask]
    bound10 = np.minimum(k * c_i, np.minimum(k * k * c_i * np.abs(y), (k * np.abs(y)) ** 2))
    c10 = float(np.max(np.abs(f2 - 1.0) / bound10))
    c11 = float(np.max(np.abs(df2) / (k * k * np.minimum(c_i, np.abs(y)))))
    wide = np.abs(ys) >= 1e-3
    b, b1 = eval_b_slope(state, ys[wide])
    u = b - 1j * c_i
    f1w = f[wide]
    df1w = df[wide]
    f2w = sol.phi2[wide]
    df2w = sol.dphi2[wide]
    flux_deriv = 2.0 * u * b1 * f1w ** 2 + u * u * 2.0 * f1w * df1w
    ddf2 = (-(2j * c_i * b1 * u / b) * f1w * df1w * f2w - flux_deriv * df2w) / (u * u * f1w ** 2)
    c12 = float(np.max(np.abs(ddf2)) / (k * k))

    phi = np.abs((eval_b(state, ys) - 1j * c_i) * f * sol.phi2)
    dist = np.sqrt(ys ** 2 + c_i ** 2)

    def phi_env(C):
        grow = np.exp(np.minimum(C * k * np.abs(ys), 690.0))
        return bool(
            np.all(phi <= dist * grow + 1e-300)
            and np.all(phi >= dist * np.exp(k * np.abs(ys) / C) / C)
        )

    return {
        "A4_envelope": c_env,
        "A5_dphi1": c_dphi,
        "A6_ddphi1": c_ddphi,
        "A7_excess": c_excess,
        "A8_A9_decay": c_decay,
        "A10_phi2m1": c10,
        "A11_dphi2": c11,
        "A12_ddphi2": c12,
        "A13_phi_envelope": _fit_min_C(phi_env),
    }, signs_ok


def criterion_10(ctx: AcceptanceContext):
    """Pointwise bound suites for phi1, phi2 and the assembled solution."""
    if ctx.torus.ci_at_k1 is None:
        return _unreached(ctx.torus, ["bound_suites_T", "bound_suites_Ttilde"])
    out = []
    ys = np.linspace(-20.0, 20.0, 401)
    cap = 50.0
    for state, k, ci in ctx.suite_states:
        tag = "T" if state is ctx.state_T else "Ttilde"
        sol = ray.solve_phi(state, k, ci, ys)
        constants, signs_ok = bound_report(state, sol)
        worst = max(constants.values())
        ok = signs_ok and worst <= cap
        note = "" if ok else f"phi1 signs {signs_ok}"
        out.append(Check(f"bound_suites_{tag}", ok, worst, (0, cap), note))
    return out


def criterion_11(ctx: AcceptanceContext):
    """Byte determinism of the CSV/JSON emitters on a cheap end-to-end run."""
    import os
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    # the child must import this package, installed or not
    path = [str(Path(__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    cfg_text = (
        "gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\nM = 0\n"
        "n_times = 8\n"
    )
    outs = []
    with tempfile.TemporaryDirectory() as td:
        cfg_path = Path(td) / "cfg.txt"
        cfg_path.write_text(cfg_text)
        for sub in ("run1", "run2"):
            out_dir = Path(td) / sub
            out_dir.mkdir()
            res = subprocess.run(
                [sys.executable, "-m", "viscoshear.cli", "kstar-sweep",
                 "--config", str(cfg_path), "--out", str(out_dir)],
                capture_output=True,
                env=env,
            )
            if res.returncode != 0:
                return [Check("cli_rerun_byte_identical", False, None, None,
                              res.stderr.decode()[-200:])]
            outs.append((out_dir / "kstar_curve.csv").read_bytes())
    same_cli = outs[0] == outs[1]
    j1 = json_text(scenario_report_dict(ctx.torus))
    j2 = json_text(scenario_report_dict(ctx.torus))
    return [
        Check("cli_rerun_byte_identical", same_cli, None, None),
        Check("report_serialization_stable", j1 == j2, None, None),
    ]


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_verify(cfg: Config, echo=print):
    """Run all criteria; returns (report_dict, all_passed).

    One line per criterion is printed with its wall time; the returned
    report contains no timing information so re-runs serialize identically.
    """
    ctx = AcceptanceContext(cfg)
    t0 = time.time()
    ctx.torus, ctx.line  # build the shared pipelines up front
    if ctx.torus.kstarT is not None:
        ctx.curve_stopped  # builds the curve, or records why it stopped
    echo(f"shared pipelines (calibration, sweeps, roots, curve): {time.time() - t0:6.1f}s")
    checks = []
    for i, crit in enumerate(CRITERIA, start=1):
        t0 = time.time()
        results = crit(ctx)
        dt = time.time() - t0
        status = "PASS" if all(r.passed for r in results) else "FAIL"
        fails = ", ".join(r.name for r in results if not r.passed)
        echo(f"criterion {i:2d} [{status}] ({dt:6.1f}s)" + (f"  failed: {fails}" if fails else ""))
        checks += [{"criterion": i, **check_dict(r)} for r in results]
    all_ok = all(c["passed"] for c in checks)
    return {"suite": "viscoshear-verify", "all_passed": all_ok, "checks": checks}, all_ok
