"""Output check: one request's files against the seed commit's reference outputs.

The gates are the ones the program already states:
- k* within tol_cal (twice tol_cal between two runs, since each run may sit
  anywhere in its own tol_cal calibration band), and the tuned k*(0)
  within tol_cal of its target 1 - delta;
- lambda within 10 * tol_eig wherever no k* gates it;
- every root residual <= 1e-10 * |W(i c_max, k)|;
- the same pass/fail pattern of report checks (criterion 9 included: its
  three failures are part of the expected pattern);
plus the program's own curve and crossing checks.  Outputs at any nu are
compared with the reference at NU_REF through the exact 4*nu*t scaling.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from workloads import DELTA, GAMMA0, GAMMA1

TOL_CAL = 1e-6  # config default, which the generated configs keep
TOL_EIG = 1e-8
REF_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str) -> dict:
    with open(REF_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class _Problems(list):
    def require(self, ok, what):
        if not ok:
            self.append(what)


def check_eigencurve(out: dict, stdout: str, reference: dict, nu: float):
    p = _Problems()
    ref = reference["output"]
    m = re.search(r"tuned M = \S+ \(k\* = (\S+)\)", stdout)
    p.require(m is not None, "tuned k*(0) not printed")
    if m is not None:
        p.require(abs(float(m.group(1)) - (1.0 - DELTA)) <= TOL_CAL, "k*(0) off its target")
    p.require(_close(out["t"], GAMMA0 ** 2 * GAMMA1 ** 2 / nu, 1e-12), "t is not T")
    pts, ref_pts = out["points"], ref["points"]
    p.require([q["k"] for q in pts] == [q["k"] for q in ref_pts], "wave-number grid differs")
    if len(pts) == len(ref_pts):
        for q, r, w_scale in zip(pts, ref_pts, reference["w_scale"]):
            p.require(abs(q["c_i"] - r["c_i"]) <= 2.0 * TOL_CAL, f"c_i at k={q['k']}")
            p.require(q["residual"] <= 1e-10 * w_scale, f"root residual at k={q['k']}")
    cis = [q["c_i"] for q in pts]
    p.require(all(b < a for a, b in zip(cis, cis[1:])), "c_i(k) not strictly decreasing")
    # the program's own gate between the curve zero and k*(T)
    p.require(out["k_zero"] is not None and _close(out["k_zero"], ref["k_zero"], 1e-3),
              "k_zero differs")
    return p


def check_sweep(out: dict, stdout: str, reference: dict, nu: float):
    p = _Problems()
    ref = reference["output"]
    T = GAMMA0 ** 2 * GAMMA1 ** 2 / nu
    p.require(_close(out["T"], T, 1e-12), "T differs")
    p.require(len(out["t"]) == len(ref["t"]), "sample count differs")
    if len(out["t"]) != len(ref["t"]):
        return p
    p.require(all(_close(a / T, b / ref["T"], 1e-12) or a == b == 0.0
                  for a, b in zip(out["t"], ref["t"])), "sample times differ")
    ks, ref_ks = out["kstar"], ref["kstar"]
    p.require([k is None for k in ks] == [k is None for k in ref_ks], "bound-state pattern")
    p.require(ks[0] is not None and abs(ks[0] - (1.0 - DELTA)) <= TOL_CAL, "k*(0) off target")
    for j, (k, rk, l1, rl1, l2, rl2) in enumerate(zip(
            ks, ref_ks, out["lambda1"], ref["lambda1"], out["lambda2"], ref["lambda2"])):
        if k is not None and rk is not None:
            p.require(abs(k - rk) <= 2.0 * TOL_CAL, f"k* at sample {j}")
        else:
            p.require(abs(l1 - rl1) <= 10.0 * TOL_EIG, f"lambda1 at sample {j}")
        p.require(abs(l2 - rl2) <= 10.0 * TOL_EIG, f"lambda2 at sample {j}")
    lam = [-(k or 0.0) ** 2 for k in ks]
    p.require(all(b - a <= 10.0 * TOL_EIG for a, b in zip(lam, lam[1:])), "k*(t) decreases")
    if ref["Ttilde"] is None or out["Ttilde"] is None:
        p.require(ref["Ttilde"] is None and out["Ttilde"] is None, "crossing pattern")
        return p
    # the crossing time moves by (2 tol_cal from M + 2 tol_cal from the
    # crossing gate) / dk*/dt; half the secant slope over the straddling
    # samples stands in for dk*/dt, which falls across that interval
    rt = [t / ref["T"] for t in ref["t"]]
    j = max(i for i in range(len(rt) - 1) if rt[i] <= ref["Ttilde"] / ref["T"])
    slope = (ref_ks[j + 1] - (ref_ks[j] or 0.0)) / (rt[j + 1] - rt[j])
    p.require(abs(out["Ttilde"] / T - ref["Ttilde"] / ref["T"]) <= 8.0 * TOL_CAL / slope,
              "crossing time differs")
    return p


def check_line(out: dict, stdout: str, reference: dict, nu: float):
    p = _Problems()
    ref = reference["output"]
    p.require(out["kind"] == "line", "not a line report")
    p.require(_close(out["T"], GAMMA0 ** 2 * GAMMA1 ** 2 / nu, 1e-12), "T differs")
    # find_critical_M0 pins M0 to a bracket of relative width 1e-4
    p.require(_close(out["params"]["M"], ref["params"]["M"], 2e-4), "M0 differs")
    pattern = [(c["name"], c["passed"]) for c in out["checks"]]
    p.require(pattern == [(c["name"], c["passed"]) for c in ref["checks"]],
              f"check pattern differs: {pattern}")
    for c, r in zip(out["checks"], ref["checks"]):
        if (c["measured"] is None) or (r["measured"] is None):
            p.require(c["measured"] is None and r["measured"] is None, f"{c['name']} presence")
        elif c["name"] in ("critical_M0", "kstar_absent_t0", "kstar_present_T"):
            p.require(abs(c["measured"] - r["measured"]) <= 10.0 * TOL_EIG, f"{c['name']} value")
    return p


CHECKS = {
    "eigencurve": ("eigencurve.json", check_eigencurve),
    "sweep": ("kstar_curve.json", check_sweep),
    "line": ("report.json", check_line),
}


def check_request(workload, inputs, rc, out_dir: Path, stdout: str, reference) -> list:
    """Problems found in one request's outputs; empty when they pass."""
    if rc != workload.expect_rc:
        return [f"exit code {rc}, expected {workload.expect_rc}"]
    name, check = CHECKS[workload.name]
    try:
        with open(out_dir / name, encoding="utf-8") as fh:
            out = json.load(fh)
        return list(check(out, stdout, reference, inputs.nu))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
