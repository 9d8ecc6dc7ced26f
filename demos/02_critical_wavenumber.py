"""The critical wave number drifting across k = 1 under diffusion.

Tunes the amplitude so the initial critical wave number is 0.99, then
sweeps k*(t) across the diffusion horizon: the sweep is monotone and
crosses 1 at a sharp time Ttilde, switching the k = 1 mode of the periodic
problem from spectrally stable to unstable.

Outputs: kstar_sweep.csv, kstar_vs_t.svg in ./demo_out.
"""

from pathlib import Path

from viscoshear import FlowParams, kstar_time_sweep, tune_M_for_kstar
from viscoshear.report import csv_text, svg_line_plot

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

params = FlowParams(M=1.0, gamma0=0.15, gamma1=0.03, gamma2=0.8, nu=1e-3)
cal = tune_M_for_kstar(params, t=0.0, target_kstar=0.99)
print(f"tuned amplitude: M = {cal.M:.8f}  (k*(0) = {cal.achieved:.8f}, "
      f"{cal.iterations} finishing iterations)")

curve = kstar_time_sweep(cal.M, params, n_times=9)
print(f"\n{'t/T':>8} {'k*(t)':>12}")
for t, k in zip(curve.times, curve.kstars):
    print(f"{t / curve.T:8.3f} {k:12.7f}")
print(f"\ncrossing time: Ttilde = {curve.Ttilde:.6f}  (Ttilde/T = {curve.Ttilde / curve.T:.4f})")
print("k* rises fastest early (while the narrow bump is dissolving) and")
print("saturates near the horizon; the tuned 0.01 gap is bridged before T.")

rows = list(zip(curve.times, curve.kstars, curve.lambda1s, curve.lambda2s))
(OUT / "kstar_sweep.csv").write_text(csv_text(("t", "kstar", "lambda1", "lambda2"), rows))
(OUT / "kstar_vs_t.svg").write_text(
    svg_line_plot([("k*(t)", list(curve.times), list(curve.kstars))],
                  "t", "k*", "critical wave number vs time")
)
print(f"wrote {OUT/'kstar_sweep.csv'} and {OUT/'kstar_vs_t.svg'}")
