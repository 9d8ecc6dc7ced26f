"""The whole-line problem: a threshold where binding resolves, and its limits.

On the whole line every positive amplitude binds (the potential well has
strictly negative integral), with an eigenvalue quadratically small in M.
The operational threshold amplitude M0 is therefore set by the spectral
tolerance, not by the flow's geometry, and the diffusion-induced shift at
M0 (a few percent of the eigenvalue) sits below the solver's resolution.
This script measures all of that, then shows that the Wronskian route
still finds a genuine unstable root at a micro wave number after
diffusion - the instability is real even where the eigenvalue bookkeeping
saturates the tolerance.
"""

import math

from viscoshear import FlowParams, FlowState, find_critical_M0, lowest_eigenpair
from viscoshear.flow import kappa1
from viscoshear.rayleigh import eigenvalue_for_k
from viscoshear.spectrum import TOL_EIG

params = FlowParams(M=1.0, gamma0=0.15, gamma1=0.03, gamma2=0.8, nu=1e-3)
T = params.horizon

c = kappa1(FlowState(params, 0.0))  # kappa1 / M at M = 1
print(f"quadratic weak-binding law (lambda ~ -(c*M)^2, first order c^2 = {c * c:.2f}):")
for M in (5e-5, 1e-4, 2e-4, 4e-4):
    lam = lowest_eigenpair(FlowState(params.with_M(M), 0.0), want_mode=False).lambda1
    print(f"  M = {M:7.1e}:  lambda(0) = {lam:+.3e}   lambda/M^2 = {lam / M**2:+.2f}")

cal = find_critical_M0(params)
# to first order in M, lambda = -kappa1^2 with kappa1 = M sqrt(pi) (1 - gamma1 gamma2) at t = 0
print(f"\nthreshold amplitude (lambda crosses -TOL_EIG/2 = {-TOL_EIG / 2.0:g}): "
      f"M0 = {cal.M:.6e}, first order {math.sqrt(TOL_EIG / 2.0) / c:.5e}")
print(f"lambda(M0, 0) = {cal.achieved:+.3e}")
lamT = lowest_eigenpair(FlowState(params.with_M(cal.M), T), want_mode=False).lambda1
print(f"lambda(M0, T) = {lamT:+.3e}")
print("The ~3% diffusion shift is below the eigensolver's resolution at this")
print("magnitude, so presence/absence at T cannot be decided from lambda alone.")

k_probe = 3.5e-5
state_T = FlowState(params.with_M(cal.M), T)
root = eigenvalue_for_k(state_T, k_probe)
if root is not None:
    print(f"\nWronskian route at k = {k_probe:g}: unstable root c_i = {root[0]:.4e} "
          f"(residual {root[1]:.1e})")
    print("so the diffused flow is demonstrably unstable at micro wave numbers")
    print("even though the bound-state eigenvalue saturates the tolerance floor.")
else:
    print(f"\nno root found at probe k = {k_probe:g}")
