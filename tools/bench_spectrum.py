"""Per-rung cost of one converged eigensolve: LAPACK calls and seconds.

    python3 tools/bench_spectrum.py

Run it from the root of a checkout: it imports ``viscoshear`` from ``src``
and writes ``BENCH_spectrum.json`` in the working directory.  A parent
revision is measured by running this script, by its path here, from the
root of the parent's checkout.  Three cases, each one ``lowest_eigenpair``
without the mode on the default grid, for the README fixture
(gamma0 = 0.15, gamma1 = 0.03, gamma2 = 0.8, nu = 1e-3):

- ``tuned_t0``: the tuned amplitude (k* = 1 - delta at t = 0) at t = 0;
- ``tuned_T``: the same amplitude at the horizon t = T;
- ``threshold``: the whole-line threshold amplitude M0 at t = 0, the state
  of the ``line`` subcommand.

The first two are strongly bound (the ``kstar-sweep`` and ``eigencurve``
states, fixed-point Robin closure), the third weakly bound (brentq
closure).  Calls are counted by rebinding ``spectrum.eigh_tridiagonal``,
as perfbench traces a request, so nothing under ``src/`` changes: index
calls (bisection over the whole spectrum) apart from value-range calls,
which are split into window solves and pure counts (a tolerance wider than
the interval, so nothing is bisected).  Each rung is timed through
``spectrum._level``; a case runs REPEAT times and a rung reports its
fastest repeat.  The counts are the same in every repeat.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

FIXTURE = dict(gamma0=0.15, gamma1=0.03, gamma2=0.8, nu=1e-3)
DELTA = 0.01
REPEAT = 5
OUT = "BENCH_spectrum.json"


class Counter:
    """Rebinds ``spectrum.eigh_tridiagonal`` and ``spectrum._level`` to count and time rungs."""

    def __init__(self, spectrum):
        self.spectrum = spectrum
        self.calls = {"index_calls": 0, "value_windows": 0, "value_counts": 0}
        self.rungs = []

    def install(self):
        sp = self.spectrum
        eigh, level = sp.eigh_tridiagonal, sp._level

        def counted_eigh(*args, **kwargs):
            if kwargs.get("select") == "v":
                lo, hi = kwargs["select_range"]
                # a tolerance wider than the interval only counts, it bisects nothing
                self.calls["value_counts" if kwargs.get("tol", 0.0) > hi - lo else "value_windows"] += 1
            else:
                self.calls["index_calls"] += 1
            return eigh(*args, **kwargs)

        def timed_level(vfunc, grid, lev, tol_eig, *rest):
            before = dict(self.calls)
            t0 = time.perf_counter()
            out = level(vfunc, grid, lev, tol_eig, *rest)
            rung = {"n": out[0], "kappa_Y": out[3] * grid.half_width,
                    "s": time.perf_counter() - t0}
            rung.update({k: self.calls[k] - before[k] for k in self.calls})
            self.rungs.append(rung)
            return out

        sp.eigh_tridiagonal, sp._level = counted_eigh, timed_level


def measure(counter, lowest_eigenpair, state, grid):
    """Fastest-repeat seconds per rung and the rung's call counts."""
    best = None
    for _ in range(REPEAT):
        counter.rungs = []
        res = lowest_eigenpair(state, grid, want_mode=False)
        if best is None:
            best = counter.rungs
        else:
            for kept, new in zip(best, counter.rungs):
                kept["s"] = min(kept["s"], new["s"])
    return {
        "M": state.params.M,
        "t": state.t,
        "lambda1": res.lambda1,
        "lambda2": res.lambda2,
        "levels": len(best),
        "total_s": sum(r["s"] for r in best),
        "rungs": best,
    }


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))

    import numpy
    import scipy

    from viscoshear import spectrum
    from viscoshear.calibrate import find_critical_M0, tune_M_for_kstar
    from viscoshear.flow import FlowParams, FlowState

    grid = spectrum.Grid()
    params = FlowParams(M=1.0, **FIXTURE)
    tuned = tune_M_for_kstar(params, 0.0, 1.0 - DELTA, grid).M
    threshold = find_critical_M0(params, grid).M
    states = {
        "tuned_t0": FlowState(params.with_M(tuned), 0.0),
        "tuned_T": FlowState(params.with_M(tuned), params.horizon),
        "threshold": FlowState(params.with_M(threshold), 0.0),
    }

    counter = Counter(spectrum)
    counter.install()
    cases = {name: measure(counter, spectrum.lowest_eigenpair, st, grid)
             for name, st in states.items()}
    out = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "processor": platform.processor(),
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "grid": {"half_width": grid.half_width, "n_points": grid.n_points},
        "repeat": REPEAT,
        "cases": cases,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, case in cases.items():
        rungs = ", ".join(
            f"{r['n']}: {r['s'] * 1e3:.1f} ms ({r['index_calls']} index, "
            f"{r['value_windows']} window, {r['value_counts']} count)"
            for r in case["rungs"])
        print(f"{name}: {case['total_s'] * 1e3:.1f} ms; {rungs}")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
