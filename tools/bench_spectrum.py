"""Per-rung cost of one converged eigensolve: LAPACK calls and seconds.

    python3 tools/bench_spectrum.py

Run it from the root of a checkout: it imports ``viscoshear`` from ``src``
and writes ``BENCH_spectrum.json`` in the working directory.  A parent
revision whose rung 0 makes index calls only is measured by running this
script, by its path here, from the root of the parent's checkout; older
revisions (the LDL^T routing test, the uniform-only ladder) by the version
of this script they carry.  Four cases, each one ``lowest_eigenpair``
on the default grid, for the README fixture (gamma0 = 0.15, gamma1 = 0.03,
gamma2 = 0.8, nu = 1e-3):

- ``tuned_t0``: the tuned amplitude (k* = 1 - delta at t = 0) at t = 0;
- ``tuned_T``: the same amplitude at the horizon t = T;
- ``threshold``: the whole-line threshold amplitude M0 at t = 0, the state
  of the ``line`` subcommand;
- ``tuned_T_mode``: ``tuned_T`` with the mode (``want_mode=True``), the
  eigensolve of a ``torus`` request at t = T.

The tuned states are strongly bound (the ``kstar-sweep`` and ``eigencurve``
states), so they climb the mapped ladder (``spectrum._mapped_level``); the
threshold is weakly bound, so mapped rung 0's Neumann seed (one index call)
routes it to the uniform ladder (``spectrum._level``, brentq closure).
Calls are counted by rebinding ``spectrum.eigh_tridiagonal``, as perfbench
traces a request, so nothing under ``src/`` changes.  They are "index"
(eigenvalues by index) or "vector" (the mode's eigenvector call after the
ladder, with its own seconds).  Each kind also records its rows, the sum of
len(d) over its calls, so a solve on a half-size block weighs half a
full-matrix one.  Potential evaluations are
counted per case by rebinding ``spectrum.eval_potential``: "potential"
records its calls and points (the sum of the node counts it was asked
for).  Each rung is timed through ``spectrum._mapped_level`` or
``spectrum._level`` and names its ladder; a mapped rung 0 that routes the
state away has ``n`` None.  A case runs REPEAT times, and a rung and the
case's vector calls report their fastest repeat.  The counts are the same
in every repeat.
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
KINDS = ("index", "vector")  # eigh_tridiagonal calls


class Counter:
    """Rebinds ``spectrum``'s LAPACK calls, potential and rungs to count and time them."""

    def __init__(self, spectrum):
        self.spectrum = spectrum
        self.calls = {f"{kind}_{what}": 0 for kind in KINDS for what in ("calls", "rows")}
        self.rungs = []
        self.vector_s = 0.0
        self.potential = {"calls": 0, "points": 0}

    def count(self, kind, d):
        self.calls[kind + "_calls"] += 1
        self.calls[kind + "_rows"] += len(d)

    def install(self):
        sp = self.spectrum
        eigh, potential = sp.eigh_tridiagonal, sp.eval_potential

        def counted_potential(state, ys):
            self.potential["calls"] += 1
            self.potential["points"] += len(ys)
            return potential(state, ys)

        def counted_eigh(d, e, **kwargs):
            if kwargs.get("eigvals_only"):
                self.count("index", d)
                return eigh(d, e, **kwargs)
            self.count("vector", d)
            t0 = time.perf_counter()
            out = eigh(d, e, **kwargs)
            self.vector_s += time.perf_counter() - t0
            return out

        def timed(ladder, rung, half_width):
            def timed_rung(vfunc, where, lev):
                before = dict(self.calls)
                t0 = time.perf_counter()
                out = rung(vfunc, where, lev)
                record = {"ladder": ladder, "n": out and out[0],
                          "kappa_Y": out and out[3] * half_width(where),
                          "s": time.perf_counter() - t0}
                record.update({k: self.calls[k] - before[k] for k in self.calls})
                self.rungs.append(record)
                return out
            return timed_rung

        sp.eigh_tridiagonal = counted_eigh
        sp.eval_potential = counted_potential
        sp._level = timed("uniform", sp._level, lambda grid: grid.half_width)
        sp._mapped_level = timed("mapped", sp._mapped_level, lambda half_width: half_width)


def measure(counter, lowest_eigenpair, state, grid, want_mode):
    """Fastest-repeat seconds per rung and of the vector calls, with counts."""
    best = vector = None
    for _ in range(REPEAT):
        counter.rungs, counter.vector_s = [], 0.0
        counter.potential = {"calls": 0, "points": 0}
        calls, rows = counter.calls["vector_calls"], counter.calls["vector_rows"]
        res = lowest_eigenpair(state, grid, want_mode=want_mode)
        this = {"calls": counter.calls["vector_calls"] - calls,
                "rows": counter.calls["vector_rows"] - rows, "s": counter.vector_s}
        vector = this if vector is None else dict(this, s=min(vector["s"], this["s"]))
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
        "levels": sum(r["n"] is not None for r in best),
        "total_s": sum(r["s"] for r in best),
        "rungs": best,
        "vector": vector,
        "potential": counter.potential,
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
    states = {  # (state, want_mode)
        "tuned_t0": (FlowState(params.with_M(tuned), 0.0), False),
        "tuned_T": (FlowState(params.with_M(tuned), params.horizon), False),
        "threshold": (FlowState(params.with_M(threshold), 0.0), False),
        "tuned_T_mode": (FlowState(params.with_M(tuned), params.horizon), True),
    }

    counter = Counter(spectrum)
    counter.install()
    cases = {name: measure(counter, spectrum.lowest_eigenpair, st, grid, mode)
             for name, (st, mode) in states.items()}
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
            f"{r['ladder']} {r['n']}: {r['s'] * 1e3:.1f} ms ("
            + ", ".join(f"{r[k + '_calls']} {k}/{r[k + '_rows']} rows" for k in KINDS) + ")"
            for r in case["rungs"])
        vec, pot = case["vector"], case["potential"]
        print(f"{name}: {case['total_s'] * 1e3:.1f} ms; {rungs}; vector: {vec['calls']} calls/"
              f"{vec['rows']} rows, {vec['s'] * 1e3:.1f} ms; potential: {pot['calls']} calls/"
              f"{pot['points']} points")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
