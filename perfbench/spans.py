"""Outside-in layer trace of one request, and the per-layer metrics it yields.

The tracer rebinds module attributes at the names the callers look up, so
``src/`` stays untouched: a call through a rebound name records a span
``[name, parent, start, end, attrs]`` in memory; the spans are written out
when the request ends.  Single-threaded nesting makes the spans a tree, so
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# (module, attribute, span name); the attribute is what the caller looks up.
BINDINGS = (
    ("viscoshear.cli", "run_line_scenario", "scenario.run"),
    ("viscoshear.cli", "tune_M_for_kstar", "calibrate.tune"),
    ("viscoshear.cli", "kstar_time_sweep", "calibrate.sweep"),
    ("viscoshear.scenario", "tune_M_for_kstar", "calibrate.tune"),
    ("viscoshear.scenario", "kstar_time_sweep", "calibrate.sweep"),
    ("viscoshear.scenario", "find_critical_M0", "calibrate.threshold"),
    ("viscoshear.calibrate", "lowest_eigenpair", "spectrum.eigensolve"),
    ("viscoshear.scenario", "lowest_eigenpair", "spectrum.eigensolve"),
    ("viscoshear.spectrum", "lowest_eigenpair", "spectrum.eigensolve"),
    ("viscoshear.spectrum", "eigh_tridiagonal", "spectrum.tridiag"),
    ("viscoshear.spectrum", "eval_potential", "flow.potential"),
    ("viscoshear.rayleigh", "eigencurve", "rayleigh.eigencurve"),
    ("viscoshear.rayleigh", "eigenvalue_for_k", "rayleigh.root"),
    ("viscoshear.rayleigh", "scan_wronskian", "rayleigh.scan"),
    ("viscoshear.rayleigh", "wronskian_many", "rayleigh.wpass"),
    ("viscoshear.rayleigh", "integrate", "ode.pass"),
    ("viscoshear.cli", "csv_text", "report.format"),
    ("viscoshear.cli", "json_text", "report.format"),
    ("viscoshear.cli", "scenario_report_dict", "report.format"),
    ("viscoshear.cli", "_write", "report.write"),
)


def _describe(name, args, result):
    """Counts recorded at the boundary, from the call's arguments and result."""
    if name == "spectrum.eigensolve":
        ns = result.convergence.n_points
        return {"levels": len(ns), "max_points": max(ns)}
    if name == "spectrum.tridiag":
        return {"rows": len(args[0])}
    if name == "flow.potential":
        return {"points": int(getattr(args[1], "size", 1))}
    if name in ("calibrate.tune", "calibrate.threshold"):
        return {"iterations": result.iterations}
    if name == "rayleigh.root":
        return {"found": result is not None}
    if name == "rayleigh.wpass":
        return {"channels": len(args[2])}
    if name == "report.write":
        return {"bytes": len(args[1].encode("utf-8"))}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[4] = _describe(name, args, result)
            return result

        return traced

    def wrap_integrate(self, fn):
        """ODE passes also count right-hand-side calls through a thin counter."""

        def traced(rhs, t0, t1, y0, *args, **kwargs):
            calls = 0

            def counted(t, y):
                nonlocal calls
                calls += 1
                return rhs(t, y)

            rec = self._open("ode.pass")
            try:
                result = fn(counted, t0, t1, y0, *args, **kwargs)
            finally:
                self._close(rec)
            rec[4] = {"steps": result[2], "rhs_calls": calls, "channels": len(y0)}
            return result

        return traced

    def install(self):
        import importlib

        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            wrapped = self.wrap_integrate(fn) if name == "ode.pass" else self.wrap(name, fn)
            setattr(module, attr, wrapped)


PER_LAYER = (
    ("rayleigh.root_searches", "count"),
    ("rayleigh.roots_found", "count"),
    ("rayleigh.root_s", "s"),
    ("rayleigh.scan_s", "s"),
    ("rayleigh.w_passes", "count"),
    ("rayleigh.w_channels", "count"),
    ("rayleigh.polish_passes_per_root", "count"),
    ("ode.passes", "count"),
    ("ode.steps", "count"),
    ("ode.rhs_calls", "count"),
    ("ode.channel_steps", "count"),
    ("ode.s", "s"),
    ("ode.accept_ratio", "ratio"),
    ("spectrum.eigensolves", "count"),
    ("spectrum.eigensolve_s", "s"),
    ("spectrum.levels_per_eigensolve", "count"),
    ("spectrum.max_points", "count"),
    ("spectrum.tridiag_solves", "count"),
    ("spectrum.tridiag_rows", "count"),
    ("spectrum.tridiag_s", "s"),
    ("spectrum.tridiag_per_eigensolve", "count"),
    ("calibrate.tune_s", "s"),
    ("calibrate.tune_iterations", "count"),
    ("calibrate.tune_eigensolves", "count"),
    ("calibrate.threshold_s", "s"),
    ("calibrate.threshold_iterations", "count"),
    ("calibrate.threshold_eigensolves", "count"),
    ("calibrate.sweep_s", "s"),
    ("calibrate.sweep_eigensolves", "count"),
    ("flow.potential_calls", "count"),
    ("flow.potential_points", "count"),
    ("flow.potential_s", "s"),
    ("scenario.self_s", "s"),
    ("report.format_s", "s"),
    ("report.bytes", "B"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)


def _ratio(num, den):
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(spans, overhead_s):
    """Per-layer counts and times of one traced request (values by metric name).

    A layer the workload never enters reads 0, and a call that raised adds
    its time but no counts.  ``trace.coverage`` is the
    share of the request span covered by its direct children, the top-level
    layer spans.
    """
    dur = [end - start for _, _, start, end, _ in spans]
    child_s = [0.0] * len(spans)
    for (_, parent, _, _, _), d in zip(spans, dur):
        if parent >= 0:
            child_s[parent] += d

    def under(i, name):
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][1]
        return False

    def pick(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(idx, key=None):
        """Summed duration (s) of the spans, or the sum of one of their counts."""
        if key is None:
            return sum((dur[i] for i in idx), 0.0)
        return sum(spans[i][4].get(key, 0) for i in idx)

    roots, scans, wpasses = pick("rayleigh.root"), pick("rayleigh.scan"), pick("rayleigh.wpass")
    odes, solves, tridiags = pick("ode.pass"), pick("spectrum.eigensolve"), pick("spectrum.tridiag")
    tunes, thresholds = pick("calibrate.tune"), pick("calibrate.threshold")
    sweeps, potentials = pick("calibrate.sweep"), pick("flow.potential")
    found = total(roots, "found")
    polish = [i for i in wpasses if spans[spans[i][1]][0] == "rayleigh.root"]
    steps, rhs_calls = total(odes, "steps"), total(odes, "rhs_calls")
    request = [i for i, s in enumerate(spans) if s[1] < 0]
    return {
        "rayleigh.root_searches": len(roots),
        "rayleigh.roots_found": found,
        "rayleigh.root_s": total(roots),
        "rayleigh.scan_s": total(scans),
        "rayleigh.w_passes": len(wpasses),
        "rayleigh.w_channels": total(wpasses, "channels"),
        "rayleigh.polish_passes_per_root": _ratio(len(polish), found),
        "ode.passes": len(odes),
        "ode.steps": steps,
        "ode.rhs_calls": rhs_calls,
        "ode.channel_steps": sum(spans[i][4].get("steps", 0) * spans[i][4].get("channels", 0)
                                 for i in odes),
        "ode.s": total(odes),
        # each attempted step makes 6 RHS calls; each pass adds 1 to seed FSAL
        "ode.accept_ratio": _ratio(steps, (rhs_calls - len(odes)) / 6.0),
        "spectrum.eigensolves": len(solves),
        "spectrum.eigensolve_s": total(solves),
        "spectrum.levels_per_eigensolve": _ratio(total(solves, "levels"), len(solves)),
        "spectrum.max_points": max((spans[i][4].get("max_points", 0) for i in solves), default=0),
        "spectrum.tridiag_solves": len(tridiags),
        "spectrum.tridiag_rows": total(tridiags, "rows"),
        "spectrum.tridiag_s": total(tridiags),
        "spectrum.tridiag_per_eigensolve": _ratio(len(tridiags), len(solves)),
        "calibrate.tune_s": total(tunes),
        "calibrate.tune_iterations": total(tunes, "iterations"),
        "calibrate.tune_eigensolves": sum(under(i, "calibrate.tune") for i in solves),
        "calibrate.threshold_s": total(thresholds),
        "calibrate.threshold_iterations": total(thresholds, "iterations"),
        "calibrate.threshold_eigensolves": sum(under(i, "calibrate.threshold") for i in solves),
        "calibrate.sweep_s": total(sweeps),
        "calibrate.sweep_eigensolves": sum(under(i, "calibrate.sweep") for i in solves),
        "flow.potential_calls": len(potentials),
        "flow.potential_points": total(potentials, "points"),
        "flow.potential_s": total(potentials),
        "scenario.self_s": sum((dur[i] - child_s[i] for i in pick("scenario.run")), 0.0),
        "report.format_s": total(pick("report.format")),
        "report.bytes": total(pick("report.write"), "bytes"),
        "trace.coverage": statistics.fmean(child_s[i] / dur[i] for i in request),
        "trace.overhead_s": overhead_s,
    }
