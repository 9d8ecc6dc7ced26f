"""Cost of viscoshear's layers, measured in fresh processes: one harness, four cases.

    python3 tools/bench.py CASE [NAME=ROOT ...]

CASE is ``spectrum``, ``startup``, ``polish`` or ``threshold``; the tool writes
``BENCH_<CASE>.json`` in the working directory.  Each NAME=ROOT names a
checkout whose ``src/`` holds the ``viscoshear`` package; with none, the
working directory is measured as ``this``.  Two roots, say
``parent=../parent change=.``, are compared.

One unmeasured process per root first warms the page cache, and writes the
``.pyc`` files a user compiles once, unless ``PYTHONDONTWRITEBYTECODE`` is
set: the children inherit it, so then no ``.pyc`` is written and every
measured child compiles ``viscoshear`` from source (about 22 ms of
``startup``'s ``setup_s`` and ``import_s`` on 2 vCPU).  Each
``BENCH_*.json`` records the variable in its environment block.  Then each
of RUNS rounds runs every root once, in a fresh ``python3`` with one BLAS
thread and no inherited ``PYTHONPATH``, each root going first in every other
round, so a drift of the machine falls on both.  Every child reads the README fixture's config
(FIXTURE) and prints one JSON record.  A measured value (a key in MEASURED
or ending in ``_s``) becomes its median, quartiles, min and max with every
sample kept; any other value is a count or a result, and a root whose runs
disagree on one is refused (exit 1, nothing written).  Counting rebinds
module attributes in the child, as perfbench traces a request.

- ``spectrum``: ``lowest_eigenpair`` per rung of its ladder, on five states:
  ``tuned_t0`` (the amplitude tuned for k*(0) = 1 - delta, at t = 0),
  ``tuned_T`` (the same at the horizon T), ``threshold`` (the whole-line
  threshold amplitude M0 at t = 0, as in ``line``; found once per root, by its
  warm-up child, which leaves it beside the config), ``tuned_T_mode``
  (``tuned_T`` with the mode, as in ``torus``) and ``shallow_t0`` (M = 0.1 at
  t = 0, kappa * Y about 3.35, the shallowest fixture state the mapped ladder
  takes).  Tuned and shallow states climb the mapped ladder
  (``spectrum._mapped_level``); mapped rung 0, the climb's level 0 and its
  first record, makes only even-block calls (it solves no odd block); its
  Neumann seed routes the weakly bound threshold to the uniform ladder
  (``spectrum._level``), and then its record has ``n`` None.
  ``eigh_tridiagonal`` calls are "index", "window" (a value-range call in
  a certified window of a finer mapped rung) or "vector" (the mode, with
  its own seconds), and ``dpttrf`` calls are "dpttrf" (a window's
  certificate; none where ``spectrum`` has no ``_dpttrf``), each with its
  rows, the sum of len(d), so a half-line block counts half the full line;
  an index call after a refused window counts as "index".  ``eval_potential`` calls are counted
  with their points.  Each state runs REPEAT times; the whole eigensolve
  (``eigensolve_s``), a rung and the vector calls keep their fastest
  repeat.  With two CPUs the uniform ladder's rung 2 runs in a forked child
  (``spectrum._forked``), whose counts and timings stay in the child.  So that rung is recorded as
  ladder "forked", timed as the caller's wait for it, with none of its
  calls or points counted: the rungs' seconds no longer add up to the
  eigensolve's, and the threshold's counts leave out rung 2's.  The record
  names the box and the base rungs (``spectrum.HALF_WIDTH``,
  ``UNIFORM_ROWS``, ``MAP_ROWS``).
- ``startup``: what every command pays before it computes, and perfbench's
  ``setup_s``: import ``viscoshear.cli`` and ``load_config``, from just
  before the spawn (``setup_s``) and from the first statement
  (``import_s``); the peak RSS and what is then loaded: the number of
  modules, the scipy subpackages, and every module whose file lies under
  scipy's directory, whatever its name (``spectrum`` loads scipy's compiled
  ``_flapack`` and ``_zeros`` by path, as modules of those names).  A plain
  ``.py`` loaded by path never enters ``sys.modules``, so the list cannot
  show ``_ode``'s DOP853 tableau (``dop853_coefficients``); its cost shows
  only in ``setup_s`` and ``import_s``.
- ``polish``: the Rayleigh root polish at the tuned amplitude, in
  ``eigencurve`` (``rayleigh.eigencurve`` at t = T on k = 0.95, 1, the
  perfbench workload's grid), ``wide`` (``eigencurve`` at t = T on k = 0.2,
  0.6, 0.9, 0.99, 1, roots from c = 0.2 down to c = 5e-4) and ``torus``
  (``run_torus_scenario``, with its root stage, every ``eigenvalues_for_ks``
  call, timed on its own).  A root search is the outermost ``eigencurve`` or
  ``eigenvalues_for_ks`` call.  Each case records the ``wronskian_many``
  passes inside root searches (``w_passes``: a search's law-seeded window
  pass, its full scan and its polish passes, whichever it makes), the rows
  seeded from the neutral-limit law (``seeded_rows``, the wave numbers of
  the window passes), the rows given the full scan (``fallback_rows``, the
  wave numbers of the ``scan_wronskian`` passes: every row of a checkout
  that seeds none), the polish passes (those inside ``chandrupatla``), the
  roots, the polish passes that evaluated each root's bracket (mean and
  max), every c_i, the cost of every Rayleigh ODE pass in the case
  (``rayleigh.integrate`` rebound: passes, accepted steps and RHS calls, as
  counts) and its eigensolves (``spectrum._solve_potential`` rebound); the
  torus also all W passes of the run and its failed checks.  Where
  ``eigencurve`` takes the caller's eigensolve, the ``eigencurve`` and
  ``wide`` cases make ``spectrum.lowest_eigenpair(state_T)`` inside the
  timed case, as an ``eigencurve`` that made its own did inside its call.
- ``threshold``: one calibration, ``find_critical_M0`` on the fixture, as in
  ``line``: its converged eigensolves (``calibrate.lowest_eigenpair``
  rebound, as perfbench's ``calibrate.threshold_eigensolves`` counts them),
  the bisection steps decided by the first-order rule without one
  (``calibrate._ruled``), ``iterations``, the repr of M0, of its bracket
  and of the achieved lambda1, and the seconds.  On two or more roots one
  more line says whether each root's M0, bracket and lambda1 reprs equal
  the first root's, or names the roots that differ and in which.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

RUNS = 11
FIXTURE = "gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\ndelta = 0.01\n"
MEASURED = ("s", "seconds", "peak_rss_mb")

# Every child runs as ``python3 -c CHILD SRC CONFIG SPAWNED``: the src
# directory, the fixture's config path and the harness's time.monotonic()
# just before the spawn; it prints one JSON line.

SPECTRUM = r"""
import contextlib, hashlib, json, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from viscoshear import spectrum as sp
from viscoshear.calibrate import find_critical_M0, tune_M_for_kstar
from viscoshear.config import load_config
from viscoshear.flow import FlowState

REPEAT = 5
KINDS = ("index", "window", "dpttrf", "vector")
cfg = load_config(sys.argv[2])
params = cfg.params(M=1.0)
tuned = params.with_M(tune_M_for_kstar(params, 0.0, 1.0 - cfg.delta).M)
# M0 takes seconds to find: a root's first child writes it beside the config
saved = Path(sys.argv[2]).with_name(hashlib.sha256(sys.argv[1].encode()).hexdigest() + ".M0")
if not saved.exists():
    saved.write_text(repr(find_critical_M0(params).M))
threshold = params.with_M(float(saved.read_text()))

calls = {f"{kind}_{what}": 0 for kind in KINDS for what in ("calls", "rows")}
log = {}
eigh, dpttrf, potential = sp.eigh_tridiagonal, getattr(sp, "_dpttrf", None), sp.eval_potential

def counted_potential(state, ys):
    log["potential"]["calls"] += 1
    log["potential"]["points"] += len(ys)
    return potential(state, ys)

def count(kind, d):
    calls[kind + "_calls"] += 1
    calls[kind + "_rows"] += len(d)

def counted_dpttrf(d, e):
    count("dpttrf", d)
    return dpttrf(d, e)

def counted_eigh(d, e, **kwargs):
    kind = ("window" if kwargs.get("select") == "v" else
            "index" if kwargs.get("eigvals_only") else "vector")
    count(kind, d)
    if kind != "vector":
        return eigh(d, e, **kwargs)
    start = time.perf_counter()
    out = eigh(d, e, **kwargs)
    log["vector_s"] += time.perf_counter() - start
    return out

def timed(ladder, rung):
    def timed_rung(*args):
        before = dict(calls)
        start = time.perf_counter()
        out = rung(*args)
        record = {"ladder": ladder, "n": out and out[0], "kappa_Y": out and out[3] * sp.HALF_WIDTH,
                  "s": time.perf_counter() - start}
        record.update({k: calls[k] - before[k] for k in calls})
        log["rungs"].append(record)
        return out
    return timed_rung

sp.eigh_tridiagonal, sp.eval_potential = counted_eigh, counted_potential
if dpttrf is not None:
    sp._dpttrf = counted_dpttrf
sp._level = timed("uniform", sp._level)
sp._mapped_level = timed("mapped", sp._mapped_level)
forked = sp._forked

@contextlib.contextmanager
def timed_forked(fn):
    with forked(fn) as wait:  # on one CPU, wait is fn: the timed rung in this process
        yield wait if wait is fn else timed("forked", wait)

sp._forked = timed_forked

def measure(state, want_mode):
    best = vector = eigensolve = None
    for _ in range(REPEAT):
        log.update(rungs=[], vector_s=0.0, potential={"calls": 0, "points": 0})
        n, rows = calls["vector_calls"], calls["vector_rows"]
        start = time.perf_counter()
        res = sp.lowest_eigenpair(state, want_mode=want_mode)
        seconds = time.perf_counter() - start
        eigensolve = seconds if eigensolve is None else min(eigensolve, seconds)
        this = {"calls": calls["vector_calls"] - n, "rows": calls["vector_rows"] - rows,
                "s": log["vector_s"]}
        vector = this if vector is None else dict(this, s=min(vector["s"], this["s"]))
        if best is None:
            best = log["rungs"]
        else:
            for kept, new in zip(best, log["rungs"]):
                kept["s"] = min(kept["s"], new["s"])
    return {"M": state.params.M, "t": state.t, "lambda1": res.lambda1, "lambda2": res.lambda2,
            "levels": sum(r["n"] is not None for r in best), "eigensolve_s": eigensolve,
            "total_s": sum(r["s"] for r in best), "rungs": best, "vector": vector,
            "potential": log["potential"]}

cases = {
    "tuned_t0": measure(FlowState(tuned, 0.0), False),
    "tuned_T": measure(FlowState(tuned, params.horizon), False),
    "threshold": measure(FlowState(threshold, 0.0), False),
    "tuned_T_mode": measure(FlowState(tuned, params.horizon), True),
    "shallow_t0": measure(FlowState(params.with_M(0.1), 0.0), False),
}
constants = {k: getattr(sp, k) for k in ("HALF_WIDTH", "UNIFORM_ROWS", "MAP_ROWS")}
print(json.dumps({"constants": constants, "repeat": REPEAT, "cases": cases}))
"""

STARTUP = r"""
import sys, time
start = time.monotonic()
sys.path.insert(0, sys.argv[1])
import viscoshear.cli
from viscoshear.config import load_config
load_config(sys.argv[2])
ready = time.monotonic()
import resource
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
modules = dict(sys.modules)
import importlib.util, os
scipy_dirs = tuple(os.path.join(p, "")
                   for p in importlib.util.find_spec("scipy").submodule_search_locations)
of_scipy = sorted(m for m, mod in modules.items()
                  if (getattr(mod, "__file__", None) or "").startswith(scipy_dirs))
subpackages = sorted(m[6:] for m, mod in modules.items()
                     if m.startswith("scipy.") and m.count(".") == 1 and not m[6:].startswith("_")
                     and hasattr(mod, "__path__"))
import json
print(json.dumps({"modules": len(modules), "scipy_subpackages": subpackages,
                  "scipy_modules": of_scipy,
                  "setup_s": ready - float(sys.argv[3]), "import_s": ready - start,
                  "peak_rss_mb": rss}))
"""

POLISH = r"""
import inspect, json, sys, time
sys.path.insert(0, sys.argv[1])
from viscoshear import rayleigh as ray, scenario, spectrum as sp
from viscoshear.calibrate import tune_M_for_kstar
from viscoshear.config import load_config
from viscoshear.flow import FlowState

cfg = load_config(sys.argv[2])
params = cfg.params(M=1.0)
cal = tune_M_for_kstar(params, 0.0, 1.0 - cfg.delta)
state_T = FlowState(params.with_M(cal.M), params.horizon)

many, integrate, solve = ray.wronskian_many, ray.integrate, sp._solve_potential
# an eigencurve that reads the caller's eigensolve gets it inside the timed
# case; an older one solved t = T with the mode inside its own call
takes_eig = "eig" in inspect.signature(ray.eigencurve).parameters
log = {}

def counted_solve(vfunc, want_mode):
    log["eigensolves"] += 1
    return solve(vfunc, want_mode)

def counted_integrate(rhs, *args, **kwargs):
    def counted_rhs(y, st):
        log["rhs_calls"] += 1
        return rhs(y, st)
    out = integrate(counted_rhs, *args, **kwargs)
    log["ode_passes"] += 1
    log["ode_steps"] += out[2]
    return out

def counted_many(state, ks, cs):
    log["passes"] += 1
    if log["search"] is not None:
        log["search"].append((log["stage"], set(map(float, ks))))
    return many(state, ks, cs)

def staged(stage, fn):
    # a W pass inside a root search is a scan's, a polish's, or else a window's
    def run(*args, **kwargs):
        outer, log["stage"] = log["stage"], stage
        try:
            return fn(*args, **kwargs)
        finally:
            log["stage"] = outer
    return run

def counted_search(search):
    def run(state, ks, *rest):
        if log["search"] is not None:  # a search inside another: eigencurve's, where it has one
            return search(state, ks, *rest)
        log["search"] = passes = []
        start = time.perf_counter()
        try:
            out = search(state, ks, *rest)
        finally:
            log["search_s"] += time.perf_counter() - start
            log["search"] = None
        found = ([k for k, _, _ in out.points] if isinstance(out, ray.EigenCurve)
                 else [k for k, r in zip(ks, out[0]) if r is not None])
        polish = [p for stage, p in passes if stage == "polish"]
        log["w_passes"] += len(passes)
        log["polish"] += len(polish)
        log["per_root"] += [sum(float(k) in p for p in polish) for k in found]
        for stage, key in (("window", "seeded_rows"), ("scan", "fallback_rows")):
            log[key] += len(set().union(*(p for s, p in passes if s == stage)))
        return out
    return run

ray.eigencurve = counted_search(ray.eigencurve)
ray.eigenvalues_for_ks = counted_search(ray.eigenvalues_for_ks)
ray.scan_wronskian = staged("scan", ray.scan_wronskian)
ray.chandrupatla = staged("polish", ray.chandrupatla)
ray.wronskian_many, ray.integrate = counted_many, counted_integrate
sp._solve_potential = counted_solve

def case(run):
    log.update(passes=0, search=None, stage="window", search_s=0.0, w_passes=0, polish=0,
               per_root=[], seeded_rows=0, fallback_rows=0, ode_passes=0, ode_steps=0,
               rhs_calls=0, eigensolves=0)
    start = time.perf_counter()
    cis, extra = run()
    seconds = time.perf_counter() - start
    per_root = log["per_root"]
    out = {"seconds": seconds, "w_passes": log["w_passes"], "polish_passes": log["polish"],
           "roots": len(per_root), "seeded_rows": log["seeded_rows"],
           "fallback_rows": log["fallback_rows"],
           "polish_passes_per_root": {"mean": sum(per_root) / max(len(per_root), 1),
                                      "max": max(per_root, default=0)},
           "ode_passes": log["ode_passes"], "ode_steps": log["ode_steps"],
           "rhs_calls": log["rhs_calls"], "eigensolves": log["eigensolves"], "c_i": cis}
    out.update(extra)
    return out

def curve_T(ks):
    if takes_eig:
        return ray.eigencurve(state_T, ks, sp.lowest_eigenpair(state_T))
    return ray.eigencurve(state_T, ks)

def eigencurve():
    curve = curve_T([0.95, 1.0])
    return [c for _, c, _ in curve.points], {"k_zero": curve.k_zero}

def wide():
    curve = curve_T([0.2, 0.6, 0.9, 0.99, 1.0])
    return [c for _, c, _ in curve.points], {}

def torus():
    rep = scenario.run_torus_scenario(params, cfg.delta, cfg.n_times)
    failed = [c.name for c in rep.checks if not c.passed]
    dichotomy = [c.measured for c in rep.checks if c.name.startswith("dichotomy_t")]
    return [rep.ci_at_k1] + [c for c in dichotomy if c is not None], {
        "root_stage_s": log["search_s"], "all_w_passes": log["passes"],
        "checks": len(rep.checks), "checks_failed": failed}

print(json.dumps({"eigencurve": case(eigencurve), "wide": case(wide), "torus": case(torus)}))
"""

THRESHOLD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
from viscoshear import calibrate
from viscoshear.config import load_config

params = load_config(sys.argv[2]).params(M=1.0)
log = {"eigensolves": 0, "ruled_steps": 0}
eigenpair, rule = calibrate.lowest_eigenpair, calibrate._ruled

def counted_eigenpair(*args, **kwargs):
    log["eigensolves"] += 1
    return eigenpair(*args, **kwargs)

def counted_rule(M, M_lin):
    side = rule(M, M_lin)
    log["ruled_steps"] += side is not None
    return side

calibrate.lowest_eigenpair, calibrate._ruled = counted_eigenpair, counted_rule
start = time.perf_counter()
cal = calibrate.find_critical_M0(params)
seconds = time.perf_counter() - start
print(json.dumps(dict(log, iterations=cal.iterations, M0=repr(cal.M),
                      bracket=[repr(m) for m in cal.bracket], achieved=repr(cal.achieved),
                      seconds=seconds)))
"""


def show_spectrum(name: str, entry: dict) -> None:
    for c, r in entry["cases"].items():
        rungs = ", ".join(
            f"{g['ladder']} {g['n']}: {g['s']['median'] * 1e3:.1f} ms ("
            + ", ".join(f"{g[k + '_calls']} {k}/{g[k + '_rows']} rows"
                        for k in ("index", "window", "dpttrf", "vector"))
            + ")" for g in r["rungs"])
        t, vec, pot = r["eigensolve_s"], r["vector"], r["potential"]
        print(f"{name} {c}: eigensolve {t['median'] * 1e3:.1f} ms ({t['q1'] * 1e3:.1f}-"
              f"{t['q3'] * 1e3:.1f}), rungs {r['total_s']['median'] * 1e3:.1f} ms;"
              f" {rungs}; vector: {vec['calls']} calls/{vec['rows']} rows, "
              f"{vec['s']['median'] * 1e3:.1f} ms; potential: {pot['calls']} calls/"
              f"{pot['points']} points")


def show_startup(name: str, r: dict) -> None:
    s, i, m = r["setup_s"], r["import_s"], r["peak_rss_mb"]
    print(f"{name}: setup {s['median']:.3f} s ({s['q1']:.3f}-{s['q3']:.3f}), import "
          f"{i['median']:.3f} s ({i['q1']:.3f}-{i['q3']:.3f}), peak RSS "
          f"{m['median']:.1f} MB ({m['min']:.1f}-{m['max']:.1f}); {r['modules']} modules, "
          f"{len(r['scipy_modules'])} of scipy's; scipy subpackages: "
          + (", ".join(r["scipy_subpackages"]) or "none"))


def show_polish(name: str, entry: dict) -> None:
    for c, r in entry.items():
        s, pr = r["seconds"], r["polish_passes_per_root"]
        line = (f"{name} {c}: {s['median']:.3f} s ({s['q1']:.3f}-{s['q3']:.3f}), "
                f"{r['w_passes']} W passes, {r['seeded_rows']} seeded and {r['fallback_rows']} "
                f"full-scan rows, {pr['mean']:.2f} polish passes per root "
                f"(max {pr['max']}), {r['ode_passes']} ODE passes, {r['ode_steps']} steps, "
                f"{r['rhs_calls']} RHS calls, {r['eigensolves']} eigensolves")
        if c == "torus":
            line += (f", root stage {r['root_stage_s']['median']:.3f} s, {r['all_w_passes']} "
                     f"W passes in all, {len(r['checks_failed'])} of {r['checks']} checks failed")
        print(line)


def show_threshold(name: str, r: dict) -> None:
    s = r["seconds"]
    print(f"{name}: {s['median']:.3f} s ({s['q1']:.3f}-{s['q3']:.3f}), {r['eigensolves']} "
          f"eigensolves, {r['ruled_steps']} ruled steps, {r['iterations']} iterations; "
          f"M0 = {r['M0']} in ({', '.join(r['bracket'])}), lambda1 = {r['achieved']}")


def compare_threshold(results: dict) -> str:
    """Whether every root's M0, bracket and lambda1 reprs equal the first root's."""
    (first, ref), *rest = results.items()
    keys = ("M0", "bracket", "achieved")
    differ = {root: [k for k in keys if r[k] != ref[k]] for root, r in rest}
    named = "; ".join(f"{root} ({', '.join(ks)})" for root, ks in differ.items() if ks)
    if named:
        return f"M0, bracket and lambda1 reprs differ from {first}'s: {named}"
    return f"M0, bracket and lambda1 reprs equal {first}'s on every root"


class Case(NamedTuple):
    child: str
    show: Callable[[str, dict], None]
    compare: Optional[Callable[[dict], str]] = None  # a line on two or more roots


CASES = {
    "spectrum": Case(SPECTRUM, show_spectrum),
    "startup": Case(STARTUP, show_startup),
    "polish": Case(POLISH, show_polish),
    "threshold": Case(THRESHOLD, show_threshold, compare_threshold),
}


class Refused(Exception):
    """A root's runs disagree on a value that is not measured."""


def spawn(child: str, src: Path, config: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)  # the package comes from ``src`` alone
    spawned = time.monotonic()
    res = subprocess.run([sys.executable, "-c", child, str(src), str(config), repr(spawned)],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def rounds(roots: dict, run: Callable[[Path], dict], runs: int = RUNS) -> dict:
    """Every root's ``runs`` records of ``run(src)``, after one unmeasured warm-up
    each; the roots take turns, each going first in every other round."""
    for src in roots.values():
        run(src)
    samples = {name: [] for name in roots}
    for i in range(runs):
        for name, src in list(roots.items())[:: 1 if i % 2 == 0 else -1]:
            samples[name].append(run(src))
    return samples


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "samples": values}


def merge(records: list, where: str):
    """One record from every run's: measured values summarized, the rest equal."""
    first = records[0]
    if isinstance(first, dict) and all(r.keys() == first.keys() for r in records):
        return {k: summary([r[k] for r in records]) if k in MEASURED or k.endswith("_s")
                else merge([r[k] for r in records], f"{where} {k}") for k in first}
    if (isinstance(first, list) and first and isinstance(first[0], dict)
            and all(len(r) == len(first) for r in records)):
        return [merge(list(col), f"{where} [{i}]") for i, col in enumerate(zip(*records))]
    if any(r != first for r in records):
        raise Refused(f"{where} differs between runs")
    return first


def main(argv: list) -> int:
    if not argv or argv[0] not in CASES:
        print(f"usage: tools/bench.py {{{','.join(CASES)}}} [NAME=ROOT ...]", file=sys.stderr)
        return 2
    name, case = argv[0], CASES[argv[0]]
    roots = {}
    for arg in argv[1:] or ["this=."]:
        root_name, sep, root = arg.partition("=")
        src = Path(root).resolve() / "src"
        if (not sep or not root_name or root_name in roots
                or not (src / "viscoshear" / "cli.py").is_file()):
            print(f"expected NAME=ROOT with a new NAME and ROOT/src/viscoshear, got {arg!r}",
                  file=sys.stderr)
            return 2
        roots[root_name] = src

    import numpy
    import scipy

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fixture.cfg"
        config.write_text(FIXTURE, encoding="utf-8")
        samples = rounds(roots, lambda src: spawn(case.child, src, config))
    try:
        results = {root: merge(runs, f"{root}:") for root, runs in samples.items()}
    except Refused as exc:
        print(f"{name}: {exc}; nothing written", file=sys.stderr)
        return 1
    out = f"BENCH_{name}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({
            "environment": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "openblas_threads": "1",
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            },
            "config": FIXTURE,
            "runs": RUNS,
            "roots": results,
        }, fh, indent=1)
        fh.write("\n")
    for root, entry in results.items():
        case.show(root, entry)
    if case.compare and len(results) > 1:
        print(case.compare(results))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
