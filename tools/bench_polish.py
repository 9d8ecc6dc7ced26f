"""Cost of the Rayleigh root polish: W passes, polish passes per root, seconds.

    python3 tools/bench_polish.py [NAME=ROOT ...]

Each NAME=ROOT names the root of a checkout whose ``src/`` holds the
``viscoshear`` package; with none, the working directory is measured as
``this``.  Giving two roots, say ``parent=../parent change=.``, compares
them: their runs alternate, each root going first in every other round, so
a drift of the machine falls on both.  The script writes
``BENCH_polish.json`` in the working directory.

One run is one fresh ``python3`` process with one BLAS thread.  It tunes
the README fixture's amplitude for k*(0) = 1 - delta, as ``eigencurve`` and
``torus`` do, and then times three cases:

- ``eigencurve``: ``rayleigh.eigencurve`` at t = T on k = 0.95, 1, the
  perfbench workload's grid;
- ``wide``: ``rayleigh.eigenvalues_for_ks`` at t = T on k = 0.2, 0.6, 0.9,
  0.99, 1, roots from c = 0.2 down to c = 5e-4;
- ``torus``: ``scenario.run_torus_scenario``, of which the root stage (the
  t = T batch and the dichotomy probes, every ``eigenvalues_for_ks`` call)
  is timed on its own.

Per case it records the seconds, the ``wronskian_many`` passes inside root
searches (``w_passes``: one scan per search plus its polish passes), the
polish passes, the roots found, the polish passes that evaluated each root's
bracket (``polish_passes_per_root``, mean and max), every c_i, and for the
torus all W passes of the run and whether its checks passed.  Each root runs
RUNS times; the JSON keeps every sample of the seconds with its median and
quartiles, and the counts, which do not vary from run to run, once.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 11
OUT = "BENCH_polish.json"
CASES = ("eigencurve", "wide", "torus")

# argv: src directory; prints one JSON line with every case's numbers
CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
from viscoshear import rayleigh as ray, scenario
from viscoshear.calibrate import tune_M_for_kstar
from viscoshear.config import Config
from viscoshear.flow import FlowState

cfg = Config()
params = cfg.params(M=1.0)
grid = cfg.grid()
cal = tune_M_for_kstar(params, 0.0, 1.0 - cfg.delta, grid)
state_T = FlowState(params.with_M(cal.M), params.horizon)

many, search = ray.wronskian_many, ray.eigenvalues_for_ks
log = {}

def counted_many(state, ks, cs):
    log["passes"] += 1
    if log["search"] is not None:
        log["search"].append(set(map(float, ks)))
    return many(state, ks, cs)

def counted_search(state, ks):
    log["search"] = passes = []
    start = time.perf_counter()
    try:
        roots, cs, w = search(state, ks)
    finally:
        log["search_s"] += time.perf_counter() - start
        log["search"] = None
    log["scans"] += 1
    log["polish"] += len(passes) - 1
    log["per_root"] += [sum(float(k) in p for p in passes[1:])
                        for k, r in zip(ks, roots) if r is not None]
    return roots, cs, w

ray.wronskian_many, ray.eigenvalues_for_ks = counted_many, counted_search

def case(run):
    log.update(passes=0, search=None, search_s=0.0, scans=0, polish=0, per_root=[])
    start = time.perf_counter()
    cis, extra = run()
    seconds = time.perf_counter() - start
    per_root = log["per_root"]
    out = {"seconds": seconds, "w_passes": log["scans"] + log["polish"],
           "polish_passes": log["polish"], "roots": len(per_root),
           "polish_passes_per_root": {"mean": sum(per_root) / max(len(per_root), 1),
                                      "max": max(per_root, default=0)},
           "c_i": cis}
    out.update(extra)
    return out

def eigencurve():
    curve = ray.eigencurve(state_T, [0.95, 1.0])
    return [c for _, c, _ in curve.points], {"k_zero": curve.k_zero}

def wide():
    roots, _, _ = ray.eigenvalues_for_ks(state_T, [0.2, 0.6, 0.9, 0.99, 1.0])
    return [r[0] for r in roots if r is not None], {}

def torus():
    rep = scenario.run_torus_scenario(params, grid, cfg.delta, cfg.n_times)
    failed = [c.name for c in rep.checks if not c.passed]
    return [rep.ci_at_k1] + [c for _, _, c in rep.dichotomy if c is not None], {
        "root_stage_s": log["search_s"], "all_w_passes": log["passes"],
        "checks": len(rep.checks), "checks_failed": failed}

print(json.dumps({"eigencurve": case(eigencurve), "wide": case(wide), "torus": case(torus)}))
"""


def spawn(src: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)  # the package comes from ``src`` alone
    res = subprocess.run([sys.executable, "-c", CHILD, str(src)], capture_output=True,
                         text=True, env=env, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv) -> int:
    roots = {}
    for arg in argv or ["this=."]:
        name, sep, root = arg.partition("=")
        src = Path(root).resolve() / "src"
        if not sep or not name or not (src / "viscoshear" / "rayleigh.py").is_file():
            print(f"expected NAME=ROOT with ROOT/src/viscoshear, got {arg!r}", file=sys.stderr)
            return 2
        roots[name] = src

    import numpy
    import scipy

    samples = {name: [] for name in roots}
    for i in range(RUNS):
        for name, src in list(roots.items())[:: 1 if i % 2 == 0 else -1]:
            samples[name].append(spawn(src))

    results = {}
    for name, runs in samples.items():
        results[name] = {}
        for c in CASES:
            counts = {json.dumps({k: v for k, v in r[c].items() if not k.endswith("seconds")
                                  and not k.endswith("_s")}, sort_keys=True) for r in runs}
            if len(counts) != 1:
                print(f"{name}: {c} counts or roots differ between runs", file=sys.stderr)
                return 1
            timed = {key: dict(summary([r[c][key] for r in runs]),
                               samples=[r[c][key] for r in runs])
                     for key in runs[0][c] if key == "seconds" or key.endswith("_s")}
            results[name][c] = {**json.loads(counts.pop()), **timed}
    out = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "openblas_threads": "1",
        },
        "runs": RUNS,
        "roots": results,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, r in results.items():
        for c in CASES:
            s, pr = r[c]["seconds"], r[c]["polish_passes_per_root"]
            line = (f"{name} {c}: {s['median']:.3f} s ({s['q1']:.3f}-{s['q3']:.3f}), "
                    f"{r[c]['w_passes']} W passes, {pr['mean']:.2f} polish passes per root "
                    f"(max {pr['max']})")
            if c == "torus":
                rs = r[c]["root_stage_s"]
                line += (f", root stage {rs['median']:.3f} s, {r[c]['all_w_passes']} W passes "
                         f"in all, {len(r[c]['checks_failed'])} of {r[c]['checks']} checks failed")
            print(line)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
