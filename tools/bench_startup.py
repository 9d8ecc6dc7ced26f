"""Cold-start cost of every CLI command: seconds, peak memory, scipy parts loaded.

    python3 tools/bench_startup.py [NAME=ROOT ...]

Each NAME=ROOT names the root of a checkout whose ``src/`` holds the
``viscoshear`` package; with none, the working directory is measured as
``this``.  Giving two roots, say ``parent=../parent change=.``, compares
them: their runs alternate, each root going first in every other round, so
a drift of the machine falls on both.  The script writes
``BENCH_startup.json`` in the working directory.

One run is one fresh ``python3`` process with one BLAS thread that imports
``viscoshear.cli`` and parses the README fixture's config with
``load_config``: the set-up every command pays before it computes, and
what perfbench's ``setup_s`` times.  Per run it records

- ``setup_s``: from just before the process is spawned until the config
  is parsed, interpreter start-up included;
- ``import_s``: the same span measured inside the process, from its first
  statement;
- ``peak_rss_mb``: the process's peak resident set size at that point;
- the scipy subpackages then in ``sys.modules``.

One unmeasured process per root first compiles the ``.pyc`` files and warms
the page cache, which a user pays once.  Each root then runs RUNS times,
and the JSON keeps every sample with its median and quartiles.
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

RUNS = 11
OUT = "BENCH_startup.json"
FIXTURE = "gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\ndelta = 0.01\n"

# argv: src directory, config path, the parent's time.monotonic() at spawn
CHILD = r"""
import sys, time
start = time.monotonic()
sys.path.insert(0, sys.argv[1])
import viscoshear.cli
from viscoshear.config import load_config
load_config(sys.argv[2])
ready = time.monotonic()
import resource
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
scipy = sorted(m[6:] for m, mod in list(sys.modules.items())
               if m.startswith("scipy.") and m.count(".") == 1 and not m[6:].startswith("_")
               and hasattr(mod, "__path__"))
import json
print(json.dumps({"setup_s": ready - float(sys.argv[3]), "import_s": ready - start,
                  "peak_rss_mb": rss, "scipy": scipy}))
"""


def spawn(src: Path, config: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)  # the package comes from ``src`` alone
    spawned = time.monotonic()
    res = subprocess.run([sys.executable, "-c", CHILD, str(src), str(config), repr(spawned)],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv) -> int:
    roots = {}
    for arg in argv or ["this=."]:
        name, sep, root = arg.partition("=")
        src = Path(root).resolve() / "src"
        if not sep or not name or not (src / "viscoshear" / "cli.py").is_file():
            print(f"expected NAME=ROOT with ROOT/src/viscoshear, got {arg!r}", file=sys.stderr)
            return 2
        roots[name] = src

    import numpy
    import scipy

    samples = {name: [] for name in roots}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fixture.cfg"
        config.write_text(FIXTURE, encoding="utf-8")
        for src in roots.values():
            spawn(src, config)  # not counted: compiles .pyc files and warms the page cache
        for i in range(RUNS):
            for name, src in list(roots.items())[:: 1 if i % 2 == 0 else -1]:
                samples[name].append(spawn(src, config))

    results = {}
    for name, runs in samples.items():
        subpackages = {tuple(r["scipy"]) for r in runs}
        if len(subpackages) != 1:
            print(f"{name}: runs loaded different scipy subpackages {subpackages}",
                  file=sys.stderr)
            return 1
        results[name] = {
            "scipy_subpackages": list(subpackages.pop()),
            **{key: dict(summary([r[key] for r in runs]), samples=[r[key] for r in runs])
               for key in ("setup_s", "import_s", "peak_rss_mb")},
        }
    out = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "openblas_threads": "1",
        },
        "config": FIXTURE,
        "runs": RUNS,
        "roots": results,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, r in results.items():
        s, i, m = r["setup_s"], r["import_s"], r["peak_rss_mb"]
        print(f"{name}: setup {s['median']:.3f} s ({s['q1']:.3f}-{s['q3']:.3f}), import "
              f"{i['median']:.3f} s ({i['q1']:.3f}-{i['q3']:.3f}), peak RSS "
              f"{m['median']:.1f} MB ({m['min']:.1f}-{m['max']:.1f}); scipy: "
              + ", ".join(r["scipy_subpackages"]))
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
