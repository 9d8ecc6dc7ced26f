"""viscoshear benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {eigencurve,sweep,line} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each request is ``viscoshear.cli.main``
on the seed's generated config, in a fresh single-threaded driver process
(perfbench/request.py) so every lru_cache starts cold, as when a user runs
the CLI.  Requests run one after another (a closed loop with one client)
until --seconds have passed, and at least one runs.

--trace 0 prints the end-to-end metrics: the medians over the run's
requests of wall_s, cpu_s and peak_rss_mb, and the median set-up time over
at least MIN_SETUP_SAMPLES fresh processes.  --trace 1 runs the request
once untraced and once traced, requires the two to write byte-identical
files, and prints the per-layer metrics of the traced one; its
trace.overhead_s is the traced wall time minus the untraced one.

Every request's outputs are checked against the seed commit's reference
(perfbench/check.py).  The environment is printed as one JSON line before
the result, which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check_request, load_reference
from environment import environment
from spans import PER_LAYER, layer_metrics
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUEST = Path(__file__).resolve().parent / "request.py"
WORK = ROOT / ".perfbench_work"
MIN_SETUP_SAMPLES = 5
REQUEST_TIMEOUT_S = 150.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Run:
    """The files and settings of one benchmark run, in a scratch directory."""

    def __init__(self, workload, inputs, work: Path, reference):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.config = work / "case.cfg"
        self.config.write_text(inputs.config_text, encoding="utf-8")
        self.reference = reference
        self.count = 0

    def _spawn(self, setup_only: bool, traced: bool = False):
        """Start one fresh process, wait for it, and return its measurements."""
        self.count += 1
        tag = f"r{self.count}"
        out_dir = self.work / tag
        spec = {
            "src": str(SRC),
            "argv": [self.workload.subcommand, "--config", str(self.config),
                     "--out", str(out_dir)],
            "config": str(self.config),
            "result": str(self.work / f"{tag}.result.json"),
            "setup_only": setup_only,
            "spans": str(self.work / f"{tag}.spans.json") if traced else None,
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        stdout_path = self.work / f"{tag}.stdout"
        with open(stdout_path, "wb") as out, open(self.work / f"{tag}.stderr", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.run([sys.executable, str(REQUEST), str(spec_path), repr(spawned)],
                                  cwd=ROOT, stdout=out, stderr=err, timeout=REQUEST_TIMEOUT_S)
        measured = None
        if proc.returncode == 0:
            measured = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        return measured, out_dir, stdout_path, spec["spans"]

    def setup_probe(self):
        measured, _, _, _ = self._spawn(setup_only=True)
        return None if measured is None else measured["setup_s"]

    def request(self, traced: bool = False):
        """One request; returns (measurements or None, problems, out_dir, spans path)."""
        measured, out_dir, stdout_path, spans = self._spawn(False, traced)
        if measured is None:
            return None, ["request process failed"], out_dir, spans
        if self.reference is None:
            return measured, [], out_dir, spans
        problems = check_request(self.workload, self.inputs, measured["rc"], out_dir,
                                 stdout_path.read_text(encoding="utf-8"), self.reference)
        return measured, problems, out_dir, spans


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def measure(run: Run, seconds: float):
    """Requests until ``seconds`` pass; medians of the end-to-end metrics."""
    run.setup_probe()  # not counted: compiles .pyc files and warms the page cache
    deadline = time.monotonic() + seconds
    samples, attempted, failed = [], 0, 0
    while True:
        measured, problems, _, _ = run.request()
        attempted += 1
        if problems:
            failed += 1
            print(f"request {run.count} failed: {problems}", file=sys.stderr)
        if measured is not None:
            samples.append(measured)
        if time.monotonic() >= deadline:
            break
    setups = [s["setup_s"] for s in samples]
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = run.setup_probe()
        if probe is None:
            break
        setups.append(probe)
    if not samples or not setups:
        return attempted, failed, None
    values = {name: statistics.median(s[name] for s in samples) for name in
              ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return attempted, failed, values


def trace(run: Run):
    """One untraced and one traced request; per-layer metrics of the traced one."""
    plain, plain_problems, plain_out, _ = run.request()
    traced, traced_problems, traced_out, spans_path = run.request(traced=True)
    failed = sum(1 for p in (plain_problems, traced_problems) if p)
    for p in (plain_problems, traced_problems):
        if p:
            print(f"request failed: {p}", file=sys.stderr)
    if plain is None or traced is None:
        return 2, failed, None
    if not _same_files(plain_out, traced_out):
        print("traced and untraced requests wrote different files", file=sys.stderr)
        failed = max(failed, 1)
    spans = json.loads(Path(spans_path).read_text(encoding="utf-8"))
    return 2, failed, layer_metrics(spans, traced["wall_s"] - plain["wall_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread in every request process (and here, for the environment
    # record): a request is a single-threaded process, and on a small shared
    # machine a second BLAS thread only adds waits (a 13.0 s line request
    # once took 14.1 s with two).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "viscoshear" / "cli.py").is_file():
        print(f"no viscoshear sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    try:
        run = Run(workload, inputs, work, load_reference(workload.name))
        if args.trace:
            attempted, failed, values = trace(run)
            units = dict(PER_LAYER)
        else:
            attempted, failed, values = measure(run, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    if values is None:
        print("no request completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(ROOT), "workload": workload.name,
                      "seed": args.seed, "nu": inputs.nu}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
