"""Regenerate perfbench/reference/*.json from the code in this checkout.

    python3 perfbench/make_reference.py [--workload NAME ...]

The committed references are the seed commit's outputs on the fixture
(seed 0, nu = NU_REF), each from one fresh CLI request.  ``eigencurve``
also stores
|W(i c_max, k)| from the same 200-channel scan ``eigenvalue_for_k`` uses,
the scale of its root-residual gate.  Regenerate only when a change of the
program's numbers is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from check import CHECKS, REF_DIR
from environment import environment
from run import ROOT, SRC, WORK, Run
from workloads import GAMMA0, GAMMA1, GAMMA2, NU_REF, WORKLOADS, make_inputs


def _w_scales(output: dict) -> list:
    sys.path.insert(0, str(SRC))
    from viscoshear.flow import FlowParams, FlowState
    from viscoshear.rayleigh import scan_wronskian

    params = FlowParams(output["M"], GAMMA0, GAMMA1, GAMMA2, NU_REF)
    state = FlowState(params, output["t"])
    return [float(abs(scan_wronskian(state, q["k"])[1][-1])) for q in output["points"]]


def make(workload) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
    try:
        run = Run(workload, make_inputs(workload, 0), work, reference=None)
        measured, _, out_dir, _ = run.request()
        if measured is None or measured["rc"] != workload.expect_rc:
            raise SystemExit(f"{workload.name}: reference request failed ({measured})")
        with open(out_dir / CHECKS[workload.name][0], encoding="utf-8") as fh:
            output = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(ROOT)
    ref = {"workload": workload.name, "commit": env["commit"],
           "source_sha256": env["source_sha256"], "output": output}
    if workload.name == "eigencurve":
        ref["w_scale"] = _w_scales(output)
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    REF_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        ref = make(WORKLOADS[name])
        with open(REF_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
