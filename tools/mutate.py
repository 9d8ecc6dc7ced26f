"""Which guards does tier-1 defend?  A mutation run over named mutants of ``src/``.

    python3 tools/mutate.py [NAME ...]

Each mutant in MUTANTS is a (name, file, exact old text, new text, guard
attacked) record; with no NAME every mutant runs, in list order.  For each,
the tool copies the repo (without ``.git`` and caches) to a temporary
directory, refuses the mutant unless its old text occurs exactly once in its
file, applies it there and runs tier-1 in that copy with ``-x`` (TIER_1:
criterion 9, which fails on working code, and the list's own test
deselected), one mutant at a time.  It prints
one line per mutant: killed or survived, the first failing test and the
seconds.  It never writes into the repo.  A full run costs about one suite
per surviving mutant (about a minute on 2 vCPU), less when one is killed
early, so it is not part of tier-1.

A mutant that makes a check more lenient is a probe of the tests only; it
never lands in ``src/``.  A survivor gets a test that pins its guard on a
real state, or a FOUND in CHANGES.md saying why no state reaches it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repo's root
    old: str
    new: str
    guard: str


MUTANTS = (
    Mutant("w_parity", "src/viscoshear/rayleigh.py",
           "_W_PARITY = np.array([1.0, -1.0, 1.0, -1.0, -1.0])",
           "_W_PARITY = np.array([1.0, -1.0, 1.0, -1.0, 1.0])",
           "the mirror's sign of the last ODE channel"),
    Mutant("richardson_weight", "src/viscoshear/spectrum.py",
           "rich1.append(raw1[-1] + (raw1[-1] - raw1[-2]) / 3.0)",
           "rich1.append(raw1[-1] + (raw1[-1] - raw1[-2]) / 4.0)",
           "Richardson's h^2 weight"),
    Mutant("tol_cal", "src/viscoshear/calibrate.py",
           "TOL_CAL = 1e-6", "TOL_CAL = 1e-5",
           "the calibration tolerance"),
    Mutant("root_rtol", "src/viscoshear/rayleigh.py",
           "ROOT_RTOL = 1e-10", "ROOT_RTOL = 1e-6",
           "the Rayleigh root's tolerance"),
    Mutant("window_count", "src/viscoshear/spectrum.py",
           "if len(vals) == 1:", "if len(vals) >= 1:",
           "a certified window holds exactly one eigenvalue"),
    Mutant("routing_edge", "src/viscoshear/spectrum.py",
           "math.sqrt(-lam1) * HALF_WIDTH < 3.0", "math.sqrt(-lam1) * HALF_WIDTH < 2.0",
           "the mapped ladder's routing edge kappa * Y < 3"),
    Mutant("sweep_stop", "src/viscoshear/spectrum.py",
           "abs(kappa - closure) <= 1e-9 * closure", "abs(kappa - closure) <= 1e-6 * closure",
           "the Robin sweeps' stop"),
    Mutant("map_tol", "src/viscoshear/spectrum.py",
           "MAP_TOL = 1e-13", "MAP_TOL = 1e-10",
           "dstebz's tolerance on mapped blocks"),
    Mutant("order_band", "src/viscoshear/spectrum.py",
           "ORDER_BAND = (3.5, 4.5)", "ORDER_BAND = (0.0, 1e300)",
           "the mapped ladder's h^2 regime test"),
    Mutant("mode_without_window", "src/viscoshear/spectrum.py",
           "[_mapped_lowest(d, e, info.raw[-1])]", "[info.raw[-1]]",
           "the mode's dstein runs at its block's certified eigenvalue"),
    Mutant("window_without_dpttrf", "src/viscoshear/spectrum.py",
           "if lo < hi and _dpttrf(d - lo, e)[2] == 0:", "if lo < hi:",
           "a window's dpttrf certificate: no eigenvalue at or below it"),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", ".perfbench_work")
# tier-1 less criterion 9 and the test that the list's old texts are in src/,
# which every mutated copy fails by construction
TIER_1 = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
          "--deselect", "tests/test_acceptance.py::test_criterion_09_whole_line_scenario",
          "--deselect", "tests/test_bench.py::test_every_mutant_applies_once_to_the_repo"]


class Refused(Exception):
    """A mutant whose old text does not occur exactly once in its file."""


def selected(names: list) -> list:
    """The mutants named, in the order given; every mutant for no name.
    An unknown or repeated name raises ``ValueError``."""
    if not names:
        return list(MUTANTS)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown or len(set(names)) != len(names):
        raise ValueError(f"unknown or repeated mutant names in {names}; known: {list(by_name)}")
    return [by_name[n] for n in names]


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text by its new text in ``root``'s copy of its file."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise Refused(f"{mutant.name}: its old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> tuple:
    """(outcome, first failing test or "", seconds) of tier-1 on a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        apply(mutant, copy)
        start = time.monotonic()
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)  # the package comes from the copy's ``src`` alone
        res = subprocess.run(TIER_1, cwd=copy, capture_output=True, text=True, env=env)
        seconds = time.monotonic() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", res.stdout, re.MULTILINE)
    if res.returncode == 0:
        return "survived", "", seconds
    return "killed", failed.group(1) if failed else f"pytest exit {res.returncode}", seconds


def main(argv: list) -> int:
    try:
        mutants = selected(argv)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    unkilled = 0
    for mutant in mutants:
        try:
            outcome, test, seconds = run(mutant)
        except Refused as exc:
            print(f"refused: {exc}")
            unkilled += 1
            continue
        unkilled += outcome == "survived"
        print(f"{mutant.name}: {outcome} in {seconds:.1f} s{', by ' + test if test else ''}"
              f" ({mutant.file}; {mutant.guard})", flush=True)
    return 1 if unkilled else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
