"""The demos run end to end and write the files their docstrings name.

Demo 04 is left out: it repeats the whole-line threshold search that the
acceptance context already runs, in 4.4 to 4.9 s on 2 vCPU.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_diffusing_profile", "02_critical_wavenumber",
                                  "03_unstable_eigenvalue"])
def test_demo_runs_and_writes_its_outputs(tmp_path, name):
    script = ROOT / "demos" / f"{name}.py"
    doc = ast.get_docstring(ast.parse(script.read_text()))
    outputs = re.search(r"Outputs: (.*) in \./demo_out\.", doc).group(1).split(", ")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for out in outputs:
        assert (tmp_path / "demo_out" / out).is_file(), out
