"""The environment recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads(package) -> dict:
    """OpenBLAS thread count of each OpenBLAS the package bundles."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs", "*openblas*")
    found = {}
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git repository (not a parent's)."""
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {"numpy": _blas_threads(numpy), "scipy": _blas_threads(scipy)},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "VISCOSHEAR_THREADS")},
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src" / "viscoshear"),
    }
