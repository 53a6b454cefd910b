"""Process set-up shared by the benchmark scripts.

Import this module, and call ``prepare()``, before anything imports numpy:
the BLAS and OpenMP libraries read their thread counts once, when they load.
It imports nothing beyond the standard library.
"""
from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One client, one run at a time: every BLAS/OpenMP pool is pinned to a single
# thread, so timings do not depend on how many cores the machine lends out.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/condrec`` package to measure."""


def prepare():
    """Pin thread pools and put this checkout's ``src`` first on the path.

    Raises SourceMissing when the package is absent, so that the benchmark
    never measures some other installed copy of condrec.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "condrec", "__init__.py")):
        raise SourceMissing(f"no condrec package under {SRC}")
    sys.path.insert(0, SRC)
    import condrec

    if os.path.dirname(os.path.dirname(os.path.abspath(condrec.__file__))) != SRC:
        raise SourceMissing(f"condrec imported from {condrec.__file__}, not from {SRC}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """Commit of the checkout, read from .git without running git (or 'unknown')."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def machine_info():
    """nproc, CPU, library versions, pinned thread variables and commit."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _git_commit(),
    }
