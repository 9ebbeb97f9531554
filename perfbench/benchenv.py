"""Where the benchmark finds the program, and the environment block of every result."""

from __future__ import annotations

import hashlib
import inspect
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_tmp")  # scratch output of the CLI op, removed after
THREAD_VARIABLES = ("SMC_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    pass


def add_source_path() -> None:
    """Import ``smc`` from this checkout's ``src`` only, and work from the checkout root."""
    if not os.path.isfile(os.path.join(SOURCE, "smc", "__init__.py")):
        raise MissingProgram(f"no smc package under {SOURCE}; run from a full checkout")
    sys.path.insert(0, SOURCE)
    os.chdir(ROOT)
    import smc

    if not os.path.abspath(smc.__file__).startswith(SOURCE + os.sep):
        raise MissingProgram(f"smc imported from {smc.__file__}, not from {SOURCE}")


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, cwd=ROOT, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    package = os.path.join(SOURCE, "smc")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment() -> dict:
    """What the numbers depend on besides the code; the thread variables are never set here."""
    import numpy as np
    import scipy

    from smc import forward

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_variables": {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
        "thread_variables_set_by_benchmark": False,
        "smc_worker_count": forward.worker_count(),
        "chunk_size": inspect.signature(forward.simulate_ensemble).parameters["chunk_size"].default,
        "l2_cache_bytes_per_core": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "commit": _commit(),
        "source_sha256_16": source_digest(),
    }
