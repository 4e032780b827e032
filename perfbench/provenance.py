"""Where a result came from: the stablegap source, the library versions and
the thread settings it ran under.

numpy does not promise identical Generator streams across releases, so two
results are comparable only when their version sets match; compare.py flags
any comparison across different version sets.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys

# Thread pools below numpy and scipy; the benchmark caps each at one thread so
# that the only parallelism is stablegap's own parallel_map workers.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: str) -> dict:
    """Environment of every measured process."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["STABLEGAP_THREADS"] = str(nproc())
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def source(root: str) -> dict:
    """The stablegap source that was measured: the git commit when the
    checkout is a repository, and a digest of src/ in every case."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read() + b"\0")
    return {"stablegap_commit": _git_commit(root), "src_sha256": digest.hexdigest()}


def _git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # a plain checkout; git would search the parent directories
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _blas_threads():
    """Threads the OpenBLAS pool bundled with numpy will use, if readable."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def runtime(cfg) -> dict:
    """Versions and thread settings seen from inside a measured process."""
    import numpy
    import scipy

    import stablegap
    from stablegap.experiments import worker_count

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "stablegap_path": os.path.dirname(stablegap.__file__),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "STABLEGAP_THREADS": os.environ.get("STABLEGAP_THREADS"),
        "workers": worker_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads": _blas_threads(),
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
    }


def version_set(prov: dict) -> tuple:
    return tuple(prov.get(k) for k in ("python", "numpy", "scipy"))
