"""Pool workers split the usable CPUs' BLAS threads among themselves.

Two forked workers that each run one OpenBLAS thread per core oversubscribe
the host, which makes RD-GBG's blocked neighbour pass slower than a serial
run; the pool initializer gives each worker ``max(1, usable CPUs //
workers)`` threads instead, and leaves the parent's count alone.
"""

import ctypes
import os
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExperimentExecutor

_GETTERS = (
    "openblas_get_num_threads", "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
)


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library
    (read the way ``perfbench/harness.py`` ``blas_threads`` reads it)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GETTERS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = getter()
                break
    return found


def test_pool_workers_get_their_share_of_blas_threads():
    import numpy  # noqa: F401  (each bundles its own OpenBLAS)
    import scipy.linalg  # noqa: F401

    parent = openblas_threads()
    if not parent:
        pytest.skip("no OpenBLAS loaded")
    workers = 2
    share = max(1, len(os.sched_getaffinity(0)) // workers)
    cfg = ExperimentConfig(name="blas-budget", size_factor=0.05, datasets=("S2",))
    with ExperimentExecutor(cfg, n_jobs=workers)._make_pool(workers) as pool:
        futures = [pool.submit(openblas_threads) for _ in range(2 * workers)]
        seen = [future.result(timeout=60) for future in futures]
    for counts in seen:
        assert counts == {name: share for name in parent}
    assert openblas_threads() == parent
