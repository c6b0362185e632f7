"""Pieces shared by the benchmark's orchestrator and its workload processes.

Stdlib only, so the orchestrator can import it without paying for numpy.
"""

from __future__ import annotations

import ctypes
import os
import platform
import select
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
#: Metric names, units, directions and bounds live here and nowhere else.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The package modules timed by the cold-start import probes.
IMPORT_PROBES = {
    "import.repro_s": "repro",
    "import.experiments_s": "repro.experiments.executor",
    "import.worker_s": "repro.experiments.worker",
    "import.serve_s": "repro.serving.server",
}


def child_env() -> dict:
    """Environment for every process the benchmark starts: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


class LineReader:
    """Line reads with a deadline from a pipe, without a buffered reader.

    ``Popen.communicate`` reads the raw descriptor, so mixing it with a
    buffered ``readline`` can lose data; this class owns the descriptor.
    """

    def __init__(self, pipe):
        self._fd = pipe.fileno()
        self._buf = b""
        self.eof = False

    def _fill(self, deadline: float) -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("pipe read deadline passed")
        ready, _, _ = select.select([self._fd], [], [], remaining)
        if not ready:
            raise TimeoutError("pipe read deadline passed")
        chunk = os.read(self._fd, 65536)
        if not chunk:
            self.eof = True
        self._buf += chunk

    def readline(self, timeout: float) -> bytes:
        """One line (with its newline); ``b""`` at end of stream."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf and not self.eof:
            self._fill(deadline)
        line, sep, rest = self._buf.partition(b"\n")
        self._buf = rest
        return line + sep

    def read_all(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        while not self.eof:
            self._fill(deadline)
        data, self._buf = self._buf, b""
        return data


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    names = (
        "openblas_get_num_threads", "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
    )
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = getter()
                break
    return found


def host_info() -> dict:
    """The host facts every result is recorded with (imports numpy/scipy)."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }
