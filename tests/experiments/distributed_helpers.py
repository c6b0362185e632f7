"""Shared helpers for tests that drive real worker subprocesses."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Store kinds the CellStore, parity and SIGKILL suites parameterise
#: over.  The directory store is the one backend; one that passes the
#: conformance suite joins here (and in :func:`store_target`) so every
#: protocol suite runs over it too (docs/architecture/store-backends.md).
STORE_BACKENDS = ("file",)


def store_target(backend: str, tmp_path) -> str:
    """Store target for one backend kind under ``tmp_path``: the string a
    worker subprocess's ``--store`` resolves back to the same storage."""
    if backend == "file":
        return str(tmp_path)
    raise ValueError(f"unknown store backend {backend!r}")


def worker_env() -> dict:
    """Subprocess environment with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn_worker(store_root, *extra: str) -> subprocess.Popen:
    """Launch ``python -m repro.experiments.worker`` against a store dir."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.worker",
         "--store", str(store_root), *extra],
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
