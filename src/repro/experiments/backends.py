"""The filesystem storage backend of the distributed cell store.

:class:`~repro.experiments.store.CellStore` persists content-keyed
results and coordinates a worker fleet through claim files with
heartbeat leases.  Every storage operation behind that protocol goes
through :class:`LocalFSBackend`: one directory, one file per entry, a
byte-identical layout to every earlier release (existing stores resume
without migration).  Machines that mount the same directory (a local
disk, most NFS setups) share one store and split one grid.

:func:`resolve_backend` maps a store *target* — a directory path or a
``file://`` URL — onto a backend instance;
:class:`~repro.experiments.store.CellStore`, the worker CLI's
``--store``/``--store-url`` and the coordinator all accept either form.
Any other URL scheme is rejected; on a command line :func:`store_arg`
turns that into a usage error.

**The contract** (pinned by the conformance suite in
``tests/experiments/test_store_backends.py``):

1. ``put_atomic`` is all-or-nothing: a concurrent reader sees either the
   previous bytes or the new bytes, never a torn mix (spool file +
   ``os.replace``).
2. ``try_claim_exclusive`` has exactly one winner per name until the
   name is deleted — under any interleaving of processes or threads
   (``O_CREAT | O_EXCL``).
3. ``stamp_mtime`` advances the name's modification timestamp (the
   lease heartbeat).
4. ``delete`` of a missing name is a no-op; ``get``/``mtime`` of a
   missing name return ``None`` (races against concurrent deletes must
   not raise).
5. ``list`` reflects completed writes only (no ``.tmp`` spool files);
   ``stray_spools`` surfaces those for the stale-reap path.
"""

from __future__ import annotations

import argparse
import os
import tempfile
from pathlib import Path

__all__ = ["LocalFSBackend", "resolve_backend", "store_arg"]


class LocalFSBackend:
    """The POSIX store: one file per entry under ``root``.

    Names are flat strings (``cell-<digest>.npz``, ``plan-<digest>.plan``,
    ``cell-<digest>.claim`` …), each stored as ``root/name``.  Atomicity
    comes from ``tempfile.mkstemp`` + ``os.replace`` (same-directory
    rename), exclusive claims from ``O_CREAT | O_EXCL``, and timestamps
    from file mtimes — which is what makes this backend fleet-safe only
    on filesystems with coherent rename/mtime semantics (local disks,
    most NFS setups).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: Location that round-trips through worker command lines:
        #: :func:`resolve_backend` maps it back onto the same directory.
        self.url = f"file://{self.root}"

    def path(self, name: str) -> Path:
        """Filesystem location of ``name``."""
        return self.root / name

    def get(self, name: str) -> bytes | None:
        """Full payload of ``name``; ``None`` when absent (never torn)."""
        try:
            return self.path(name).read_bytes()
        except OSError:
            return None

    def put_atomic(self, name: str, data: bytes) -> None:
        """Write ``data`` with all-or-nothing visibility (create or replace)."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=Path(name).stem,
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, self.path(name))
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def exists(self, name: str) -> bool:
        """Cheap existence probe (no payload read)."""
        return self.path(name).exists()

    def delete(self, name: str) -> None:
        """Remove ``name``; silently succeed when it is already gone."""
        self.path(name).unlink(missing_ok=True)

    def list(self, prefix: str = "") -> list[str]:
        """Sorted names of every completed entry starting with ``prefix``.

        One ``os.scandir`` sweep with no per-name ``stat`` (the dirent's
        type field answers ``is_file``); spool files are excluded.
        """
        if not self.root.exists():
            return []
        with os.scandir(self.root) as entries:
            return sorted(
                e.name for e in entries
                if e.is_file() and not e.name.endswith(".tmp")
                and e.name.startswith(prefix)
            )

    def stray_spools(self) -> list[str]:
        """In-flight or orphaned ``.tmp`` spool files.

        A writer SIGKILLed mid-write leaves one behind.  These names are
        deliberately *excluded* from :meth:`list` and surfaced here so
        :meth:`CellStore.reap_stale` can sweep the expired ones; they are
        valid arguments to :meth:`mtime`/:meth:`delete`.
        """
        if not self.root.exists():
            return []
        with os.scandir(self.root) as entries:
            return sorted(
                e.name for e in entries
                if e.is_file() and e.name.endswith(".tmp")
            )

    def try_claim_exclusive(self, name: str, data: bytes) -> bool:
        """Create ``name`` only if absent; ``True`` iff this call created it.

        The distributed claim primitive: exactly one concurrent caller
        wins the ``O_CREAT | O_EXCL`` create.  A crash between the create
        and the payload write leaves a zero-byte file; it has no owner to
        heartbeat it, so it ages out by mtime like any other orphan.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path(name), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        return True

    def stamp_mtime(self, name: str, data: bytes) -> None:
        """Atomically rewrite ``name`` so its mtime advances (the lease
        heartbeat); works whether or not ``name`` exists."""
        self.put_atomic(name, data)

    def mtime(self, name: str) -> float | None:
        """Last-modification time of ``name`` in epoch seconds, or ``None``.

        The value leases age against: :class:`CellStore` compares it to
        its clock, so the store clock must share the kernel's epoch.
        """
        try:
            return self.path(name).stat().st_mtime
        except OSError:
            return None


def resolve_backend(target) -> LocalFSBackend | None:
    """Map a store target onto a :class:`LocalFSBackend`.

    Accepted forms: ``None`` → ``None`` (memory-only store, no
    coordination layer); a :class:`LocalFSBackend` (or subclass) →
    returned as-is; a path or ``file://PATH`` URL → a backend over that
    directory.  Any other URL scheme raises ``ValueError`` rather than
    silently being treated as a relative directory.
    """
    if target is None:
        return None
    if isinstance(target, LocalFSBackend):
        return target
    if isinstance(target, os.PathLike):
        return LocalFSBackend(target)
    text = str(target)
    if "://" not in text:
        return LocalFSBackend(text)
    scheme, rest = text.split("://", 1)
    if scheme.lower() == "file":
        return LocalFSBackend(rest)
    raise ValueError(
        f"unknown store URL scheme {scheme.lower()!r} in {text!r}; "
        "use a directory or a file:// URL"
    )


def store_arg(target: str) -> str:
    """argparse ``type=`` for ``--store``: an unusable target is a usage
    error (exit 2, which the fleet supervisor never restarts), not a
    traceback.  Returns ``target`` unchanged."""
    try:
        resolve_backend(target)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return target
