"""Hot artifact reload: watch, validate, atomically swap predictors.

``repro serve`` used to be a single-artifact process — rolling a model
meant killing the server.  :class:`PredictorManager` removes that
restart: it owns the *current* :class:`~repro.serving.predictor.FrozenPredictor`
and replaces it **under live traffic** whenever the artifact file
changes, with three triggers:

* **polling** — a background task stats the artifact path every
  ``poll_interval`` seconds and reloads when the ``(mtime_ns, size)``
  signature changes (``repro freeze`` publishes by atomic rename, so a
  changed signature always means a complete new file);
* **SIGHUP** — the classic "reload your config" signal, wired up by
  ``run_server``;
* **``POST /admin/reload``** — explicit, synchronous, returns the swap
  record (what deployment scripts gate on).

The swap discipline (the whole point):

1. the candidate artifact is **loaded and validated first** — mmap,
   checksum verify, header/kind/array checks, plus a probe predict that
   exercises the full kernel path — all in a worker thread so the event
   loop keeps serving;
2. only a candidate that survives validation is swapped in: one
   reference assignment on the event loop, so every request observes
   either the old predictor or the new one, never a mixture (all predict
   calls are synchronous on the loop — a swap can never interleave with
   a running kernel pass);
3. the old predictor is retired: by the time the swap runs no kernel
   pass is mid-flight, so its mapping unmaps immediately (a lingering
   view defers the close to the next sweep rather than crashing);
4. a candidate that **fails** validation changes nothing: the old
   predictor keeps serving, the failure is recorded in the swap history
   and :attr:`last_error` (which degrades ``/readyz``), and the bad
   file's signature is remembered so polling does not retry it in a loop
   — only a *new* publish re-arms the watcher.

Every attempt (initial load, swap, rollback) is appended to a bounded
swap history, exposed verbatim on ``/healthz`` — the operator's flight
recorder for "what did this server actually load, and when".
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.core.granular_ball import DEFAULT_ASSIGN_CHUNK
from repro.serving.predictor import FrozenPredictor

__all__ = ["PredictorManager"]


class PredictorManager:
    """Owns the live predictor and swaps it safely on artifact change.

    Parameters
    ----------
    path:
        Artifact file to serve and watch.
    verify:
        Checksum-verify every load (initial and reload).  Keep on: a
        reload is exactly the moment a torn transport would bite.
    poll_interval:
        Seconds between artifact-signature polls once
        :meth:`start_watching` runs.
    history_limit:
        Swap-history entries retained (oldest dropped first).
    fault_injector:
        Optional :class:`~repro.serving.faults._FaultInjector` test hook;
        consulted before every load attempt.
    """

    def __init__(self, path, *, verify: bool = True,
                 poll_interval: float = 2.0,
                 chunk_size: int = DEFAULT_ASSIGN_CHUNK,
                 history_limit: int = 32, fault_injector=None):
        self.path = Path(path)
        self._verify = bool(verify)
        self.poll_interval = float(poll_interval)
        self._chunk_size = int(chunk_size)
        self._faults = fault_injector
        self._history: deque[dict] = deque(maxlen=int(history_limit))
        self._lock: asyncio.Lock | None = None
        self._watch_task: asyncio.Task | None = None
        self._retired: list[FrozenPredictor] = []
        self.generation = 1
        self.n_reloads = 0
        self.last_error: str | None = None
        self._current = FrozenPredictor.load(
            self.path, verify=verify, chunk_size=chunk_size
        )
        self._signature = self._stat_signature()
        self._record("loaded", "startup", error=None, seconds=0.0)

    # -- serving surface ------------------------------------------------

    @property
    def current(self) -> FrozenPredictor:
        """The live predictor (atomically replaced by reloads)."""
        return self._current

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict with whichever predictor is live *now*.

        Handlers and the micro-batcher call through this indirection, so
        a batch pending across a swap flushes with the new model instead
        of touching unmapped memory.
        """
        return self._current.predict(x)

    @property
    def healthy(self) -> bool:
        """``False`` while the on-disk artifact is newer than what is
        serving because its last load failed (``/readyz`` degrades)."""
        return self.last_error is None

    def history(self) -> list[dict]:
        """The swap history, oldest first (exposed on ``/healthz``)."""
        return list(self._history)

    def stats(self) -> dict:
        return {
            "generation": self.generation,
            "n_reloads": self.n_reloads,
            "last_error": self.last_error,
            "watching": self._watch_task is not None
            and not self._watch_task.done(),
            "poll_interval_seconds": self.poll_interval,
        }

    # -- reload machinery -----------------------------------------------

    def _stat_signature(self):
        """Cheap change detector: atomic publish ⇒ new inode ⇒ new stat."""
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _load_candidate(self) -> FrozenPredictor:
        """Load + validate the on-disk artifact (runs in a worker thread).

        Validation is the load itself (magic/version/layout/checksum all
        raise) plus a probe predict so a candidate that maps fine but
        cannot answer (e.g. missing acceleration array, zero balls) is
        rejected before it ever sees traffic.
        """
        if self._faults is not None:
            self._faults.before_load(self.path)
        candidate = FrozenPredictor.load(
            self.path, verify=self._verify, chunk_size=self._chunk_size
        )
        try:
            candidate.predict(np.zeros((1, candidate.n_features)))
        except Exception:
            candidate.close()
            raise
        return candidate

    async def reload(self, reason: str = "admin") -> dict:
        """Load the artifact and swap it in; never breaks the old model.

        Returns the swap-history entry: ``status`` is ``"swapped"`` on
        success or ``"rolled-back"`` on any validation failure (in which
        case the previous predictor keeps serving and
        :attr:`last_error` is set).  Concurrent triggers serialise on an
        internal lock — one wins, the rest reload the already-new file
        and swap again harmlessly.
        """
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            signature = self._stat_signature()
            started = time.perf_counter()
            loop = asyncio.get_running_loop()
            try:
                if signature is None:
                    raise FileNotFoundError(
                        f"{self.path}: artifact file is missing"
                    )
                candidate = await loop.run_in_executor(
                    None, self._load_candidate
                )
            except Exception as exc:
                # Roll back: keep the old predictor, remember the bad
                # file's signature so polling waits for a *new* publish.
                self._signature = signature
                self.last_error = f"{type(exc).__name__}: {exc}"
                return self._record(
                    "rolled-back", reason, error=self.last_error,
                    seconds=time.perf_counter() - started,
                )
            old, self._current = self._current, candidate
            self.generation += 1
            self.n_reloads += 1
            self._signature = signature
            self.last_error = None
            self._retire(old)
            return self._record(
                "swapped", reason, error=None,
                seconds=time.perf_counter() - started,
            )

    async def maybe_reload(self) -> dict | None:
        """Reload only if the artifact signature changed since last seen."""
        if self._stat_signature() == self._signature:
            return None
        return await self.reload(reason="poll")

    def _record(self, status: str, reason: str, *, error: str | None,
                seconds: float) -> dict:
        entry = {
            "status": status,
            "reason": reason,
            "generation": self.generation,
            "path": str(self.path),
            "error": error,
            "seconds": round(float(seconds), 6),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        self._history.append(entry)
        return entry

    def _retire(self, predictor: FrozenPredictor) -> None:
        """Unmap a replaced predictor; defer if a view is still alive."""
        try:
            predictor.close()
        except BufferError:
            self._retired.append(predictor)

    def _sweep_retired(self) -> None:
        still = []
        for predictor in self._retired:
            try:
                predictor.close()
            except BufferError:
                still.append(predictor)
        self._retired = still

    # -- watching -------------------------------------------------------

    async def start_watching(self) -> None:
        """Start the background signature-poll task (idempotent)."""
        if self._watch_task is not None and not self._watch_task.done():
            return
        self._watch_task = asyncio.ensure_future(self._watch_loop())

    async def _watch_loop(self) -> None:
        while True:
            await asyncio.sleep(self.poll_interval)
            self._sweep_retired()
            try:
                await self.maybe_reload()
            except Exception:  # pragma: no cover - reload() records errors
                pass

    async def stop_watching(self) -> None:
        if self._watch_task is None:
            return
        self._watch_task.cancel()
        try:
            await self._watch_task
        except asyncio.CancelledError:
            pass
        self._watch_task = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the live predictor and any retired mappings."""
        self._sweep_retired()
        if self._current is not None:
            try:
                self._current.close()
            except BufferError:  # pragma: no cover - views owned by caller
                pass

    def __enter__(self) -> "PredictorManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
