"""Micro-batching: coalesce concurrent predict calls into vectorised passes.

Per-request numpy dispatch overhead dwarfs per-row compute for small
queries, so concurrent requests are answered with **one** kernel pass.
:class:`MicroBatcher` does that with one rule and nothing to tune:

* a submit enqueues its rows and, if no flush is pending, schedules one
  for the next event-loop turn (``loop.call_soon``);
* the flush concatenates everything queued, runs the predict function
  once, and slices the result back to each waiter;
* :meth:`aclose` drains the queue before refusing new work, which is what
  makes SIGTERM shutdown lossless.

The predict function runs synchronously on the event loop: it is a single
vectorised numpy pass, which is exactly the granularity at which blocking
the loop is cheaper than any hand-off.  That is also why no timer is
needed: a lone request is answered on the very next turn, and the
requests that arrive while a pass runs are exactly the ones the following
turn collects, so the batch grows with load on its own.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

__all__ = ["BatcherClosedError", "BatchStats", "MicroBatcher"]


class BatcherClosedError(RuntimeError):
    """Submit refused because the batcher is closed (server draining).

    A dedicated type so the server can answer 503 for the drain race
    without also masking genuine predictor failures (which must surface
    as 500s) behind the same ``except RuntimeError``.  Subclasses
    :class:`RuntimeError` for compatibility with callers that predate the
    distinction.
    """


@dataclass
class BatchStats:
    """Counters exposed on ``/healthz`` and asserted by the test-suite."""

    n_requests: int = 0
    n_rows: int = 0
    n_batches: int = 0
    max_batch_rows: int = 0
    batch_rows_total: int = 0

    def as_dict(self) -> dict:
        mean = self.batch_rows_total / self.n_batches if self.n_batches else 0.0
        return {
            "n_requests": self.n_requests,
            "n_rows": self.n_rows,
            "n_batches": self.n_batches,
            # No flush is forced by a row count any more; the key stays at
            # 0 because perfbench/workloads.py reads it from /healthz.
            "n_full_flushes": 0,
            "max_batch_rows": self.max_batch_rows,
            "mean_batch_rows": mean,
        }


class MicroBatcher:
    """Answer everything queued within one loop turn with one pass.

    Parameters
    ----------
    predict:
        ``(n, p) -> (n,)`` vectorised prediction function (typically
        ``PredictorManager.predict``).
    """

    def __init__(self, predict):
        self._predict = predict
        self._pending: list[tuple[np.ndarray, asyncio.Future]] = []
        self._flush_scheduled = False
        self._closed = False
        self.stats = BatchStats()

    async def submit(self, x: np.ndarray) -> np.ndarray:
        """Queue a query batch; resolves with its labels after the flush."""
        if self._closed:
            raise BatcherClosedError(
                "MicroBatcher is closed (draining/shut down)"
            )
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((x, future))
        self.stats.n_requests += 1
        self.stats.n_rows += x.shape[0]
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._flush)
        return await future

    def _flush(self) -> None:
        """Answer every pending request with one vectorised pass."""
        self._flush_scheduled = False
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        xs = (
            batch[0][0]
            if len(batch) == 1
            else np.concatenate([x for x, _ in batch], axis=0)
        )
        rows = xs.shape[0]
        self.stats.n_batches += 1
        self.stats.batch_rows_total += rows
        self.stats.max_batch_rows = max(self.stats.max_batch_rows, rows)
        try:
            labels = self._predict(xs)
        except Exception as exc:  # propagate to every waiter, not the loop
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        offset = 0
        for x, future in batch:
            n = x.shape[0]
            if not future.done():
                future.set_result(labels[offset:offset + n])
            offset += n

    async def aclose(self) -> None:
        """Flush whatever is pending, then refuse further submits."""
        self._closed = True
        self._flush()
