"""Asyncio HTTP client for the predict service, with retry/backoff.

Speaks just enough keep-alive HTTP/1.1 for the serving endpoints; used by
the test-suite, ``benchmarks/bench_serve.py`` and the CI serve-smoke —
anything that needs to drive ``repro serve`` without a third-party HTTP
dependency.

The client is the fleet's half of the resilience contract: a serving
process that reloads, sheds load or drains answers with *retryable*
conditions (503, 504, ``Connection: close``, a reset socket), and
:meth:`PredictClient.predict` rides through them invisibly —

* **reconnect-on-close**: a response carrying ``Connection: close`` (or
  a vanished socket, including one that died mid-body) marks the
  connection dead; the next request dials a fresh one instead of dying
  on ``readline() == b""``;
* **capped exponential backoff with jitter** on 503/504/connection
  errors: waits double per attempt up to ``max_backoff``, each scaled by
  a random factor in ``[0.5, 1.5)`` so a shed fleet does not retry in
  lock-step, and a server-sent ``Retry-After`` is honoured (capped by
  ``max_backoff``; a missing or unparseable value means no floor).  The
  delay schedule is the shared :class:`~repro.backoff.BackoffPolicy` —
  the same policy the fleet supervisor spaces worker restarts with, so
  the two retry paths cannot drift;
* anything non-retryable (400, 404, …) raises :class:`PredictError`
  immediately.

Two serving-surface extensions ride on the same machinery:

* **binary wire protocol** (``binary=True``): predict bodies go out as
  :mod:`repro.serving.wire` frames instead of JSON and the response is
  decoded the same way — no float text on the hot path.  A server that
  answers ``415 Unsupported Media Type`` (pre-binary build, or binary
  disabled) triggers a **transparent fallback**: the client downgrades
  itself to JSON, re-sends the same request, and stays on JSON for the
  rest of its life (``n_binary_fallbacks`` counts the downgrade);
* **model routing**: construct with ``model="name"`` (or pass
  ``model=`` per call) to target ``POST /models/<name>/predict`` on a
  multi-model server; the default targets ``/predict``, the server's
  default-model alias.
"""

from __future__ import annotations

import asyncio
import json
import random

import numpy as np

from repro.backoff import BackoffPolicy
from repro.serving import wire

__all__ = ["PredictClient", "PredictError"]

#: Statuses worth retrying: overload/drain shedding and deadline expiry.
RETRYABLE_STATUSES = (503, 504)


class PredictError(RuntimeError):
    """A non-retryable (or retries-exhausted) predict failure.

    Subclasses :class:`RuntimeError` so callers that predate the retry
    layer keep working; :attr:`status` carries the HTTP status code.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)


class PredictClient:
    """One logical connection to a :class:`PredictServer`, auto-healing.

    Usage::

        client = await PredictClient.connect("127.0.0.1", 8000)
        labels = await client.predict([[0.1, 0.2]])
        await client.close()

    Parameters
    ----------
    retries:
        Retry attempts for :meth:`predict` beyond the first try, spent
        on 503/504 responses and connection failures.
    backoff:
        First retry delay in seconds; doubles per attempt.
    max_backoff:
        Delay cap (also caps a server-sent ``Retry-After``).
    binary:
        Send predict requests as binary wire frames
        (``application/x-gbaf-batch``).  Falls back to JSON permanently
        if the server answers 415.
    model:
        Default model name to route predicts to (``None`` targets the
        server's default-model alias ``/predict``).
    rng:
        Random source for the jitter draw (a seeded
        :class:`random.Random` makes retry schedules deterministic in
        tests; defaults to the module-level generator).
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *, host: str | None = None,
                 port: int | None = None, retries: int = 3,
                 backoff: float = 0.05, max_backoff: float = 1.0,
                 binary: bool = False, model: str | None = None,
                 rng: random.Random | None = None):
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._connected = True
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self.binary = bool(binary)
        self.model = model
        self._policy = BackoffPolicy(
            base=self.backoff, cap=self.max_backoff,
            rng=rng if rng is not None else random,
        )
        #: Response headers of the most recent request (lower-cased names).
        self.last_headers: dict[str, str] = {}
        self.n_retries = 0
        self.n_reconnects = 0
        self.n_binary_fallbacks = 0

    @classmethod
    async def connect(cls, host: str, port: int, **kwargs) -> "PredictClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host=host, port=port, **kwargs)

    # -- connection management ------------------------------------------

    async def _reconnect(self) -> None:
        if self._host is None or self._port is None:
            raise ConnectionError(
                "connection closed and no host/port to reconnect to"
            )
        await self._shutdown_socket()
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self._connected = True
        self.n_reconnects += 1

    async def _shutdown_socket(self) -> None:
        self._connected = False
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # -- one round-trip --------------------------------------------------

    async def request_bytes(
        self, method: str, path: str, body: bytes = b"",
        content_type: str = "application/json",
    ) -> tuple[int, bytes]:
        """One raw round-trip; returns ``(status, response body bytes)``.

        Reconnects first if the previous response closed the connection.
        No retries at this level — :meth:`predict` layers the policy.  A
        socket that dies mid-response surfaces as
        :class:`asyncio.IncompleteReadError` with the connection marked
        dead, so the caller's next attempt dials fresh.
        """
        if not self._connected:
            await self._reconnect()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: predict\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()

        try:
            status_line = await self._reader.readline()
            if not status_line:
                self._connected = False
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            headers = {}
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if line == b"":
                    # EOF before the blank line: the response was cut off
                    # mid-headers, which must read as a dead connection —
                    # not as a complete header block missing its
                    # Content-Length.
                    self._connected = False
                    raise ConnectionError(
                        "connection closed mid-response headers"
                    )
                name, sep, value = line.decode("latin-1").partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            raw = await self._reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            # Mid-body drop: the headers (or body) were cut short.  Mark
            # the socket dead so a retry reconnects instead of reading
            # from a half-consumed stream.
            self._connected = False
            raise
        self.last_headers = headers
        if headers.get("connection", "").lower() == "close":
            # Honour the server's close instead of failing the next
            # request on a dead socket.
            await self._shutdown_socket()
        return status, raw

    async def request(self, method: str, path: str,
                      payload: dict | None = None) -> tuple[int, dict]:
        """One JSON request/response round-trip: ``(status, body dict)``."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        status, raw = await self.request_bytes(method, path, body)
        return status, json.loads(raw) if raw else {}

    # -- endpoints -------------------------------------------------------

    def _predict_path(self, model: str | None) -> str:
        name = model if model is not None else self.model
        return "/predict" if name is None else f"/models/{name}/predict"

    @staticmethod
    def _retry_after(headers: dict) -> float:
        """The ``Retry-After`` floor; absent/unparseable values mean 0."""
        try:
            value = float(headers.get("retry-after", 0))
        except (TypeError, ValueError):
            return 0.0
        return max(0.0, value)

    async def _predict_once(self, x_list, x_bytes,
                            path: str) -> tuple[int, bytes | dict]:
        """One predict round-trip in the current wire format.

        Handles the 415 downgrade inline: if the server refuses the
        binary content type, flip to JSON for good and re-send the same
        request — the caller never sees the 415.
        """
        if self.binary:
            status, raw = await self.request_bytes(
                "POST", path, x_bytes, wire.WIRE_CONTENT_TYPE
            )
            if status != 415:
                return status, raw
            self.binary = False
            self.n_binary_fallbacks += 1
        body = json.dumps({"x": x_list}).encode("utf-8")
        status, raw = await self.request_bytes("POST", path, body)
        return status, raw

    async def predict(self, x, model: str | None = None) -> list:
        """``POST /predict`` with retry/backoff; returns the label list.

        Retries 503/504 and connection failures up to ``retries`` times,
        then raises (:class:`PredictError` for HTTP failures,
        :class:`ConnectionError` for transport ones).  ``model`` routes
        to ``/models/<model>/predict`` (overriding the constructor
        default) on a multi-model server.
        """
        x_array = np.asarray(x, dtype=np.float64)
        x_list = x_array.tolist()
        x_bytes = wire.encode_request(x_array) if self.binary else b""
        path = self._predict_path(model)
        for attempt in range(self.retries + 1):
            retry_after = 0.0
            try:
                status, raw = await self._predict_once(
                    x_list, x_bytes, path
                )
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                self._connected = False
                if attempt >= self.retries:
                    raise ConnectionError(
                        f"predict failed after {attempt + 1} attempts: {exc}"
                    ) from exc
            else:
                if status == 200:
                    if self.last_headers.get("content-type", "") \
                            == wire.WIRE_CONTENT_TYPE:
                        return wire.decode_response(raw).tolist()
                    return json.loads(raw)["labels"]
                payload = {}
                if raw:
                    try:
                        payload = json.loads(raw)
                    except ValueError:
                        payload = {"error": raw[:200].decode("latin-1")}
                if status not in RETRYABLE_STATUSES \
                        or attempt >= self.retries:
                    raise PredictError(
                        status,
                        f"predict failed with {status}: "
                        f"{payload.get('error')}",
                    )
                retry_after = self._retry_after(self.last_headers)
            self.n_retries += 1
            # Shared policy, caller-owned clock: the policy computes, the
            # coroutine sleeps (a server-sent Retry-After is the floor).
            await asyncio.sleep(self._policy.delay(attempt, floor=retry_after))
        raise AssertionError("unreachable")  # pragma: no cover

    async def healthz(self) -> dict:
        status, payload = await self.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"healthz failed with {status}")
        return payload

    async def readyz(self) -> tuple[bool, dict]:
        """``GET /readyz``; returns ``(ready, body)`` without raising."""
        status, payload = await self.request("GET", "/readyz")
        return status == 200, payload

    async def reload(self, model: str | None = None) -> tuple[int, dict]:
        """``POST /admin/reload``; returns ``(status, swap-entry)``.

        ``model`` reloads only that model; ``None`` reloads every model
        the server routes.
        """
        payload = None if model is None else {"model": model}
        return await self.request("POST", "/admin/reload", payload)

    async def close(self) -> None:
        await self._shutdown_socket()
