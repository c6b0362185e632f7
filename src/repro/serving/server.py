"""``repro serve`` — resilient asyncio HTTP service over frozen artifacts.

A deliberately small HTTP/1.1 server on stdlib asyncio (this build has no
third-party web framework, and needs none: the request surface is a
handful of endpoints).  Design points:

* **Multi-model routing.**  The server holds a
  :class:`~repro.serving.router.ModelRouter`: each model name maps to an
  independent :class:`~repro.serving.manager.PredictorManager` (own
  artifact, watcher, generation counter, swap history).
  ``POST /models/<name>/predict`` routes explicitly; ``POST /predict``
  aliases the configured default model, so single-model deployments and
  old clients are unchanged.
* **Binary wire protocol.**  A request with
  ``Content-Type: application/x-gbaf-batch`` carries raw array rows
  (:mod:`repro.serving.wire`) and is answered in kind — no JSON float
  text on the hot path.  JSON stays the default; error bodies are always
  JSON; a server started with ``binary=False`` answers ``415`` and the
  client falls back.
* **Micro-batched.**  Each model has its own
  :class:`~repro.serving.batching.MicroBatcher`; the requests for one
  model that arrive within one event-loop turn — a lone request, or all
  those that queued while the previous kernel pass ran — are answered by
  one vectorised kernel pass on the next turn.
* **Hot artifact reload, per model.**  Republishing any model's artifact
  (or SIGHUP, or ``POST /admin/reload``) loads + validates the new model
  in the background and swaps it atomically under traffic; a corrupt
  replacement rolls back that model while its siblings keep serving.
* **Admission control.**  At most ``max_pending`` predicts wait at once
  (across all models); beyond that the server sheds with an explicit
  ``503`` + ``Retry-After`` instead of queueing unboundedly toward
  collapse.
* **Bounded waits.**  Every predict carries a deadline
  (``request_timeout``); expiry answers ``504`` and the workspace stays
  consistent for the next request.
* **Liveness vs readiness.**  ``GET /healthz`` answers whenever the
  process is alive (plus per-model info, serving stats and swap
  histories); ``GET /readyz`` is the load-balancer gate — 503 while
  draining, while **any** model's last reload failed, or with the
  pending queue above its high-water mark.
* **Keep-alive.**  Connections serve any number of sequential requests;
  serving fleets and the benchmark client reuse sockets.
* **Graceful drain.**  SIGTERM/SIGINT stop the listener, flush every
  model's pending batch so in-flight requests get their answers, wait
  for open connections to finish their current request, then exit 0.  No
  request that was accepted is ever dropped; late requests on
  established keep-alive sockets get ``503`` + ``Connection: close``.

Endpoints::

    POST /predict                 {"x": [[...], ...]} -> {"labels": [...], "n": N}
    POST /models/<name>/predict   same, routed to the named model
    GET  /healthz                 -> liveness + per-model detail + stats
    GET  /readyz                  -> readiness gate (200/503)
    POST /admin/reload            {"model": name?} -> reload one/all models
    POST /models/<name>/admin/reload -> reload exactly that model

Both predict routes speak JSON or the binary frame, negotiated by the
request ``Content-Type``.  Errors are JSON: 400 for malformed bodies,
404 for unknown routes or model names, 413 for oversized bodies, 415
for the binary content type when disabled, 500 (with a logged
``error_id``) for predictor failures, 503 while draining/overloaded,
504 past the deadline.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
import uuid

import numpy as np

from repro.serving import wire
from repro.serving.batching import BatcherClosedError, MicroBatcher
from repro.serving.router import ModelRouter, UnknownModelError

__all__ = ["PredictServer", "run_server"]

log = logging.getLogger("repro.serving")

#: Hard cap on request bodies; a predict row is ~tens of floats (JSON) or
#: 8 bytes per feature (binary), so even generous batches sit far below.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Delta-seconds hint sent with shed (503 overloaded) responses.
RETRY_AFTER_SECONDS = 1


class _BadRequest(ValueError):
    """Client-side error mapped to a 400 response."""


class _RequestTooLarge(ValueError):
    """Oversized body mapped to a 413 response (connection closes: the
    unread body cannot be skipped safely on a keep-alive socket)."""


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; returns ``None`` on EOF/closed peer."""
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise _BadRequest("malformed request line")
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise _RequestTooLarge(
            f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _response(status: int, reason: str, payload: dict, keep_alive: bool,
              extra_headers: dict | None = None) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return _raw_response(status, reason, body, "application/json",
                         keep_alive, extra_headers)


def _raw_response(status: int, reason: str, body: bytes, content_type: str,
                  keep_alive: bool,
                  extra_headers: dict | None = None) -> bytes:
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _content_type_of(headers: dict) -> str:
    """The media type of a request, lower-cased, parameters stripped."""
    return headers.get("content-type", "").partition(";")[0].strip().lower()


class PredictServer:
    """The serving loop: listener + router + per-model batchers + reload.

    Parameters
    ----------
    router:
        What to serve: a :class:`~repro.serving.router.ModelRouter`; one
        model is a one-entry router (``ModelRouter({"default": manager})``).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`port` after :meth:`start`).
    max_pending:
        Admission limit: predicts allowed to wait at once — across all
        models — before the server sheds with 503 + ``Retry-After``.
    request_timeout:
        Per-predict deadline in seconds (``None`` = unbounded).  Expiry
        answers 504; the workspace stays consistent.
    ready_fraction:
        ``/readyz`` degrades once the pending queue exceeds this
        fraction of ``max_pending`` (shedding is imminent).
    binary:
        Accept the binary wire protocol
        (``Content-Type: application/x-gbaf-batch``).  ``False`` answers
        such requests 415, which is also how pre-binary servers behave —
        the client's fallback path is tested against it.
    fault_injector:
        Optional :class:`~repro.serving.faults._FaultInjector` chaos
        hook (tests/bench only).
    """

    def __init__(self, router: ModelRouter, host: str = "127.0.0.1",
                 port: int = 8000, *, max_pending: int = 64,
                 request_timeout: float | None = None,
                 ready_fraction: float = 0.8, binary: bool = True,
                 fault_injector=None):
        self.router = router
        self.host = host
        self.port = int(port)
        self.batchers = {
            name: MicroBatcher(manager.predict)
            for name, manager in router.items()
        }
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = int(max_pending)
        self.request_timeout = (
            None if request_timeout is None else float(request_timeout)
        )
        self.high_water = max(1, int(ready_fraction * self.max_pending))
        self.binary = bool(binary)
        self._faults = fault_injector
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._started = time.time()
        self.n_http_requests = 0
        self.n_binary_requests = 0
        self._pending = 0
        self.pending_high_water = 0
        self.n_shed = 0
        self.n_timeouts = 0
        self.n_errors = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when 0."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain gracefully."""
        await stop.wait()
        await self.shutdown()

    async def shutdown(self, grace: float = 1.0) -> None:
        """Stop accepting, flush the batchers, wait for open connections.

        In-flight requests finish normally (each batcher flush resolves
        every accepted predict); connections still idle after ``grace``
        seconds are keep-alive sockets with no request in flight and are
        closed outright.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for batcher in self.batchers.values():
            await batcher.aclose()
        if self._connections:
            _done, pending = await asyncio.wait(
                set(self._connections), timeout=grace
            )
            if pending:
                for writer in list(self._writers):
                    writer.close()
                await asyncio.gather(*pending, return_exceptions=True)

    def stats(self) -> dict:
        return {
            "uptime_seconds": time.time() - self._started,
            "n_http_requests": self.n_http_requests,
            "n_binary_requests": self.n_binary_requests,
            "binary": self.binary,
            "admission": {
                "pending": self._pending,
                "max_pending": self.max_pending,
                "high_water": self.high_water,
                "pending_high_water": self.pending_high_water,
                "n_shed": self.n_shed,
                "n_timeouts": self.n_timeouts,
                "n_errors": self.n_errors,
            },
            "reload": self.router.get().stats(),
            "router": self.router.stats(),
            "batch": self.batchers[self.router.default].stats.as_dict(),
            "batch_by_model": {
                name: batcher.stats.as_dict()
                for name, batcher in sorted(self.batchers.items())
            },
        }

    def readiness(self) -> tuple[bool, list[str]]:
        """The ``/readyz`` verdict: ``(ready, reasons-if-not)``.

        Aggregate readiness is all-models-ready: a load balancer must
        not route to a server that would fail one of its models.
        """
        reasons = []
        if self._draining:
            reasons.append("draining")
        for name, error in sorted(self.router.unhealthy_models().items()):
            reasons.append(f"model {name!r}: last reload failed: {error}")
        if self._pending >= self.high_water:
            reasons.append(
                f"pending {self._pending} >= high-water {self.high_water}"
            )
        return not reasons, reasons

    # -- connection handling --------------------------------------------

    def _on_connection(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _RequestTooLarge as exc:
                    writer.write(_response(413, "Payload Too Large",
                                           {"error": str(exc)}, False))
                    await writer.drain()
                    break
                except _BadRequest as exc:
                    # Flush before closing: without the drain the error
                    # body can be lost in the close.
                    writer.write(_response(400, "Bad Request",
                                           {"error": str(exc)}, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                self.n_http_requests += 1
                if self._faults is not None \
                        and self._faults.take_connection_drop():
                    break  # chaos: vanish without a response
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._draining
                )
                raw = await self._route(method, target, headers, body,
                                        keep_alive)
                if self._faults is not None \
                        and self._faults.take_forced_close():
                    keep_alive = False  # chaos: answer, then hang up
                if self._draining:
                    keep_alive = False  # drained mid-request
                if not keep_alive and b"Connection: keep-alive" in raw:
                    raw = raw.replace(b"Connection: keep-alive",
                                      b"Connection: close", 1)
                if self._faults is not None \
                        and self._faults.take_truncated_response():
                    # chaos: a mid-body drop — send a strict prefix of
                    # the response, then hang up.
                    writer.write(raw[: max(1, len(raw) // 2)])
                    await writer.drain()
                    break
                writer.write(raw)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError,
                BrokenPipeError):
            pass  # peer vanished mid-request; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, method: str, target: str, headers: dict,
                     body: bytes, keep_alive: bool) -> bytes:
        """Dispatch one request; returns the full response bytes."""
        path = target.partition("?")[0]
        model_name: str | None = None
        if path.startswith("/models/"):
            rest = path[len("/models/"):]
            model_name, _, subpath = rest.partition("/")
            path = "/" + subpath
            if not model_name or not subpath:
                return _response(404, "Not Found", {
                    "error": f"no route {method} {target}"
                }, keep_alive)
        if path == "/predict" and method == "POST":
            return await self._handle_predict(
                body, _content_type_of(headers), model_name, keep_alive
            )
        if path == "/healthz" and method == "GET" and model_name is None:
            ready, _reasons = self.readiness()
            default = self.router.get()
            predictor = default.current
            meta = predictor.meta
            return _response(200, "OK", {
                "status": "draining" if self._draining else "ok",
                "ready": ready,
                "default_model": self.router.default,
                "generation": default.generation,
                "model": {
                    "name": self.router.default,
                    "path": str(predictor.path),
                    "n_balls": predictor.n_balls,
                    "n_features": predictor.n_features,
                    "n_source_samples": meta.get("n_source_samples"),
                    "params": meta.get("params"),
                },
                "models": self.router.describe_models(),
                "swaps": default.history(),
                "stats": self.stats(),
            }, keep_alive)
        if path == "/readyz" and method == "GET" and model_name is None:
            ready, reasons = self.readiness()
            if ready:
                return _response(200, "OK", {"ready": True}, keep_alive)
            return _response(503, "Service Unavailable", {
                "ready": False, "reasons": reasons,
            }, keep_alive)
        if path == "/admin/reload" and method == "POST":
            return await self._handle_reload(body, model_name, keep_alive)
        return _response(404, "Not Found", {
            "error": f"no route {method} {target}"
        }, keep_alive)

    async def _handle_reload(self, body: bytes, model_name: str | None,
                             keep_alive: bool) -> bytes:
        """``POST /admin/reload``: one model by name, or every model.

        The name comes from the ``/models/<name>/admin/reload`` path or
        a ``{"model": name}`` JSON body; with neither, all models reload
        and the aggregate status is ``"swapped"`` only if every one
        swapped.
        """
        if model_name is None and body:
            try:
                payload = json.loads(body.decode("utf-8"))
                model_name = payload.get("model")
            except (ValueError, AttributeError):
                return _response(400, "Bad Request", {
                    "error": 'reload body must be JSON {"model": name?}'
                }, keep_alive)
        try:
            entry = await self.router.reload(model_name, reason="admin")
        except UnknownModelError as exc:
            return _response(404, "Not Found", {"error": str(exc)},
                             keep_alive)
        if entry["status"] == "swapped":
            return _response(200, "OK", entry, keep_alive)
        # The old model keeps serving; 409 tells the deploy script its
        # publish was refused without looking like a predict 5xx.
        return _response(409, "Conflict", entry, keep_alive)

    async def _submit(self, x: np.ndarray, model_name: str) -> np.ndarray:
        """One predict through the chaos hook and the model's batcher."""
        if self._faults is not None:
            await self._faults.before_predict(model=model_name)
        return await self.batchers[model_name].submit(x)

    async def _handle_predict(self, body: bytes, content_type: str,
                              model_name: str | None,
                              keep_alive: bool) -> bytes:
        if self._draining:
            return _response(503, "Service Unavailable", {
                "error": "server draining"
            }, keep_alive)
        try:
            manager = self.router.get(model_name)
        except UnknownModelError as exc:
            return _response(404, "Not Found", {"error": str(exc)},
                             keep_alive)
        resolved = model_name if model_name is not None else self.router.default
        binary = content_type == wire.WIRE_CONTENT_TYPE
        if binary:
            if not self.binary:
                return _response(415, "Unsupported Media Type", {
                    "error": f"{wire.WIRE_CONTENT_TYPE} is not enabled on "
                             "this server; send application/json"
                }, keep_alive)
            self.n_binary_requests += 1
            try:
                x = wire.decode_request(body)
            except ValueError as exc:
                return _response(400, "Bad Request", {
                    "error": f"bad wire frame: {exc}"
                }, keep_alive)
        else:
            try:
                payload = json.loads(body.decode("utf-8"))
                x = np.asarray(payload["x"], dtype=np.float64)
            except (ValueError, KeyError, TypeError):
                return _response(400, "Bad Request", {
                    "error": 'body must be JSON {"x": [[...], ...]}'
                }, keep_alive)
        if x.ndim not in (1, 2) or x.size == 0:
            return _response(400, "Bad Request", {
                "error": "x must be one sample or a non-empty matrix"
            }, keep_alive)
        x = np.atleast_2d(x)
        n_features = manager.current.n_features
        if x.shape[1] != n_features:
            return _response(400, "Bad Request", {
                "error": f"x has {x.shape[1]} features, model "
                         f"{resolved!r} expects {n_features}"
            }, keep_alive)
        if self._pending >= self.max_pending:
            # Shed instead of queueing unboundedly: the client backs off
            # and retries, the server stays answerable.
            self.n_shed += 1
            return _response(503, "Service Unavailable", {
                "error": f"server overloaded ({self._pending} requests "
                         "pending); retry later",
            }, keep_alive, {"Retry-After": str(RETRY_AFTER_SECONDS)})
        self._pending += 1
        self.pending_high_water = max(self.pending_high_water, self._pending)
        try:
            if self.request_timeout is not None:
                labels = await asyncio.wait_for(
                    self._submit(x, resolved), self.request_timeout
                )
            else:
                labels = await self._submit(x, resolved)
        except asyncio.TimeoutError:
            self.n_timeouts += 1
            return _response(504, "Gateway Timeout", {
                "error": f"predict exceeded the {self.request_timeout:g}s "
                         "deadline"
            }, keep_alive)
        except BatcherClosedError:
            # The drain race: accepted before shutdown, submitted after
            # the batcher closed.  A retryable condition, not a failure.
            return _response(503, "Service Unavailable", {
                "error": "server draining"
            }, keep_alive)
        except Exception:
            error_id = uuid.uuid4().hex[:12]
            self.n_errors += 1
            log.exception("predict failed [error_id %s]", error_id)
            return _response(500, "Internal Server Error", {
                "error": "internal predictor error",
                "error_id": error_id,
            }, keep_alive)
        finally:
            self._pending -= 1
        if binary:
            return _raw_response(
                200, "OK", wire.encode_response(labels),
                wire.WIRE_CONTENT_TYPE, keep_alive,
            )
        return _response(200, "OK", {
            "labels": labels.tolist(), "n": int(x.shape[0])
        }, keep_alive)


async def _serve_async(router: ModelRouter, host: str, port: int, *,
                       max_pending: int, request_timeout: float | None,
                       binary: bool, watch: bool) -> dict:
    server = PredictServer(
        router, host, port, max_pending=max_pending,
        request_timeout=request_timeout, binary=binary,
    )
    await server.start()
    if len(router) == 1:
        predictor = router.get().current
        what = (
            f"{predictor.path} on http://{server.host}:{server.port} "
            f"[{predictor.n_balls} balls, {predictor.n_features} features]"
        )
    else:
        what = (
            f"{len(router)} models on http://{server.host}:{server.port} "
            f"[models: {', '.join(router.names)}; "
            f"default: {router.default}]"
        )
    print(f"serving {what}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    loop.add_signal_handler(
        signal.SIGHUP,
        lambda: asyncio.ensure_future(router.reload(None, reason="sighup")),
    )
    if watch:
        await router.start_watching()
    try:
        await server.serve_until(stop)
    finally:
        await router.stop_watching()
    stats = server.stats()
    print(f"drained cleanly after {stats['n_http_requests']} requests",
          flush=True)
    return stats


def run_server(artifact_path=None, host: str = "127.0.0.1",
               port: int = 8000, *, models: dict | None = None,
               default_model: str | None = None, verify: bool = True,
               max_pending: int = 64, request_timeout: float | None = 30.0,
               poll_interval: float = 2.0, binary: bool = True,
               watch: bool = True) -> int:
    """Blocking entry point used by ``repro serve``.

    Serve either one artifact (``artifact_path``, the historical form —
    registered under the model name ``"default"``) or several
    (``models``: name → artifact path, with ``default_model`` naming the
    ``/predict`` alias).  Loads every artifact (mmap, optionally
    checksum-verified) behind its own
    :class:`~repro.serving.manager.PredictorManager`, serves until
    SIGTERM/SIGINT (reloading per model on artifact change, SIGHUP or
    ``POST /admin/reload``), drains, and returns 0 on a clean exit.
    """
    if models:
        if artifact_path is not None:
            raise ValueError("pass either artifact_path or models, not both")
        specs = dict(models)
    else:
        if artifact_path is None:
            raise ValueError("either artifact_path or models is required")
        specs = {"default": artifact_path}
    router = ModelRouter.from_specs(
        specs, default_model, verify=verify, poll_interval=poll_interval
    )
    try:
        asyncio.run(
            _serve_async(
                router, host, port, max_pending=max_pending,
                request_timeout=request_timeout, binary=binary, watch=watch,
            )
        )
    finally:
        router.close()
    return 0
