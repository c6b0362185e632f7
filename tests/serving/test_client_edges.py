"""PredictClient edge behaviour: fallback, Retry-After parsing, mid-body drops.

The client-side half of the resilience contract has its own corners:

* **415 fallback is transparent and permanent.**  Against a server with
  the binary protocol disabled (how a pre-binary build answers), a
  ``binary=True`` client downgrades itself to JSON, re-sends the same
  request within the same attempt, and never sends another frame.
* **Retry-After is advisory input, parsed defensively.**  A fractional
  value is honoured as a float; an absent or unparseable value means no
  floor — never a crash, never an unbounded sleep.
* **A mid-body connection drop is retryable.**  A response cut off
  halfway through (the chaos harness's ``truncate_responses``) marks the
  socket dead; the retry dials a fresh connection and succeeds.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.serving.client import PredictClient, PredictError
from repro.serving.faults import _FaultInjector

from .test_resilience import running_server


class TestBinaryFallback:
    def test_415_downgrades_to_json_transparently(
        self, fitted_clf, artifact_path, queries
    ):
        probe = queries[:8]
        expected = fitted_clf.predict(probe).tolist()

        async def run():
            async with running_server(
                artifact_path, binary=False
            ) as (server, _manager):
                client = await PredictClient.connect(
                    server.host, server.port, binary=True
                )
                try:
                    first = await client.predict(probe)
                    second = await client.predict(probe)
                finally:
                    await client.close()
                return (first, second, client.binary,
                        client.n_binary_fallbacks, client.n_retries,
                        server.n_binary_requests)

        first, second, still_binary, n_fallbacks, n_retries, n_frames = (
            asyncio.run(run())
        )
        assert first == expected   # the caller never saw the 415
        assert second == expected
        assert still_binary is False   # downgraded for good
        assert n_fallbacks == 1        # exactly one downgrade, not per call
        assert n_retries == 0          # fallback is not a retry
        assert n_frames == 0           # server counts no accepted frames

    def test_binary_capable_server_never_triggers_fallback(
        self, artifact_path, queries
    ):
        async def run():
            async with running_server(artifact_path) as (server, _manager):
                client = await PredictClient.connect(
                    server.host, server.port, binary=True
                )
                try:
                    await client.predict(queries[:4])
                    await client.predict(queries[:4])
                finally:
                    await client.close()
                return client.n_binary_fallbacks, server.n_binary_requests

        n_fallbacks, n_frames = asyncio.run(run())
        assert n_fallbacks == 0
        assert n_frames == 2


class TestRetryAfterParsing:
    @pytest.mark.parametrize("headers,floor", [
        ({}, 0.0),                        # absent: no floor
        ({"retry-after": "2"}, 2.0),      # integer seconds
        ({"retry-after": "0.25"}, 0.25),  # fractional seconds
        ({"retry-after": "0"}, 0.0),
        ({"retry-after": "-3"}, 0.0),     # negative clamps to zero
        # HTTP-date and garbage forms: unparseable here means no floor,
        # never a crash.
        ({"retry-after": "Wed, 21 Oct 2026 07:28:00 GMT"}, 0.0),
        ({"retry-after": ""}, 0.0),
        ({"retry-after": "soon"}, 0.0),
    ])
    def test_floor_parsing(self, headers, floor):
        assert PredictClient._retry_after(headers) == floor

    def test_shed_without_retry_after_still_backs_off_and_succeeds(
        self, fitted_clf, artifact_path, queries
    ):
        """A 503 whose Retry-After is absent must fall back to the
        client's own backoff schedule, not crash or spin."""
        probe = queries[:4]
        expected = fitted_clf.predict(probe).tolist()
        injector = _FaultInjector()

        async def run():
            async with running_server(
                artifact_path, fault_injector=injector, max_pending=1,
            ) as (server, manager):
                # Hold one slow predict in flight so the next is shed.
                injector.delay_predicts(0.3)
                slow_client = await PredictClient.connect(
                    server.host, server.port
                )
                slow = asyncio.ensure_future(slow_client.predict(probe))
                await asyncio.sleep(0.05)

                client = await PredictClient.connect(
                    server.host, server.port, retries=4,
                    backoff=0.05, max_backoff=0.2,
                    rng=random.Random(3),
                )
                # Blind the client to the server's hint: pretend the 503
                # arrived without a Retry-After header.
                original = client.request_bytes

                async def stripping(method, path, body=b"", content_type="application/json"):
                    status, raw = await original(method, path, body,
                                                 content_type)
                    client.last_headers.pop("retry-after", None)
                    return status, raw

                client.request_bytes = stripping
                try:
                    labels = await client.predict(probe)
                    await slow
                finally:
                    await client.close()
                    await slow_client.close()
                return labels, client.n_retries, server.n_shed

        labels, n_retries, n_shed = asyncio.run(run())
        assert labels == expected
        assert n_retries >= 1  # it was shed at least once, then recovered
        assert n_shed >= 1


class TestMidBodyDrop:
    def test_truncated_response_reconnects_and_retries(
        self, fitted_clf, artifact_path, queries
    ):
        probe = queries[:6]
        expected = fitted_clf.predict(probe).tolist()
        injector = _FaultInjector()

        async def run():
            async with running_server(
                artifact_path, fault_injector=injector
            ) as (server, _manager):
                client = await PredictClient.connect(
                    server.host, server.port, retries=3,
                    backoff=0.01, max_backoff=0.05,
                )
                try:
                    injector.truncate_responses(1)
                    labels = await client.predict(probe)
                finally:
                    await client.close()
                return (labels, client.n_retries, client.n_reconnects,
                        injector.n_truncated_responses)

        labels, n_retries, n_reconnects, n_fired = asyncio.run(run())
        assert labels == expected      # the retry got the full answer
        assert n_fired == 1
        assert n_retries == 1
        assert n_reconnects == 1       # fresh socket, not the torn one

    def test_truncated_binary_response_reconnects_too(
        self, fitted_clf, artifact_path, queries
    ):
        probe = queries[:6]
        expected = fitted_clf.predict(probe).tolist()
        injector = _FaultInjector()

        async def run():
            async with running_server(
                artifact_path, fault_injector=injector
            ) as (server, _manager):
                client = await PredictClient.connect(
                    server.host, server.port, binary=True, retries=3,
                    backoff=0.01, max_backoff=0.05,
                )
                try:
                    injector.truncate_responses(1)
                    labels = await client.predict(probe)
                finally:
                    await client.close()
                return labels, client.n_reconnects, client.binary

        labels, n_reconnects, still_binary = asyncio.run(run())
        assert labels == expected
        assert n_reconnects == 1
        assert still_binary is True  # a drop is not a protocol rejection

    def test_retries_exhausted_on_persistent_truncation(
        self, artifact_path, queries
    ):
        injector = _FaultInjector()

        async def run():
            async with running_server(
                artifact_path, fault_injector=injector
            ) as (server, _manager):
                client = await PredictClient.connect(
                    server.host, server.port, retries=2,
                    backoff=0.01, max_backoff=0.02,
                )
                injector.truncate_responses(10)  # every attempt torn
                try:
                    with pytest.raises(ConnectionError, match="3 attempts"):
                        await client.predict(queries[:2])
                finally:
                    await client.close()
                return injector.n_truncated_responses

        n_fired = asyncio.run(run())
        assert n_fired == 3  # first try + 2 retries, each torn
