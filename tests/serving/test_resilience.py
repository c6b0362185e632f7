"""Zero-downtime serving: hot reload, admission control, chaos faults.

The resilience contract this suite pins:

* **No accepted request is ever dropped across reloads.**  N back-to-back
  artifact swaps under concurrent load answer every predict correctly.
* **A corrupt publish cannot take the service down.**  Validation fails,
  the swap rolls back, the old model keeps serving with zero predict
  5xx; ``/readyz`` degrades so rollout tooling notices.
* **Overload sheds, never collapses.**  Past ``max_pending`` waiting
  predicts the server answers 503 + ``Retry-After``; a retrying client
  rides through.
* **Every wait is bounded.**  A wedged predict answers 504 at the
  deadline and the workspace stays consistent for the next request.
* **Failures are classified.**  Predictor errors are 500 with a logged
  ``error_id``; only the drain race and shedding are 503.

Faults are injected through :class:`repro.serving.faults._FaultInjector`
(the server/manager chaos seam) and
:func:`repro.serving.faults.corrupt_artifact` (the broken-publish seam).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.classifiers.gb_classifier import GranularBallClassifier
from repro.serving import FrozenPredictor, PredictorManager, load_artifact
from repro.serving.client import PredictClient, PredictError
from repro.serving.faults import FaultInjected, _FaultInjector, corrupt_artifact
from repro.serving.router import ModelRouter
from repro.serving.server import PredictServer

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


@contextlib.asynccontextmanager
async def running_server(artifact_path, *, manager=None, **server_kwargs):
    """A started in-process server (+ its manager), torn down cleanly."""
    own_manager = manager is None
    if manager is None:
        manager = PredictorManager(artifact_path, poll_interval=30.0)
    server = PredictServer(ModelRouter({"default": manager}), port=0,
                           **server_kwargs)
    await server.start()
    try:
        yield server, manager
    finally:
        await server.shutdown()
        await manager.stop_watching()
        if own_manager:
            manager.close()


async def _wait_until(condition, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        await asyncio.sleep(interval)
    return False


# ----------------------------------------------------------------------
# the chaos seam itself
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_one_shot_predict_failures(self):
        injector = _FaultInjector()
        injector.fail_predicts(2)

        async def run():
            with pytest.raises(FaultInjected):
                await injector.before_predict()
            with pytest.raises(FaultInjected):
                await injector.before_predict()
            await injector.before_predict()  # disarmed again

        asyncio.run(run())
        assert injector.n_predict_failures == 2

    def test_load_and_connection_faults_disarm(self):
        injector = _FaultInjector()
        injector.fail_loads(1)
        injector.drop_connections(1)
        injector.force_close_responses(1)
        with pytest.raises(FaultInjected):
            injector.before_load("x.gba")
        injector.before_load("x.gba")  # fine now
        assert injector.take_connection_drop() is True
        assert injector.take_connection_drop() is False
        assert injector.take_forced_close() is True
        assert injector.take_forced_close() is False

    @pytest.mark.parametrize("mode", ["flip-bit", "truncate",
                                      "garbage-header"])
    def test_corrupt_artifact_fails_load_loudly(self, artifact_path, mode):
        corrupt_artifact(artifact_path, mode)
        with pytest.raises(ValueError):
            load_artifact(artifact_path)


# ----------------------------------------------------------------------
# PredictorManager: watch, swap, roll back
# ----------------------------------------------------------------------


class TestPredictorManager:
    def test_poll_detects_publish_and_swaps(
        self, fitted_clf, fitted_clf_v2, artifact_path, queries
    ):
        async def scenario():
            manager = PredictorManager(artifact_path, poll_interval=0.02)
            try:
                await manager.start_watching()
                before = manager.predict(queries)
                old_predictor = manager.current
                fitted_clf_v2.freeze(artifact_path)
                assert await _wait_until(lambda: manager.generation == 2)
                after = manager.predict(queries)
                return before, after, old_predictor, manager.history()
            finally:
                await manager.stop_watching()
                manager.close()

        before, after, old_predictor, history = asyncio.run(scenario())
        np.testing.assert_array_equal(before, fitted_clf.predict(queries))
        np.testing.assert_array_equal(after, fitted_clf_v2.predict(queries))
        assert not np.array_equal(before, after)
        # The replaced predictor drained and unmapped.
        assert old_predictor.closed
        assert [e["status"] for e in history] == ["loaded", "swapped"]
        assert history[-1]["reason"] == "poll"

    def test_corrupt_publish_rolls_back_then_recovers(
        self, fitted_clf, fitted_clf_v2, artifact_path, queries
    ):
        async def scenario():
            manager = PredictorManager(artifact_path, poll_interval=30.0)
            try:
                corrupt_artifact(artifact_path, "flip-bit")
                entry = await manager.reload(reason="admin")
                assert entry["status"] == "rolled-back"
                assert "checksum" in entry["error"]
                assert not manager.healthy
                assert manager.generation == 1
                # The old model is still the one serving.
                survived = manager.predict(queries)
                # A good publish heals everything.
                fitted_clf_v2.freeze(artifact_path)
                entry = await manager.reload(reason="admin")
                assert entry["status"] == "swapped"
                assert manager.healthy and manager.generation == 2
                return survived, manager.predict(queries)
            finally:
                manager.close()

        survived, healed = asyncio.run(scenario())
        np.testing.assert_array_equal(survived, fitted_clf.predict(queries))
        np.testing.assert_array_equal(healed, fitted_clf_v2.predict(queries))

    def test_poll_does_not_retry_the_same_bad_file(self, artifact_path):
        async def scenario():
            manager = PredictorManager(artifact_path, poll_interval=30.0)
            try:
                corrupt_artifact(artifact_path, "truncate")
                entry = await manager.maybe_reload()
                assert entry is not None \
                    and entry["status"] == "rolled-back"
                # Signature remembered: no reload storm on the bad file.
                assert await manager.maybe_reload() is None
                return manager.history()
            finally:
                manager.close()

        history = asyncio.run(scenario())
        assert sum(e["status"] == "rolled-back" for e in history) == 1

    def test_missing_artifact_rolls_back(self, artifact_path):
        async def scenario():
            manager = PredictorManager(artifact_path, poll_interval=30.0)
            try:
                os.unlink(artifact_path)
                entry = await manager.reload(reason="admin")
                return entry, manager.healthy
            finally:
                manager.close()

        entry, healthy = asyncio.run(scenario())
        assert entry["status"] == "rolled-back"
        assert "missing" in entry["error"]
        assert not healthy

    def test_injected_load_failure_rolls_back(self, artifact_path):
        injector = _FaultInjector()
        injector.fail_loads(1)

        async def scenario():
            manager = PredictorManager(
                artifact_path, poll_interval=30.0, fault_injector=injector
            )
            try:
                entry = await manager.reload(reason="admin")
                assert entry["status"] == "rolled-back"
                assert "FaultInjected" in entry["error"]
                # Next attempt (fault disarmed) succeeds.
                entry = await manager.reload(reason="admin")
                return entry
            finally:
                manager.close()

        entry = asyncio.run(scenario())
        assert entry["status"] == "swapped"
        assert injector.n_load_failures == 1


# ----------------------------------------------------------------------
# admission control, deadlines, error classification
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after(self, artifact_path):
        injector = _FaultInjector()
        injector.delay_predicts(0.25)

        async def one_request(server):
            client = await PredictClient.connect(
                server.host, server.port, retries=0
            )
            try:
                status, payload = await client.request(
                    "POST", "/predict", {"x": [[0.0, 0.0]]}
                )
                return status, payload, dict(client.last_headers)
            finally:
                await client.close()

        async def scenario(server, _manager):
            return await asyncio.gather(
                *[one_request(server) for _ in range(6)]
            )

        async def run():
            async with running_server(
                artifact_path, max_pending=2,
                fault_injector=injector,
            ) as (server, manager):
                results = await scenario(server, manager)
                return results, server.n_shed, server.pending_high_water

        results, n_shed, high_water = asyncio.run(run())
        statuses = [status for status, _, _ in results]
        assert statuses.count(200) == 2
        assert statuses.count(503) == 4
        assert n_shed == 4
        assert high_water == 2  # the bound held
        shed = next(r for r in results if r[0] == 503)
        assert "overloaded" in shed[1]["error"]
        assert shed[2].get("retry-after") == "1"

    def test_shed_requests_succeed_on_client_retry(self, fitted_clf,
                                                   artifact_path):
        injector = _FaultInjector()
        injector.delay_predicts(0.05)
        rows = [[0.3, -0.1]]
        expected = fitted_clf.predict(np.array(rows)).tolist()

        async def one_client(server):
            client = await PredictClient.connect(
                server.host, server.port, retries=8,
                backoff=0.02, max_backoff=0.08,
            )
            try:
                labels = await client.predict(rows)
                return labels, client.n_retries
            finally:
                await client.close()

        async def run():
            async with running_server(
                artifact_path, max_pending=1,
                fault_injector=injector,
            ) as (server, _manager):
                results = await asyncio.gather(
                    *[one_client(server) for _ in range(4)]
                )
                return results, server.n_shed

        results, n_shed = asyncio.run(run())
        assert all(labels == expected for labels, _ in results)
        assert n_shed >= 1  # shedding actually happened...
        assert sum(retries for _, retries in results) >= n_shed  # ...and
        # every shed request was ridden through by a retry.

    def test_deadline_expiry_is_504_and_workspace_survives(
        self, fitted_clf, artifact_path
    ):
        injector = _FaultInjector()
        injector.delay_predicts(0.5)
        rows = [[0.2, 0.2]]

        async def scenario(server, _manager):
            client = await PredictClient.connect(
                server.host, server.port, retries=0
            )
            try:
                status, payload = await client.request(
                    "POST", "/predict", {"x": rows}
                )
                assert status == 504
                assert "deadline" in payload["error"]
                # Clear the fault: the very next request must succeed —
                # the timeout left no inconsistent state behind.
                injector.delay_predicts(0.0)
                labels = await client.predict(rows)
                return labels, server.n_timeouts
            finally:
                await client.close()

        async def run():
            async with running_server(
                artifact_path, request_timeout=0.05,
                fault_injector=injector,
            ) as (server, manager):
                return await scenario(server, manager)

        labels, n_timeouts = asyncio.run(run())
        assert labels == fitted_clf.predict(np.array(rows)).tolist()
        assert n_timeouts == 1

    def test_predictor_failure_is_500_with_error_id(self, fitted_clf,
                                                    artifact_path, caplog):
        injector = _FaultInjector()
        injector.fail_predicts(1)
        rows = [[0.1, 0.1]]

        async def scenario(server, _manager):
            client = await PredictClient.connect(
                server.host, server.port, retries=0
            )
            try:
                status, payload = await client.request(
                    "POST", "/predict", {"x": rows}
                )
                labels = await client.predict(rows)  # healthy again
                return status, payload, labels
            finally:
                await client.close()

        async def run():
            async with running_server(
                artifact_path, fault_injector=injector,
            ) as (server, manager):
                result = await scenario(server, manager)
                return result, server.n_errors

        import logging

        with caplog.at_level(logging.ERROR, logger="repro.serving"):
            (status, payload, labels), n_errors = asyncio.run(run())
        assert status == 500
        assert payload["error_id"]
        assert n_errors == 1
        assert labels == fitted_clf.predict(np.array(rows)).tolist()
        # The error id in the response is findable in the server log.
        assert payload["error_id"] in caplog.text

    def test_genuine_runtime_error_is_500_not_masked_as_drain(
        self, artifact_path
    ):
        """The satellite fix: only the batcher's closed-state error maps
        to 503; a predictor RuntimeError is a real 500."""

        async def scenario(server, manager):
            manager.current.predict = _boom  # type: ignore[method-assign]
            client = await PredictClient.connect(
                server.host, server.port, retries=0
            )
            try:
                status, payload = await client.request(
                    "POST", "/predict", {"x": [[0.0, 0.0]]}
                )
                return status, payload
            finally:
                await client.close()

        def _boom(x):
            raise RuntimeError("kernel exploded")

        async def run():
            async with running_server(artifact_path) as (server, manager):
                return await scenario(server, manager)

        status, payload = asyncio.run(run())
        assert status == 500
        assert "error_id" in payload
        assert "draining" not in payload["error"]

    def test_closed_batcher_is_503_draining(self, artifact_path):
        """The other half of the distinction: the drain race stays 503."""

        async def scenario(server, _manager):
            client = await PredictClient.connect(
                server.host, server.port, retries=0
            )
            try:
                await server.batchers["default"].aclose()
                status, payload = await client.request(
                    "POST", "/predict", {"x": [[0.0, 0.0]]}
                )
                return status, payload
            finally:
                await client.close()

        async def run():
            async with running_server(artifact_path) as (server, manager):
                return await scenario(server, manager)

        status, payload = asyncio.run(run())
        assert status == 503
        assert "draining" in payload["error"]


# ----------------------------------------------------------------------
# readiness vs liveness
# ----------------------------------------------------------------------


class TestReadiness:
    def test_ready_when_serving_not_ready_after_bad_publish(
        self, fitted_clf_v2, artifact_path
    ):
        async def scenario(server, _manager):
            client = await PredictClient.connect(server.host, server.port)
            try:
                ready, _ = await client.readyz()
                assert ready
                corrupt_artifact(artifact_path, "flip-bit")
                status, entry = await client.reload()
                assert status == 409
                assert entry["status"] == "rolled-back"
                ready, body = await client.readyz()
                assert not ready
                assert any("reload failed" in r for r in body["reasons"])
                # /healthz stays a liveness 200 the whole time.
                health = await client.healthz()
                assert health["status"] == "ok"
                assert health["ready"] is False
                # Republish heals readiness.
                fitted_clf_v2.freeze(artifact_path)
                status, entry = await client.reload()
                assert status == 200 and entry["status"] == "swapped"
                ready, _ = await client.readyz()
                assert ready
                return await client.healthz()
            finally:
                await client.close()

        async def run():
            async with running_server(artifact_path) as (server, manager):
                return await scenario(server, manager)

        health = asyncio.run(run())
        assert health["generation"] == 2
        statuses = [e["status"] for e in health["swaps"]]
        assert statuses == ["loaded", "rolled-back", "swapped"]

    def test_draining_server_is_not_ready(self, artifact_path):
        async def scenario(server, _manager):
            client = await PredictClient.connect(server.host, server.port)
            try:
                shutdown = asyncio.ensure_future(server.shutdown(grace=1.0))
                await asyncio.sleep(0.02)
                ready, body = await client.readyz()
                await shutdown
                return ready, body
            finally:
                await client.close()

        async def run():
            async with running_server(artifact_path) as (server, manager):
                return await scenario(server, manager)

        ready, body = asyncio.run(run())
        assert not ready
        assert "draining" in body["reasons"]


# ----------------------------------------------------------------------
# drain semantics on keep-alive sockets (satellite)
# ----------------------------------------------------------------------


class TestDrainSemantics:
    def test_request_after_drain_gets_503_connection_close(
        self, artifact_path
    ):
        """A keep-alive socket established before SIGTERM: its next
        request is answered 503 with ``Connection: close``, then the
        socket is closed."""

        async def scenario(server, _manager):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                # Establish the keep-alive connection with one request.
                body = b'{"x": [[0.0, 0.0]]}'
                head = (
                    "POST /predict HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                writer.write(head + body)
                await writer.drain()
                status_line = await reader.readline()
                assert b"200" in status_line
                headers, length = {}, 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                await reader.readexactly(int(headers["content-length"]))

                # Drain starts while the socket stays open.
                shutdown = asyncio.ensure_future(server.shutdown(grace=2.0))
                await asyncio.sleep(0.02)

                writer.write(head + body)
                await writer.drain()
                status_line = await reader.readline()
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                payload = await reader.readexactly(
                    int(headers["content-length"])
                )
                trailing = await reader.read()  # EOF: server closed it
                await shutdown
                return status_line, headers, payload, trailing
            finally:
                writer.close()
                with contextlib.suppress(
                    ConnectionResetError, BrokenPipeError
                ):
                    await writer.wait_closed()

        async def run():
            async with running_server(artifact_path) as (server, manager):
                return await scenario(server, manager)

        status_line, headers, payload, trailing = asyncio.run(run())
        assert b"503" in status_line
        assert headers["connection"] == "close"
        assert b"draining" in payload
        assert trailing == b""

    def test_bad_request_body_is_flushed_before_close(self, artifact_path):
        """The satellite fix: the 400 response for a malformed request
        line arrives complete, not truncated by the close."""

        async def scenario(server, _manager):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(b"THIS-IS-GARBAGE\r\n\r\n")
                await writer.drain()
                raw = await reader.read()  # everything until server-close
                return raw
            finally:
                writer.close()
                with contextlib.suppress(
                    ConnectionResetError, BrokenPipeError
                ):
                    await writer.wait_closed()

        async def run():
            async with running_server(artifact_path) as (server, manager):
                return await scenario(server, manager)

        raw = asyncio.run(run())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n")[0]
        length = next(
            int(line.split(b":")[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length")
        )
        assert len(body) == length  # the full error body made it out
        assert b"malformed request line" in body


# ----------------------------------------------------------------------
# client resilience
# ----------------------------------------------------------------------


class TestClientResilience:
    def test_reconnects_after_connection_close_response(
        self, fitted_clf, artifact_path
    ):
        injector = _FaultInjector()
        injector.force_close_responses(1)
        rows = [[0.4, -0.3]]
        expected = fitted_clf.predict(np.array(rows)).tolist()

        async def scenario(server, _manager):
            client = await PredictClient.connect(server.host, server.port)
            try:
                first = await client.predict(rows)   # answered, then closed
                assert client.last_headers["connection"] == "close"
                second = await client.predict(rows)  # must reconnect
                return first, second, client.n_reconnects
            finally:
                await client.close()

        async def run():
            async with running_server(
                artifact_path, fault_injector=injector,
            ) as (server, manager):
                return await scenario(server, manager)

        first, second, n_reconnects = asyncio.run(run())
        assert first == expected and second == expected
        assert n_reconnects == 1

    def test_retries_through_dropped_connection(self, fitted_clf,
                                                artifact_path):
        injector = _FaultInjector()
        injector.drop_connections(1)
        rows = [[0.0, 0.5]]
        expected = fitted_clf.predict(np.array(rows)).tolist()

        async def scenario(server, _manager):
            client = await PredictClient.connect(
                server.host, server.port, retries=3,
                backoff=0.01, max_backoff=0.05,
            )
            try:
                labels = await client.predict(rows)
                return labels, client.n_retries
            finally:
                await client.close()

        async def run():
            async with running_server(
                artifact_path, fault_injector=injector,
            ) as (server, manager):
                return await scenario(server, manager)

        labels, n_retries = asyncio.run(run())
        assert labels == expected
        assert n_retries >= 1
        assert injector.n_connection_drops == 1

    def test_non_retryable_status_raises_immediately(self, artifact_path):
        async def scenario(server, _manager):
            client = await PredictClient.connect(
                server.host, server.port, retries=5
            )
            try:
                with pytest.raises(PredictError) as excinfo:
                    await client.predict([[1.0, 2.0, 3.0]])  # bad features
                return excinfo.value.status, client.n_retries
            finally:
                await client.close()

        async def run():
            async with running_server(artifact_path) as (server, manager):
                return await scenario(server, manager)

        status, n_retries = asyncio.run(run())
        assert status == 400
        assert n_retries == 0  # 400 is the caller's bug, not worth retrying


# ----------------------------------------------------------------------
# the acceptance scenario: reload under concurrent load
# ----------------------------------------------------------------------


class TestReloadUnderLoad:
    def test_three_swaps_under_load_zero_failures(
        self, fitted_clf, fitted_clf_v2, artifact_path
    ):
        """3 consecutive artifact swaps (plus one corrupt publish that
        must roll back) while 8 concurrent clients stream predicts:
        zero dropped/failed requests, post-swap predictions bit-identical
        to a fresh FrozenPredictor on the new artifact."""
        gen = np.random.default_rng(7)
        per_client_rows = [
            gen.normal(0.5, 1.2, (3, 2)).tolist() for _ in range(8)
        ]
        expected_v1 = [
            fitted_clf.predict(np.array(rows)).tolist()
            for rows in per_client_rows
        ]
        expected_v2 = [
            fitted_clf_v2.predict(np.array(rows)).tolist()
            for rows in per_client_rows
        ]

        async def client_loop(server, rows, valid, stop):
            client = await PredictClient.connect(
                server.host, server.port, retries=4,
                backoff=0.01, max_backoff=0.05,
            )
            count = 0
            try:
                while not stop.is_set():
                    labels = await client.predict(rows)
                    # Every answer is a complete, correct prediction from
                    # one of the two published models — never a mixture,
                    # never garbage from a half-swapped state.
                    assert labels in valid, (
                        f"unexpected labels {labels} (not v1/v2)"
                    )
                    count += 1
                    await asyncio.sleep(0)
            finally:
                await client.close()
            return count

        async def run():
            async with running_server(
                artifact_path, max_pending=256,
            ) as (server, manager):
                stop = asyncio.Event()
                tasks = [
                    asyncio.ensure_future(
                        client_loop(
                            server, per_client_rows[i],
                            (expected_v1[i], expected_v2[i]), stop,
                        )
                    )
                    for i in range(8)
                ]
                admin = await PredictClient.connect(
                    server.host, server.port
                )
                try:
                    await asyncio.sleep(0.05)  # traffic flowing on v1
                    for version in (fitted_clf_v2, fitted_clf,
                                    fitted_clf_v2):
                        version.freeze(artifact_path)
                        status, entry = await admin.reload()
                        assert status == 200, entry
                        assert entry["status"] == "swapped"
                        await asyncio.sleep(0.05)  # traffic on new model

                    # A corrupt publish under the same load: rolled back,
                    # old model keeps serving, zero predict 5xx.
                    corrupt_artifact(artifact_path, "flip-bit")
                    status, entry = await admin.reload()
                    assert status == 409
                    assert entry["status"] == "rolled-back"
                    await asyncio.sleep(0.05)

                    # Republish to heal before the final parity check.
                    fitted_clf_v2.freeze(artifact_path)
                    status, entry = await admin.reload()
                    assert status == 200

                    stop.set()
                    counts = await asyncio.gather(*tasks)
                    health = await admin.healthz()
                finally:
                    await admin.close()
                server_facts = (
                    server.n_errors, server.n_shed, server.n_timeouts,
                )
                post_swap = manager.predict(
                    np.asarray(per_client_rows[0])
                )
                return counts, health, server_facts, post_swap

        counts, health, (n_errors, n_shed, n_timeouts), post_swap = (
            asyncio.run(run())
        )
        # Zero dropped or failed requests anywhere.
        assert all(count > 0 for count in counts)
        assert n_errors == 0 and n_shed == 0 and n_timeouts == 0
        # 4 successful swaps + 1 rollback, all on the record.
        assert health["generation"] == 5
        statuses = [e["status"] for e in health["swaps"]]
        assert statuses.count("swapped") == 4
        assert statuses.count("rolled-back") == 1
        assert health["ready"] is True
        # Post-swap predictions are bit-identical to a fresh predictor
        # opened on the final artifact.
        with FrozenPredictor.load(artifact_path) as fresh:
            np.testing.assert_array_equal(
                post_swap, fresh.predict(np.asarray(per_client_rows[0]))
            )


# ----------------------------------------------------------------------
# the real CLI: SIGHUP reload end-to-end
# ----------------------------------------------------------------------


class TestReloadCli:
    def test_sighup_swaps_the_model_in_a_live_server(self, moons, tmp_path):
        x, y = moons
        clf_v1 = GranularBallClassifier(rho=5, random_state=0).fit(x, y)
        clf_v2 = GranularBallClassifier(rho=5, random_state=0).fit(x, 1 - y)
        artifact = tmp_path / "model.gba"
        clf_v1.freeze(artifact)
        probe = x[:8]
        expected_v1 = clf_v1.predict(probe).tolist()
        expected_v2 = clf_v2.predict(probe).tolist()

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(artifact),
             "--port", "0", "--poll-interval-s", "600"],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving" in banner, banner
            port = int(
                banner.split("http://")[1].split()[0].rsplit(":", 1)[1]
            )

            async def drive():
                client = await PredictClient.connect("127.0.0.1", port)
                try:
                    assert await client.predict(probe) == expected_v1

                    clf_v2.freeze(artifact)
                    proc.send_signal(signal.SIGHUP)
                    deadline = time.monotonic() + 15
                    while time.monotonic() < deadline:
                        health = await client.healthz()
                        if health["generation"] == 2:
                            break
                        await asyncio.sleep(0.05)
                    assert health["generation"] == 2, health["swaps"]

                    labels = await client.predict(probe)
                    ready, _ = await client.readyz()
                    return labels, ready, health
                finally:
                    await client.close()

            labels, ready, health = asyncio.run(drive())
            assert labels == expected_v2  # the new model is answering
            assert ready
            assert health["swaps"][-1]["reason"] == "sighup"

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "drained cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
