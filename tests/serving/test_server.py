"""PredictServer over real sockets, plus the ``repro serve`` CLI."""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.serving.client import PredictClient
from repro.serving.router import ModelRouter
from repro.serving.server import PredictServer

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


async def _with_server(artifact_path, scenario, **server_kwargs):
    """Run ``scenario(server)`` against a started in-process server."""
    with ModelRouter.from_specs({"default": artifact_path}) as router:
        server = PredictServer(router, port=0, **server_kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.shutdown()


class TestRoutes:
    def test_predict_parity_over_socket(
        self, fitted_clf, artifact_path, queries
    ):
        async def scenario(server):
            client = await PredictClient.connect(server.host, server.port)
            try:
                return await client.predict(queries)
            finally:
                await client.close()

        labels = asyncio.run(_with_server(artifact_path, scenario))
        np.testing.assert_array_equal(labels, fitted_clf.predict(queries))

    def test_single_sample_row(self, fitted_clf, artifact_path):
        async def scenario(server):
            client = await PredictClient.connect(server.host, server.port)
            try:
                # A flat vector is accepted as one sample.
                return await client.predict([0.25, -0.5])
            finally:
                await client.close()

        labels = asyncio.run(_with_server(artifact_path, scenario))
        expected = fitted_clf.predict(np.array([[0.25, -0.5]]))
        np.testing.assert_array_equal(labels, expected)

    def test_healthz_reports_model_and_stats(self, artifact_path):
        async def scenario(server):
            client = await PredictClient.connect(server.host, server.port)
            try:
                await client.predict([[0.0, 0.0]])
                return await client.healthz()
            finally:
                await client.close()

        payload = asyncio.run(_with_server(artifact_path, scenario))
        assert payload["status"] == "ok"
        assert payload["model"]["n_features"] == 2
        assert payload["model"]["n_balls"] > 0
        assert payload["stats"]["n_http_requests"] >= 1
        assert payload["stats"]["batch"]["n_requests"] >= 1

    def test_healthz_keeps_the_counters_perfbench_reads(self, artifact_path):
        """``perfbench/workloads.py`` reads these keys off ``/healthz``."""

        async def scenario(server):
            client = await PredictClient.connect(server.host, server.port)
            try:
                await client.predict([[0.0, 0.0]])
                return await client.healthz()
            finally:
                await client.close()

        stats = asyncio.run(_with_server(artifact_path, scenario))["stats"]
        batch, admission = stats["batch"], stats["admission"]
        assert batch["n_batches"] == 1
        assert batch["mean_batch_rows"] == 1.0
        assert batch["n_full_flushes"] == 0
        assert admission["pending_high_water"] == 1
        for key in ("n_shed", "n_timeouts", "n_errors"):
            assert admission[key] == 0, key

    def test_unknown_route_is_404(self, artifact_path):
        async def scenario(server):
            client = await PredictClient.connect(server.host, server.port)
            try:
                return await client.request("GET", "/nope")
            finally:
                await client.close()

        status, payload = asyncio.run(_with_server(artifact_path, scenario))
        assert status == 404
        assert "no route" in payload["error"]

    @pytest.mark.parametrize(
        "body",
        [
            b"this is not json",
            b'{"y": [[1, 2]]}',
            b'{"x": []}',
            b'{"x": [[1, 2, 3]]}',  # wrong feature count
        ],
    )
    def test_bad_predict_bodies_are_400(self, artifact_path, body):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            head = (
                "POST /predict HTTP/1.1\r\n"
                "Host: t\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            writer.write(head.encode() + body)
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return int(status_line.split()[1])

        status = asyncio.run(_with_server(artifact_path, scenario))
        assert status == 400

    def test_keep_alive_reuses_one_connection(self, artifact_path):
        async def scenario(server):
            client = await PredictClient.connect(server.host, server.port)
            try:
                for _ in range(5):
                    await client.predict([[0.1, 0.2]])
            finally:
                await client.close()
            return server.stats()

        stats = asyncio.run(_with_server(artifact_path, scenario))
        assert stats["n_http_requests"] == 5


class TestBatchingOverSockets:
    def test_concurrent_clients_coalesce(self, fitted_clf, artifact_path):
        """8 simultaneous clients produce fewer kernel passes than
        requests — the whole point of the micro-batcher."""
        n_clients, n_rounds = 8, 4

        async def one_client(server, rows):
            client = await PredictClient.connect(server.host, server.port)
            try:
                out = []
                for _ in range(n_rounds):
                    out.append(await client.predict(rows))
                return out
            finally:
                await client.close()

        async def scenario(server):
            gen = np.random.default_rng(17)
            per_client = [
                gen.normal(0.5, 1.5, (3, 2)) for _ in range(n_clients)
            ]
            results = await asyncio.gather(
                *[one_client(server, rows) for rows in per_client]
            )
            return per_client, results, server.stats()

        per_client, results, stats = asyncio.run(
            _with_server(artifact_path, scenario)
        )
        for rows, rounds in zip(per_client, results):
            expected = fitted_clf.predict(rows)
            for labels in rounds:
                np.testing.assert_array_equal(labels, expected)
        batch = stats["batch"]
        assert batch["n_requests"] == n_clients * n_rounds
        assert batch["n_batches"] < batch["n_requests"]
        assert batch["max_batch_rows"] > 3


class TestDrain:
    def test_shutdown_rejects_new_predicts(self, artifact_path):
        async def scenario(server):
            client = await PredictClient.connect(server.host, server.port)
            try:
                await client.predict([[0.0, 0.0]])
                await server.shutdown()
                status, payload = await client.request(
                    "POST", "/predict", {"x": [[0.0, 0.0]]}
                )
                return status, payload
            finally:
                await client.close()

        # The keep-alive socket predates the drain, so the request still
        # gets parsed — and refused with 503.
        try:
            status, payload = asyncio.run(
                _with_server(artifact_path, scenario)
            )
        except ConnectionError:
            return  # server closed the idle socket first: also a clean drain
        assert status == 503
        assert "draining" in payload["error"]


class TestServeCli:
    def test_freeze_then_serve_end_to_end(self, moons, tmp_path):
        """The real CLI: ``repro freeze`` then ``repro serve`` in a child
        process, concurrent requests, SIGTERM, clean exit."""
        x, y = moons
        csv = tmp_path / "moons.csv"
        np.savetxt(csv, np.column_stack([x, y.astype(float)]),
                   delimiter=",", fmt="%.10g")
        artifact = tmp_path / "model.gba"
        freeze = subprocess.run(
            [sys.executable, "-m", "repro.cli", "freeze", str(csv),
             "--rho", "5", "--seed", "0", "--out", str(artifact)],
            env=_env(), capture_output=True, text=True, timeout=180,
        )
        assert freeze.returncode == 0, freeze.stderr
        assert artifact.exists()

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(artifact),
             "--port", "0"],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving" in banner, banner
            port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])

            async def fire():
                clients = await asyncio.gather(
                    *[PredictClient.connect("127.0.0.1", port)
                      for _ in range(4)]
                )
                try:
                    rows = [[0.1 * i, -0.2 * i] for i in range(3)]
                    answers = await asyncio.gather(
                        *[c.predict(rows) for c in clients]
                    )
                    health = await clients[0].healthz()
                finally:
                    await asyncio.gather(*[c.close() for c in clients])
                return answers, health

            answers, health = asyncio.run(fire())
            # All clients agree, and the payload is sane label ints.
            assert all(a == answers[0] for a in answers)
            assert len(answers[0]) == 3
            assert health["stats"]["n_http_requests"] >= 5

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "drained cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_serve_missing_artifact_fails_loudly(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             str(tmp_path / "absent.gba")],
            env=_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert "absent.gba" in proc.stderr
