"""Multi-model routing: isolation, readiness, per-model reload.

The router contract this suite pins:

* **Names route, the default aliases.**  ``POST /models/<name>/predict``
  answers with that model; ``/predict`` is the configured default; an
  unknown name is 404, never a wrong model's answer.
* **Fault domains are per model.**  A corrupt publish of one model rolls
  that model back while its siblings answer every request with zero
  errors; chaos armed against one model's scope touches nothing else.
* **Readiness is conservative.**  ``/readyz`` degrades while *any*
  model's last reload failed — naming the model — and heals when it
  recovers.
* **Reload is addressable.**  ``POST /models/<name>/admin/reload`` (or a
  ``{"model": name}`` body) reloads exactly that model; a bare reload
  fans out to every model and the aggregate status only reads
  ``"swapped"`` when all of them did.
* **The PR 7 acceptance survives multi-model.**  Hot-swapping one model
  under 8 streaming clients drops nothing, the sibling keeps answering
  throughout, and post-swap predictions are bit-identical to a fresh
  predictor on the new artifact.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.classifiers.gb_classifier import GranularBallClassifier
from repro.serving import FrozenPredictor, PredictorManager
from repro.serving.client import PredictClient, PredictError
from repro.serving.faults import _FaultInjector, corrupt_artifact
from repro.serving.router import (
    DEFAULT_MODEL_NAME,
    ModelRouter,
    UnknownModelError,
    validate_model_name,
)
from repro.serving.server import PredictServer

from .test_resilience import _env, _wait_until


@pytest.fixture
def two_model_paths(fitted_clf, fitted_clf_v2, tmp_path):
    """Two frozen artifacts whose predictions disagree on every query."""
    path_a = tmp_path / "alpha.gba"
    path_b = tmp_path / "beta.gba"
    fitted_clf.freeze(path_a)
    fitted_clf_v2.freeze(path_b)
    return path_a, path_b


@contextlib.asynccontextmanager
async def running_router_server(specs, default, **server_kwargs):
    """A started two-model server + its router, torn down cleanly."""
    fault_injector = server_kwargs.pop("fault_injector", None)
    router = ModelRouter.from_specs(
        specs, default, poll_interval=30.0, fault_injector=fault_injector
    )
    server = PredictServer(router, port=0,
                           fault_injector=fault_injector, **server_kwargs)
    await server.start()
    try:
        yield server, router
    finally:
        await server.shutdown()
        await router.stop_watching()
        router.close()


# ----------------------------------------------------------------------
# router unit behaviour (no sockets)
# ----------------------------------------------------------------------


class TestModelNames:
    @pytest.mark.parametrize("name", [
        "default", "fraud-v2", "model.2026_08", "A", "0"
    ])
    def test_valid_names_pass(self, name):
        assert validate_model_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "a/b", "a b", "héllo", ".hidden", "a\nb", "a?b"
    ])
    def test_invalid_names_raise(self, name):
        with pytest.raises(ValueError, match="invalid model name"):
            validate_model_name(name)

    def test_unknown_model_error_names_the_serving_set(self):
        err = UnknownModelError("ghost", ["alpha", "beta"])
        assert "ghost" in str(err)
        assert "alpha, beta" in str(err)
        assert isinstance(err, KeyError)


class TestRouterConstruction:
    def test_single_model_self_defaults(self, artifact_path):
        with ModelRouter.from_specs({"only": artifact_path}) as router:
            assert router.default == "only"
            assert router.get() is router.get("only")

    def test_two_models_require_an_explicit_default(self, two_model_paths):
        path_a, path_b = two_model_paths
        with pytest.raises(ValueError, match="default model is required"):
            ModelRouter.from_specs({"a": path_a, "b": path_b})

    def test_default_must_be_a_served_model(self, two_model_paths):
        path_a, path_b = two_model_paths
        with pytest.raises(ValueError, match="not among the served models"):
            ModelRouter.from_specs({"a": path_a, "b": path_b}, "ghost")

    def test_at_least_one_model(self):
        with pytest.raises(ValueError, match="at least one model"):
            ModelRouter({})

    def test_unknown_lookup_raises(self, artifact_path):
        with ModelRouter.from_specs({"a": artifact_path}) as router:
            with pytest.raises(UnknownModelError):
                router.get("ghost")

    def test_failed_spec_load_raises_and_opens_nothing(self, two_model_paths,
                                                       tmp_path):
        path_a, _ = two_model_paths
        with pytest.raises(FileNotFoundError):
            ModelRouter.from_specs(
                {"a": path_a, "b": tmp_path / "missing.gba"}, "a"
            )

    def test_adopt_wraps_one_manager(self, artifact_path):
        manager = PredictorManager(artifact_path, poll_interval=30.0)
        router = ModelRouter.adopt(manager)
        try:
            assert router.default == DEFAULT_MODEL_NAME
            assert router.get() is manager
            assert len(router) == 1 and "default" in router
        finally:
            router.close()

    def test_names_are_sorted(self, two_model_paths):
        path_a, path_b = two_model_paths
        with ModelRouter.from_specs(
            {"zeta": path_a, "alpha": path_b}, "zeta"
        ) as router:
            assert router.names == ["alpha", "zeta"]


class TestRouterReload:
    def test_single_model_reload_entry_names_the_model(
        self, two_model_paths
    ):
        path_a, path_b = two_model_paths

        async def run():
            with ModelRouter.from_specs(
                {"a": path_a, "b": path_b}, "a"
            ) as router:
                return await router.reload("b")

        entry = asyncio.run(run())
        assert entry["model"] == "b"
        assert entry["status"] == "swapped"

    def test_reload_all_aggregates_conservatively(self, two_model_paths):
        path_a, path_b = two_model_paths

        async def run():
            with ModelRouter.from_specs(
                {"a": path_a, "b": path_b}, "a"
            ) as router:
                all_good = await router.reload()
                corrupt_artifact(path_b, "flip-bit")
                one_bad = await router.reload()
                return all_good, one_bad

        all_good, one_bad = asyncio.run(run())
        assert all_good["status"] == "swapped"
        assert set(all_good["models"]) == {"a", "b"}
        # One failed model poisons the aggregate — a deploy script gating
        # on the top-level status cannot miss a partial failure.
        assert one_bad["status"] == "rolled-back"
        assert one_bad["models"]["a"]["status"] == "swapped"
        assert one_bad["models"]["b"]["status"] == "rolled-back"

    def test_per_model_fault_scope_breaks_only_its_model(
        self, two_model_paths
    ):
        path_a, path_b = two_model_paths
        injector = _FaultInjector()
        injector.for_model("b").fail_loads(1)

        async def run():
            with ModelRouter.from_specs(
                {"a": path_a, "b": path_b}, "a",
                fault_injector=injector,
            ) as router:
                entry_a = await router.reload("a")
                entry_b = await router.reload("b")
                return entry_a, entry_b, router.unhealthy_models()

        entry_a, entry_b, unhealthy = asyncio.run(run())
        assert entry_a["status"] == "swapped"
        assert entry_b["status"] == "rolled-back"
        assert list(unhealthy) == ["b"]
        assert injector.for_model("b").n_load_failures == 1


# ----------------------------------------------------------------------
# routing over sockets
# ----------------------------------------------------------------------


class TestRoutingOverHttp:
    def test_each_name_answers_with_its_own_model(
        self, fitted_clf, fitted_clf_v2, two_model_paths, queries
    ):
        path_a, path_b = two_model_paths
        probe = queries[:16]
        expected_a = fitted_clf.predict(probe).tolist()
        expected_b = fitted_clf_v2.predict(probe).tolist()
        assert expected_a != expected_b  # the label flip guarantees it

        async def run():
            async with running_router_server(
                {"alpha": path_a, "beta": path_b}, "alpha"
            ) as (server, _router):
                client = await PredictClient.connect(
                    server.host, server.port
                )
                bound = await PredictClient.connect(
                    server.host, server.port, model="beta", binary=True
                )
                try:
                    via_default = await client.predict(probe)
                    via_a = await client.predict(probe, model="alpha")
                    via_b = await client.predict(probe, model="beta")
                    via_bound = await bound.predict(probe)
                    health = await client.healthz()
                finally:
                    await client.close()
                    await bound.close()
                return via_default, via_a, via_b, via_bound, health

        via_default, via_a, via_b, via_bound, health = asyncio.run(run())
        assert via_a == expected_a
        assert via_b == expected_b
        assert via_default == expected_a  # /predict aliases the default
        assert via_bound == expected_b    # constructor-bound model, binary
        assert health["default_model"] == "alpha"
        assert sorted(health["models"]) == ["alpha", "beta"]
        assert health["models"]["beta"]["generation"] == 1

    def test_unknown_model_is_404_for_predict_and_reload(
        self, two_model_paths, queries
    ):
        path_a, path_b = two_model_paths

        async def run():
            async with running_router_server(
                {"alpha": path_a, "beta": path_b}, "alpha"
            ) as (server, _router):
                client = await PredictClient.connect(
                    server.host, server.port
                )
                try:
                    with pytest.raises(PredictError) as err:
                        await client.predict(queries[:2], model="ghost")
                    reload_status, reload_body = await client.reload("ghost")
                    bad_path, _ = await client.request(
                        "POST", "/models//predict", {"x": [[0, 0]]}
                    )
                finally:
                    await client.close()
                return err.value, reload_status, reload_body, bad_path

        err, reload_status, reload_body, bad_path = asyncio.run(run())
        assert err.status == 404
        assert "ghost" in str(err)
        assert reload_status == 404
        assert "alpha" in reload_body["error"]  # names the serving set
        assert bad_path == 404

    def test_feature_mismatch_names_the_resolved_model(
        self, two_model_paths
    ):
        path_a, path_b = two_model_paths

        async def run():
            async with running_router_server(
                {"alpha": path_a, "beta": path_b}, "alpha"
            ) as (server, _router):
                client = await PredictClient.connect(
                    server.host, server.port
                )
                try:
                    with pytest.raises(PredictError) as err:
                        await client.predict([[1.0, 2.0, 3.0]], model="beta")
                finally:
                    await client.close()
                return err.value

        err = asyncio.run(run())
        assert err.status == 400
        assert "'beta'" in str(err)


# ----------------------------------------------------------------------
# fault isolation end-to-end
# ----------------------------------------------------------------------


class TestFaultIsolation:
    def test_corrupt_publish_rolls_back_without_touching_the_sibling(
        self, fitted_clf, fitted_clf_v2, two_model_paths, queries
    ):
        path_a, path_b = two_model_paths
        probe = queries[:8]
        expected_a = fitted_clf.predict(probe).tolist()
        expected_b = fitted_clf_v2.predict(probe).tolist()

        async def run():
            async with running_router_server(
                {"alpha": path_a, "beta": path_b}, "alpha"
            ) as (server, _router):
                client = await PredictClient.connect(
                    server.host, server.port
                )
                try:
                    # Corrupt beta's artifact and ask for its reload.
                    corrupt_artifact(path_b, "flip-bit")
                    status, entry = await client.reload("beta")
                    assert status == 409, entry
                    assert entry["status"] == "rolled-back"
                    assert entry["model"] == "beta"

                    # Both models keep answering — beta on its old
                    # predictor, alpha untouched.
                    still_a = await client.predict(probe, model="alpha")
                    still_b = await client.predict(probe, model="beta")

                    # Readiness degrades, naming exactly the broken model.
                    ready, body = await client.readyz()
                    health = await client.healthz()

                    # Republish a good artifact: beta heals.
                    fitted_clf_v2.freeze(path_b)
                    heal_status, heal_entry = await client.reload("beta")
                    ready_after, _ = await client.readyz()
                finally:
                    await client.close()
                return (still_a, still_b, ready, body, health,
                        heal_status, heal_entry, ready_after,
                        server.n_errors)

        (still_a, still_b, ready, body, health, heal_status, heal_entry,
         ready_after, n_errors) = asyncio.run(run())
        assert still_a == expected_a
        assert still_b == expected_b
        assert n_errors == 0  # zero predict 5xx through the whole episode
        assert ready is False
        assert any(
            "beta" in reason and "reload failed" in reason
            for reason in body["reasons"]
        ), body
        assert health["models"]["alpha"]["healthy"] is True
        assert health["models"]["beta"]["healthy"] is False
        assert heal_status == 200
        assert heal_entry["status"] == "swapped"
        assert ready_after is True

    def test_predict_chaos_on_one_model_spares_the_sibling(
        self, fitted_clf, two_model_paths, queries
    ):
        path_a, path_b = two_model_paths
        probe = queries[:4]
        injector = _FaultInjector()
        injector.for_model("beta").fail_predicts(1)

        async def run():
            async with running_router_server(
                {"alpha": path_a, "beta": path_b}, "alpha",
                fault_injector=injector,
            ) as (server, _router):
                client = await PredictClient.connect(
                    server.host, server.port
                )
                try:
                    ok_a = await client.predict(probe, model="alpha")
                    with pytest.raises(PredictError) as err:
                        await client.predict(probe, model="beta")
                    ok_b = await client.predict(probe, model="beta")
                finally:
                    await client.close()
                return ok_a, err.value, ok_b

        ok_a, err, ok_b = asyncio.run(run())
        assert ok_a == fitted_clf.predict(probe).tolist()
        assert err.status == 500  # the armed fault fired on beta only
        assert len(ok_b) == len(probe)  # one-shot: beta healthy again
        assert injector.for_model("beta").n_predict_failures == 1

    def test_watcher_swaps_one_model_independently(
        self, fitted_clf, fitted_clf_v2, two_model_paths, queries
    ):
        path_a, path_b = two_model_paths
        probe = queries[:8]
        expected_swap = fitted_clf.predict(probe).tolist()

        async def run():
            router = ModelRouter.from_specs(
                {"alpha": path_a, "beta": path_b}, "alpha",
                poll_interval=0.05,
            )
            server = PredictServer(router, port=0)
            await server.start()
            await router.start_watching()
            client = await PredictClient.connect(server.host, server.port)
            try:
                # Republish beta as v1 (it was v2): only beta's watcher
                # should pick the change up.
                fitted_clf.freeze(path_b)
                swapped = await _wait_until(
                    lambda: router.get("beta").generation == 2
                )
                labels = await client.predict(probe, model="beta")
                gen_alpha = router.get("alpha").generation
            finally:
                await client.close()
                await server.shutdown()
                await router.stop_watching()
                router.close()
            return swapped, labels, gen_alpha

        swapped, labels, gen_alpha = asyncio.run(run())
        assert swapped
        assert labels == expected_swap
        assert gen_alpha == 1  # alpha never reloaded


# ----------------------------------------------------------------------
# acceptance: hot swap one model under load, sibling unaffected
# ----------------------------------------------------------------------


class TestMultiModelReloadUnderLoad:
    def test_swap_one_model_under_8_clients_sibling_keeps_answering(
        self, fitted_clf, fitted_clf_v2, two_model_paths
    ):
        """The PR 7 acceptance, per model: hot-swap beta under 8
        streaming clients (half of them pinned to alpha), zero failed
        requests anywhere, alpha's answers never change, and beta's
        post-swap predictions are bit-identical to a fresh predictor on
        the new artifact."""
        path_a, path_b = two_model_paths
        gen = np.random.default_rng(11)
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

        async def client_loop(server, model, rows, valid, stop, binary):
            client = await PredictClient.connect(
                server.host, server.port, model=model, binary=binary,
                retries=4, backoff=0.01, max_backoff=0.05,
            )
            count = 0
            try:
                while not stop.is_set():
                    labels = await client.predict(rows)
                    assert labels in valid, (
                        f"model {model}: unexpected labels {labels}"
                    )
                    count += 1
                    await asyncio.sleep(0)
            finally:
                await client.close()
            return count

        async def run():
            async with running_router_server(
                {"alpha": path_a, "beta": path_b}, "alpha",
                max_pending=256,
            ) as (server, router):
                stop = asyncio.Event()
                tasks = []
                for i in range(8):
                    if i % 2 == 0:
                        # Pinned to alpha, which never reloads: exactly
                        # one valid answer the whole run.
                        model, valid = "alpha", (expected_v1[i],)
                    else:
                        # Pinned to beta, which swaps v2 -> v1 mid-run.
                        model, valid = "beta", (expected_v2[i],
                                                expected_v1[i])
                    tasks.append(asyncio.ensure_future(client_loop(
                        server, model, per_client_rows[i], valid, stop,
                        binary=bool(i % 4 == 1),  # mixed wire formats
                    )))
                admin = await PredictClient.connect(
                    server.host, server.port
                )
                try:
                    await asyncio.sleep(0.05)  # traffic flowing

                    # Swap beta (v2 -> v1) under load.
                    fitted_clf.freeze(path_b)
                    status, entry = await admin.reload("beta")
                    assert status == 200, entry
                    assert entry["model"] == "beta"
                    await asyncio.sleep(0.05)

                    # A corrupt beta publish under the same load: rolled
                    # back, sibling untouched, readiness degrades.
                    # (flip-bit: in-place corruption of the live inode
                    # must not disturb the mmap'd pages being served.)
                    corrupt_artifact(path_b, "flip-bit")
                    status, entry = await admin.reload("beta")
                    assert status == 409
                    ready_mid, _ = await admin.readyz()
                    await asyncio.sleep(0.05)

                    # Heal beta before the final parity check.
                    fitted_clf.freeze(path_b)
                    status, _ = await admin.reload("beta")
                    assert status == 200

                    stop.set()
                    counts = await asyncio.gather(*tasks)
                    health = await admin.healthz()
                finally:
                    await admin.close()
                post_swap = router.get("beta").predict(
                    np.asarray(per_client_rows[1])
                )
                facts = (server.n_errors, server.n_shed,
                         server.n_timeouts, ready_mid)
                return counts, health, facts, post_swap

        counts, health, (n_errors, n_shed, n_timeouts, ready_mid), \
            post_swap = asyncio.run(run())
        assert all(count > 0 for count in counts)
        assert n_errors == 0 and n_shed == 0 and n_timeouts == 0
        assert ready_mid is False  # the rollback window degraded /readyz
        beta = health["models"]["beta"]
        alpha = health["models"]["alpha"]
        assert alpha["generation"] == 1  # the sibling never swapped
        assert beta["generation"] == 3   # 2 swaps + 1 rollback
        statuses = [e["status"] for e in beta["swaps"]]
        assert statuses.count("swapped") == 2
        assert statuses.count("rolled-back") == 1
        assert health["ready"] is True
        with FrozenPredictor.load(path_b) as fresh:
            np.testing.assert_array_equal(
                post_swap, fresh.predict(np.asarray(per_client_rows[1]))
            )


# ----------------------------------------------------------------------
# the real CLI: two models, per-model reload, SIGHUP
# ----------------------------------------------------------------------


class TestMultiModelCli:
    def test_two_model_serve_with_per_model_reload_and_sighup(
        self, moons, tmp_path
    ):
        x, y = moons
        clf_v1 = GranularBallClassifier(rho=5, random_state=0).fit(x, y)
        clf_v2 = GranularBallClassifier(rho=5, random_state=0).fit(x, 1 - y)
        path_a = tmp_path / "alpha.gba"
        path_b = tmp_path / "beta.gba"
        clf_v1.freeze(path_a)
        clf_v1.freeze(path_b)
        probe = x[:8]
        expected_v1 = clf_v1.predict(probe).tolist()
        expected_v2 = clf_v2.predict(probe).tolist()

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--model", f"alpha={path_a}", "--model", f"beta={path_b}",
             "--default-model", "alpha",
             "--port", "0", "--poll-interval-s", "600"],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving 2 models" in banner, banner
            assert "default: alpha" in banner
            port = int(
                banner.split("http://")[1].split()[0].rsplit(":", 1)[1]
            )

            async def drive():
                client = await PredictClient.connect(
                    "127.0.0.1", port, binary=True
                )
                try:
                    assert await client.predict(probe) == expected_v1
                    assert await client.predict(
                        probe, model="beta"
                    ) == expected_v1

                    # Per-model admin reload: beta flips to v2, the
                    # default (alpha) must not move.
                    clf_v2.freeze(path_b)
                    status, entry = await client.request(
                        "POST", "/models/beta/admin/reload"
                    )
                    assert status == 200, entry
                    assert await client.predict(
                        probe, model="beta"
                    ) == expected_v2
                    assert await client.predict(probe) == expected_v1

                    # SIGHUP reloads every model: republish alpha as v2
                    # first so the fan-out has something to swap.  The
                    # fan-out swaps one model at a time, so wait for both.
                    clf_v2.freeze(path_a)
                    proc.send_signal(signal.SIGHUP)
                    deadline = time.monotonic() + 15
                    while time.monotonic() < deadline:
                        health = await client.healthz()
                        generations = [health["models"][name]["generation"]
                                       for name in ("alpha", "beta")]
                        if generations == [2, 3]:
                            break
                        await asyncio.sleep(0.05)
                    assert health["models"]["alpha"]["generation"] == 2

                    labels = await client.predict(probe)
                    ready, _ = await client.readyz()
                    return labels, ready, health
                finally:
                    await client.close()

            labels, ready, health = asyncio.run(drive())
            assert labels == expected_v2  # alpha swapped via SIGHUP
            assert ready
            alpha_swaps = health["models"]["alpha"]["swaps"]
            assert alpha_swaps[-1]["reason"] == "sighup"
            # beta's generation: 1 (start) + admin + sighup = 3
            assert health["models"]["beta"]["generation"] == 3

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "drained cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
