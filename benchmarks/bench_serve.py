"""Serving-path benchmark: artifact loading and micro-batched latency.

Measures the two promises of the freeze/serve split:

* **Load**: opening the mmap-able artifact (``repro freeze`` output) vs
  unpickling the fitted classifier — seconds and bytes for each.  The
  artifact load is header-parse + mmap, so it should stay flat as models
  grow while pickle pays a full deserialising copy.
* **Serve**: p50/p99/mean request latency and throughput over the real
  asyncio HTTP server at 1/8/64 concurrent keep-alive clients.  The
  micro-batcher answers the single-row requests that arrive within one
  event-loop turn with one vectorised kernel pass; the benchmark gates on
  coalescing having happened (fewer kernel passes than requests) at the
  highest concurrency.
* **Wire formats** (``--binary``): the same serving matrix with JSON
  bodies vs binary frames (``application/x-gbaf-batch``) carrying
  multi-row requests — the ``wire_formats`` record in
  ``BENCH_serve.json``.  Gates: binary throughput at least JSON's, and
  binary p50 no worse than JSON's, at the highest concurrency.
* **Multi-model routing** (``--models N``): one server routing N
  independent artifacts with the client fleet split across
  ``/models/<name>/predict`` — the ``multi_model`` record.  Gates: every
  model answered its share, zero server errors.

**Parity is the contract**: before timing anything, frozen predictions are
compared bit-for-bit against ``GranularBallClassifier.predict`` and the
run hard-fails on any difference.

Run as a script for the serving report (written to
``benchmarks/output/serve_bench.txt`` and ``BENCH_serve.json``)::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --requests 500 --size-factor 1.0

Pytest mode runs a small smoke version of the same measurements.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pickle
import platform
import time
from pathlib import Path

import numpy as np

from repro.classifiers.gb_classifier import GranularBallClassifier
from repro.datasets import load_dataset
from repro.serving import FrozenPredictor, PredictorManager
from repro.serving.client import PredictClient
from repro.serving.router import ModelRouter
from repro.serving.server import PredictServer

OUTPUT_DIR = Path(__file__).parent / "output"
#: BENCH_serve.json lives at the repository root so CI can upload it as the
#: serving perf-trajectory artifact.
BENCH_JSON = Path(__file__).parent.parent / "BENCH_serve.json"


# ----------------------------------------------------------------------
# model + parity gate
# ----------------------------------------------------------------------


def build_model(dataset: str = "S5", size_factor: float = 1.0,
                rho: int = 5, seed: int = 0):
    """Fit the classifier the benchmark freezes and serves."""
    x, y = load_dataset(dataset, size_factor=size_factor, random_state=seed)
    clf = GranularBallClassifier(rho=rho, random_state=seed).fit(x, y)
    return clf, x, y


def check_parity(clf, predictor, queries: np.ndarray) -> bool:
    """Bit-identical frozen vs in-memory predictions on several shapes."""
    for batch in (queries, queries[:1], queries[: min(190, len(queries))]):
        if not np.array_equal(clf.predict(batch), predictor.predict(batch)):
            return False
    return True


# ----------------------------------------------------------------------
# load-path comparison: mmap artifact vs pickle
# ----------------------------------------------------------------------


def bench_load(clf, tmp_dir: Path, repeats: int = 20) -> dict:
    """Seconds + bytes for artifact-mmap load vs classifier unpickling."""
    artifact_path = tmp_dir / "bench-model.gba"
    clf.freeze(artifact_path)
    pickle_path = tmp_dir / "bench-model.pkl"
    pickle_path.write_bytes(pickle.dumps(clf, protocol=pickle.HIGHEST_PROTOCOL))

    def _time(fn) -> float:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return float(np.median(samples))

    def _load_artifact():
        FrozenPredictor.load(artifact_path).close()

    def _load_artifact_unverified():
        FrozenPredictor.load(artifact_path, verify=False).close()

    def _load_pickle():
        pickle.loads(pickle_path.read_bytes())

    return {
        "artifact_bytes": artifact_path.stat().st_size,
        "pickle_bytes": pickle_path.stat().st_size,
        "artifact_load_seconds": _time(_load_artifact),
        "artifact_load_seconds_no_verify": _time(_load_artifact_unverified),
        "pickle_load_seconds": _time(_load_pickle),
        "repeats": repeats,
    }


# ----------------------------------------------------------------------
# serving matrix: latency/throughput × concurrency
# ----------------------------------------------------------------------


async def _client_run(host: str, port: int, rows: list,
                      n_requests: int, *, binary: bool = False,
                      model: str | None = None) -> list[float]:
    """One keep-alive client firing sequential requests; returns latencies."""
    client = await PredictClient.connect(host, port, binary=binary,
                                         model=model)
    latencies = []
    try:
        for _ in range(n_requests):
            start = time.perf_counter()
            await client.predict(rows)
            latencies.append(time.perf_counter() - start)
    finally:
        await client.close()
    return latencies


def _latency_record(per_client: list[list[float]], wall: float) -> dict:
    latencies = np.array([lat for client in per_client for lat in client])
    return {
        "n_requests": int(latencies.size),
        "wall_seconds": wall,
        "throughput_rps": latencies.size / wall,
        "latency_ms": {
            "p50": float(np.percentile(latencies, 50) * 1e3),
            "p99": float(np.percentile(latencies, 99) * 1e3),
            "mean": float(latencies.mean() * 1e3),
            "max": float(latencies.max() * 1e3),
        },
    }


async def _measure_async(router: ModelRouter, queries: np.ndarray, *,
                         concurrency: int, requests_per_client: int) -> dict:
    server = PredictServer(router, port=0)
    await server.start()
    try:
        # Every client sends single-row requests (the serving-fleet shape
        # micro-batching exists for), each with its own query point.
        rows = [queries[i % len(queries)].tolist() for i in range(concurrency)]
        start = time.perf_counter()
        per_client = await asyncio.gather(
            *[
                _client_run(server.host, server.port, [rows[i]],
                            requests_per_client)
                for i in range(concurrency)
            ]
        )
        wall = time.perf_counter() - start
        stats = server.stats()
    finally:
        await server.shutdown()
    batch = stats["batch"]
    return {
        "concurrency": concurrency,
        **_latency_record(per_client, wall),
        "batch": {
            "n_batches": batch["n_batches"],
            "mean_batch_rows": batch["mean_batch_rows"],
            "max_batch_rows": batch["max_batch_rows"],
        },
    }


def measure_serving(router: ModelRouter, queries: np.ndarray, *,
                    concurrency: int, requests_per_client: int) -> dict:
    return asyncio.run(
        _measure_async(
            router, queries, concurrency=concurrency,
            requests_per_client=requests_per_client,
        )
    )


# ----------------------------------------------------------------------
# wire formats: JSON float text vs binary frames
# ----------------------------------------------------------------------


async def _measure_wire_async(router: ModelRouter, queries: np.ndarray, *,
                              concurrency: int, requests_per_client: int,
                              rows_per_request: int) -> dict:
    """JSON vs binary predict bodies over one server, same rows.

    Requests carry ``rows_per_request`` rows each — the regime the binary
    frame exists for: past a handful of rows the JSON path spends more
    time on float text than on the kernel.  Before timing, one request
    per format must answer bit-identically (the parity contract extends
    to the wire).
    """
    server = PredictServer(router, port=0)
    await server.start()
    try:
        rows = [
            queries[
                (i * rows_per_request) % len(queries):
            ][:rows_per_request].tolist()
            for i in range(concurrency)
        ]
        # Bit-parity across formats before any timing.
        check_client = await PredictClient.connect(server.host, server.port)
        check_binary = await PredictClient.connect(
            server.host, server.port, binary=True
        )
        try:
            parity = (
                await check_client.predict(rows[0])
                == await check_binary.predict(rows[0])
            )
        finally:
            await check_client.close()
            await check_binary.close()
        if not parity:
            return {"wire_bit_identical": False}

        formats = {}
        for fmt in ("json", "binary"):
            start = time.perf_counter()
            per_client = await asyncio.gather(
                *[
                    _client_run(server.host, server.port, rows[i],
                                requests_per_client,
                                binary=fmt == "binary")
                    for i in range(concurrency)
                ]
            )
            formats[fmt] = _latency_record(
                per_client, time.perf_counter() - start
            )
        n_frames = server.n_binary_requests
    finally:
        await server.shutdown()
    return {
        "concurrency": concurrency,
        "rows_per_request": rows_per_request,
        "wire_bit_identical": True,
        "json": formats["json"],
        "binary": formats["binary"],
        "n_binary_requests": n_frames,
        "binary_vs_json": {
            "rps_ratio": (
                formats["binary"]["throughput_rps"]
                / formats["json"]["throughput_rps"]
            ),
            "p50_ratio": (
                formats["binary"]["latency_ms"]["p50"]
                / formats["json"]["latency_ms"]["p50"]
            ),
        },
    }


def measure_wire_formats(router: ModelRouter, queries: np.ndarray, *,
                         concurrency: int, requests_per_client: int,
                         rows_per_request: int = 64) -> dict:
    return asyncio.run(
        _measure_wire_async(
            router, queries, concurrency=concurrency,
            requests_per_client=requests_per_client,
            rows_per_request=rows_per_request,
        )
    )


def run_wire_benchmark(*, dataset: str = "S5", size_factor: float = 1.0,
                       rho: int = 5, seed: int = 0,
                       concurrency_levels=(1, 8, 64),
                       requests_per_client: int = 50,
                       rows_per_request: int = 64) -> dict:
    """The ``wire_formats`` record: JSON vs binary across concurrency."""
    import tempfile

    clf, x, _y = build_model(dataset, size_factor, rho, seed)
    gen = np.random.default_rng(seed + 1)
    queries = gen.normal(
        x.mean(axis=0), x.std(axis=0) * 1.5, (1024, x.shape[1])
    )
    with tempfile.TemporaryDirectory() as td:
        artifact_path = Path(td) / "wire-model.gba"
        clf.freeze(artifact_path)
        with ModelRouter.from_specs({"default": artifact_path}) as router:
            levels = [
                measure_wire_formats(
                    router, queries, concurrency=concurrency,
                    requests_per_client=requests_per_client,
                    rows_per_request=rows_per_request,
                )
                for concurrency in concurrency_levels
            ]
    top = max(concurrency_levels)
    at_top = next(r for r in levels if r["concurrency"] == top)
    return {
        "rows_per_request": rows_per_request,
        "requests_per_client": requests_per_client,
        "levels": levels,
        "binary_vs_json_at_max_concurrency": {
            "concurrency": top,
            "json_rps": at_top["json"]["throughput_rps"],
            "binary_rps": at_top["binary"]["throughput_rps"],
            "json_p50_ms": at_top["json"]["latency_ms"]["p50"],
            "binary_p50_ms": at_top["binary"]["latency_ms"]["p50"],
            "speedup": at_top["binary_vs_json"]["rps_ratio"],
        },
    }


def format_wire_report(record: dict) -> str:
    lines = [
        f"wire formats — {record['rows_per_request']} rows/request, "
        "JSON vs binary frames",
        f"{'clients':>8s} {'format':>7s} {'p50 [ms]':>9s} {'p99 [ms]':>9s} "
        f"{'req/s':>9s}",
    ]
    for level in record["levels"]:
        for fmt in ("json", "binary"):
            row = level[fmt]
            lat = row["latency_ms"]
            lines.append(
                f"{level['concurrency']:8d} {fmt:>7s} {lat['p50']:9.3f} "
                f"{lat['p99']:9.3f} {row['throughput_rps']:9.0f}"
            )
    gate = record["binary_vs_json_at_max_concurrency"]
    lines.append(
        f"at {gate['concurrency']} clients: binary {gate['binary_rps']:.0f} "
        f"req/s vs JSON {gate['json_rps']:.0f} req/s "
        f"({gate['speedup']:.2f}x), p50 {gate['binary_p50_ms']:.3f} ms vs "
        f"{gate['json_p50_ms']:.3f} ms"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# multi-model routing: one listener, N independent artifacts
# ----------------------------------------------------------------------


async def _measure_multi_model_async(clf, queries: np.ndarray, *,
                                     work_dir: Path, n_models: int,
                                     concurrency: int,
                                     requests_per_client: int) -> dict:
    """A fleet split across ``/models/<name>/predict`` on one server."""
    specs = {}
    for i in range(n_models):
        path = work_dir / f"routed-{i}.gba"
        clf.freeze(path)
        specs[f"m{i}"] = path
    router = ModelRouter.from_specs(specs, "m0", poll_interval=600.0)
    server = PredictServer(router, port=0, max_pending=max(64, concurrency))
    await server.start()
    try:
        rows = [queries[i % len(queries)].tolist() for i in range(concurrency)]
        start = time.perf_counter()
        per_client = await asyncio.gather(
            *[
                _client_run(server.host, server.port, [rows[i]],
                            requests_per_client, model=f"m{i % n_models}")
                for i in range(concurrency)
            ]
        )
        wall = time.perf_counter() - start
        stats = server.stats()
    finally:
        await server.shutdown()
        router.close()
    per_model = {
        name: batch["n_requests"]
        for name, batch in stats["batch_by_model"].items()
    }
    return {
        "n_models": n_models,
        "concurrency": concurrency,
        **_latency_record(per_client, wall),
        "requests_by_model": per_model,
        "server_errors": stats["admission"]["n_errors"],
    }


def measure_multi_model(clf, queries: np.ndarray, *, work_dir: Path,
                        n_models: int, concurrency: int,
                        requests_per_client: int) -> dict:
    return asyncio.run(
        _measure_multi_model_async(
            clf, queries, work_dir=work_dir, n_models=n_models,
            concurrency=concurrency,
            requests_per_client=requests_per_client,
        )
    )


def run_multi_model_benchmark(*, dataset: str = "S5",
                              size_factor: float = 0.5, rho: int = 5,
                              seed: int = 0, n_models: int = 2,
                              concurrency: int = 8,
                              requests_per_client: int = 50) -> dict:
    """The ``multi_model`` record: routed serving over N artifacts."""
    import tempfile

    clf, x, _y = build_model(dataset, size_factor, rho, seed)
    gen = np.random.default_rng(seed + 1)
    queries = gen.normal(
        x.mean(axis=0), x.std(axis=0) * 1.5, (256, x.shape[1])
    )
    with tempfile.TemporaryDirectory() as td:
        return measure_multi_model(
            clf, queries, work_dir=Path(td), n_models=n_models,
            concurrency=concurrency,
            requests_per_client=requests_per_client,
        )


def format_multi_model_report(record: dict) -> str:
    shares = ", ".join(
        f"{name}: {count}"
        for name, count in sorted(record["requests_by_model"].items())
    )
    return (
        f"multi-model: {record['n_models']} models / "
        f"{record['concurrency']} clients — "
        f"{record['n_requests']} requests at "
        f"{record['throughput_rps']:.0f} req/s "
        f"(p50 {record['latency_ms']['p50']:.3f} ms), "
        f"per-model [{shares}], {record['server_errors']} errors"
    )


def run_benchmark(*, dataset: str = "S5", size_factor: float = 1.0,
                  rho: int = 5, seed: int = 0,
                  concurrency_levels=(1, 8, 64),
                  requests_per_client: int = 200,
                  tmp_dir: Path | None = None) -> dict:
    """The full benchmark: load comparison + parity gate + serving matrix."""
    import tempfile

    clf, x, _y = build_model(dataset, size_factor, rho, seed)
    gen = np.random.default_rng(seed + 1)
    queries = gen.normal(
        x.mean(axis=0), x.std(axis=0) * 1.5, (512, x.shape[1])
    )

    with tempfile.TemporaryDirectory() as td:
        work_dir = Path(tmp_dir) if tmp_dir is not None else Path(td)
        load_record = bench_load(clf, work_dir)
        artifact_path = work_dir / "bench-model.gba"
        with FrozenPredictor.load(artifact_path) as predictor:
            if not check_parity(clf, predictor, queries):
                return {"bench": "serve", "bit_identical": False}
        with ModelRouter.from_specs({"default": artifact_path}) as router:
            matrix = [
                measure_serving(
                    router, queries, concurrency=concurrency,
                    requests_per_client=requests_per_client,
                )
                for concurrency in concurrency_levels
            ]

    at_top = next(
        r for r in matrix if r["concurrency"] == max(concurrency_levels)
    )
    return {
        "bench": "serve",
        "dataset": dataset,
        "size_factor": size_factor,
        "rho": rho,
        "n_samples": int(x.shape[0]),
        "n_features": int(x.shape[1]),
        "n_balls": clf.n_balls_,
        "bit_identical": True,
        "load": load_record,
        "serving": matrix,
        "requests_per_client": requests_per_client,
        "coalescing_at_max_concurrency": {
            "concurrency": at_top["concurrency"],
            "n_requests": at_top["n_requests"],
            "n_batches": at_top["batch"]["n_batches"],
        },
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def format_report(record: dict) -> str:
    load = record["load"]
    lines = [
        "Serving benchmark — frozen artifact vs in-memory classifier "
        f"({record['dataset']}, {record['n_samples']} samples -> "
        f"{record['n_balls']} balls)",
        f"bit-identical predictions: {record['bit_identical']}",
        "load: artifact "
        f"{load['artifact_bytes']} B in {load['artifact_load_seconds'] * 1e3:.2f} ms "
        f"({load['artifact_load_seconds_no_verify'] * 1e3:.2f} ms unverified) "
        f"vs pickle {load['pickle_bytes']} B in "
        f"{load['pickle_load_seconds'] * 1e3:.2f} ms",
        f"{'clients':>8s} {'p50 [ms]':>9s} {'p99 [ms]':>9s} "
        f"{'mean':>7s} {'req/s':>9s} {'batches':>8s} {'rows/pass':>9s}",
    ]
    for row in record["serving"]:
        lat, batch = row["latency_ms"], row["batch"]
        lines.append(
            f"{row['concurrency']:8d} {lat['p50']:9.3f} "
            f"{lat['p99']:9.3f} {lat['mean']:7.3f} "
            f"{row['throughput_rps']:9.0f} {batch['n_batches']:8d} "
            f"{batch['mean_batch_rows']:9.2f}"
        )
    gate = record["coalescing_at_max_concurrency"]
    lines.append(
        f"at {gate['concurrency']} clients: {gate['n_requests']} requests "
        f"in {gate['n_batches']} kernel passes"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# reload under load: hot swaps with zero dropped requests
# ----------------------------------------------------------------------


async def _reload_under_load_async(clf_v1, clf_v2, queries: np.ndarray, *,
                                   work_dir: Path, clients: int,
                                   reloads: int, settle: float) -> dict:
    """``reloads`` hot artifact swaps while ``clients`` stream predicts.

    The two classifiers are label-flips of one another, so every query
    distinguishes which model answered: each streaming client asserts its
    labels match exactly one of the two versions, and anything else (an
    exception, a torn response, a half-swapped state) counts as a failed
    request.  Gates downstream: ``failed_requests == 0`` and post-swap
    predictions bit-identical to a fresh predictor on the final artifact.
    """
    artifact_path = work_dir / "reload-model.gba"
    clf_v1.freeze(artifact_path)
    probe = [queries[i % len(queries)].tolist() for i in range(clients)]
    valid = [
        (
            clf_v1.predict(np.array([row])).tolist(),
            clf_v2.predict(np.array([row])).tolist(),
        )
        for row in probe
    ]

    manager = PredictorManager(artifact_path, poll_interval=600.0)
    server = PredictServer(ModelRouter({"default": manager}), port=0,
                           max_pending=max(256, 4 * clients))
    await server.start()
    failed = 0

    async def client_loop(row, ok, stop):
        nonlocal failed
        client = await PredictClient.connect(
            server.host, server.port, retries=4,
            backoff=0.01, max_backoff=0.05,
        )
        count = 0
        try:
            while not stop.is_set():
                try:
                    labels = await client.predict([row])
                    if labels not in ok:
                        failed += 1
                except Exception:
                    failed += 1
                count += 1
                await asyncio.sleep(0)
        finally:
            await client.close()
        return count, client.n_retries

    try:
        stop = asyncio.Event()
        tasks = [
            asyncio.ensure_future(client_loop(probe[i], valid[i], stop))
            for i in range(clients)
        ]
        admin = await PredictClient.connect(server.host, server.port)
        swap_seconds = []
        try:
            await asyncio.sleep(settle)
            for i in range(reloads):
                (clf_v2 if i % 2 == 0 else clf_v1).freeze(artifact_path)
                status, entry = await admin.reload()
                if status != 200 or entry.get("status") != "swapped":
                    raise RuntimeError(f"swap {i + 1} failed: {entry}")
                swap_seconds.append(entry["seconds"])
                await asyncio.sleep(settle)
            stop.set()
            results = await asyncio.gather(*tasks)
        finally:
            await admin.close()
        post_swap = manager.predict(np.array(probe))
        with FrozenPredictor.load(artifact_path) as fresh:
            parity = bool(
                np.array_equal(post_swap, fresh.predict(np.array(probe)))
            )
        stats = server.stats()
    finally:
        await server.shutdown()
        manager.close()

    total = sum(count for count, _ in results)
    return {
        "clients": clients,
        "reloads": reloads,
        "total_requests": total,
        "failed_requests": failed,
        "client_retries": sum(retries for _, retries in results),
        "server_5xx": stats["admission"]["n_errors"],
        "server_shed": stats["admission"]["n_shed"],
        "swap_seconds": {
            "mean": float(np.mean(swap_seconds)),
            "max": float(np.max(swap_seconds)),
        },
        "post_swap_bit_identical": parity,
    }


def measure_reload_under_load(clf_v1, clf_v2, queries: np.ndarray, *,
                              work_dir: Path, clients: int = 8,
                              reloads: int = 3,
                              settle: float = 0.05) -> dict:
    return asyncio.run(
        _reload_under_load_async(
            clf_v1, clf_v2, queries, work_dir=work_dir,
            clients=clients, reloads=reloads, settle=settle,
        )
    )


def run_reload_benchmark(*, dataset: str = "S5", size_factor: float = 0.5,
                         rho: int = 5, seed: int = 0, clients: int = 8,
                         reloads: int = 3) -> dict:
    """Fit v1/v2 (label-flipped twins) and swap under streaming load."""
    import tempfile

    x, y = load_dataset(dataset, size_factor=size_factor, random_state=seed)
    clf_v1 = GranularBallClassifier(rho=rho, random_state=seed).fit(x, y)
    clf_v2 = GranularBallClassifier(rho=rho, random_state=seed).fit(x, 1 - y)
    gen = np.random.default_rng(seed + 1)
    queries = gen.normal(
        x.mean(axis=0), x.std(axis=0) * 1.5, (128, x.shape[1])
    )
    with tempfile.TemporaryDirectory() as td:
        return measure_reload_under_load(
            clf_v1, clf_v2, queries, work_dir=Path(td),
            clients=clients, reloads=reloads,
        )


def format_reload_report(record: dict) -> str:
    swap = record["swap_seconds"]
    return (
        f"reload under load: {record['reloads']} swaps / "
        f"{record['clients']} streaming clients — "
        f"{record['total_requests']} requests, "
        f"{record['failed_requests']} failed, "
        f"{record['client_retries']} retries, "
        f"swap {swap['mean'] * 1e3:.1f} ms mean / "
        f"{swap['max'] * 1e3:.1f} ms max, "
        f"post-swap bit-identical: {record['post_swap_bit_identical']}"
    )


# ----------------------------------------------------------------------
# pytest smoke: small model, short matrix, parity is the contract
# ----------------------------------------------------------------------


def test_frozen_serving_parity_and_shape():
    record = run_benchmark(
        size_factor=0.2, concurrency_levels=(1, 8),
        requests_per_client=25,
    )
    assert record["bit_identical"]
    assert record["load"]["artifact_bytes"] > 0
    assert record["load"]["artifact_load_seconds"] > 0
    assert len(record["serving"]) == 2  # one row per concurrency level
    for row in record["serving"]:
        assert row["n_requests"] == row["concurrency"] * 25
        assert row["latency_ms"]["p50"] <= row["latency_ms"]["p99"]
        assert row["throughput_rps"] > 0
    # Coalescing happened at 8 clients: fewer kernel passes than requests.
    gate = record["coalescing_at_max_concurrency"]
    assert gate["concurrency"] == 8
    assert gate["n_batches"] < gate["n_requests"]


def test_reload_under_load_smoke():
    record = run_reload_benchmark(size_factor=0.1, clients=4, reloads=2)
    assert record["failed_requests"] == 0
    assert record["server_5xx"] == 0
    assert record["post_swap_bit_identical"]
    assert record["total_requests"] > 0
    assert "failed" in format_reload_report(record)


def test_wire_format_comparison_smoke():
    record = run_wire_benchmark(
        size_factor=0.2, concurrency_levels=(1, 4),
        requests_per_client=10, rows_per_request=16,
    )
    assert len(record["levels"]) == 2
    for level in record["levels"]:
        assert level["wire_bit_identical"]
        assert level["json"]["n_requests"] == level["binary"]["n_requests"]
        assert level["n_binary_requests"] >= level["binary"]["n_requests"]
        assert level["binary_vs_json"]["rps_ratio"] > 0
    gate = record["binary_vs_json_at_max_concurrency"]
    assert gate["concurrency"] == 4
    assert "binary" in format_wire_report(record)


def test_multi_model_benchmark_smoke():
    record = run_multi_model_benchmark(
        size_factor=0.1, n_models=2, concurrency=4,
        requests_per_client=10,
    )
    assert record["n_models"] == 2
    assert record["server_errors"] == 0
    assert sorted(record["requests_by_model"]) == ["m0", "m1"]
    # The fleet was split: every model answered its share.
    assert all(
        count == 2 * 10 for count in record["requests_by_model"].values()
    )
    assert "multi-model" in format_multi_model_report(record)


def test_report_and_json_round_trip(tmp_path):
    record = run_benchmark(
        size_factor=0.1, concurrency_levels=(1, 4),
        requests_per_client=10,
    )
    text = format_report(record)
    assert "bit-identical predictions: True" in text
    path = tmp_path / "BENCH_serve.json"
    path.write_text(json.dumps(record, indent=2))
    assert json.loads(path.read_text())["bench"] == "serve"


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="frozen-artifact serving latency/throughput report"
    )
    parser.add_argument("--dataset", default="S5",
                        help="Table-I dataset code to fit (default: S5)")
    parser.add_argument("--size-factor", type=float, default=1.0)
    parser.add_argument("--rho", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=200, metavar="N",
                        help="requests per client (default: 200)")
    parser.add_argument("--concurrency", type=int, nargs="+",
                        default=[1, 8, 64],
                        help="concurrent client counts (default: 1 8 64)")
    parser.add_argument("--reloads", type=int, default=0, metavar="R",
                        help="also run R hot swaps under streaming load "
                             "and gate on zero failed requests "
                             "(default: 0 = skip)")
    parser.add_argument("--reload-clients", type=int, default=8,
                        help="streaming clients for --reloads (default: 8)")
    parser.add_argument("--binary", action="store_true",
                        help="also compare JSON vs binary wire formats and "
                             "gate on binary being no slower at the top "
                             "concurrency")
    parser.add_argument("--rows-per-request", type=int, default=64,
                        help="rows per request in the --binary comparison "
                             "(default: 64)")
    parser.add_argument("--models", type=int, default=0, metavar="N",
                        help="also bench a router serving N models with "
                             "the fleet split across them "
                             "(default: 0 = skip)")
    args = parser.parse_args(argv)

    record = run_benchmark(
        dataset=args.dataset, size_factor=args.size_factor, rho=args.rho,
        seed=args.seed, concurrency_levels=tuple(args.concurrency),
        requests_per_client=args.requests,
    )

    if not record["bit_identical"]:
        print("PARITY FAILURE: frozen predictions differ from the classifier")
        return 1

    report = format_report(record)

    if args.reloads > 0:
        reload_record = run_reload_benchmark(
            dataset=args.dataset, size_factor=args.size_factor,
            rho=args.rho, seed=args.seed, clients=args.reload_clients,
            reloads=args.reloads,
        )
        record["reload_under_load"] = reload_record
        report += "\n" + format_reload_report(reload_record)

    if args.binary:
        wire_record = run_wire_benchmark(
            dataset=args.dataset, size_factor=args.size_factor,
            rho=args.rho, seed=args.seed,
            concurrency_levels=tuple(args.concurrency),
            requests_per_client=max(10, args.requests // 4),
            rows_per_request=args.rows_per_request,
        )
        record["wire_formats"] = wire_record
        report += "\n" + format_wire_report(wire_record)

    if args.models > 1:
        multi_record = run_multi_model_benchmark(
            dataset=args.dataset, size_factor=args.size_factor,
            rho=args.rho, seed=args.seed, n_models=args.models,
            concurrency=max(args.concurrency),
            requests_per_client=max(10, args.requests // 4),
        )
        record["multi_model"] = multi_record
        report += "\n" + format_multi_model_report(multi_record)

    print(report)

    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "serve_bench.txt").write_text(report + "\n")
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[report saved to {OUTPUT_DIR / 'serve_bench.txt'}]")
    print(f"[record saved to {BENCH_JSON}]")

    gate = record["coalescing_at_max_concurrency"]
    if gate["concurrency"] > 1 and gate["n_batches"] >= gate["n_requests"]:
        print(
            f"FAIL: no coalescing at {gate['concurrency']} clients: "
            f"{gate['n_requests']} requests took {gate['n_batches']} "
            "kernel passes"
        )
        return 1
    reload_record = record.get("reload_under_load")
    if reload_record is not None:
        if reload_record["failed_requests"] > 0:
            print(
                f"FAIL: {reload_record['failed_requests']} requests failed "
                f"across {reload_record['reloads']} hot swaps"
            )
            return 1
        if not reload_record["post_swap_bit_identical"]:
            print("FAIL: post-swap predictions differ from a fresh predictor")
            return 1
    wire_record = record.get("wire_formats")
    if wire_record is not None:
        if not all(lv["wire_bit_identical"] for lv in wire_record["levels"]):
            print("FAIL: JSON and binary predictions differ")
            return 1
        wgate = wire_record["binary_vs_json_at_max_concurrency"]
        if wgate["binary_rps"] < wgate["json_rps"]:
            print(
                f"FAIL: binary throughput {wgate['binary_rps']:.0f} req/s "
                f"below JSON {wgate['json_rps']:.0f} req/s at "
                f"{wgate['concurrency']} clients"
            )
            return 1
        if wgate["binary_p50_ms"] > wgate["json_p50_ms"]:
            print(
                f"FAIL: binary p50 {wgate['binary_p50_ms']:.3f} ms above "
                f"JSON p50 {wgate['json_p50_ms']:.3f} ms at "
                f"{wgate['concurrency']} clients"
            )
            return 1
    multi_record = record.get("multi_model")
    if multi_record is not None:
        if multi_record["server_errors"] > 0:
            print(
                f"FAIL: {multi_record['server_errors']} server errors "
                "during the multi-model run"
            )
            return 1
        if len(multi_record["requests_by_model"]) != multi_record["n_models"]:
            print("FAIL: not every routed model answered requests")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
