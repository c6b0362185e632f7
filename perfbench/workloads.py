"""The benchmark's three workloads, each run in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/workloads.py <workload> --seed N
--seconds S --trace 0|1 [--setup-only]``.  Protocol on stdout: the line
``READY`` once set-up is done (the orchestrator times set-up from process
start to this line), then one ``RESULT <json>`` line.  Diagnostics go to
stderr.

Workloads (inputs derive from ``--seed`` only):

* ``grid`` — cold regeneration of a Table II slice (28 clean cells) and
  then a Table IV slice (16 cells at 20% class noise), each one
  ``ExperimentExecutor(n_jobs=2).run`` as ``run_all`` does per table, into
  one fresh file-backed ``CellStore``: S2, S5, S6, S8 at
  ``size_factor=0.4``, DT, 3x2 stratified CV.  Operation = table slice
  (small = Table IV, large = Table II); throughput counts cells.
* ``sample-highdim`` — ``GBABS.fit_resample`` called in-process on S12@0.2
  (2782x128) and S13@0.2 (1860x256), sampler seeds 0 and 1 each.
  Operation = call.
* ``serve-mixed`` — a ``GranularBallClassifier`` fit on S8@0.5 (dataset and
  model seed 0, whatever ``--seed`` is; the seed draws the traffic), frozen,
  served by ``python -m repro.cli serve`` in its own process; this process
  is the load generator: closed loop, two keep-alive connections, one
  sending 1-row JSON requests, one 256-row binary frames.
  Operation = request.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from harness import OUT, LineReader, child_env, host_info
from tracing import Tracer

PINS = Path(__file__).resolve().parent / "pins.json"

GRID_DATASETS = ("S2", "S5", "S6", "S8")
GRID_CLEAN = ("ori", "gbabs", "ggbs", "srs", "sm", "bsm", "tomek")
GRID_NOISY = ("ori", "gbabs", "ggbs", "srs")
GRID_NOISE = 0.2
GRID_JOBS = 2
#: Cells recomputed serially after the timed phase (parity oracle).
GRID_ORACLE_CELLS = 4

HIGHDIM = ("S12", "S13")  # small, large
HIGHDIM_SIZE = 0.2
HIGHDIM_GBABS_SEEDS = (0, 1)

SERVE_DATASET = ("S8", 0.5)
SMALL_POOL = 1024
LARGE_ROWS = 256
LARGE_POOL = 32


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest waited-for child's (pool worker, server)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def load_pins(workload: str, seed: int) -> list[str] | None:
    if not PINS.exists():
        return None
    return json.loads(PINS.read_text()).get(workload, {}).get(str(seed))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


class Outcome:
    """What one workload run reports back to the orchestrator."""

    def __init__(self):
        self.attempted = 0
        self.failures: set = set()
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, operations, why: str) -> None:
        """Mark operations (hashable ids) failed; one operation counts once."""
        operations = set(operations)
        if operations:
            self.failures |= operations
            self.notes.append(f"{why}: {len(operations)}")

    def latencies(self, small_s, large_s) -> None:
        for shape, values in (("small", small_s), ("large", large_s)):
            ms = [v * 1e3 for v in values]
            self.metrics[f"{shape}_p50_ms"] = percentile(ms, 50)
            self.metrics[f"{shape}_p99_ms"] = percentile(ms, 99)
            self.samples[shape] = len(ms)


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------


class Grid:
    def __init__(self, seed: int, work: Path, tracer: Tracer | None):
        self.seed, self.work, self.tracer = seed, work, tracer
        self._n_stores = 0

    def setup(self) -> None:
        from repro.experiments import runner
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.executor import CellSpec, ExperimentExecutor
        from repro.experiments.store import CellStore

        self.runner, self.Executor, self.CellStore = runner, ExperimentExecutor, CellStore
        self.cfg = ExperimentConfig(
            name="perfbench-grid", size_factor=0.4, datasets=GRID_DATASETS,
            n_splits=3, n_repeats=2, random_state=self.seed,
        )
        self.tables = {
            "table2": [CellSpec(c, m, "dt") for c in GRID_DATASETS for m in GRID_CLEAN],
            "table4": [CellSpec(c, m, "dt", noise_ratio=GRID_NOISE)
                       for c in GRID_DATASETS for m in GRID_NOISY],
        }
        self.specs = [spec for specs in self.tables.values() for spec in specs]
        blocks = {(s.code, s.noise_ratio) for s in self.specs}
        ratio_blocks = {(s.code, s.noise_ratio) for s in self.specs if s.method == "srs"}
        # A cold regeneration writes every cell, dataset and reference ratio.
        self.expected_puts = len(self.specs) + len(blocks) + len(ratio_blocks)

    def regen(self, n_jobs: int) -> dict:
        """One cold regeneration of both table slices into a fresh store."""
        store = self.CellStore(str(self.work / f"store-{self._n_stores}"))
        self._n_stores += 1
        # reference_gbabs_ratio and dataset_with_noise read the process-wide
        # store, not the executor's: without this a second repetition in
        # this process would reuse the first one's datasets and ratios.
        self.runner.configure_store(store=store)
        put_s = [0.0]
        put = store.put

        def timed_put(*args, **kwargs):
            t = time.perf_counter()
            put(*args, **kwargs)
            put_s[0] += time.perf_counter() - t

        store.put = timed_put
        results, walls, stats = [], {}, Counter()
        for table, specs in self.tables.items():
            executor = self.Executor(self.cfg, n_jobs=n_jobs, store=store)
            start = time.perf_counter()
            results += executor.run(specs)
            walls[table] = time.perf_counter() - start
            stats.update(executor.last_stats)
        del store.put
        cold = store.stats["puts"] == self.expected_puts and (
            n_jobs == 1 or store.stats["hits"] == 0
        )
        return {
            "wall": sum(walls.values()), "tables": walls, "results": results,
            "cold": cold, "stats": dict(stats), "store": dict(store.stats),
            "put_s": put_s[0], "rows": self._rows(store),
        }

    def _rows(self, store) -> int:
        """Rows of every cell's dataset, counted once per cell."""
        n = {}
        for s in self.specs:
            if s.code not in n:
                key = self.runner.dataset_key(s.code, self.cfg, s.noise_ratio)
                n[s.code] = store.get("data", key)[0].shape[0]
        return sum(n[s.code] for s in self.specs)

    def digests(self, results) -> list[str]:
        return [
            digest(s.code, s.method, s.noise_ratio,
                   r.metric_values["accuracy"].tobytes(),
                   r.sampling_ratios.tobytes())
            for s, r in zip(self.specs, results)
        ]

    def check(self, out: Outcome, regens: list[dict]) -> None:
        pinned = load_pins("grid", self.seed)
        reference = pinned or self.digests(regens[0]["results"])
        if pinned is None:
            out.notes.append(f"grid: no pinned digests for seed {self.seed}")
        for i, regen in enumerate(regens):
            out.attempted += len(self.specs)
            if not regen["cold"]:
                out.fail(((i, j) for j in range(len(self.specs))),
                         f"grid: repetition {i} was not cold (store stats {regen['store']})")
                continue
            out.fail(
                ((i, j) for j, (a, b) in enumerate(zip(self.digests(regen["results"]), reference))
                 if a != b),
                "grid: cells that differ from the reference digests",
            )
        # Serial recomputation of a few cells: the parallel path must match
        # the serial one float for float.
        import random

        picks = random.Random(self.seed).sample(range(len(self.specs)), GRID_ORACLE_CELLS)
        self.runner.configure_store(store=self.CellStore(None))
        serial = self.Executor(self.cfg, n_jobs=1, store=self.runner.get_store()).run(
            [self.specs[i] for i in picks]
        )
        out.fail(
            ((0, i) for i, r in zip(picks, serial)
             if not regens[0]["results"][i].exactly_equal(r)),
            "grid: cells that differ between serial and parallel",
        )

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        regens = []
        end = time.perf_counter() + seconds
        while not regens or time.perf_counter() < end:
            regens.append(self.regen(GRID_JOBS))
        self.check(out, regens)
        run_s = sum(r["wall"] for r in regens) / len(regens)
        out.metrics["run_s"] = run_s
        out.metrics["throughput_rps"] = len(self.specs) / run_s
        out.metrics["rows_per_s"] = regens[0]["rows"] / run_s
        out.latencies([r["tables"]["table4"] for r in regens],
                      [r["tables"]["table2"] for r in regens])
        out.samples["repetitions"] = len(regens)
        return out

    def trace(self, seconds: float) -> Outcome:
        out = Outcome()
        parallel = self.regen(GRID_JOBS)
        serial = self.regen(1)
        self.tracer.install()
        try:
            traced = self.regen(1)
        finally:
            self.tracer.uninstall()
        self.check(out, [parallel, serial, traced])
        stats, store = parallel["stats"], parallel["store"]
        busy = stats["payload_seconds"] + stats["fold_seconds"]
        out.metrics.update({
            "executor.payload_worker_s": stats["payload_seconds"],
            "executor.fold_worker_s": stats["fold_seconds"],
            "executor.pool_efficiency": busy / (GRID_JOBS * parallel["wall"]),
            "executor.task_bytes": stats["task_bytes"],
            "data_plane.bytes": stats["plane_bytes"],
            "store.puts": store["puts"],
            "store.put_s": parallel["put_s"],
            "store.raw_bytes": store["encoded_raw_bytes"],
            "store.stored_bytes": store["encoded_stored_bytes"],
        })
        out.metrics.update(overhead(serial["wall"], traced["wall"]))
        return out


def overhead(untraced_s: float, traced_s: float) -> dict:
    return {
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }


# ----------------------------------------------------------------------
# sample-highdim
# ----------------------------------------------------------------------


def reference_selection(x, ball_set):
    """Algorithm 2's borderline selection, restated independently.

    Per ball, the members holding each coordinate's maximum and minimum
    (first occurrence, like ``np.argmax``); per axis, the heterogeneous
    adjacent centre pairs after a stable sort contribute the left ball's
    maximum and the right ball's minimum.
    """
    import numpy as np

    m, p = len(ball_set), x.shape[1]
    if m == 1:
        return np.empty(0, dtype=np.intp)
    arg_max = np.empty((m, p), dtype=np.intp)
    arg_min = np.empty((m, p), dtype=np.intp)
    for b in range(m):
        members = ball_set.members_of(b)
        block = x[members]
        arg_max[b] = members[np.argmax(block, axis=0)]
        arg_min[b] = members[np.argmin(block, axis=0)]
    centers, labels = ball_set.centers, ball_set.labels
    selected = set()
    for d in range(p):
        order = np.argsort(centers[:, d], kind="stable")
        het = np.flatnonzero(labels[order][:-1] != labels[order][1:])
        selected.update(arg_max[order[het], d].tolist())
        selected.update(arg_min[order[het + 1], d].tolist())
    return np.array(sorted(selected), dtype=np.intp)


class HighDim:
    def __init__(self, seed: int, work: Path, tracer: Tracer | None):
        self.seed, self.work, self.tracer = seed, work, tracer

    def setup(self) -> None:
        import repro.datasets as datasets
        from repro.core.gbabs import GBABS

        self.GBABS = GBABS
        if self.tracer is not None:
            self.tracer.install()
        self.calls = [
            (code, *datasets.load_dataset(code, HIGHDIM_SIZE, self.seed), gbabs_seed)
            for code in HIGHDIM
            for gbabs_seed in HIGHDIM_GBABS_SEEDS
        ]
        if self.tracer is not None:
            self.tracer.uninstall()

    def one_pass(self) -> dict:
        latencies, samplers = [], []
        start = time.perf_counter()
        for _code, x, y, gbabs_seed in self.calls:
            t = time.perf_counter()
            sampler = self.GBABS(rho=5, random_state=gbabs_seed)
            sampler.fit_resample(x, y)
            latencies.append(time.perf_counter() - t)
            samplers.append(sampler)
        return {"wall": time.perf_counter() - start, "latencies": latencies,
                "samplers": samplers}

    def digests(self, samplers) -> list[str]:
        return [
            digest(code, gbabs_seed, s.sample_indices_.astype("<i8").tobytes())
            for (code, _x, _y, gbabs_seed), s in zip(self.calls, samplers)
        ]

    def check(self, out: Outcome, passes: list[dict]) -> None:
        import numpy as np

        pinned = load_pins("sample-highdim", self.seed)
        reference = pinned or self.digests(passes[0]["samplers"])
        if pinned is None:
            out.notes.append(f"sample-highdim: no pinned digests for seed {self.seed}")
        for i, one in enumerate(passes):
            out.attempted += len(self.calls)
            out.fail(
                ((i, j) for j, (a, b) in enumerate(zip(self.digests(one["samplers"]), reference))
                 if a != b),
                "sample-highdim: calls that differ from the reference digests",
            )
        # Independent checks of the last pass: the balls are pure and
        # disjoint, and the selection matches the restated Algorithm 2.
        last = len(passes) - 1
        bad = []
        for j, ((_code, x, y, _s), sampler) in enumerate(zip(self.calls, passes[last]["samplers"])):
            balls = sampler.ball_set_
            flat = np.concatenate([balls.members_of(b) for b in range(len(balls))])
            pure = all(
                np.all(y[balls.members_of(b)] == balls.labels[b]) for b in range(len(balls))
            )
            if not (pure and np.unique(flat).size == flat.size
                    and np.array_equal(reference_selection(x, balls), sampler.sample_indices_)):
                bad.append((last, j))
        out.fail(bad, "sample-highdim: calls that fail the ball or selection oracle")

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        passes = []
        end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < end:
            passes.append(self.one_pass())
        self.check(out, passes)
        run_s = sum(p["wall"] for p in passes) / len(passes)
        half = len(self.calls) // 2  # S12 calls first, then S13
        small = [lat for p in passes for lat in p["latencies"][:half]]
        large = [lat for p in passes for lat in p["latencies"][half:]]
        out.metrics["run_s"] = run_s
        out.metrics["throughput_rps"] = len(self.calls) / run_s
        out.metrics["rows_per_s"] = sum(c[1].shape[0] for c in self.calls) / run_s
        out.latencies(small, large)
        out.samples["passes"] = len(passes)
        return out

    def trace(self, seconds: float) -> Outcome:
        out = Outcome()
        untraced = self.one_pass()
        self.tracer.install()
        try:
            traced = self.one_pass()
        finally:
            self.tracer.uninstall()
        self.check(out, [untraced, traced])
        out.metrics.update(overhead(untraced["wall"], traced["wall"]))
        return out


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


class ServerProcess:
    """``python -m repro.cli serve`` on an ephemeral port, in its own process."""

    def __init__(self, artifact: Path, work: Path):
        self.log = open(work / "server.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(artifact), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env(),
        )
        self.reader = LineReader(self.proc.stdout)
        banner = self.reader.readline(timeout=60).decode()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if match is None:
            self.kill()
            raise RuntimeError(f"serve printed no address banner: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = time.monotonic() + 60
        while self.get("/readyz")[0] != 200:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.kill()
                raise RuntimeError("serve never became ready")
            time.sleep(0.005)
        self.spawn_to_ready_s = time.perf_counter() - start

    def get(self, path: str) -> tuple[int, bytes]:
        import http.client

        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        except ConnectionError:
            return 0, b""
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return json.loads(body)["stats"]

    def stop(self) -> str | None:
        """SIGTERM and wait; returns why the shutdown was not clean, if so."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            tail = self.reader.read_all(timeout=20)
            code = self.proc.wait(timeout=10)
        except (TimeoutError, subprocess.TimeoutExpired):
            self.kill()
            return "serve hung on SIGTERM"
        finally:
            self.log.close()
        self.proc.stdout.close()
        if code != 0:
            return f"serve exited {code}"
        if b"drained cleanly" not in tail:
            return "serve exited without the 'drained cleanly' line"
        return None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Serve:
    def __init__(self, seed: int, work: Path, tracer: Tracer | None):
        self.seed, self.work, self.tracer = seed, work, tracer
        self.server: ServerProcess | None = None

    def setup(self) -> None:
        import numpy as np

        import repro.datasets as datasets
        from repro.classifiers.gb_classifier import GranularBallClassifier
        from repro.serving.client import PredictClient, PredictError

        self.Client, self.ClientError = PredictClient, PredictError
        if self.tracer is not None:
            self.tracer.install()
        # One fixed model (5710 balls); the seed drives only the traffic, so
        # kernel cost per row does not change from seed to seed.
        code, size = SERVE_DATASET
        x, y = datasets.load_dataset(code, size, 0)
        clf = GranularBallClassifier(rho=5, random_state=0).fit(x, y)
        if self.tracer is not None:
            self.tracer.uninstall()
        self.artifact = self.work / "model.gba"
        start = time.perf_counter()
        clf.freeze(self.artifact)
        self.freeze_s = time.perf_counter() - start
        rng = np.random.default_rng(self.seed)
        scale = 0.1 * x.std(axis=0)

        def draw(n):
            return x[rng.integers(0, x.shape[0], n)] + rng.normal(size=(n, x.shape[1])) * scale

        self.small = [draw(1) for _ in range(SMALL_POOL)]
        self.large = [draw(LARGE_ROWS) for _ in range(LARGE_POOL)]
        self.server = ServerProcess(self.artifact, self.work)

    def close(self) -> str | None:
        if self.server is None:
            return None
        server, self.server = self.server, None
        return server.stop()

    async def _connection(self, client, pool, deadline: float) -> dict:
        latencies, answers, errors = [], [], 0
        i = 0
        while time.perf_counter() < deadline:
            rows = pool[i % len(pool)]
            t = time.perf_counter()
            try:
                labels = await client.predict(rows)
            except (self.ClientError, ConnectionError, OSError,
                    asyncio.IncompleteReadError):
                errors += 1
                answers.append((i % len(pool), None))
            else:
                latencies.append(time.perf_counter() - t)
                answers.append((i % len(pool), labels))
            i += 1
        return {"latencies": latencies, "answers": answers, "errors": errors}

    async def _load(self, seconds: float) -> dict:
        host, port = self.server.host, self.server.port
        small = await self.Client.connect(host, port, retries=0)
        large = await self.Client.connect(host, port, retries=0, binary=True)
        try:
            start = time.perf_counter()
            s, lg = await asyncio.gather(
                self._connection(small, self.small, start + seconds),
                self._connection(large, self.large, start + seconds),
            )
            wall = time.perf_counter() - start
        finally:
            await small.close()
            await large.close()
        return {"wall": wall, "small": s, "large": lg}

    def load(self, seconds: float) -> dict:
        return asyncio.run(self._load(seconds))

    def check(self, out: Outcome, loads: list[dict], stats: dict,
              shutdown_error: str | None) -> None:
        from repro.serving.predictor import FrozenPredictor

        with FrozenPredictor.load(self.artifact) as predictor:
            expected = {
                "small": [predictor.predict(r).tolist() for r in self.small],
                "large": [predictor.predict(r).tolist() for r in self.large],
            }
        for n, load in enumerate(loads):
            for shape in ("small", "large"):
                answers = load[shape]["answers"]
                out.attempted += len(answers)
                out.fail(((n, shape, k) for k, (_i, labels) in enumerate(answers)
                          if labels is None), f"serve-mixed: {shape} requests that failed")
                out.fail(((n, shape, k) for k, (i, labels) in enumerate(answers)
                          if labels is not None and labels != expected[shape][i]),
                         f"serve-mixed: {shape} responses that differ from FrozenPredictor.predict")
        # Every shed, timed-out or failed predict also failed at the client;
        # any excess on /healthz is a failure the client never saw.
        admission = stats["admission"]
        server_side = sum(admission[k] for k in ("n_errors", "n_shed", "n_timeouts"))
        client_side = sum(load[shape]["errors"] for load in loads for shape in ("small", "large"))
        out.fail((("server", k) for k in range(server_side - client_side)),
                 f"serve-mixed: /healthz failures the client did not see ({admission})")
        if shutdown_error is not None:
            out.attempted += 1
            out.fail([("shutdown",)], f"serve-mixed: {shutdown_error}")

    @staticmethod
    def _throughput(load: dict) -> tuple[int, int]:
        n = len(load["small"]["latencies"]) + len(load["large"]["latencies"])
        rows = len(load["small"]["latencies"]) + LARGE_ROWS * len(load["large"]["latencies"])
        return n, rows

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        try:
            load = self.load(seconds)
            stats = self.server.stats()
        finally:
            shutdown_error = self.close()
        self.check(out, [load], stats, shutdown_error)
        n, rows = self._throughput(load)
        out.metrics["throughput_rps"] = n / load["wall"]
        out.metrics["rows_per_s"] = rows / load["wall"]
        out.metrics["run_s"] = 1000.0 * load["wall"] / n  # per 1000 requests
        out.latencies(load["small"]["latencies"], load["large"]["latencies"])
        return out

    def kernel_ms(self, rows, repeats: int) -> float:
        from repro.serving.predictor import FrozenPredictor

        with FrozenPredictor.load(self.artifact) as predictor:
            times = []
            for i in range(repeats):
                batch = rows[i % len(rows)]
                t = time.perf_counter()
                predictor.predict(batch)
                times.append(time.perf_counter() - t)
        return statistics.median(times) * 1e3

    def trace(self, seconds: float) -> Outcome:
        out = Outcome()
        try:
            untraced = self.load(seconds / 2)
            stats = self.server.stats()
            self.tracer.install()
            try:
                traced = self.load(seconds / 2)
            finally:
                self.tracer.uninstall()
        finally:
            shutdown_error = self.close()
        self.check(out, [untraced, traced], stats, shutdown_error)
        batch, admission = stats["batch"], stats["admission"]
        n_binary = len(traced["large"]["answers"])
        wire_s = sum(
            v for k, v in self.tracer.self_seconds().items() if k.startswith("serving.wire.")
        )
        per_k = [1000.0 * load["wall"] / self._throughput(load)[0]
                 for load in (untraced, traced)]
        out.metrics.update({
            "serving.kernel_small_ms": self.kernel_ms(self.small, 2000),
            "serving.kernel_large_ms": self.kernel_ms(self.large, 200),
            "serving.wire_ms": 1e3 * wire_s / max(n_binary, 1),
            "serving.batch.mean_rows": batch["mean_batch_rows"],
            "serving.batch.n_batches": batch["n_batches"],
            "serving.batch.full_flushes": batch["n_full_flushes"],
            "serving.admission.pending_high_water": admission["pending_high_water"],
            "serving.admission.shed": admission["n_shed"],
            "serving.timeouts": admission["n_timeouts"],
            "serving.errors": admission["n_errors"],
        })
        out.metrics.update(overhead(*per_k))
        return out


WORKLOADS = {"grid": Grid, "sample-highdim": HighDim, "serve-mixed": Serve}

#: Span self times reported as per-layer metrics.
SPAN_METRICS = {
    "datasets.load": "datasets.load_s",
    "rdgbg.generate": "rdgbg.generate_s",
    "gbabs.fit_resample": "gbabs.select_s",
    "sampling.ggbs.fit_resample": "sampling.ggbs.fit_resample_s",
    "sampling.srs.fit_resample": "sampling.srs.fit_resample_s",
    "sampling.sm.fit_resample": "sampling.sm.fit_resample_s",
    "sampling.bsm.fit_resample": "sampling.bsm.fit_resample_s",
    "sampling.tomek.fit_resample": "sampling.tomek.fit_resample_s",
    "classifiers.dt.fit": "classifiers.dt.fit_s",
    "classifiers.dt.predict": "classifiers.dt.predict_s",
    "classifiers.gb.fit": "classifiers.gb.fit_s",
    "evaluation.run_fold": "evaluation.run_fold_s",
}


def span_metrics(tracer: Tracer) -> dict:
    self_s, calls, counts = tracer.self_seconds(), tracer.calls(), tracer.counts
    metrics = {metric: self_s.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    metrics["rdgbg.calls"] = calls.get("rdgbg.generate", 0)
    metrics["rdgbg.balls"] = counts.get("rdgbg.balls", 0)
    metrics["rdgbg.noise_removed"] = counts.get("rdgbg.noise_removed", 0)
    metrics["gbabs.het_pairs"] = counts.get("gbabs.het_pairs", 0)
    samples = counts.get("gbabs.samples", 0)
    metrics["gbabs.sampling_ratio"] = counts.get("gbabs.selected", 0) / samples if samples else 0.0
    metrics["evaluation.folds"] = calls.get("evaluation.run_fold", 0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, work, tracer)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            if isinstance(workload, Serve):
                error = workload.close()
                if error is not None:
                    print(error, file=sys.stderr)
                    return 1
            return 0
        if isinstance(workload, Serve):
            setup_extra = {
                "serving.freeze_s": workload.freeze_s,
                "serving.artifact_bytes": workload.artifact.stat().st_size,
                "serving.spawn_to_ready_s": workload.server.spawn_to_ready_s,
            }
        else:
            setup_extra = {}
        out = workload.trace(args.seconds) if args.trace else workload.run(args.seconds)
        if args.trace:
            out.metrics.update(setup_extra)
            out.metrics.update(span_metrics(tracer))
            tracer.write(
                OUT / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed},
            )
        else:
            out.metrics["peak_rss_mb"] = peak_rss_mb()
            out.metrics["success_rate"] = 1.0 - out.failed / out.attempted
    finally:
        if isinstance(workload, Serve):
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "attempted": out.attempted, "failed": out.failed, "metrics": out.metrics,
        "samples": out.samples, "notes": out.notes, "host": host_info(),
    }
    print("RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
