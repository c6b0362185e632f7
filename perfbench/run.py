"""The repo benchmark: one command, three workloads, every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 3 --seconds 20 --trace 1

Workloads (defined in ``workloads.py``): ``grid`` (cold Table II and IV
slices through the parallel executor), ``sample-highdim`` (GBABS on 128 and 256
features) and ``serve-mixed`` (``repro serve`` under 1-row JSON plus
256-row binary traffic).

``--trace 0`` prints the end-to-end metrics.  Every workload reports every
one of them; an *operation* is a grid table slice, a ``fit_resample``
call or a request:

* ``setup_s`` — fresh interpreter until the timed phase can start (imports,
  datasets; for serve-mixed also fit, freeze, server spawn and the first
  ``/readyz`` 200).  Median of several fresh set-ups per run.
* ``run_s`` — timed-phase wall time per unit of work: a cold grid
  regeneration, one pass of the four high-dimensional calls, or 1000
  served requests.
* ``small_p50_ms`` … ``large_p99_ms`` — operation latency by shape.  Grid:
  one cold table-slice regeneration, small = the Table IV slice (16 cells),
  large = the Table II slice (28 cells).  Highdim: one call, small = S12,
  large = S13.  Serve: one request, small = 1-row JSON, large = 256-row
  binary.  Sample counts are printed beside them.
* ``throughput_rps`` — operations per second (grid: cells per second);
  ``rows_per_s`` — input rows per second (a cell counts its dataset's rows).
* ``success_rate`` — share of operations that completed with the right
  answer (pinned digests, oracles, server counters; see ``workloads.py``).
* ``peak_rss_mb`` — peak RSS of the workload process plus its largest
  child (pool worker or server).

``--trace 1`` runs the workload once more with wrappers on the repro
package's public functions and prints the per-layer metrics (self times,
counts, executor/store/serving counters, cold-start imports and the
tracing overhead).  A layer a workload does not call reports 0.  Spans are
written to ``perfbench/out/trace-*.json``, results to
``perfbench/out/result-*.json``, each with the host it ran on.

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import BENCHMARK_JSON, IMPORT_PROBES, OUT, SRC, LineReader, child_env

WORKLOADS_PY = str(Path(__file__).resolve().parent / "workloads.py")
#: Fresh set-ups per run; setup_s is their median.
SETUPS = {"grid": 9, "sample-highdim": 9, "serve-mixed": 5}
#: Seconds after which a run gives up, so that every run ends within three minutes.
DEADLINE = 170.0
IMPORT_REPEATS = 3


class Child:
    """One workload process in its own session, so a kill takes its pool
    workers and server with it."""

    def __init__(self, argv: list[str]):
        self.proc = subprocess.Popen(
            [sys.executable, WORKLOADS_PY, *argv], stdout=subprocess.PIPE,
            env=child_env(), start_new_session=True,
        )
        self.reader = LineReader(self.proc.stdout)

    def line(self, prefix: str, deadline: float) -> str:
        while True:
            raw = self.reader.readline(timeout=deadline - time.monotonic())
            if not raw:
                raise RuntimeError(f"workload exited before printing {prefix!r}")
            text = raw.decode().rstrip("\n")
            if text.startswith(prefix):
                return text[len(prefix):]
            print(text, file=sys.stderr)

    def finish(self, deadline: float) -> None:
        self.reader.read_all(timeout=deadline - time.monotonic())
        code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"workload exited with status {code}")

    def kill(self) -> None:
        """Kill whatever is left of the process group, then reap the child."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def run_child(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a workload process; returns (seconds to READY, RESULT or None)."""
    start = time.perf_counter()
    child = Child(argv)
    try:
        child.line("READY", deadline)
        ready_s = time.perf_counter() - start
        result = None
        if "--setup-only" not in argv:
            result = json.loads(child.line("RESULT ", deadline))
        child.finish(deadline)
        return ready_s, result
    finally:
        child.kill()


def import_probes(deadline: float) -> dict:
    """Cold-start import cost: a fresh interpreter importing each module,
    minus a bare interpreter, median of a few interleaved rounds."""

    def once(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        return time.perf_counter() - start

    times: dict[str, list[float]] = {name: [] for name in ("bare", *IMPORT_PROBES)}
    for _ in range(IMPORT_REPEATS):
        times["bare"].append(once(""))
        for name, module in IMPORT_PROBES.items():
            times[name].append(once(f"import {module}"))
    bare = statistics.median(times.pop("bare"))
    return {name: statistics.median(values) - bare for name, values in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"benchmark: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    deadline = time.monotonic() + DEADLINE
    child_argv = [args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            imports = import_probes(deadline)
            _ready, result = run_child(child_argv, deadline)
            metrics = dict.fromkeys(per_layer, 0.0)
            metrics.update(imports)
            table = per_layer
        else:
            setups = [run_child(child_argv + ["--setup-only"], deadline)[0]
                      for _ in range(SETUPS[args.workload] - 1)]
            ready, result = run_child(child_argv, deadline)
            setups.append(ready)
            metrics = {"setup_s": statistics.median(setups)}
            table = end_to_end
        unknown = set(result["metrics"]) - set(table)
        if unknown:
            raise RuntimeError(f"workload reported unknown metrics {sorted(unknown)}")
        metrics.update(result["metrics"])
        missing = set(table) - set(metrics)
        if missing:
            raise RuntimeError(f"workload did not report {sorted(missing)}")
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    correct = result["failed"] == 0
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"host={json.dumps(result['host'], sort_keys=True)}")
    for note in result["notes"]:
        print(f"# note: {note}")
    samples = result["samples"]
    for name, unit in table.items():
        shape = name.split("_", 1)[0]
        extra = f"  (n={samples[shape]})" if name.endswith(("_p50_ms", "_p99_ms")) else ""
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}{extra}")
    if not correct:
        print(f"# OUTPUT CHECK FAILED: {result['failed']} of {result['attempted']}")
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in table.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {**line, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "samples": samples,
              "notes": result["notes"], "host": result["host"]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
